"""Shared numerical kernels.

Gaussian tail function and its inverse, a bracketed ITP root search on
a signed function (bisection's worst case plus one step, superlinear on
smooth functions), central finite differences, and a small counter-based
random generator used for every stochastic draw in the package. The tail is
``math.erfc`` and its inverse the standard library's normal quantile
(Wichura's AS241), so the package does not need scipy. All
routines are deterministic, double precision, and free of global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "ToleranceConfig",
    "Rng",
    "derive_seed",
    "q_function",
    "q_inverse",
    "bisect_root",
    "finite_difference",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ToleranceConfig:
    """Iteration-control knobs shared by the iterative routines.

    Parameters
    ----------
    abs_tol : float
        Absolute interval tolerance.
    rel_tol : float
        Relative tolerance, scaled by the magnitude of the result.
    max_iter : int
        Hard iteration cap.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-9
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise DomainError(f"abs_tol must be finite and > 0, got {self.abs_tol}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise DomainError(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")


# ---------------------------------------------------------------------------
# Counter-based random generator
# ---------------------------------------------------------------------------

_GOLDEN = 0x9E3779B97F4A7C15  # 2**64 / golden ratio, odd
_SPAWN_ODD = 0xD1B54A32D192ED03


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser on a uint64 array, in place (Steele, Lea & Flood)."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def derive_seed(seed: int, index: int) -> int:
    """Derive the sub-stream seed ``index`` from a master seed.

    Distinct indices map to distinct sub-seeds (the mixing function is a
    bijection on 64-bit words), so parallel consumers can draw from
    statistically disjoint streams.
    """
    z = np.asarray(
        [((int(seed) ^ _GOLDEN) + (2 * int(index) + 1) * _SPAWN_ODD) % 2**64],
        dtype=np.uint64,
    )
    return int(_mix64(z)[0])


def _unit(w: np.ndarray) -> np.ndarray:
    """[0, 1) from the top 53 bits of each word."""
    return (w >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _unit_open(w: np.ndarray) -> np.ndarray:
    """(0, 1] from the top 53 bits of each word: safe under ``log``."""
    return ((w >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53


class Rng:
    """Reproducible counter-based pseudo-random generator.

    The raw 64-bit word at absolute position ``k`` of the stream with key
    ``K`` is ``mix64(K + (k + 1) * GOLDEN)`` where ``mix64`` is the
    SplitMix64 finaliser and ``GOLDEN = 0x9E3779B97F4A7C15``; the key is
    ``mix64(seed)``. All integer arithmetic is modulo 2**64, so the word
    stream is bit-identical on every platform. Floating point outputs are
    deterministic for a given platform; across platforms they can differ
    by libm rounding (one ulp in ``log``/``cos``/``sin``).

    Any part of the stream can be computed directly. :meth:`words_at`,
    :meth:`words_at_positions`, :meth:`bits_at` and :meth:`polar_at`
    take explicit positions and leave the instance unchanged, so threads
    may share one instance and draw disjoint slices in any order. The sequential draws
    (:meth:`normal`, :meth:`exponential`) are the same computation at an
    internal position that each call advances; such an instance is
    single-owner. Use :func:`derive_seed` to hand independent streams to
    parallel consumers.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) % 2**64
        self._key = int(_mix64(np.asarray([self.seed], dtype=np.uint64))[0])
        self._pos = 0

    def _mix_at(self, z: np.ndarray) -> np.ndarray:
        """The words at the uint64 stream positions ``z``, computed in place."""
        # (k + 1) * GOLDEN + K, with the constant GOLDEN + K folded together
        z *= np.uint64(_GOLDEN)
        z += np.uint64((self._key + _GOLDEN) % 2**64)
        return _mix64(z)

    def words_at_positions(self, pos: np.ndarray) -> np.ndarray:
        """The raw uint64 words at the stream positions in ``pos``, any order."""
        return self._mix_at(np.array(pos, dtype=np.uint64))

    def words_at(self, pos: int, n: int) -> np.ndarray:
        """The ``n`` raw uint64 words at stream positions ``pos, ..., pos+n-1``."""
        return self._mix_at(np.arange(pos, pos + n, dtype=np.uint64))

    def bits_at(self, pos: int, n: int) -> np.ndarray:
        """``n`` bits from bit offset ``pos`` as a uint8 array of 0/1 values.

        Bit ``i`` of the stream is bit ``63 - i % 64`` of word ``i // 64``
        (most significant first).
        """
        w0, off = divmod(pos, 64)
        # big-endian view fixes the byte order across platforms
        raw = self.words_at(w0, -(-(off + n) // 64)).astype(">u8").view(np.uint8)
        return np.unpackbits(raw)[off : off + n]

    def polar_at(self, pos1: int, pos2: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Box-Muller radii and angles of ``n`` pairs.

        The radius ``sqrt(-2 log u1)`` takes ``u1`` in (0, 1] from the words
        at ``pos1, ...``; the angle ``2 pi u2`` takes ``u2`` in [0, 1) from
        the words at ``pos2, ...``. ``r cos(ang)`` and ``r sin(ang)`` are two
        independent standard normal deviates.
        """
        return self.polar_of(self.words_at(pos1, n), self.words_at(pos2, n))

    @staticmethod
    def polar_of(w1: np.ndarray, w2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`polar_at`'s radii and angles from radius words ``w1`` and
        angle words ``w2`` already drawn, element by element."""
        return np.sqrt(-2.0 * np.log(_unit_open(w1))), (2.0 * math.pi) * _unit(w2)

    def _words(self, n: int) -> np.ndarray:
        self._pos += n
        return self.words_at(self._pos - n, n)

    def normal(self, n: int) -> np.ndarray:
        """``n`` standard normal deviates via Box-Muller pairs.

        The ``m = ceil(n/2)`` radii come from the next ``m`` words and the
        angles from the ``m`` after; cosines fill the first ``m`` outputs.
        """
        m = (n + 1) // 2
        r, ang = self.polar_at(self._pos, self._pos + m, m)
        self._pos += 2 * m
        return np.concatenate([r * np.cos(ang), r * np.sin(ang)])[:n]

    def exponential(self, n: int) -> np.ndarray:
        """``n`` unit-mean exponential deviates."""
        return -np.log(_unit_open(self._words(n)))


# ---------------------------------------------------------------------------
# Gaussian tail function and inverse
# ---------------------------------------------------------------------------


def _q(x: float) -> float:
    return 0.5 * math.erfc(x / _SQRT2)


_q_many = np.frompyfunc(_q, 1, 1)


def q_function(x):
    """Upper-tail probability of the standard normal distribution.

    ``Q(x) = P(Z > x) = erfc(x / sqrt(2)) / 2`` with ``math.erfc``, which
    agrees with scipy's ``erfc`` to about 1e-13 relative on ``[-5, 38]``.
    Strictly decreasing, with range (0, 1); underflows smoothly to 0 for
    ``x`` beyond about 38. A float comes back as a float; arrays go
    element-wise through the same kernel.
    """
    if isinstance(x, float):
        return _q(x)
    arr = np.asarray(x, dtype=float)
    return _q(float(arr)) if arr.ndim == 0 else _q_many(arr).astype(float)


_quantile = NormalDist().inv_cdf


def _q_inv(p: float) -> float:
    # inv_cdf(0.5) is +0.0, so its negation is -0.0; adding +0.0 makes it +0.0.
    return -_quantile(p) + 0.0


_q_inv_many = np.frompyfunc(_q_inv, 1, 1)


def q_inverse(p):
    """Inverse of :func:`q_function` on the open interval (0, 1).

    ``Q^-1(p) = -Phi^-1(p)``, the negated normal quantile of
    :class:`statistics.NormalDist`, which is Wichura's algorithm AS241
    (Applied Statistics, 1988): rational approximations good to about
    1e-16 relative. It agrees with scipy's ``ndtri`` to 7 ulps over
    ``p`` in ``[1e-300, 0.5]``, so ``Q(Q^-1(p))`` returns ``p`` to well
    inside 1e-8. On the upper branch the accuracy is capped at
    ``ulp(1) / (2 pdf(x))`` by the binary64 representation of ``p``
    itself. Negative results for ``p > 0.5``, exactly ``+0.0`` at
    ``p = 0.5``. A float comes back as a float; arrays are checked in
    one pass and go element-wise through the same kernel.
    """
    if isinstance(p, float):
        if not 0.0 < p < 1.0:  # NaN fails too
            raise DomainError("q_inverse requires 0 < p < 1")
        return _q_inv(p)
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 0:
        return q_inverse(float(arr))
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise DomainError("q_inverse requires 0 < p < 1")
    return _q_inv_many(arr).astype(float)


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


# ITP constants (Oliveira & Takahashi, "An Enhancement of the Bisection
# Method Average Performance Preserving Minmax Optimality", ACM TOMS
# 47(1), 2020): the regula-falsi point is truncated by kappa1 *
# width^kappa2 towards the midpoint, and n0 is the number of steps the
# search may take beyond bisection's count.
_ITP_K1 = 0.1
_ITP_K2 = 2.0
_ITP_N0 = 1


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: ToleranceConfig | None = None,
) -> tuple[float, int, bool]:
    """Bracketed ITP search for the sign change of a monotone function.

    ``f(x) < 0`` when ``x`` lies below the root on ``[lo, hi]`` and
    ``f(x) > 0`` above it; NaN counts as above, and an exact zero is
    returned at once. The ends are never evaluated, so ``f`` may be
    undefined there; the caller vouches that the root lies inside.

    Each step interpolates the two bracket values (regula falsi),
    truncates that point towards the midpoint and projects it to within
    ``r_j = W0 2^(n0 - j - 1) - width / 2`` of the midpoint, ``W0`` being
    the first width, so after ``j`` steps the bracket is at most
    ``W0 2^(n0 - j)`` wide: never more than ``n0 = 1`` step behind
    midpoint bisection, whatever the stopping width. The midpoint is
    taken while a bracket value is unknown or infinite.

    Returns ``(x, steps, converged)``: the bracket midpoint once the
    width drops below ``max(abs_tol, rel_tol * |mid|)`` (or the zero),
    the number of calls to ``f``, and False when ``max_iter`` steps did
    not get there (``x`` is then the midpoint of the last bracket).
    """
    tol = tol or ToleranceConfig()
    lo, hi = min(lo, hi), max(lo, hi)
    f_lo = f_hi = math.nan  # unknown until evaluated
    w0 = hi - lo
    steps = 0
    while True:
        mid = 0.5 * (lo + hi)
        width = hi - lo
        if width < max(tol.abs_tol, tol.rel_tol * abs(mid)):
            return mid, steps, True
        if steps == tol.max_iter:
            return mid, steps, False
        x = mid
        if math.isfinite(f_lo) and math.isfinite(f_hi):
            x_f = lo + width * (f_lo / (f_lo - f_hi))
            sigma = math.copysign(1.0, mid - x_f)
            delta = _ITP_K1 * width**_ITP_K2
            x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
            r = max(math.ldexp(w0, _ITP_N0 - steps - 1) - 0.5 * width, 0.0)
            x = x_t if abs(x_t - mid) <= r else mid - sigma * r
            if not lo < x < hi:
                x = mid
        y = f(x)
        steps += 1
        if y < 0.0:
            lo, f_lo = x, y
        elif y == 0.0:
            return x, steps, True
        else:
            hi, f_hi = x, y


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def finite_difference(f, x: float, step: float) -> float:
    """Central-difference derivative estimate ``(f(x+h) - f(x-h)) / 2h``."""
    x, h = float(x), float(step)
    return (f(x + h) - f(x - h)) / (2.0 * h)
