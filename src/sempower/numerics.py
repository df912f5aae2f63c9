"""Shared numerical kernels.

Gaussian tail function and its inverse, a bracketed ITP root search on
a signed function (bisection's worst case plus one step, superlinear on
smooth functions, Newton given the derivative, from an end value the
caller has), central finite differences, and a small counter-based
random generator used for every stochastic draw in the package. The
tail is ``math.erfc`` and its inverse the standard library's normal
quantile (Wichura's AS241). A public function of a float or an array
is a float kernel lifted by :func:`_elementwise`, so each array element
is bit-identical to the float result. The package does not need scipy.
All routines are deterministic, double precision, and free of global
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import _normal_dist_inv_cdf
from typing import Callable

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


class _Numpy:
    """numpy, imported when the first attribute is looked up.

    Each name is fetched from numpy once and kept on the instance, so
    every later lookup is a plain attribute hit. Dunder names are
    refused, so that introspection does not load numpy.
    """

    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()


def _elementwise(kernel: Callable[..., float], *args, nout: int = 1):
    """``kernel(*args)`` on floats; otherwise element by element on broadcast float arrays.

    Each element goes through the kernel as Python floats, so it is
    bit-identical to the float call. A 0-d result comes back as a float
    (``nout`` of them when the kernel returns ``nout`` values).
    """
    for a in args:
        if type(a) is not float:  # a numpy scalar too: its arithmetic warns where a float's raises
            break
    else:
        return kernel(*args)
    # the kernels handle overflow and invalid values, whose flags numpy would warn about
    with np.errstate(all="ignore"):
        out = np.frompyfunc(kernel, len(args), nout)(*(np.asarray(a, dtype=float) for a in args))
    outs = tuple(float(o) if np.ndim(o) == 0 else o.astype(float)
                 for o in (out if nout > 1 else (out,)))
    return outs if nout > 1 else outs[0]


def _check_positive(obj, *names: str) -> None:
    """Raise :class:`DomainError` on the first field of ``obj`` in ``names`` not finite and > 0."""
    for name in names:
        v = getattr(obj, name)
        if not (math.isfinite(v) and v > 0.0):  # NaN and +-inf fail too
            raise DomainError(f"{name} must be finite and > 0, got {v}")


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
        _check_positive(self, "abs_tol", "rel_tol")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")


# ---------------------------------------------------------------------------
# Counter-based random generator
# ---------------------------------------------------------------------------

_GOLDEN = 0x9E3779B97F4A7C15  # 2**64 / golden ratio, odd
_SPAWN_ODD = 0xD1B54A32D192ED03
_MASK64 = 2**64 - 1


def _mix64_int(z: int) -> int:
    """SplitMix64 finaliser (Steele, Lea & Flood) on one word in ``[0, 2**64)``."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
    return z ^ z >> 31


def _mix64(z: np.ndarray) -> np.ndarray:
    """:func:`_mix64_int` on a uint64 array, in place."""
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
    return _mix64_int(((int(seed) ^ _GOLDEN) + (2 * int(index) + 1) * _SPAWN_ODD) & _MASK64)


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

    Every draw is a pure function of the seed and the explicit stream
    positions it is given, so any part of the stream can be computed
    directly, and threads may share one instance and draw disjoint
    slices in any order. Use :func:`derive_seed` to hand independent
    streams to parallel consumers.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) % 2**64
        self._key = _mix64_int(self.seed)

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

    def normal_at(self, pos: int, n: int) -> np.ndarray:
        """``n`` standard normal deviates via Box-Muller pairs.

        The ``m = ceil(n/2)`` radii come from the words at ``pos, ...`` and
        the angles from the ``m`` after; cosines fill the first ``m`` outputs.
        """
        m = (n + 1) // 2
        r, ang = self.polar_at(pos, pos + m, m)
        return np.concatenate([r * np.cos(ang), r * np.sin(ang)])[:n]

    def exponential_at(self, pos: int, n: int) -> np.ndarray:
        """``n`` unit-mean exponential deviates from the words at ``pos, ..., pos+n-1``."""
        return -np.log(_unit_open(self.words_at(pos, n)))


# ---------------------------------------------------------------------------
# Gaussian tail function and inverse
# ---------------------------------------------------------------------------


def _q(x: float) -> float:
    return 0.5 * math.erfc(x / _SQRT2)


def q_function(x):
    """Upper-tail probability of the standard normal distribution.

    ``Q(x) = P(Z > x) = erfc(x / sqrt(2)) / 2`` with ``math.erfc``, which
    agrees with scipy's ``erfc`` to about 1e-13 relative on ``[-5, 38]``.
    Strictly decreasing, with range (0, 1); underflows smoothly to 0 for
    ``x`` beyond about 38. Floats or arrays (:func:`_elementwise`).
    """
    return _elementwise(_q, x)


def _quantile(p: float) -> float:
    """The standard normal quantile of ``p`` in (0, 1): the standard library's AS241."""
    return _normal_dist_inv_cdf(p, 0.0, 1.0)


def _q_inverse(p: float) -> float:
    if not 0.0 < p < 1.0:  # NaN fails too
        raise DomainError("q_inverse requires 0 < p < 1")
    # inv_cdf(0.5) is +0.0, so its negation is -0.0; adding +0.0 makes it +0.0.
    return -_quantile(p) + 0.0


def q_inverse(p):
    """Inverse of :func:`q_function` on the open interval (0, 1).

    ``Q^-1(p) = -Phi^-1(p)``, the negated normal quantile of Wichura's
    algorithm AS241 (Applied Statistics, 1988): rational approximations
    good to about 1e-16 relative. It agrees with scipy's ``ndtri`` to
    7 ulps over ``p`` in ``[1e-300, 0.5]``, so ``Q(Q^-1(p))`` returns
    ``p`` to well inside 1e-8. On the upper branch the accuracy is
    capped at ``ulp(1) / (2 pdf(x))`` by the binary64 representation of
    ``p`` itself. Negative results for ``p > 0.5``, exactly ``+0.0`` at
    ``p = 0.5``. The kernel is the AS241 behind
    :class:`statistics.NormalDist`'s ``inv_cdf``; floats or arrays
    (:func:`_elementwise`).
    """
    return _elementwise(_q_inverse, p)


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
# A Newton step taken while the far end's value is unknown lands this
# much further than the predicted root, relative to its length, so that
# a step from one side of a convex function still crosses the root.
_NEWTON_PAST = 1.0 + 2.0**-10


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: ToleranceConfig | None = None,
    f_lo: float = math.nan,
    f_hi: float = math.nan,
    df: Callable[[float], float] | None = None,
) -> tuple[float, int, bool]:
    """Bracketed ITP search for the sign change of a monotone function.

    ``f(x) < 0`` when ``x`` lies below the root on ``[lo, hi]`` and
    ``f(x) > 0`` above it; NaN counts as above, and an exact zero is
    returned at once. The ends are never evaluated, so ``f`` may be
    undefined there; the caller vouches that the root lies inside (and
    may pass ``f_lo`` or ``f_hi``, a value it has at an end: an exact zero
    there returns that end after 0 steps, and a value on the wrong side
    of zero raises :class:`DomainError`).

    Each step interpolates the bracket values (regula falsi) and
    truncates towards the midpoint by ``0.1 width^2``, or by 1/16 of the
    stopping width if more, so a point next to the root crosses it.
    Given ``df(x)``, the derivative at the last point called (at the
    known end before the first call; it may read what that call cached),
    a Newton step from that point replaces regula falsi, untruncated and
    an eighth of the stopping width past the predicted root; while the
    far end's value is unknown it lands 2^-10 of its length further, so
    that a step from the convex side crosses too. Otherwise, while a
    bracket value is infinite or unknown, the midpoint is taken. Every
    point is projected to within ``r_j = W0 2^(n0 - j - 1) - width / 2``
    of the midpoint (``W0`` the first width), so after ``j`` steps the
    bracket is at most ``W0 2^(n0 - j)`` wide: never more than
    ``n0 = 1`` step behind midpoint bisection, whatever the estimate or
    the stopping width.

    Returns ``(x, steps, converged)``: the bracket midpoint once the width
    drops below ``max(abs_tol, rel_tol * |mid|)`` or the ends are adjacent
    floats, the number of calls to ``f``, and False when ``max_iter``
    steps did not get there (``x``: the last midpoint).
    """
    if f_lo > 0.0 or f_hi < 0.0:
        raise DomainError(f"end values {f_lo!r} at {lo!r} and {f_hi!r} at {hi!r} do not "
                          "bracket a sign change from below to above")
    if f_lo == 0.0 or f_hi == 0.0:
        return (lo if f_lo == 0.0 else hi), 0, True
    tol = tol or ToleranceConfig()
    abs_tol, rel_tol, max_iter = tol.abs_tol, tol.rel_tol, tol.max_iter
    last, y = (lo, f_lo) if f_lo == f_lo else (hi, f_hi)  # y = f(last)
    w0, steps = hi - lo, 0
    isfinite, copysign, ldexp = math.isfinite, math.copysign, math.ldexp
    # Two-argument min/max cost more than the arithmetic of a step, so
    # the loop spells them out as comparisons.
    while True:
        mid = 0.5 * (lo + hi)
        width = hi - lo
        stop = rel_tol * abs(mid)
        stop = abs_tol if abs_tol > stop else stop
        if width < stop:
            return mid, steps, True
        if steps == max_iter:
            return mid, steps, False
        r = ldexp(w0, _ITP_N0 - steps - 1) - 0.5 * width
        r = 0.0 if r < 0.0 else r
        x = mid
        if df and isfinite(y) and (d := df(last)) > 0.0:
            past = 1.0 if f_lo == f_lo and f_hi == f_hi else _NEWTON_PAST
            x = last - past * y / d - copysign(0.125 * stop, y)  # Newton, past the root
        elif isfinite(f_lo) and isfinite(f_hi):
            x_f = lo + width * (f_lo / (f_lo - f_hi))
            delta = _ITP_K1 * width**_ITP_K2
            delta = 0.0625 * stop if 0.0625 * stop > delta else delta
            x = x_f + copysign(delta, mid - x_f) if delta <= abs(mid - x_f) else mid
        x = x if abs(x - mid) <= r else mid + copysign(r, x - mid)
        if not lo < x < hi:
            if not lo < mid < hi:  # adjacent floats: nothing left inside to evaluate
                return mid, steps, True
            x = mid
        y, last = f(x), x
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
