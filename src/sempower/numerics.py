"""Shared numerical kernels.

Gaussian tail function and its inverse (scipy's normal quantile),
midpoint bisection on a predicate, central finite differences, and a small
counter-based random generator used for every stochastic draw in the
package. All routines are deterministic, double precision, and free of
global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _special

from .errors import DomainError

__all__ = [
    "ToleranceConfig",
    "Rng",
    "derive_seed",
    "q_function",
    "q_inverse",
    "normal_pdf",
    "bisect_root",
    "finite_difference",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


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
    """SplitMix64 finaliser on uint64 arrays (Steele, Lea & Flood)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


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


class Rng:
    """Reproducible counter-based pseudo-random generator.

    The raw 64-bit word at absolute position ``k`` of the stream with key
    ``K`` is ``mix64(K + (k + 1) * GOLDEN)`` where ``mix64`` is the
    SplitMix64 finaliser and ``GOLDEN = 0x9E3779B97F4A7C15``; the key is
    ``mix64(seed)``. All integer arithmetic is modulo 2**64, so the word
    stream is bit-identical on every platform. Floating point outputs are
    deterministic for a given platform; across platforms they can differ
    by libm rounding (one ulp in ``log``/``cos``/``sin``).

    Instances are single-owner and advance an internal position; use
    :func:`derive_seed` (or :meth:`spawn`) to hand independent streams to
    parallel consumers.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) % 2**64
        self._key = int(_mix64(np.asarray([self.seed], dtype=np.uint64))[0])
        self._pos = 0

    def _words(self, n: int) -> np.ndarray:
        idx = np.arange(self._pos + 1, self._pos + n + 1, dtype=np.uint64)
        self._pos += n
        return _mix64(np.uint64(self._key) + idx * np.uint64(_GOLDEN))

    def uniform(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on [0, 1), from the top 53 bits per word."""
        return (self._words(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def _uniform_open(self, n: int) -> np.ndarray:
        # (0, 1]: safe under log()
        w = (self._words(n) >> np.uint64(11)) + np.uint64(1)
        return w.astype(np.float64) * 2.0**-53

    def normal(self, n: int) -> np.ndarray:
        """``n`` standard normal deviates via Box-Muller pairs."""
        m = (n + 1) // 2
        u1 = self._uniform_open(m)
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log(u1))
        ang = (2.0 * math.pi) * u2
        return np.concatenate([r * np.cos(ang), r * np.sin(ang)])[:n]

    def exponential(self, n: int) -> np.ndarray:
        """``n`` unit-mean exponential deviates."""
        return -np.log(self._uniform_open(n))

    def bits(self, n: int) -> np.ndarray:
        """``n`` random bits as a uint8 array of 0/1 values."""
        nwords = (n + 63) // 64
        # big-endian view fixes the byte order across platforms
        raw = self._words(nwords).astype(">u8").view(np.uint8)
        return np.unpackbits(raw)[:n]

    def spawn(self, index: int) -> "Rng":
        """A fresh generator on the sub-stream ``index`` of this seed."""
        return Rng(derive_seed(self.seed, index))


# ---------------------------------------------------------------------------
# Gaussian tail function and inverse
# ---------------------------------------------------------------------------


def q_function(x):
    """Upper-tail probability of the standard normal distribution.

    ``Q(x) = P(Z > x) = erfc(x / sqrt(2)) / 2``. Strictly decreasing, with
    range (0, 1); underflows smoothly to 0 for ``x`` beyond about 38.
    Accepts scalars or arrays.
    """
    return 0.5 * _special.erfc(np.asarray(x, dtype=float) / _SQRT2)


def normal_pdf(x):
    """Standard normal density ``exp(-x^2 / 2) / sqrt(2 pi)``."""
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def q_inverse(p):
    """Inverse of :func:`q_function` on the open interval (0, 1).

    ``Q^-1(p) = -ndtri(p)``, the negated standard normal quantile from
    :func:`scipy.special.ndtri`; exact to a few ulps, including deep in
    the lower tail (``p`` down to 1e-300) and on the upper branch, where
    the accuracy is capped at ``ulp(1) / (2 pdf(x))`` by the binary64
    representation of ``p`` itself. Accepts scalars or arrays; negative
    results for ``p > 0.5``, exactly ``+0.0`` at ``p = 0.5``.
    """
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):  # NaN fails both comparisons
        raise DomainError("q_inverse requires 0 < p < 1")
    # ndtri(0.5) is +0.0, so its negation is -0.0; adding +0.0 makes it +0.0.
    x = -_special.ndtri(arr) + 0.0
    return float(x) if arr.ndim == 0 else x


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


def bisect_root(
    below: Callable[[float], bool],
    lo: float,
    hi: float,
    tol: ToleranceConfig | None = None,
) -> tuple[float, int, bool]:
    """Midpoint bisection for the boundary of a monotone predicate.

    ``below(x)`` is True when ``x`` lies below the root on ``[lo, hi]``.
    The ends are never evaluated, so ``below`` may be undefined there;
    the caller vouches that the root lies inside. Returns
    ``(x, steps, converged)``: the bracket midpoint once the width drops
    below ``max(abs_tol, rel_tol * |mid|)``, the number of predicate
    calls, and False when ``max_iter`` steps did not get there (``x`` is
    then the midpoint of the last bracket).
    """
    tol = tol or ToleranceConfig()
    lo, hi = min(lo, hi), max(lo, hi)
    steps = 0
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo < max(tol.abs_tol, tol.rel_tol * abs(mid)):
            return mid, steps, True
        if steps == tol.max_iter:
            return mid, steps, False
        if below(mid):
            lo = mid
        else:
            hi = mid
        steps += 1


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def finite_difference(f, x, step: float):
    """Central-difference derivative estimate.

    For scalar ``x`` returns the scalar derivative ``(f(x+h) - f(x-h)) / 2h``;
    for a vector returns the gradient estimated one coordinate at a time.
    """
    h = float(step)
    if np.ndim(x) == 0:
        x0 = float(x)
        return (f(x0 + h) - f(x0 - h)) / (2.0 * h)
    x0 = np.asarray(x, dtype=float)
    grad = np.empty_like(x0)
    for k in range(x0.size):
        hi = x0.copy()
        lo = x0.copy()
        hi[k] += h
        lo[k] -= h
        grad[k] = (f(hi) - f(lo)) / (2.0 * h)
    return grad
