"""Analytical BER model and its inversions to SNR and symbol power.

The bit error rate of an uncoded stream follows the standard two-
parameter family

    psi(snr) = min(0.5, (a / log2(M)) * Q(sqrt(b * snr)))

with coefficients ``(a, b)`` set by the modulation. Inverting the
monotone branch gives the symbol power needed for a target BER over a
channel state (over a unit link, ``gain = noise_w = 1``, it is the SNR):

    q = sigma^2 / (b * |h|^2) * Qinv(psi * log2(M) / a)^2

Shipped presets (Gray-coded nearest-neighbour approximations; both are
configuration inputs and can be overridden):

    bpsk   M=2,  a=1,   b=2      (exact)
    8qam   M=8,  a=2.5, b=1/3    (4x2 rectangular grid, as simulated)
    16qam  M=16, a=3,   b=0.2    (square QAM: a=4(1-1/sqrt(M)), b=3/(M-1))

The 8qam pair is the leading term of the exact 4x2 Gray BER
``(2 BER_4PAM + BER_2PAM) / 3`` at ``x = sqrt(snr/3)``, so the Monte
Carlo simulator checks all three presets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .channel import ChannelState
from .errors import DomainError
from .numerics import _check_positive, _elementwise, _q, _quantile

__all__ = [
    "ModulationScheme",
    "PRESETS",
    "preset",
    "zero_power_ber",
    "ber_from_snr",
    "power_from_ber",
]

# BERs are clamped to [PSI_FLOOR, 0.5] before inversion so Q^-1 stays finite.
PSI_FLOOR = 1e-15


@dataclass(frozen=True)
class ModulationScheme:
    """Modulation order plus the ``(a, b)`` BER-curve coefficients."""

    name: str
    M: int
    a: float
    b: float

    def __post_init__(self) -> None:
        if self.M < 2 or (self.M & (self.M - 1)) != 0:
            raise DomainError(f"M must be a power of two >= 2, got {self.M}")
        _check_positive(self, "a", "b")

    @property
    def bits_per_symbol(self) -> int:
        return self.M.bit_length() - 1


PRESETS = {
    "bpsk": ModulationScheme("bpsk", 2, 1.0, 2.0),
    "8qam": ModulationScheme("8qam", 8, 2.5, 1.0 / 3.0),
    "16qam": ModulationScheme("16qam", 16, 3.0, 0.2),
}


def preset(name: str) -> ModulationScheme:
    """Look up a shipped scheme by name (case-insensitive)."""
    try:
        return PRESETS[name.lower()]
    except KeyError:
        raise DomainError(
            f"unknown modulation preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None


def zero_power_ber(m: ModulationScheme) -> float:
    """BER at zero allocated power, ``min(0.5, a / (2 log2 M))``.

    This is the top of the invertible branch: errors above it cannot
    occur at any power, below it the BER-power map is strictly monotone.
    """
    return _inversion(m).top


def _ber(m: ModulationScheme, snr_value: float) -> float:
    """:func:`ber_from_snr`'s float kernel; the solvers call it directly."""
    if not 0.0 <= snr_value < math.inf:  # NaN fails too
        raise DomainError("snr must be finite and >= 0")
    psi = (m.a / m.bits_per_symbol) * _q(math.sqrt(snr_value * m.b))
    return psi if psi < 0.5 else 0.5  # min(psi, 0.5), without the call


def ber_from_snr(m: ModulationScheme, snr_value):
    """BER at a given (linear) SNR; clamped to at most 0.5.

    Strictly decreasing in ``snr`` wherever below the clamp. Floats or
    arrays (:func:`~sempower.numerics._elementwise`).
    """
    return _elementwise(partial(_ber, m), snr_value)


class _Inversion(NamedTuple):
    """The constants of the BER inversion on one link, computed once."""

    name: str  # the modulation's, for the error message
    top: float  # zero_power_ber
    g: float  # log2(M) / a
    b: float
    k: float  # noise_w / gain; 1.0 gives the SNR


def _inversion(m: ModulationScheme, k: float = 1.0) -> _Inversion:
    bits = m.M.bit_length() - 1  # bits_per_symbol, without the property
    top = 0.5 * m.a / bits
    return _Inversion(m.name, top if top < 0.5 else 0.5, bits / m.a, m.b, k)  # min(0.5, top)


def _power(c: _Inversion, psi: float) -> float:
    """``x * x / b * k`` with ``x = -Qinv(max(psi, PSI_FLOOR) g)``, the normal quantile.

    The float kernel of :func:`power_from_ber`; the solvers build ``c``
    once per stream and call it directly. With ``psi`` in ``(0, top]``
    the argument of ``Qinv`` lies in ``(0, 0.5]``.
    """
    name, top, g, b, k = c
    if not 0.0 < psi <= top:  # NaN fails too
        raise DomainError(f"target BER must lie in (0, {top:g}] for {name}; larger values "
                          "are met at zero power")
    x = _quantile((PSI_FLOOR if PSI_FLOOR > psi else psi) * g)
    return x * x / b * k


def power_from_ber(m: ModulationScheme, state: ChannelState, psi):
    """Symbol power (watts) achieving BER ``psi`` over ``state``.

    Equal to ``sigma^2 / (b |h|^2) * Qinv(psi log2(M) / a)^2``; zero at
    the zero-power boundary BER and increasing without bound as
    ``psi -> 0``. Floats or arrays.
    """
    return _elementwise(partial(_power, _inversion(m, state.noise_w / state.gain)), psi)
