"""Quasi-static fading channel with log-distance path loss.

The link gain of stream ``i`` is ``|h_i|^2 = PL * |h~_i|^2`` where
``PL = 10^(h0_db/10) * (d/d0)^(-alpha)`` is the path loss and
``|h~_i|^2`` a unit-mean Rayleigh fading power (exponential). The gain is
held fixed for a whole transmission, so every symbol of a stream sees the
same SNR ``q * |h|^2 / sigma^2``.

Sign convention: the configuration stores a positive exponent ``alpha``
and the model applies ``(d/d0)^(-alpha)``, so larger distances always
attenuate. With ``h0_db = -30``, ``d = 100``, ``d0 = 1`` and
``alpha = 3.4`` the total path loss is -98 dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .numerics import Rng, _check_positive, np

__all__ = [
    "ChannelParams",
    "ChannelState",
    "path_loss_linear",
    "make_channel_state",
    "sample_fading",
    "snr",
    "dbm_to_watt",
]


@dataclass(frozen=True)
class ChannelParams:
    """Geometry and noise figures of one link.

    ``h0_db`` path loss at the reference distance (dB), ``d_m`` link
    distance, ``d0_m`` reference distance, ``alpha`` positive path-loss
    exponent, ``noise_dbm`` noise power in dBm.
    """

    h0_db: float
    d_m: float
    d0_m: float
    alpha: float
    noise_dbm: float

    def __post_init__(self) -> None:
        for name in ("h0_db", "d_m", "d0_m", "alpha", "noise_dbm"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.d_m <= 0.0:
            raise DomainError(f"d_m must be > 0, got {self.d_m}")
        if self.d0_m <= 0.0:
            raise DomainError(f"d0_m must be > 0, got {self.d0_m}")
        if self.alpha < 0.0:
            # alpha == 0 is the degenerate distance-free case; negative
            # exponents would amplify with distance and are rejected.
            raise DomainError(f"alpha must be >= 0, got {self.alpha}")
        if not _finite_positive(path_loss_linear, self):
            raise DomainError(f"h0_db, d_m, d0_m and alpha give a path loss outside (0, inf): {self}")
        if not _finite_positive(dbm_to_watt, self.noise_dbm):
            raise DomainError(f"noise_dbm={self.noise_dbm} gives a noise power outside (0, inf) W")


@dataclass(frozen=True)
class ChannelState:
    """One realised link: linear power gain, noise power, fading factor.

    ``gain`` is ``path_loss * fading``; the invariant is validated when
    states are built through :func:`make_channel_state`.
    """

    gain: float
    noise_w: float
    fading: float = 1.0

    def __post_init__(self) -> None:
        _check_positive(self, "gain", "noise_w", "fading")


def _finite_positive(f, *args) -> bool:
    try:
        return 0.0 < f(*args) < math.inf
    except OverflowError:
        return False


def dbm_to_watt(dbm: float) -> float:
    return 1e-3 * 10.0 ** (dbm / 10.0)


def path_loss_linear(p: ChannelParams) -> float:
    """Linear path-loss gain ``10^(h0_db/10) * (d/d0)^(-alpha)``."""
    return 10.0 ** (p.h0_db / 10.0) * (p.d_m / p.d0_m) ** (-p.alpha)


def make_channel_state(p: ChannelParams, fading: float = 1.0) -> ChannelState:
    """Realise a :class:`ChannelState` from parameters and a fading draw."""
    return ChannelState(
        gain=path_loss_linear(p) * fading,
        noise_w=dbm_to_watt(p.noise_dbm),
        fading=fading,
    )


def sample_fading(seed: int, n: int) -> np.ndarray:
    """``n`` unit-mean fading powers ``|h~|^2``.

    The squared magnitude of a unit-variance complex Gaussian is
    exponential with mean 1, so the draw is a plain exponential stream;
    identical seeds give identical sequences.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return Rng(seed).exponential_at(0, n)


def snr(q: float, state: ChannelState) -> float:
    """Received SNR ``q * gain / noise_w`` for symbol power ``q`` watts."""
    if q < 0.0:
        raise DomainError(f"power must be >= 0, got {q}")
    return q * state.gain / state.noise_w
