"""Monte Carlo link-level validation of the analytical BER model.

Random payload bits are Gray-mapped onto a unit-average-energy
constellation, scaled by the allocated power and the channel amplitude,
hit with complex Gaussian noise, coherently equalised (the receiver
knows the channel) and demodulated by minimum distance. The resulting
empirical bit error fraction is compared against the two-parameter BER
model, and fitted back through the perception surface to close the loop
on a solver's allocation.

Constellations are rectangular grids (PAM in each quadrature axis) with
an independent Gray code per axis, so nearest-neighbour demodulation
separates into per-axis quantisation. Square orders use an even bit
split; 8-QAM uses the documented 4x2 layout (two bits in-phase, one bit
quadrature). Channel phase is irrelevant under coherent equalisation,
so the channel amplitude enters as ``sqrt(gain)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState
from .errors import DomainError
from .modulation import ModulationScheme, ber_from_snr
from .numerics import Rng, derive_seed
from .perception import PSI_MAX, eval_surface
from .solvers import Allocation, ProblemSpec

__all__ = [
    "SimConfig",
    "StreamPayload",
    "Constellation",
    "constellation_for",
    "simulate_ber",
    "corrupt_payload",
    "simulate_stream_report",
    "StreamSimResult",
    "EndToEndReport",
    "end_to_end_check",
]

@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings: bits per stream and seed.

    The simulation always uses the channel states already frozen into
    the problem (the caller draws or pins the fading before solving),
    matching the quasi-static assumption.
    """

    n_bits: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_bits < 1:
            raise DomainError(f"n_bits must be >= 1, got {self.n_bits}")


@dataclass(frozen=True, eq=False)
class StreamPayload:
    """An opaque bit string (uint8 array of 0/1 values)."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.bits, dtype=np.uint8)
        if arr.ndim != 1 or (arr.size and arr.max() > 1):
            raise DomainError("payload bits must be a 1-D array of 0/1 values")
        object.__setattr__(self, "bits", arr)

    def __len__(self) -> int:
        return int(self.bits.size)


@dataclass(frozen=True, eq=False)
class Constellation:
    """Gray-coded rectangular constellation with unit mean symbol energy.

    ``scale`` converts normalised levels back to the odd-integer grid:
    ``levels * scale = 2*pos - (L-1)``.
    """

    name: str
    bits_i: int
    bits_q: int
    levels_i: np.ndarray
    levels_q: np.ndarray
    pos_of_word_i: np.ndarray
    pos_of_word_q: np.ndarray
    word_of_pos_i: np.ndarray
    word_of_pos_q: np.ndarray
    points: np.ndarray
    scale: float

    @property
    def bits_per_symbol(self) -> int:
        return self.bits_i + self.bits_q


def _gray_tables(nbits: int) -> tuple[np.ndarray, np.ndarray]:
    # word_of_pos[pos] = pos ^ (pos >> 1); pos_of_word is its inverse
    size = 1 << nbits
    pos = np.arange(size)
    word_of_pos = pos ^ (pos >> 1)
    pos_of_word = np.empty(size, dtype=np.int64)
    pos_of_word[word_of_pos] = pos
    return pos_of_word, word_of_pos.astype(np.int64)


def constellation_for(m: ModulationScheme) -> Constellation:
    """Build the Gray-coded constellation for a modulation scheme."""
    k = m.bits_per_symbol
    bits_q = k // 2
    bits_i = k - bits_q
    if bits_i > 8:
        raise DomainError(f"modulation order {m.M} too large to simulate")
    li = np.arange(1 << bits_i) * 2.0 - ((1 << bits_i) - 1)
    lq = (
        np.arange(1 << bits_q) * 2.0 - ((1 << bits_q) - 1)
        if bits_q
        else np.zeros(1)
    )
    energy = float(np.mean(li**2) + np.mean(lq**2))
    norm = math.sqrt(energy)
    pos_i, word_i = _gray_tables(bits_i)
    pos_q, word_q = _gray_tables(bits_q) if bits_q else (np.zeros(1, np.int64),) * 2
    points = (li[:, None] + 1j * lq[None, :]).ravel() / norm
    return Constellation(
        name=m.name,
        bits_i=bits_i,
        bits_q=bits_q,
        levels_i=li / norm,
        levels_q=lq / norm,
        pos_of_word_i=pos_i,
        pos_of_word_q=pos_q,
        word_of_pos_i=word_i,
        word_of_pos_q=word_q,
        points=points,
        scale=norm,
    )


def _words_from_bits(bits: np.ndarray) -> np.ndarray:
    weights = 1 << np.arange(bits.shape[1] - 1, -1, -1, dtype=np.int64)
    return bits.astype(np.int64) @ weights


def _quantize(x: np.ndarray, nbits: int, norm: float) -> np.ndarray:
    # uniform levels (2*pos - (L-1)) / norm: invert, round, clip
    top = (1 << nbits) - 1
    pos = np.rint((x * norm + top) / 2.0)
    return np.clip(pos, 0, top).astype(np.int64)


_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)


def simulate_ber(
    m: ModulationScheme, state: ChannelState, q: float, cfg: SimConfig
) -> float:
    """Empirical BER of one stream at symbol power ``q`` watts.

    Bit count is rounded up to a whole number of symbols. Reproducible:
    the same config always produces the same error pattern.
    """
    if q < 0.0:
        raise DomainError(f"power must be >= 0, got {q}")
    con = constellation_for(m)
    k = con.bits_per_symbol
    n_sym = -(-cfg.n_bits // k)
    n_eff = n_sym * k
    rng = Rng(cfg.seed)
    bits = rng.bits(n_eff).reshape(n_sym, k)

    w_i = _words_from_bits(bits[:, : con.bits_i])
    z_i = con.levels_i[con.pos_of_word_i[w_i]]

    amp = math.sqrt(q * state.gain)
    sigma = math.sqrt(state.noise_w / 2.0)
    # zero power leaves pure noise; a tiny amplitude floor keeps the
    # equalised samples finite (decisions are then noise-driven)
    amp_eff = max(amp, 1e-150)
    x_i = (amp * z_i + sigma * rng.normal(n_sym)) / amp_eff
    pos_hat_i = _quantize(x_i, con.bits_i, con.scale)
    errors = int(_POPCOUNT[w_i ^ con.word_of_pos_i[pos_hat_i]].sum())
    if con.bits_q:
        w_q = _words_from_bits(bits[:, con.bits_i :])
        z_q = con.levels_q[con.pos_of_word_q[w_q]]
        x_q = (amp * z_q + sigma * rng.normal(n_sym)) / amp_eff
        pos_hat_q = _quantize(x_q, con.bits_q, con.scale)
        errors += int(_POPCOUNT[w_q ^ con.word_of_pos_q[pos_hat_q]].sum())
    return errors / n_eff


def corrupt_payload(payload: StreamPayload, psi: float, seed: int) -> StreamPayload:
    """Flip each payload bit independently with probability ``psi``."""
    if not (0.0 <= psi <= PSI_MAX):
        raise DomainError(f"psi must lie in [0, {PSI_MAX}], got {psi}")
    if psi == 0.0 or len(payload) == 0:
        return StreamPayload(bits=payload.bits.copy())
    flips = (Rng(seed).uniform(len(payload)) < psi).astype(np.uint8)
    return StreamPayload(bits=payload.bits ^ flips)


@dataclass(frozen=True)
class StreamSimResult:
    """Per-stream comparison of analytic and simulated BER."""

    stream: str
    q_w: float
    snr_db: float
    psi_analytic: float
    psi_empirical: float
    n_bits: int
    ci_low: float
    ci_high: float

    @property
    def within_ci(self) -> bool:
        return self.ci_low <= self.psi_empirical <= self.ci_high


@dataclass(frozen=True)
class EndToEndReport:
    """Loop closure: simulated BERs pushed through the perception surface."""

    rows: tuple[StreamSimResult, ...]
    p_empirical: float
    p_analytic: float
    target: float
    gap: float


def simulate_stream_report(
    name: str,
    m: ModulationScheme,
    state: ChannelState,
    q: float,
    n_bits: int,
    seed: int,
) -> StreamSimResult:
    k = m.bits_per_symbol
    n_eff = -(-n_bits // k) * k
    snr_lin = q * state.gain / state.noise_w
    psi_a = ber_from_snr(m, snr_lin)
    psi_e = simulate_ber(m, state, q, SimConfig(n_bits=n_bits, seed=seed))
    half = 3.0 * math.sqrt(max(psi_a * (1.0 - psi_a), 0.0) / n_eff)
    return StreamSimResult(
        stream=name,
        q_w=q,
        snr_db=10.0 * math.log10(snr_lin) if snr_lin > 0.0 else -math.inf,
        psi_analytic=psi_a,
        psi_empirical=psi_e,
        n_bits=n_eff,
        ci_low=psi_a - half,
        ci_high=psi_a + half,
    )


def end_to_end_check(p: ProblemSpec, alloc: Allocation, cfg: SimConfig) -> EndToEndReport:
    """Simulate an allocation and compare achieved perception error.

    Each stream is simulated at its allocated power on an independent
    sub-stream of ``cfg.seed``; the empirical BERs feed the perception
    surface and the report carries the gap to the target. The gap
    shrinks as ``n_bits`` grows (Monte Carlo error scales as
    ``1/sqrt(n_bits)``).
    """
    if not alloc.feasible:
        raise DomainError("cannot simulate an infeasible allocation")
    rows = []
    psi_hat = []
    for i, s in enumerate(p.streams):
        row = simulate_stream_report(
            s.name or f"stream{i + 1}",
            s.modulation,
            s.channel,
            alloc.q[i],
            cfg.n_bits,
            derive_seed(cfg.seed, i),
        )
        rows.append(row)
        psi_hat.append(min(max(row.psi_empirical, 0.0), PSI_MAX))
    p_emp = eval_surface(p.surface, psi_hat[0], psi_hat[1])
    return EndToEndReport(
        rows=tuple(rows),
        p_empirical=p_emp,
        p_analytic=alloc.achieved_p,
        target=p.target,
        gap=abs(p_emp - p.target),
    )
