"""Monte Carlo link-level validation of the analytical BER model.

Random payload bits are Gray-mapped onto a unit-average-energy
constellation, scaled by the allocated power and the channel amplitude,
hit with complex Gaussian noise, coherently equalised (the receiver
knows the channel) and demodulated by minimum distance. The resulting
empirical bit error fraction is compared against the two-parameter BER
model at the same SNR, within a 3-sigma binomial band
(:func:`simulate_stream_report`).

Each symbol carries ``k - k//2`` bits on the in-phase axis and ``k//2``
in quadrature (BPSK: in-phase only; 8-QAM: the 4x2 grid), each axis a
Gray-coded PAM, so minimum-distance demodulation is per-axis
quantisation and :func:`simulate_ber` is one loop over the axes. Gray
word ``pos ^ (pos >> 1)`` sits at the odd integer ``2*pos - (L-1)``,
scaled to unit mean symbol energy. Channel phase is irrelevant under
coherent equalisation, so the amplitude is ``sqrt(gain)``.

Stream layout, for ``n_sym`` symbols of ``k`` bits: the first
``W = ceil(n_sym k / 64)`` words carry the payload bits, symbol after
symbol. Each axis then takes ``h = ceil(n_sym / 2)`` Box-Muller pairs,
in-phase first: axis ``a`` reads its radius words from ``W + 2 a h`` and
its angle words from ``W + (2a + 1) h``. The cosine of pair ``p`` is the
noise of symbol ``p``, its sine that of symbol ``h + p`` (the last sine
is unused when ``n_sym`` is odd). So axis ``a``'s noise is
``Rng.normal_at(W + 2 a h, n_sym)``.

The pairs are counted in fixed blocks of ``_BLOCK_PAIRS``: each block
draws its symbols' bits and noise by stream position and returns its
integer error count. A sample is decoded wrongly only if its noise,
``sigma r |cos|`` or ``sigma r |sin|``, reaches half the gap between
levels, ``amp / norm``; so a pair whose radius stays under
``c = (1 - 1e-9) amp / (norm sigma)`` errs in neither of its samples
(the margin covers rounding). With ``r = sqrt(-2 log u1)`` and
``u1 = ((w >> 11) + 1) 2^-53``, ``r >= c`` is ``(w >> 11) < limit =
floor(exp(-c^2 / 2) 2^53)`` on the raw radius word. When that expected
share ``exp(-c^2 / 2)`` is at most 1/2, each axis draws the block's
radius words, keeps the pairs under ``limit``, draws angle words at
those positions only and demodulates just those pairs, element by
element the same float operations as for every pair, so the count is
exact; above 1/2, every pair is demodulated. Below the amplitude floor
(``amp < 1e-150``) every pair is kept, and with ``limit`` 0 (``c`` past
the largest radius, ``sqrt(-2 log 2^-53) ~ 8.57``) nothing is drawn and
the BER is 0. With more than one block and more than one CPU
available to the process, the blocks run on a thread pool that lives for
one call, one worker per CPU (numpy's kernels release the GIL). The BER
is the sum of the counts, so it is the same for any block order or
thread count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .channel import ChannelState
from .errors import DomainError
from .modulation import ModulationScheme, ber_from_snr
from .numerics import Rng, np

__all__ = ["SimConfig", "simulate_ber"]

@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings: bits per stream and seed."""

    n_bits: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_bits < 1:
            raise DomainError(f"n_bits must be >= 1, got {self.n_bits}")


# Box-Muller pairs per block; fixed, so the blocks and their draws are too
_BLOCK_PAIRS = 1 << 16


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def simulate_ber(m: ModulationScheme, state: ChannelState, q: float, cfg: SimConfig) -> float:
    """Empirical BER of one stream at symbol power ``q`` watts.

    Bit count is rounded up to a whole number of symbols. Reproducible:
    the same config always produces the same error pattern, whatever the
    number of threads counting it.
    """
    if not 0.0 <= q < math.inf:
        raise DomainError(f"power must be finite and >= 0, got {q}")
    k = m.bits_per_symbol
    axes = [nb for nb in (k - k // 2, k // 2) if nb]
    if axes[0] > 8:
        raise DomainError(f"modulation order {m.M} too large to simulate")
    # an L-level odd-integer grid has mean square (L^2 - 1) / 3
    norm = math.sqrt(sum((4**nb - 1) // 3 for nb in axes))
    n_sym = -(-cfg.n_bits // k)
    half = (n_sym + 1) // 2  # Box-Muller pairs per axis
    n_words = -(-n_sym * k // 64)  # payload words, ahead of the normals
    rng = Rng(cfg.seed)

    amp = math.sqrt(q * state.gain)
    sigma = math.sqrt(state.noise_w / 2.0)
    # zero power leaves pure noise; a tiny amplitude floor keeps the
    # equalised samples finite (decisions are then noise-driven)
    amp_eff = max(amp, 1e-150)
    # a pair of radius r < c can err in neither sample (see the module
    # docstring); below the amplitude floor any pair can err
    if amp < 1e-150:
        c = 0.0
    else:
        c = (1.0 - 1e-9) * amp / (norm * sigma) if sigma else math.inf
    # r >= c is u1 <= exp(-c^2 / 2): share is the expected fraction of such
    # pairs, and they are the ones whose radius word has (w >> 11) < limit
    share = math.exp(-0.5 * c * c)
    limit = np.uint64(math.floor(share * 2.0**53))
    if not limit:  # c is beyond the largest radius: no pair can err
        return 0.0
    grids = []
    for col, nb in zip((0, axes[0]), axes):  # col: the axis's first bit in a symbol
        top = (1 << nb) - 1
        pos = np.arange(top + 1)
        gray = pos ^ (pos >> 1)  # word at each level position; argsort inverts it
        level_of_word = ((2.0 * pos - top) / norm)[np.argsort(gray)]
        grids.append((col, nb, top, gray, level_of_word))
    popcount = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)

    def count(p0: int) -> int:
        # pairs [p0, p1): their cosines belong to symbols [p0, p1), their
        # sines to [half + p0, half + p1), cut at n_sym
        p1 = min(p0 + _BLOCK_PAIRS, half)
        spans = [(s0, s1, trig) for s0, s1, trig in
                 ((p0, p1, np.cos), (half + p0, min(half + p1, n_sym), np.sin)) if s1 > s0]
        payload = [rng.bits_at(s0 * k, (s1 - s0) * k).reshape(-1, k) for s0, s1, _ in spans]
        errors = 0
        for a, (col, nb, top, gray, level_of_word) in enumerate(grids):
            u1 = n_words + 2 * a * half + p0  # the axis's radius words, then its angle words
            if share > 0.5:  # gathering most pairs costs more than taking them all
                keep = None
                r, ang = rng.polar_at(u1, u1 + half, p1 - p0)
            else:
                w = rng.words_at(u1, p1 - p0)
                keep = np.flatnonzero((w >> np.uint64(11)) < limit)
                r, ang = rng.polar_of(w[keep], rng.words_at_positions(keep + (u1 + half)))
            for (s0, s1, trig), bits in zip(spans, payload):
                rows = slice(0, s1 - s0) if keep is None else keep[: np.searchsorted(keep, s1 - s0)]
                bits = bits[rows]
                n = len(bits)
                words = bits[:, col].astype(np.int64)  # the axis's bits, MSB first
                for j in range(col + 1, col + nb):
                    words = (words << 1) | bits[:, j]
                x = (amp * level_of_word[words] + sigma * (r[:n] * trig(ang[:n]))) / amp_eff
                # invert the level map, round to the nearest level, clip to the grid
                pos_hat = np.clip(np.rint((x * norm + top) / 2.0), 0, top).astype(np.int64)
                errors += int(popcount[words ^ gray[pos_hat]].sum())
        return errors

    starts = range(0, half, _BLOCK_PAIRS)
    workers = _cpus()
    if len(starts) > 1 and workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            errors = sum(pool.map(count, starts))
    else:
        errors = sum(map(count, starts))
    return errors / (n_sym * k)


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


def simulate_stream_report(
    name: str,
    m: ModulationScheme,
    state: ChannelState,
    snr_db: float,
    n_bits: int,
    seed: int,
) -> StreamSimResult:
    """Simulated against analytic BER of stream ``name`` at ``snr_db`` dB.

    The symbol power is the one that gives that SNR over ``state``; a
    power beyond binary64 is a :class:`DomainError` naming the stream.
    The band is the analytic BER plus or minus three binomial standard
    deviations over the simulated bits (``n_bits`` rounded up to whole
    symbols).
    """
    try:
        snr_lin = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        snr_lin = math.inf
    q = snr_lin * state.noise_w / state.gain
    if q == math.inf:
        raise DomainError(
            f"stream {name}: the power for {snr_db:g} dB overflows over its link "
            f"(noise {state.noise_w:g} W, gain {state.gain:g})"
        )
    k = m.bits_per_symbol
    n_eff = -(-n_bits // k) * k
    psi_a = ber_from_snr(m, snr_lin)
    psi_e = simulate_ber(m, state, q, SimConfig(n_bits=n_bits, seed=seed))
    half = 3.0 * math.sqrt(max(psi_a * (1.0 - psi_a), 0.0) / n_eff)
    return StreamSimResult(
        stream=name,
        q_w=q,
        snr_db=snr_db,
        psi_analytic=psi_a,
        psi_empirical=psi_e,
        n_bits=n_eff,
        ci_low=psi_a - half,
        ci_high=psi_a + half,
    )
