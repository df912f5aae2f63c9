import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sempower
import sempower.simulator as simulator
from sempower.channel import ChannelState
from sempower.errors import DomainError
from sempower.modulation import ModulationScheme, ber_from_snr, preset
from sempower.numerics import Rng, derive_seed, q_function
from sempower.simulator import SimConfig, simulate_ber, simulate_stream_report

from conftest import dense_simulate_ber


def binomial_3sigma(p, n):
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def power_at(state, snr_db):
    return 10.0 ** (snr_db / 10.0) * state.noise_w / state.gain


SCHEMES = {
    "bpsk": preset("bpsk"),
    "8qam": preset("8qam"),
    "16qam": preset("16qam"),
    "qpsk": ModulationScheme("qpsk", 4, 2.0, 1.0),
    "4": ModulationScheme("custom", 4, 1.0, 1.0),
    "64": ModulationScheme("custom", 64, 1.0, 1.0),
}


class TestExactBer:
    """Gray PAM per axis has a closed-form BER; the simulator must meet it.

    With ``x = sqrt(2 snr / E)`` and ``E = sum over axes of (L^2 - 1)/3``,
    each bit of a Gray 2-PAM axis errs with probability ``Q(x)`` and each
    bit of a Gray 4-PAM axis with ``(3Q(x) + 2Q(3x) - Q(5x)) / 4``. This
    checks the unit symbol energy, the bit split and the Gray labelling.
    """

    AXES = {"bpsk": (2,), "8qam": (4, 2), "16qam": (4, 4), "qpsk": (2, 2)}

    @staticmethod
    def exact(axes, snr):
        x = math.sqrt(2.0 * snr / sum((L * L - 1) / 3.0 for L in axes))
        pam4 = (3.0 * q_function(x) + 2.0 * q_function(3.0 * x) - q_function(5.0 * x)) / 4.0
        per_bit = {2: q_function(x), 4: pam4}
        bits = [L.bit_length() - 1 for L in axes]
        return sum(b * per_bit[L] for b, L in zip(bits, axes)) / sum(bits)

    @pytest.mark.parametrize("name", sorted(AXES))
    @pytest.mark.parametrize("snr_db", [0.0, 4.0, 8.0, 12.0])
    def test_within_3_sigma(self, ref_state, name, snr_db):
        m = SCHEMES[name]
        k = m.bits_per_symbol
        n_eff = -(-2_000_000 // k) * k
        exact = self.exact(self.AXES[name], 10.0 ** (snr_db / 10.0))
        cfg = SimConfig(n_bits=n_eff, seed=17)
        psi = simulate_ber(m, ref_state, power_at(ref_state, snr_db), cfg)
        assert abs(psi - exact) <= binomial_3sigma(exact, n_eff)

    def test_qpsk_pair_is_exact(self):
        # (M, a, b) = (4, 2, 1) is the exact QPSK model: Q(sqrt(snr)) per bit
        for snr_db in (0.0, 4.0, 8.0, 12.0):
            snr = 10.0 ** (snr_db / 10.0)
            assert ber_from_snr(SCHEMES["qpsk"], snr) == pytest.approx(
                self.exact(self.AXES["qpsk"], snr), rel=1e-12
            )


# simulate_ber(scheme, ref_state, power_at(snr_db), SimConfig(n_bits, seed))
# for n_bits = 1, 7, 10, 100_003, keyed by (scheme, seed, snr_db); an
# snr_db of None is zero power. The values pin the bit draw, the Box-Muller
# normals and the Gray mapping exactly (per platform up to libm rounding).
PINNED_N_BITS = (1, 7, 10, 100_003)
PINNED = {
    ('bpsk', 0, None): (0.0, 0.7142857142857143, 0.5, 0.5007849764507065),
    ('bpsk', 0, 2.0): (0.0, 0.14285714285714285, 0.2, 0.03724888253352399),
    ('bpsk', 0, 7.0): (0.0, 0.0, 0.0, 0.0007299781006569803),
    ('bpsk', 9, None): (1.0, 0.42857142857142855, 0.5, 0.5006749797506075),
    ('bpsk', 9, 2.0): (0.0, 0.0, 0.0, 0.03789886303410898),
    ('bpsk', 9, 7.0): (0.0, 0.0, 0.0, 0.0008699739007829765),
    ('8qam', 0, None): (0.3333333333333333, 0.4444444444444444, 0.5833333333333334, 0.5024548772561372),
    ('8qam', 0, 2.0): (0.3333333333333333, 0.2222222222222222, 0.3333333333333333, 0.19982000899955002),
    ('8qam', 0, 7.0): (0.0, 0.1111111111111111, 0.25, 0.08301584920753963),
    ('8qam', 9, None): (0.6666666666666666, 0.2222222222222222, 0.25, 0.5024848757562121),
    ('8qam', 9, 2.0): (0.3333333333333333, 0.0, 0.0, 0.19870006499675016),
    ('8qam', 9, 7.0): (0.0, 0.0, 0.0, 0.08117594120293985),
    ('16qam', 0, None): (0.25, 0.25, 0.25, 0.49940002399904004),
    ('16qam', 0, 2.0): (0.25, 0.125, 0.3333333333333333, 0.23692052317907283),
    ('16qam', 0, 7.0): (0.25, 0.125, 0.25, 0.11986520539178433),
    ('16qam', 9, None): (0.75, 0.5, 0.5, 0.49945002199912003),
    ('16qam', 9, 2.0): (0.5, 0.25, 0.3333333333333333, 0.23473061077556898),
    ('16qam', 9, 7.0): (0.25, 0.125, 0.08333333333333333, 0.11910523579056838),
    ('4', 0, None): (0.0, 0.25, 0.6, 0.501329946802128),
    ('4', 0, 2.0): (0.0, 0.125, 0.1, 0.10389584416623335),
    ('4', 0, 7.0): (0.0, 0.0, 0.1, 0.012229510819567217),
    ('4', 9, None): (0.5, 0.25, 0.7, 0.500519979200832),
    ('4', 9, 2.0): (0.0, 0.0, 0.1, 0.10439582416703332),
    ('4', 9, 7.0): (0.0, 0.0, 0.0, 0.012839486420543179),
    ('64', 0, None): (0.5, 0.4166666666666667, 0.4166666666666667, 0.4996400287976962),
    ('64', 0, 2.0): (0.3333333333333333, 0.16666666666666666, 0.16666666666666666, 0.3260639148868091),
    ('64', 0, 7.0): (0.16666666666666666, 0.08333333333333333, 0.08333333333333333, 0.21856251499880008),
    ('64', 9, None): (0.6666666666666666, 0.5833333333333334, 0.5833333333333334, 0.49773018158547316),
    ('64', 9, 2.0): (0.5, 0.4166666666666667, 0.4166666666666667, 0.3235641148708103),
    ('64', 9, 7.0): (0.3333333333333333, 0.25, 0.25, 0.216802655787537),
}


@pytest.mark.parametrize("name", ["bpsk", "8qam", "16qam", "4", "64"])
def test_pinned_values(ref_state, name):
    for (scheme, seed, snr_db), expected in PINNED.items():
        if scheme != name:
            continue
        q = 0.0 if snr_db is None else power_at(ref_state, snr_db)
        got = tuple(
            simulate_ber(SCHEMES[name], ref_state, q, SimConfig(n_bits=n, seed=seed))
            for n in PINNED_N_BITS
        )
        assert got == expected, (scheme, seed, snr_db)


# The same for n_bits = 1_000_003: two (16-QAM) to eight (BPSK) blocks of
# Box-Muller pairs, counted on a thread pool when more than one CPU is free.
PINNED_MULTI_BLOCK = {
    ('bpsk', 0, None): 0.5010304969085093,
    ('bpsk', 0, 2.0): 0.03741988774033678,
    ('bpsk', 9, None): 0.49965250104249687,
    ('bpsk', 9, 2.0): 0.03713488859533422,
    ('8qam', 0, None): 0.5007284963575183,
    ('8qam', 0, 2.0): 0.19994700026499868,
    ('8qam', 9, None): 0.49909850450747745,
    ('8qam', 9, 2.0): 0.19906700466497668,
    ('16qam', 0, None): 0.5001359994560022,
    ('16qam', 0, 2.0): 0.2375760496958012,
    ('16qam', 9, None): 0.4999500001999992,
    ('16qam', 9, 2.0): 0.23668605325578698,
}


@pytest.mark.parametrize("key", sorted(PINNED_MULTI_BLOCK, key=repr), ids=repr)
def test_pinned_multi_block_values(ref_state, key):
    scheme, seed, snr_db = key
    q = 0.0 if snr_db is None else power_at(ref_state, snr_db)
    got = simulate_ber(SCHEMES[scheme], ref_state, q, SimConfig(n_bits=1_000_003, seed=seed))
    assert got == PINNED_MULTI_BLOCK[key]


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestBlocks:
    """The error count is a sum over fixed blocks of the counter stream, so
    the BER depends neither on the block size nor on the thread count."""

    # symbol counts around the pair and block boundaries of 1, 3 and 7 pairs
    N_SYM = (1, 2, 3, 5, 6, 7, 13, 14, 15, 16, 29, 42, 43)

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_block_size_and_threads_do_not_matter(self, ref_state, monkeypatch, k, cpus):
        m = ModulationScheme("custom", 1 << k, 1.0, 1.0)
        q = power_at(ref_state, 2.0)
        # whole symbols and a final partial one
        cases = [(n * k - j, seed) for n in self.N_SYM for j in {0, k - 1} for seed in (0, 9)]
        want = [simulate_ber(m, ref_state, q, SimConfig(n_bits=n, seed=s)) for n, s in cases]
        use_cpus(monkeypatch, cpus)
        # with threads, switch often so the workers interleave inside each call
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for block in (1, 3, 7):
                monkeypatch.setattr(simulator, "_BLOCK_PAIRS", block)
                got = [simulate_ber(m, ref_state, q, SimConfig(n_bits=n, seed=s)) for n, s in cases]
                assert got == want, block
        finally:
            sys.setswitchinterval(interval)


def norm_sq(k):
    """Mean symbol energy of the unscaled Gray grids of a k-bit symbol."""
    return sum((4**nb - 1) // 3 for nb in (k - k // 2, k // 2))


@st.composite
def skip_cases(draw):
    """A simulation on either side of the skip rule's switch: every pair
    is demodulated while the share ``exp(-c^2/2)`` of pairs that can err
    exceeds 1/2, with ``c^2 = 2 snr / norm^2`` up to the rounding margin."""
    k = draw(st.integers(1, 8))
    switch_db = 10.0 * math.log10(norm_sq(k) * math.log(2.0))
    if draw(st.booleans()):  # sparse
        snr_db = draw(st.floats(switch_db + 1e-6, 40.0))
    else:
        snr_db = draw(st.floats(-10.0, switch_db - 1e-6))
    block = draw(st.sampled_from([1, 3, 7, simulator._BLOCK_PAIRS]))
    # small blocks run one Python loop step each, so they get fewer bits
    n_bits = draw(st.integers(1, 200_000 if block > 7 else 2_000))
    return k, snr_db, n_bits, draw(st.integers(0, 2**64 - 1)), block, draw(st.sampled_from([1, 3]))


class TestSkipRule:
    """Only the pairs whose radius can reach half a level gap are
    demodulated; the BER must equal the one that demodulates them all."""

    @settings(max_examples=150)
    @given(case=skip_cases())
    def test_equals_dense_count(self, ref_state, case):
        k, snr_db, n_bits, seed, block, cpus = case
        m = ModulationScheme("custom", 1 << k, 1.0, 1.0)
        cfg = SimConfig(n_bits=n_bits, seed=seed)
        q = power_at(ref_state, snr_db)
        want = dense_simulate_ber(m, ref_state, q, cfg)
        with pytest.MonkeyPatch.context() as mp:
            use_cpus(mp, cpus)
            mp.setattr(simulator, "_BLOCK_PAIRS", block)
            assert simulate_ber(m, ref_state, q, cfg) == want

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [1, 3, 4, 8])
    def test_zero_and_floor_amplitudes_keep_every_pair(self, ref_state, k):
        # below the amplitude floor of 1e-150 the decisions are noise-driven
        m = ModulationScheme("custom", 1 << k, 1.0, 1.0)
        cfg = SimConfig(n_bits=100_003, seed=4)
        for amp in (0.0, 1e-200, 0.999e-150):
            q = amp * amp / ref_state.gain
            assert math.sqrt(q * ref_state.gain) < 1e-150
            assert simulate_ber(m, ref_state, q, cfg) == dense_simulate_ber(m, ref_state, q, cfg)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["bpsk", "16qam"])
    def test_beyond_the_largest_radius_nothing_is_drawn(self, ref_state, monkeypatch, name):
        # no radius exceeds sqrt(-2 ln 2^-53) ~ 8.5717: past it no pair can err
        m = preset(name)
        cfg = SimConfig(n_bits=300_001, seed=2)
        r_max = math.sqrt(-2.0 * math.log(2.0**-53))

        def power(c):  # the power at which the skip bound is c
            return c * c * norm_sq(m.bits_per_symbol) / 2.0 * ref_state.noise_w / ref_state.gain

        for c in (r_max - 1e-3, r_max + 1e-3, 20.0, 1e100):
            q = power(c)
            assert simulate_ber(m, ref_state, q, cfg) == dense_simulate_ber(m, ref_state, q, cfg)
        drawn = []
        for draw in ("words_at", "words_at_positions", "bits_at", "polar_at"):
            monkeypatch.setattr(Rng, draw, lambda *a, _d=draw: drawn.append(_d))
        for c in (r_max + 1e-3, 1e100):
            assert simulate_ber(m, ref_state, power(c), cfg) == 0.0
        # a noise power of 5e-324 halves to a sigma of 0: no noise at all
        noiseless = ChannelState(gain=ref_state.gain, noise_w=5e-324)
        assert simulate_ber(m, noiseless, power(1.0), cfg) == 0.0
        assert drawn == []


class TestThreads:
    def test_pool_is_shut_down(self, ref_state, monkeypatch):
        use_cpus(monkeypatch, 2)
        before = threading.active_count()
        simulate_ber(preset("bpsk"), ref_state, power_at(ref_state, 2.0),
                     SimConfig(n_bits=1_000_003, seed=0))
        assert threading.active_count() == before

    def test_cli_import_starts_no_thread(self):
        src = str(Path(sempower.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import threading, sempower.cli; print(threading.active_count())"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "1"


class TestSimulateBer:
    def test_zero_power_is_coin_flip(self, ref_state):
        for name in ("bpsk", "16qam"):
            psi = simulate_ber(preset(name), ref_state, 0.0, SimConfig(n_bits=200_000, seed=31))
            assert abs(psi - 0.5) <= binomial_3sigma(0.5, 200_000)

    def test_bpsk_zero_db(self, ref_state):
        # BPSK analytic BER is exact: Q(sqrt(2 snr))
        snr = 1.0
        q = snr * ref_state.noise_w / ref_state.gain
        psi = simulate_ber(preset("bpsk"), ref_state, q, SimConfig(n_bits=1_000_000, seed=7))
        expected = float(q_function(math.sqrt(2.0)))
        assert abs(psi - expected) <= binomial_3sigma(expected, 1_000_000)

    def test_16qam_fifteen_db(self, ref_state):
        snr = 10 ** 1.5
        q = snr * ref_state.noise_w / ref_state.gain
        psi = simulate_ber(preset("16qam"), ref_state, q, SimConfig(n_bits=1_000_000, seed=11))
        model = ber_from_snr(preset("16qam"), snr)
        assert abs(psi - model) / model < 0.15

    @pytest.mark.parametrize("snr_db", [8.0, 10.0, 12.0, 15.0])
    def test_8qam_matches_model(self, ref_state, snr_db):
        snr = 10.0 ** (snr_db / 10.0)
        q = snr * ref_state.noise_w / ref_state.gain
        psi = simulate_ber(preset("8qam"), ref_state, q, SimConfig(n_bits=2_000_001, seed=19))
        model = ber_from_snr(preset("8qam"), snr)
        assert abs(psi - model) / model < 0.15

    def test_seed_determinism(self, ref_state):
        cfg = SimConfig(n_bits=100_000, seed=5)
        a = simulate_ber(preset("16qam"), ref_state, 1e-3, cfg)
        b = simulate_ber(preset("16qam"), ref_state, 1e-3, cfg)
        assert a == b
        c = simulate_ber(preset("16qam"), ref_state, 1e-3, SimConfig(n_bits=100_000, seed=6))
        assert a != c

    def test_monotone_in_power_with_common_randomness(self, ref_state):
        # paired seeds: more power never hurts in expectation; with CRN
        # the sampled curve is monotone outright
        cfg = SimConfig(n_bits=200_000, seed=13)
        qs = [g * ref_state.noise_w / ref_state.gain for g in (0.5, 1.0, 2.0, 4.0, 8.0)]
        psis = [simulate_ber(preset("bpsk"), ref_state, q, cfg) for q in qs]
        assert all(b <= a for a, b in zip(psis, psis[1:]))

    def test_rounds_up_to_whole_symbols(self, ref_state):
        # 10 bits of 16-QAM occupy 3 symbols; the fraction uses 12 bits
        psi = simulate_ber(preset("16qam"), ref_state, 0.0, SimConfig(n_bits=10, seed=3))
        assert psi in {k / 12 for k in range(13)}

    def test_validation(self, ref_state):
        with pytest.raises(DomainError):
            simulate_ber(preset("bpsk"), ref_state, -1e-9, SimConfig(n_bits=100, seed=1))
        for q in (math.inf, math.nan):
            with pytest.raises(DomainError):
                simulate_ber(preset("bpsk"), ref_state, q, SimConfig(n_bits=100, seed=1))
        with pytest.raises(DomainError, match="too large"):
            huge = ModulationScheme("custom", 1 << 17, 1.0, 1.0)
            simulate_ber(huge, ref_state, 1e-3, SimConfig(n_bits=100, seed=1))
        with pytest.raises(DomainError):
            SimConfig(n_bits=0, seed=1)


class TestStreamReport:
    def test_ci_width_scales_with_bits(self, ref_state):
        r1, r2 = (simulate_stream_report("s1", preset("bpsk"), ref_state, 6.0, n, 29)
                  for n in (500_000, 2_000_000))
        width1 = r1.ci_high - r1.ci_low
        width2 = r2.ci_high - r2.ci_low
        assert abs(width1 / width2 - 2.0) < 1e-9  # 4x bits halves the CI

    def test_reports_are_deterministic(self, ref_state):
        args = ("s2", preset("16qam"), ref_state, 12.0, 200_000, 41)
        assert simulate_stream_report(*args) == simulate_stream_report(*args)

    def test_stream_report_row(self, ref_state):
        row = simulate_stream_report(
            "s1", preset("bpsk"), ref_state, 10.0, 1_000_000, derive_seed(1, 0)
        )
        assert row.stream == "s1"
        assert row.n_bits == 1_000_000
        assert row.snr_db == 10.0
        assert row.q_w == 10.0 * ref_state.noise_w / ref_state.gain
        assert row.ci_low < row.psi_analytic < row.ci_high

    def test_calls_simulate_ber_through_the_module(self, ref_state, monkeypatch):
        # the benchmark's trace wraps simulator.simulate_ber by that name and
        # reads the scheme and the config from its positional arguments
        calls = []
        monkeypatch.setattr(simulator, "simulate_ber", lambda *a, **kw: calls.append((a, kw)) or 0.25)
        m = preset("bpsk")
        row = simulate_stream_report("s1", m, ref_state, 6.0, 10_001, 29)
        assert calls == [((m, ref_state, row.q_w, SimConfig(n_bits=10_001, seed=29)), {})]
        assert row.psi_empirical == 0.25

    @pytest.mark.parametrize("noise_w, snr_db", [(1e297, 30.0), (1e-14, 4000.0)])
    def test_overflowing_power(self, ref_state, noise_w, snr_db):
        # a power beyond binary64, and an SNR that is beyond it already
        state = ChannelState(gain=ref_state.gain, noise_w=noise_w)
        with pytest.raises(DomainError, match=f"stream s1: the power for {snr_db:g} dB overflows"):
            simulate_stream_report("s1", preset("bpsk"), state, snr_db, 10_000, 1)
