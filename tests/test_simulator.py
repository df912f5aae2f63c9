import math

import numpy as np
import pytest

from sempower.errors import DomainError
from sempower.modulation import ber_from_snr, preset
from sempower.numerics import Rng, derive_seed, q_function
from sempower.simulator import (
    EndToEndReport,
    SimConfig,
    StreamPayload,
    constellation_for,
    corrupt_payload,
    end_to_end_check,
    simulate_ber,
    simulate_stream_report,
)
from sempower.solvers import solve_bisection

from conftest import make_problem


def binomial_3sigma(p, n):
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


class TestConstellation:
    @pytest.mark.parametrize("name", ["bpsk", "8qam", "16qam"])
    def test_unit_energy(self, name):
        con = constellation_for(preset(name))
        assert abs(np.mean(np.abs(con.points) ** 2) - 1.0) < 1e-12
        assert len(con.points) == preset(name).M

    def test_bit_split(self):
        assert (constellation_for(preset("bpsk")).bits_i, constellation_for(preset("bpsk")).bits_q) == (1, 0)
        assert (constellation_for(preset("8qam")).bits_i, constellation_for(preset("8qam")).bits_q) == (2, 1)
        assert (constellation_for(preset("16qam")).bits_i, constellation_for(preset("16qam")).bits_q) == (2, 2)

    def test_gray_adjacency(self):
        # neighbouring amplitude levels differ in exactly one bit
        con = constellation_for(preset("16qam"))
        words = [int(con.word_of_pos_i[k]) for k in range(4)]
        for a, b in zip(words, words[1:]):
            assert bin(a ^ b).count("1") == 1


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
        with pytest.raises(DomainError):
            SimConfig(n_bits=0, seed=1)


class TestCorruptPayload:
    def test_zero_ber_identity(self):
        payload = StreamPayload(bits=Rng(1).bits(1000))
        out = corrupt_payload(payload, 0.0, seed=2)
        assert np.array_equal(out.bits, payload.bits)

    def test_half_ber_flips_half(self):
        payload = StreamPayload(bits=Rng(1).bits(1_000_000))
        out = corrupt_payload(payload, 0.5, seed=3)
        frac = float(np.mean(payload.bits != out.bits))
        assert abs(frac - 0.5) <= binomial_3sigma(0.5, 1_000_000)

    def test_small_ber_within_ci(self):
        payload = StreamPayload(bits=Rng(4).bits(1_000_000))
        out = corrupt_payload(payload, 0.01, seed=5)
        frac = float(np.mean(payload.bits != out.bits))
        assert abs(frac - 0.01) <= binomial_3sigma(0.01, 1_000_000)

    def test_deterministic(self):
        payload = StreamPayload(bits=Rng(6).bits(4096))
        a = corrupt_payload(payload, 0.1, seed=9)
        b = corrupt_payload(payload, 0.1, seed=9)
        assert np.array_equal(a.bits, b.bits)

    def test_psi_domain(self):
        payload = StreamPayload(bits=np.zeros(8, dtype=np.uint8))
        with pytest.raises(DomainError):
            corrupt_payload(payload, 0.6, seed=1)


class TestEndToEnd:
    def test_gap_shrinks_to_target(self, ref_state):
        p = make_problem(ref_state, "bpsk", target=0.8)
        alloc = solve_bisection(p)
        report = end_to_end_check(p, alloc, SimConfig(n_bits=4_000_000, seed=17))
        assert isinstance(report, EndToEndReport)
        assert report.gap < 0.01
        assert abs(report.p_analytic - p.target) < 1e-6

    def test_streams_within_ci(self, ref_state):
        p = make_problem(ref_state, "bpsk", target=0.7)
        alloc = solve_bisection(p)
        report = end_to_end_check(p, alloc, SimConfig(n_bits=2_000_000, seed=23))
        for row in report.rows:
            assert row.ci_low <= row.psi_empirical <= row.ci_high

    def test_ci_width_scales_with_bits(self, ref_state):
        p = make_problem(ref_state, "bpsk", target=0.7)
        alloc = solve_bisection(p)
        r1 = end_to_end_check(p, alloc, SimConfig(n_bits=500_000, seed=29))
        r2 = end_to_end_check(p, alloc, SimConfig(n_bits=2_000_000, seed=29))
        for a, b in zip(r1.rows, r2.rows):
            width1 = a.ci_high - a.ci_low
            width2 = b.ci_high - b.ci_low
            assert abs(width1 / width2 - 2.0) < 1e-9  # 4x bits halves the CI

    def test_reports_are_deterministic(self, ref_state):
        p = make_problem(ref_state, "16qam", target=0.6)
        alloc = solve_bisection(p)
        cfg = SimConfig(n_bits=200_000, seed=41)
        assert end_to_end_check(p, alloc, cfg) == end_to_end_check(p, alloc, cfg)

    def test_stream_report_row(self, ref_state):
        row = simulate_stream_report(
            "s1", preset("bpsk"), ref_state, 6.3e-4, 1_000_000, derive_seed(1, 0)
        )
        assert row.stream == "s1"
        assert row.n_bits == 1_000_000
        assert abs(row.snr_db - 10.0) < 0.1
        assert row.ci_low < row.psi_analytic < row.ci_high
