import math

import numpy as np
import pytest

from sempower.channel import ChannelState
from sempower.errors import DomainError
from sempower.modulation import (
    PRESETS,
    ModulationScheme,
    ber_from_snr,
    power_from_ber,
    preset,
    zero_power_ber,
)
from sempower.numerics import q_function

from conftest import assert_rel


class TestSchemes:
    def test_preset_table(self):
        assert preset("bpsk") == ModulationScheme("bpsk", 2, 1.0, 2.0)
        assert preset("8qam") == ModulationScheme("8qam", 8, 2.5, 1.0 / 3.0)
        assert preset("16qam") == ModulationScheme("16qam", 16, 3.0, 0.2)
        assert preset("BPSK").bits_per_symbol == 1
        assert preset("16qam").bits_per_symbol == 4

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            preset("qpsk64")

    def test_validation(self):
        with pytest.raises(DomainError):
            ModulationScheme("bad", 3, 1.0, 1.0)
        with pytest.raises(DomainError):
            ModulationScheme("bad", 4, -1.0, 1.0)
        with pytest.raises(DomainError):
            ModulationScheme("bad", 4, 1.0, 0.0)

    def test_zero_power_ber(self):
        assert zero_power_ber(preset("bpsk")) == 0.5
        assert zero_power_ber(preset("16qam")) == 0.375
        assert zero_power_ber(preset("8qam")) == pytest.approx(5.0 / 12.0)


class TestBerFromSnr:
    def test_bpsk_zero_snr(self):
        assert ber_from_snr(preset("bpsk"), 0.0) == 0.5

    def test_bpsk_ten_db(self):
        # oracle: Q(sqrt(2 * 10))
        assert_rel(ber_from_snr(preset("bpsk"), 10.0), q_function(math.sqrt(20.0)), 1e-12)
        assert_rel(ber_from_snr(preset("bpsk"), 10.0), 3.88e-6, 0.01)

    def test_16qam_twenty_db(self):
        expected = 0.75 * q_function(math.sqrt(0.2 * 100.0))
        assert_rel(ber_from_snr(preset("16qam"), 100.0), expected, 1e-12)
        assert_rel(ber_from_snr(preset("16qam"), 100.0), 2.91e-6, 0.01)

    def test_clamped_at_half(self):
        heavy = ModulationScheme("heavy", 2, 4.0, 1.0)
        assert ber_from_snr(heavy, 0.0) == 0.5

    def test_monotone_decreasing(self):
        snrs = np.linspace(0.01, 60.0, 200)
        psis = ber_from_snr(preset("16qam"), snrs)
        assert np.all(np.diff(psis) < 0)

    def test_negative_snr_rejected(self):
        with pytest.raises(DomainError):
            ber_from_snr(preset("bpsk"), -0.1)

    def test_float_path_equals_array_path(self):
        snrs = np.concatenate([[0.0, 1e-300, 1e300], np.geomspace(1e-6, 2e3, 500)])
        for m in (*PRESETS.values(), ModulationScheme("heavy", 2, 4.0, 1.0)):
            scalar = [ber_from_snr(m, float(g)) for g in snrs]
            assert all(type(v) is float for v in scalar)
            assert scalar == ber_from_snr(m, snrs).tolist(), m.name
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(DomainError):
                ber_from_snr(preset("bpsk"), bad)
            with pytest.raises(DomainError):
                ber_from_snr(preset("bpsk"), np.array([1.0, bad]))


# the SNR for a BER is the power over a link with unit gain and noise
UNIT_LINK = ChannelState(gain=1.0, noise_w=1.0)


class TestSnrFromBer:
    def test_near_branch_top_gives_tiny_snr(self):
        assert power_from_ber(preset("bpsk"), UNIT_LINK, 0.5 - 1e-9) < 1e-8
        assert power_from_ber(preset("bpsk"), UNIT_LINK, 0.5) == 0.0

    def test_round_trip_ten_db(self):
        psi = ber_from_snr(preset("bpsk"), 10.0)
        assert_rel(power_from_ber(preset("bpsk"), UNIT_LINK, psi), 10.0, 0.005)

    def test_outside_branch(self):
        with pytest.raises(DomainError):
            power_from_ber(preset("16qam"), UNIT_LINK, 0.4)
        with pytest.raises(DomainError):
            power_from_ber(preset("bpsk"), UNIT_LINK, 0.0)

    def test_round_trip_random_schemes(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            m = ModulationScheme(
                "rnd",
                int(2 ** rng.integers(1, 7)),
                float(rng.uniform(0.5, 4.0)),
                float(rng.uniform(0.05, 3.0)),
            )
            top = zero_power_ber(m)
            psi = float(10 ** rng.uniform(-12, math.log10(top * 0.999)))
            again = ber_from_snr(m, power_from_ber(m, UNIT_LINK, psi))
            assert abs(again - psi) <= 1e-9 * psi


class TestPowerFromBer:
    def test_branch_top_needs_no_power(self, ref_state):
        m = preset("16qam")
        assert power_from_ber(m, ref_state, zero_power_ber(m)) == 0.0

    def test_reference_power(self, ref_state):
        # -98 dB gain, -110 dBm noise, BPSK at psi = 3.88e-6: ~0.631 mW
        assert_rel(power_from_ber(preset("bpsk"), ref_state, 3.88e-6), 6.31e-4, 0.01)

    def test_halving_gain_doubles_power(self, ref_state):
        m = preset("bpsk")
        half = ChannelState(gain=ref_state.gain / 2.0, noise_w=ref_state.noise_w)
        assert power_from_ber(m, half, 1e-4) == 2.0 * power_from_ber(m, ref_state, 1e-4)

    def test_continuous_to_zero_at_boundary(self, ref_state):
        m = preset("16qam")
        top = zero_power_ber(m)
        qs = [power_from_ber(m, ref_state, top - d) for d in (1e-3, 1e-6, 1e-9, 1e-12)]
        assert all(a > b for a, b in zip(qs, qs[1:]))
        assert qs[-1] < 1e-9

    def test_tiny_psi_clamped_finite(self, ref_state):
        q = power_from_ber(preset("bpsk"), ref_state, 1e-30)
        assert math.isfinite(q)
        assert q == power_from_ber(preset("bpsk"), ref_state, 1e-15)

    def test_monotone_in_psi(self, ref_state):
        m = preset("16qam")
        psis = np.geomspace(1e-9, zero_power_ber(m) * 0.999, 64)
        qs = np.asarray(power_from_ber(m, ref_state, psis))
        assert np.all(np.diff(qs) < 0)
