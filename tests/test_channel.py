import math

import numpy as np
import pytest

from sempower.channel import (
    ChannelParams,
    ChannelState,
    dbm_to_watt,
    make_channel_state,
    path_loss_linear,
    sample_fading,
    snr,
)
from sempower.errors import DomainError

from conftest import REF_CHANNEL, assert_rel


class TestPathLoss:
    def test_reference_distance(self):
        p = ChannelParams(h0_db=-30.0, d_m=5.0, d0_m=5.0, alpha=2.7, noise_dbm=-100.0)
        assert path_loss_linear(p) == 10.0 ** (-3.0)

    def test_reference_parameter_set(self):
        # -30 dB at 1 m plus 3.4 * 20 dB over two decades: -98 dB total
        assert_rel(path_loss_linear(REF_CHANNEL), 10.0 ** (-9.8), 1e-12)

    def test_degenerate_exponent(self):
        p = ChannelParams(h0_db=-30.0, d_m=12345.0, d0_m=1.0, alpha=0.0, noise_dbm=-100.0)
        assert path_loss_linear(p) == 10.0 ** (-3.0)

    def test_strictly_decreasing_in_distance(self):
        gains = [
            path_loss_linear(
                ChannelParams(h0_db=-30.0, d_m=d, d0_m=1.0, alpha=3.4, noise_dbm=-110.0)
            )
            for d in np.linspace(1.0, 500.0, 40)
        ]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_validation(self):
        with pytest.raises(DomainError):
            ChannelParams(h0_db=-30.0, d_m=0.0, d0_m=1.0, alpha=3.4, noise_dbm=-110.0)
        with pytest.raises(DomainError):
            ChannelParams(h0_db=-30.0, d_m=1.0, d0_m=-1.0, alpha=3.4, noise_dbm=-110.0)
        with pytest.raises(DomainError):
            ChannelParams(h0_db=-30.0, d_m=1.0, d0_m=1.0, alpha=-2.0, noise_dbm=-110.0)
        with pytest.raises(DomainError):
            ChannelParams(h0_db=float("inf"), d_m=1.0, d0_m=1.0, alpha=2.0, noise_dbm=-110.0)
        # link budgets whose linear gain or noise power overflows or underflows
        for h0_db, noise_dbm in ((4000.0, -110.0), (-4000.0, -110.0), (-30.0, 4000.0), (-30.0, -4000.0)):
            with pytest.raises(DomainError):
                ChannelParams(h0_db=h0_db, d_m=1.0, d0_m=1.0, alpha=2.0, noise_dbm=noise_dbm)


class TestConversions:
    def test_known_point(self):
        assert_rel(dbm_to_watt(-110.0), 1e-14, 1e-12)
        assert dbm_to_watt(0.0) == 1e-3


class TestFading:
    def test_unit_mean(self):
        f = sample_fading(101, 1_000_000)
        assert abs(f.mean() - 1.0) < 0.005

    def test_determinism(self):
        assert np.array_equal(sample_fading(5, 1000), sample_fading(5, 1000))
        assert not np.array_equal(sample_fading(5, 1000), sample_fading(6, 1000))

    def test_exponential_cdf_at_one(self):
        f = sample_fading(303, 1_000_000)
        assert abs((f <= 1.0).mean() - (1.0 - math.exp(-1.0))) < 0.005

    def test_n_validation(self):
        with pytest.raises(DomainError):
            sample_fading(1, 0)


class TestSnr:
    def test_zero_power(self, ref_state):
        assert snr(0.0, ref_state) == 0.0

    def test_reference_point(self, ref_state):
        # 6.31e-4 W into -98 dB gain over 1e-14 W noise: 10 dB
        assert_rel(snr(6.30957344e-4, ref_state), 10.0, 0.005)

    def test_linearity_exact(self, ref_state):
        q = 7.25e-4
        assert snr(2.0 * q, ref_state) == 2.0 * snr(q, ref_state)

    def test_negative_power_rejected(self, ref_state):
        with pytest.raises(DomainError):
            snr(-1e-6, ref_state)


class TestState:
    def test_make_state_composes_gain(self, ref_params):
        st = make_channel_state(ref_params, fading=0.5)
        assert st.gain == path_loss_linear(ref_params) * 0.5
        assert st.fading == 0.5
        assert_rel(st.noise_w, 1e-14, 1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            ChannelState(gain=0.0, noise_w=1e-14)
        with pytest.raises(DomainError):
            ChannelState(gain=1e-10, noise_w=0.0)
