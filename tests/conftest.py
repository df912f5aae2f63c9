import pytest
from hypothesis import settings

from sempower import (
    ChannelParams,
    ProblemSpec,
    StreamSpec,
    default_edge_curve,
    default_prompt_curve,
    default_surface,
    make_channel_state,
    preset,
    semantic_value_received,
    semantic_value_transmitted,
)

# Property tests are deterministic and bounded so the suite stays fast
# and reproducible; no example database is written.
settings.register_profile(
    "suite", derandomize=True, deadline=None, max_examples=200, database=None
)
settings.load_profile("suite")

# Reference link: -30 dB at 1 m, 100 m distance, exponent 3.4 (-98 dB
# total), -110 dBm noise.
REF_CHANNEL = ChannelParams(h0_db=-30.0, d_m=100.0, d0_m=1.0, alpha=3.4, noise_dbm=-110.0)


@pytest.fixture(scope="session")
def ref_params():
    return REF_CHANNEL


@pytest.fixture(scope="session")
def ref_state():
    return make_channel_state(REF_CHANNEL)


def make_problem(state, modulation="16qam", target=0.6, bits=(1024, 8192), cost_basis="bits"):
    scheme = preset(modulation)
    return ProblemSpec(
        streams=(
            StreamSpec(bits=bits[0], modulation=scheme, channel=state,
                       curve=default_prompt_curve(), name="prompt"),
            StreamSpec(bits=bits[1], modulation=scheme, channel=state,
                       curve=default_edge_curve(), name="edge"),
        ),
        surface=default_surface(),
        target=target,
        cost_basis=cost_basis,
    )


@pytest.fixture
def default_problem(ref_state):
    return make_problem(ref_state)


def kept_fractions(p, alloc):
    """``L_hat_i / L_i`` of both streams at the allocation's BERs."""
    return tuple(semantic_value_received(s.curve, v) / semantic_value_transmitted(s.curve)
                 for s, v in zip(p.streams, alloc.psi))


def rel_err(a, b):
    return abs(a - b) / abs(b)


def assert_rel(a, b, tol, label=""):
    err = rel_err(a, b)
    assert err <= tol, f"{label}: {a} vs {b}, rel err {err:.3g} > {tol:g}"


def midpoint_run(f, lo, hi, tol):
    """Points midpoint bisection evaluates on the sign of ``f``, under
    ``bisect_root``'s stopping rule: the reference its ITP search is
    held to."""
    seen = []
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo < max(tol.abs_tol, tol.rel_tol * abs(mid)) or len(seen) == tol.max_iter:
            return seen
        y = f(mid)
        seen.append(mid)
        if y == 0.0:
            return seen
        lo, hi = (mid, hi) if y < 0.0 else (lo, mid)
