import contextlib
import math
import random
from unittest import mock

import numpy as np
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
from sempower import solvers
from sempower.numerics import Rng

# Property tests are deterministic and bounded so the suite stays fast
# and reproducible; no example database is written.
settings.register_profile(
    "suite", derandomize=True, deadline=None, max_examples=200, database=None
)
settings.load_profile("suite")
# `--hypothesis-profile=fuzz` draws afresh: 10x the examples from a seed
# printed in the report header, which `--hypothesis-seed` takes back.
settings.register_profile(
    "fuzz", derandomize=False, deadline=None, max_examples=2000, database=None
)


@pytest.hookimpl(tryfirst=True)  # before Hypothesis reads the seed
def pytest_configure(config):
    if config.option.hypothesis_profile == "fuzz" and config.option.hypothesis_seed is None:
        config.option.hypothesis_seed = str(random.randrange(2**32))


def pytest_report_header(config):
    if config.option.hypothesis_profile == "fuzz":
        return f"hypothesis seed {config.option.hypothesis_seed}"

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
    held to. The run stops only on width (an exact zero, like NaN, counts
    as above), so its length is the midpoint count of ``bisect_root``'s
    bound whatever values ``f`` rounds to."""
    seen = []
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo < max(tol.abs_tol, tol.rel_tol * abs(mid)) or len(seen) == tol.max_iter:
            return seen
        y = f(mid)
        seen.append(mid)
        lo, hi = (mid, hi) if y < 0.0 else (lo, mid)


@contextlib.contextmanager
def recorded_gap_calls():
    """Record the points at which each share search evaluates its gap.

    Yields a list that gets the shares ``(s1, s2)`` of each evaluation, in
    order; clear it between solves. Each evaluation makes one call of the
    solve's pair rule, with both shares.
    """
    calls = []
    search = solvers._share_search

    def recording(ends, pair, *rest):
        def recorded(s1, s2):
            calls.append((s1, s2))
            return pair(s1, s2)

        return search(ends, recorded, *rest)

    with mock.patch.object(solvers, "_share_search", recording):
        yield calls


_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)


def dense_simulate_ber(m, state, q, cfg):
    """``simulate_ber`` demodulating every sample: the reference its skip
    of the pairs that cannot cross a decision boundary is held to. The
    blocks of 2^16 pairs are counted in turn."""
    k = m.bits_per_symbol
    axes = [nb for nb in (k - k // 2, k // 2) if nb]
    norm = math.sqrt(sum((4**nb - 1) // 3 for nb in axes))
    n_sym = -(-cfg.n_bits // k)
    half = (n_sym + 1) // 2  # Box-Muller pairs per axis
    n_words = -(-n_sym * k // 64)  # payload words, ahead of the normals
    rng = Rng(cfg.seed)

    amp = math.sqrt(q * state.gain)
    sigma = math.sqrt(state.noise_w / 2.0)
    amp_eff = max(amp, 1e-150)
    grids = []
    for col, nb in zip((0, axes[0]), axes):  # col: the axis's first bit in a symbol
        top = (1 << nb) - 1
        pos = np.arange(top + 1)
        gray = pos ^ (pos >> 1)  # word at each level position; argsort inverts it
        level_of_word = ((2.0 * pos - top) / norm)[np.argsort(gray)]
        grids.append((col, nb, top, gray, level_of_word))

    def count(p0: int) -> int:
        # pairs [p0, p1): their cosines belong to symbols [p0, p1), their
        # sines to [half + p0, half + p1), cut at n_sym
        p1 = min(p0 + (1 << 16), half)
        spans = [(s0, s1, trig) for s0, s1, trig in
                 ((p0, p1, np.cos), (half + p0, min(half + p1, n_sym), np.sin)) if s1 > s0]
        payload = [rng.bits_at(s0 * k, (s1 - s0) * k).reshape(-1, k) for s0, s1, _ in spans]
        errors = 0
        for a, (col, nb, top, gray, level_of_word) in enumerate(grids):
            u1 = n_words + 2 * a * half + p0  # the axis's radius words, then its angle words
            r, ang = rng.polar_at(u1, u1 + half, p1 - p0)
            for (s0, s1, trig), bits in zip(spans, payload):
                n = s1 - s0
                words = bits[:, col].astype(np.int64)  # the axis's bits, MSB first
                for j in range(col + 1, col + nb):
                    words = (words << 1) | bits[:, j]
                x = (amp * level_of_word[words] + sigma * (r[:n] * trig(ang[:n]))) / amp_eff
                # invert the level map, round to the nearest level, clip to the grid
                pos_hat = np.clip(np.rint((x * norm + top) / 2.0), 0, top).astype(np.int64)
                errors += int(_POPCOUNT[words ^ gray[pos_hat]].sum())
        return errors

    return sum(map(count, range(0, half, 1 << 16))) / (n_sym * k)
