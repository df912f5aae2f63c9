"""Property tests of the closed-form constraint line over random surfaces.

Surfaces, BER boxes and targets are drawn at random (derandomised, see
``conftest.py``); every example checks the line end points and the
``psi2`` inverse on the scalar and the array path against the surface
itself and against a tight bisection reference.
"""

import math

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from sempower.numerics import ToleranceConfig, bisect_root
from sempower.perception import (
    SurfaceParams,
    constraint_line_endpoints,
    eval_surface,
    invert_surface_psi2,
    solve_psi2_on_constraint,
)

P_ATOL = 1e-14
PSI2_ATOL = 1e-11
P_ULPS = 8 * np.finfo(float).eps  # a few ulps of P <= 1
REFERENCE = ToleranceConfig(abs_tol=1e-16, rel_tol=1e-16, max_iter=400)

# Fractions of the way along the line, end points included.
along = st.floats(0.0, 1.0)


@st.composite
def surfaces(draw):
    p0 = draw(st.floats(0.0, 0.9))
    pmax = p0 + (1.0 - p0) * draw(st.floats(0.05, 1.0))
    log_tau = st.floats(-8.0, 0.0)
    beta = st.floats(0.3, 3.0)  # sub- and super-linear decay shapes
    return SurfaceParams(
        p0=p0,
        pmax=min(pmax, 1.0),
        tau1=10.0 ** draw(log_tau),
        tau2=10.0 ** draw(log_tau),
        beta1=draw(beta),
        beta2=draw(beta),
    )


@st.composite
def problems(draw):
    s = draw(surfaces())
    box = (draw(st.floats(1e-12, 0.5)), draw(st.floats(1e-12, 0.5)))
    top = eval_surface(s, *box)
    p_bar = s.p0 + (top - s.p0) * draw(st.floats(1e-6, 1.0 - 1e-6))
    assume(s.p0 < p_bar < top)  # a tiny box can leave no target between them
    return s, box, p_bar


def dp_dpsi2(s, psi1, psi2):
    """dP/dpsi2, infinite or zero at psi2 = 0 by beta2 (no SingularityError)."""
    u = (psi1 / s.tau1) ** s.beta1 + (psi2 / s.tau2) ** s.beta2
    with np.errstate(divide="ignore"):
        shape = np.float64(psi2 / s.tau2) ** (s.beta2 - 1.0)
    return (s.pmax - s.p0) * math.exp(-u) * (s.beta2 / s.tau2) * shape


def reference_psi2(s, psi1, p_bar, m2):
    """Tight bisection for psi2; a slice end when the target sits there."""
    gap = lambda x: eval_surface(s, psi1, x) - p_bar  # noqa: E731
    if gap(0.0) >= 0.0:
        return 0.0
    if gap(m2) <= 0.0:
        return m2
    return bisect_root(lambda x: gap(x) < 0.0, 0.0, m2, REFERENCE)[0]


@given(problems(), st.lists(along, min_size=1, max_size=8))
def test_closed_form_line(problem, fractions):
    s, (m1, m2), p_bar = problem
    (l1, l2), (r1, r2) = constraint_line_endpoints(s, p_bar, psi_max=(m1, m2))

    # end points: ordered along the line, inside the box, on the constraint
    assert 0.0 <= l1 <= r1 <= m1
    assert 0.0 <= r2 <= l2 <= m2
    assert abs(eval_surface(s, l1, l2) - p_bar) <= P_ATOL
    assert abs(eval_surface(s, r1, r2) - p_bar) <= P_ATOL
    ends = np.array([l1, r1])
    p_ends = np.asarray(eval_surface(s, ends, invert_surface_psi2(s, ends, p_bar, m2)))
    assert np.all(np.abs(p_ends - p_bar) <= P_ATOL)

    psi1 = np.array([l1 + f * (r1 - l1) for f in fractions])
    scalar = np.array([solve_psi2_on_constraint(s, v, p_bar, psi2_max=m2) for v in psi1])
    array = solve_psi2_on_constraint(s, psi1, p_bar, psi2_max=m2)
    unchecked = invert_surface_psi2(s, psi1, p_bar, m2)
    p_scalar = np.asarray(eval_surface(s, psi1, scalar))
    p_array = np.asarray(eval_surface(s, psi1, array))
    assert np.all(np.abs(p_scalar - p_bar) <= P_ATOL)
    assert np.all(np.abs(p_array - p_bar) <= P_ATOL)
    # numpy's vector pow may differ from the scalar one by an ulp, which
    # cancellation near the right end amplifies in psi2; compare in P
    assert np.all(np.abs(p_scalar - p_array) <= P_ATOL)
    assert np.all((array == unchecked) | (array == 0.0))

    for v, closed in zip(psi1, scalar):
        reference = reference_psi2(s, v, p_bar, m2)
        # Where P is nearly flat in psi2 (beta2 > 1, psi2 << tau2) a few
        # ulps of P leave psi2 undetermined by more than PSI2_ATOL; both
        # solves are exact only to that level there.
        slope = dp_dpsi2(s, v, reference)
        flat = P_ULPS / slope if slope > 0.0 else math.inf
        assert abs(closed - reference) <= PSI2_ATOL + flat, (v, closed, reference)
