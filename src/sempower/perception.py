"""Perception-error surface, single-stream curves, and semantic values.

The regenerated-image perception error is modelled as a smooth monotone
surrogate of the per-stream BERs ``(psi1, psi2)``:

    P(psi1, psi2) = pmax - (pmax - p0) * exp(-(psi1/tau1)^beta1
                                             -(psi2/tau2)^beta2)

The family is non-decreasing in each BER by construction, has floor
``p0`` at error-free transmission and saturates at ``pmax``. The same
shape restricted to one coordinate gives the single-stream curves
``P_i(psi)`` whose floor defines the semantic value ``L_i = 1 - P_i(0)``
of the transmitted stream.

Bundled defaults: the joint surface uses ``p0=0.30, pmax=0.95,
tau=(5e-3, 1e-3), beta=(1, 1)``; the per-stream curves pin the floors to
the prompt and edge semantic values ``L1 = 0.5887`` and ``L2 = 0.3596``,
with the edge stream decaying on the smaller BER scale (it carries more
bits, so it is more fragile per bit error rate).

Serialised documents carry a ``family`` identifier
(:data:`SURFACE_FAMILY` / :data:`CURVE_FAMILY`) so that alternative
functional forms can be introduced without ambiguity. Swapping the
family means replacing all that the solvers read of it: evaluation
(:func:`_surface`, :func:`_surface_of_decay`) and its monotonicity, the
line's decay-share form (:func:`decay_shares`, its parts, :func:`line_point`),
the decay :func:`_decay` that ``equal_snr``'s gap sums, its inverse
:func:`_ber_of_decay` (spelt out in the solvers from each ``tau_i`` and
``1 / beta_i``) and each ``beta_i`` in the share search's offsets. Each
function of the BERs is a float kernel, which the solvers call directly,
lifted to arrays by :func:`~sempower.numerics._elementwise`.
"""

from __future__ import annotations

import csv
import math
import statistics
import sys
from dataclasses import MISSING, dataclass, fields
from functools import partial

import yaml

from .errors import ConfigError, DomainError, InfeasibleError, SingularityError
from .numerics import Rng, ToleranceConfig, _check_positive, _elementwise, np

__all__ = [
    "L_PROMPT",
    "L_EDGE",
    "SurfaceParams",
    "StreamCurve",
    "SampleSet",
    "FitResult",
    "eval_surface",
    "surface_partials",
    "eval_curve",
    "semantic_value_transmitted",
    "semantic_value_received",
    "solve_psi2_on_constraint",
    "constraint_line_endpoints",
    "fit_surface",
    "default_surface",
    "default_prompt_curve",
    "default_edge_curve",
    "synthetic_sample_set",
    "load_sample_set",
    "save_sample_set",
    "save_surface",
    "load_surface",
]

# BER domain: 0.5 is the random-guess ceiling for binary data.
PSI_MAX = 0.5

# Rounding level of P, which lies in [0, 1]: eval_surface and the
# closed-form constraint inverse are exact to a few ulps of 1, so a
# target that close to a slice end is on the slice.
_P_ROUNDING = 8 * sys.float_info.epsilon

# Semantic values of the transmitted prompt and edge streams.
L_PROMPT = 0.5887
L_EDGE = 0.3596

SURFACE_FAMILY = "exp-power-sum"
CURVE_FAMILY = "exp-power"


def _check_perception(params, *positive: str) -> None:
    """A surface's or a curve's rules: ``0 <= p0 < pmax <= 1``, then ``positive`` finite and > 0."""
    if not (0.0 <= params.p0 < params.pmax <= 1.0):
        raise DomainError(f"need 0 <= p0 < pmax <= 1, got p0={params.p0}, pmax={params.pmax}")
    _check_positive(params, *positive)


@dataclass(frozen=True)
class SurfaceParams:
    """Parameters of the joint perception-error surface.

    ``p0`` floor at zero BER, ``pmax`` saturation ceiling, ``tau_i`` BER
    decay scales, ``beta_i`` decay shape exponents.
    """

    p0: float
    pmax: float
    tau1: float
    tau2: float
    beta1: float
    beta2: float

    def __post_init__(self) -> None:
        _check_perception(self, "tau1", "tau2", "beta1", "beta2")


@dataclass(frozen=True)
class StreamCurve:
    """Single-stream perception curve, same family in one coordinate.

    ``value`` optionally pins the transmitted semantic value ``1 - p0``
    to a published decimal constant; ``1 - p0`` evaluated in binary64
    can sit one ulp away from the decimal literal, so the bundled curves
    carry the constant explicitly.
    """

    p0: float
    pmax: float
    tau: float
    beta: float
    value: float | None = None

    def __post_init__(self) -> None:
        _check_perception(self, "tau", "beta")
        if self.value is not None and not (
            self.value > 0.0 and abs((1.0 - self.p0) - self.value) <= 1e-12
        ):
            raise DomainError("value must be > 0 and agree with 1 - p0 (within rounding)")


def _check_ber(psi: float, what: str) -> None:
    if not 0.0 <= psi <= PSI_MAX:  # NaN and +-inf fail too
        raise DomainError(f"{what} must lie in [0, {PSI_MAX}]")


def _decay(psi: float, tau: float, beta: float) -> float:
    """``(psi/tau)^beta`` by libm's ``pow``; infinite beyond binary64."""
    r = psi / tau
    try:
        if r < math.inf:
            return r ** beta
        # psi/tau alone leaves binary64 (a subnormal tau): take the power in logs
        return math.exp(beta * (math.log(psi) - math.log(tau)))
    except OverflowError:
        return math.inf


def _surface(s: SurfaceParams, psi1: float, psi2: float) -> float:
    """:func:`eval_surface`'s float kernel; the solvers call it directly."""
    _check_ber(psi1, "psi1")
    _check_ber(psi2, "psi2")
    return _surface_of_decay(s, _decay(psi1, s.tau1, s.beta1) + _decay(psi2, s.tau2, s.beta2))


def _surface_of_decay(s: SurfaceParams, u: float) -> float:
    """The surface at the decay sum ``u``: ``p0 + (pmax - p0) (1 - exp(-u))``."""
    return s.p0 + (s.pmax - s.p0) * -math.expm1(-u)


def eval_surface(s: SurfaceParams, psi1, psi2):
    """Perception error ``P(psi1, psi2)``; floats or arrays.

    Non-decreasing in each argument, with range ``[p0, pmax)`` over the
    BER domain ``[0, 0.5]^2``. Evaluated as
    ``p0 + (pmax - p0) * (1 - exp(-u))`` with ``expm1``, which is exact
    at the floor and accurate for small decay arguments. A decay beyond
    binary64 is infinite and gives exactly ``pmax``.
    """
    return _elementwise(partial(_surface, s), psi1, psi2)


def _slope(envelope: float, psi: float, u: float, tau: float, beta: float) -> float:
    """``envelope`` times ``d u / d psi``: ``beta u / psi``, as ``beta / tau`` overflows at a
    subnormal ``tau``, or ``beta (psi/tau)^(beta-1) / tau`` where ``u`` is below the normals."""
    if u < sys.float_info.min:  # psi = 0 too
        return envelope * (beta * _decay(psi, tau, beta - 1.0) / tau)
    return envelope * beta * u / psi


def _partials(s: SurfaceParams, psi1: float, psi2: float) -> tuple[float, float]:
    _check_ber(psi1, "psi1")
    _check_ber(psi2, "psi2")
    if s.beta1 < 1.0 and psi1 == 0.0:
        raise SingularityError("dP/dpsi1 is singular at psi1=0 when beta1 < 1")
    if s.beta2 < 1.0 and psi2 == 0.0:
        raise SingularityError("dP/dpsi2 is singular at psi2=0 when beta2 < 1")
    u1, u2 = _decay(psi1, s.tau1, s.beta1), _decay(psi2, s.tau2, s.beta2)
    envelope = (s.pmax - s.p0) * math.exp(-u1 - u2)
    if envelope == 0.0:  # underflowed, or a decay is infinite: the limit is 0
        return 0.0, 0.0
    return _slope(envelope, psi1, u1, s.tau1, s.beta1), _slope(envelope, psi2, u2, s.tau2, s.beta2)


def surface_partials(s: SurfaceParams, psi1, psi2):
    """Analytic partial derivatives ``(dP/dpsi1, dP/dpsi2)``.

    Both are non-negative everywhere on the domain. With a shape
    exponent below one the derivative diverges at zero BER, which raises
    :class:`SingularityError`. Floats or arrays.
    """
    return _elementwise(partial(_partials, s), psi1, psi2, nout=2)


def _curve(c: StreamCurve, psi: float) -> float:
    _check_ber(psi, "psi")
    return c.p0 + (c.pmax - c.p0) * -math.expm1(-_decay(psi, c.tau, c.beta))


def eval_curve(c: StreamCurve, psi):
    """Single-stream perception error ``P_i(psi)``; exactly ``p0`` at 0. Floats or arrays."""
    return _elementwise(partial(_curve, c), psi)


def semantic_value_transmitted(c: StreamCurve) -> float:
    """Semantic value of the error-free stream, ``1 - P_i(0) = 1 - p0``."""
    return c.value if c.value is not None else 1.0 - c.p0


def _received(c: StreamCurve, psi: float) -> float:
    return semantic_value_transmitted(c) - (_curve(c, psi) - c.p0)


def semantic_value_received(c: StreamCurve, psi):
    """Semantic value after transmission at BER ``psi``, ``1 - P_i(psi)``.

    Computed as the transmitted value minus the perception degradation
    above the floor, so it equals the transmitted value exactly at zero
    BER and never exceeds it. Floats or arrays.
    """
    return _elementwise(partial(_received, c), psi)


def default_surface() -> SurfaceParams:
    """Bundled joint surface (configuration default, not ground truth)."""
    return SurfaceParams(p0=0.30, pmax=0.95, tau1=5e-3, tau2=1e-3, beta1=1.0, beta2=1.0)


def default_prompt_curve() -> StreamCurve:
    """Bundled prompt-stream curve; floor pinned so that L1 = 0.5887."""
    return StreamCurve(p0=1.0 - L_PROMPT, pmax=0.95, tau=5e-3, beta=1.0, value=L_PROMPT)


def default_edge_curve() -> StreamCurve:
    """Bundled edge-stream curve; floor pinned so that L2 = 0.3596."""
    return StreamCurve(p0=1.0 - L_EDGE, pmax=0.95, tau=1e-3, beta=1.0, value=L_EDGE)


def default_curve(name: str) -> StreamCurve:
    """Bundled curve by name: ``default-prompt`` or ``default-edge``."""
    if name == "default-prompt":
        return default_prompt_curve()
    if name == "default-edge":
        return default_edge_curve()
    raise DomainError(f"unknown bundled curve {name!r}; use 'default-prompt' or 'default-edge'")


# ---------------------------------------------------------------------------
# Constraint geometry
# ---------------------------------------------------------------------------


def _line_u(s: SurfaceParams, p_bar: float) -> float:
    """``U = -log1p(-(p_bar - p0) / (pmax - p0))``, the decay sum on ``P = p_bar``; inf at ``pmax``."""
    x = (p_bar - s.p0) / (s.pmax - s.p0)
    return -math.log1p(-x) if x < 1.0 else math.inf


def _solve_psi2(s: SurfaceParams, p_bar: float, psi2_max: float, psi1: float) -> float:
    lo, hi, r = _surface(s, psi1, 0.0), _surface(s, psi1, psi2_max), _P_ROUNDING
    if not lo - r <= p_bar <= hi + r:  # a NaN target fails too
        raise InfeasibleError(
            f"target {p_bar:g} outside the reachable slice [{lo:g}, {hi:g}] at psi1={psi1:g}"
        )
    rest = _line_u(s, p_bar) - _decay(psi1, s.tau1, s.beta1)
    if lo >= p_bar or rest <= 0.0:
        return 0.0
    psi2 = _ber_of_decay(s.tau2, rest, 1.0 / s.beta2)
    return psi2 if psi2 < psi2_max else psi2_max


def solve_psi2_on_constraint(
    s: SurfaceParams,
    psi1,
    p_bar: float,
    tol: ToleranceConfig | None = None,
    psi2_max: float = PSI_MAX,
):
    """The ``psi2`` with ``P(psi1, psi2) = p_bar`` at fixed ``psi1``; floats or arrays.

    ``P = p_bar`` is equivalent to ``(psi1/tau1)^beta1 + (psi2/tau2)^beta2
    = U`` with ``U = -log1p(-(p_bar - p0) / (pmax - p0))``, so
    ``psi2 = tau2 * max(U - (psi1/tau1)^beta1, 0)^(1/beta2)``, clipped to
    ``[0, psi2_max]``. The powers are :func:`line_point`'s, taken in logs
    where they leave binary64. Raises :class:`InfeasibleError` when
    ``p_bar`` is NaN or outside the reachable slice
    ``[P(psi1, 0), P(psi1, psi2_max)]`` by more than rounding (so the ends
    from :func:`constraint_line_endpoints` are accepted), and returns
    exactly 0 where ``P(psi1, 0) >= p_bar``. ``tol`` is ignored (the root
    is closed-form); it stays for callers that pass it.
    """
    return _elementwise(partial(_solve_psi2, s, p_bar, psi2_max), psi1)


def decay_shares(
    s: SurfaceParams, p_bar: float, psi_max: tuple[float, float] = (PSI_MAX, PSI_MAX)
) -> tuple[float, float, float]:
    """The constraint line ``P(psi1, psi2) = p_bar`` in decay shares.

    ``P = p_bar`` is ``u1 + u2 = U`` with ``u_i = (psi_i/tau_i)^beta_i``
    and ``U = -log1p(-(p_bar - p0) / (pmax - p0))``. A point of the line
    is a pair of shares ``s1 + s2 = 1`` of ``U``, with
    ``psi_i = tau_i (s_i U)^(1/beta_i)`` (:func:`line_point`), so the line
    needs no inverse. Returns ``(U, top1, top2)``: ``top_i`` is the
    largest share stream ``i`` can hold inside the box,
    ``min(1, (psi_max_i/tau_i)^beta_i / U)``, and stream ``i``'s share
    runs from ``1 - top_j`` to ``top_i``. No validation: the caller
    keeps ``p0 < p_bar < pmax``.
    """
    u = _line_u(s, p_bar)
    return (u, _top_share(_decay(psi_max[0], s.tau1, s.beta1), u),
            _top_share(_decay(psi_max[1], s.tau2, s.beta2), u))


def _top_share(decay: float, u: float) -> float:  # a stream's decay at the box over U, at most 1
    share = decay / u  # a decay beyond binary64 is far above U
    return share if share < 1.0 else 1.0  # min(1, share), without the call


def _line_ends(top) -> tuple[tuple[float, float], tuple[float, float]]:
    """The shares at the line's two ends, given each stream's largest share ``top``.

    Stream 2 holds its largest share at the first end (the smallest
    ``psi1``) and stream 1 at the second, so stream ``i``'s shares run
    from ``ends[i][i]`` to ``top[i]``.
    """
    end1, end2 = 1.0 - top[1], 1.0 - top[0]  # each clipped at 0, without max()
    return ((end1 if end1 > 0.0 else 0.0, top[1]), (top[0], end2 if end2 > 0.0 else 0.0))


def _ber_of_decay(tau: float, x: float, inv_beta: float) -> float:
    """The BER ``tau x^(1/beta)`` whose decay is ``x``; infinite beyond binary64."""
    try:
        return tau * x ** inv_beta
    except OverflowError:  # x^(1/beta) leaves binary64, but tau x^(1/beta) may not
        pass
    try:
        return math.exp(math.log(tau) + math.log(x) * inv_beta)
    except OverflowError:
        return math.inf


def line_point(
    s: SurfaceParams, u: float, shares, psi_max: tuple[float, float] = (PSI_MAX, PSI_MAX)
) -> tuple[float, float]:
    """The BERs ``psi_i = tau_i (s_i U)^(1/beta_i)`` at ``shares``, clipped to the box."""
    psi1 = _ber_of_decay(s.tau1, shares[0] * u, 1.0 / s.beta1)
    psi2 = _ber_of_decay(s.tau2, shares[1] * u, 1.0 / s.beta2)
    return (psi_max[0] if psi_max[0] < psi1 else psi1, psi_max[1] if psi_max[1] < psi2 else psi2)


def constraint_line_endpoints(
    s: SurfaceParams,
    p_bar: float,
    tol: ToleranceConfig | None = None,
    psi_max: tuple[float, float] = (PSI_MAX, PSI_MAX),
):
    """End points of the constraint line ``P(psi1, psi2) = p_bar``.

    Within the box ``[0, psi_max1] x [0, psi_max2]`` the feasible set is
    a monotone arc: sorting by ``psi1`` gives non-increasing ``psi2``.
    Returns ``((psi1_L, psi2_L), (psi1_R, psi2_R))`` with the left end at
    the smallest feasible ``psi1`` and the right end at the largest: the
    left end gives stream 2 its largest share of :func:`decay_shares`,
    the right end stream 1. ``tol`` is ignored, as in
    :func:`solve_psi2_on_constraint`.

    Raises :class:`InfeasibleError` unless ``p0 < p_bar < P(psi_max)``.
    """
    top = _surface(s, *psi_max)
    if not (s.p0 < p_bar < top):
        raise InfeasibleError(
            f"target {p_bar:g} outside the open achievable range ({s.p0:g}, {top:g})"
        )
    u, *top = decay_shares(s, p_bar, psi_max)
    return tuple(line_point(s, u, shares, psi_max) for shares in _line_ends(top))


# ---------------------------------------------------------------------------
# Sample sets and fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Rows of ``(psi1, psi2, P)`` used to fit a surface."""

    psi1: np.ndarray
    psi2: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        for name in ("psi1", "psi2", "p"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.psi1.shape == self.psi2.shape == self.p.shape) or self.psi1.ndim != 1:
            raise DomainError("psi1, psi2 and p must be equal-length 1-D arrays")
        for name, v, hi in (("psi1", self.psi1, PSI_MAX), ("psi2", self.psi2, PSI_MAX),
                            ("P", self.p, 1)):
            if not np.all((v >= 0.0) & (v <= hi)):  # NaN and +-inf fail too
                raise DomainError(f"{name} must lie in [0, {hi}]")

    def __len__(self) -> int:
        return int(self.psi1.size)


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters plus fit metadata."""

    params: SurfaceParams
    rmse: float
    n_samples: int
    converged: bool
    iterations: int = 0  # accepted solver steps
    evaluations: int = 0  # residual evaluations


_N_SURFACE_PARAMS = 6

# Box for the fit vector (p0, pmax, log tau1, log tau2, log beta1,
# log beta2). The scale and shape boxes keep (psi/tau)^beta below
# (0.5/1e-12)^20 = exp(539) for every psi in the BER domain, so no
# iterate overflows.
_FIT_LOWER = (0.0, 0.0, *map(math.log, (1e-12, 1e-12, 0.05, 0.05)))
_FIT_UPPER = (1.0, 1.0, *map(math.log, (1e3, 1e3, 20.0, 20.0)))

# Levenberg–Marquardt: step budget, relative step and cost tolerance,
# starting damping (relative to Marquardt's scaling), and the damping
# below which a step counts as Gauss–Newton for the cost test.
_FIT_MAX_STEPS = 500
_FIT_TOL = 1e-12
_LM_LAMBDA0 = 1e-3
_LM_GAUSS_NEWTON = 1e-6


def _default_fit_init(data: SampleSet) -> SurfaceParams:
    p_lo = float(np.min(data.p))
    p_hi = float(np.max(data.p))
    pmax = min(0.999, p_hi + 0.02)
    p0 = min(max(p_lo, 1e-4), 0.98 * pmax)
    pos1 = data.psi1[data.psi1 > 0.0]
    pos2 = data.psi2[data.psi2 > 0.0]
    # statistics.median, as np.median would import numpy.ma (14 ms)
    tau1 = statistics.median(pos1.tolist()) if pos1.size else 1e-2
    tau2 = statistics.median(pos2.tolist()) if pos2.size else 1e-2
    return SurfaceParams(p0=p0, pmax=pmax, tau1=tau1, tau2=tau2, beta1=1.0, beta2=1.0)


def fit_surface(data: SampleSet) -> FitResult:
    """Least-squares fit of the surface family to sampled ``(psi, P)`` rows.

    One bounded Levenberg–Marquardt solve (:func:`_bounded_lm`;
    Levenberg 1944, Marquardt 1963) over ``(p0, pmax, log tau1, log tau2,
    log beta1, log beta2)`` with the analytic Jacobian. ``p0`` and
    ``pmax`` are boxed to ``[0, 1]``, the log scales and shapes to a
    finite box. ``converged`` is False when the step budget ran out.
    Constant ``P``, or a fit that does not end with ``p0 < pmax``, raises
    :class:`DomainError`.
    """
    if len(data) < _N_SURFACE_PARAMS:
        raise DomainError(
            f"need at least {_N_SURFACE_PARAMS} samples to fit, got {len(data)}"
        )
    if np.ptp(data.p) == 0.0:
        raise DomainError("P is constant over the samples; the surface is not identifiable")
    residual, jacobian, x0 = _fit_problem(data)
    x, cost, converged, steps, evals = _bounded_lm(residual, jacobian, x0,
                                                   np.array(_FIT_LOWER), np.array(_FIT_UPPER))
    if not x[0] < x[1]:
        raise DomainError(
            f"surface fit failed: it ended with p0={x[0]:.6g} >= pmax={x[1]:.6g}, "
            "so the samples do not rise with the BERs as the surface family must"
        )
    params = SurfaceParams(*x[:2].tolist(), *np.exp(x[2:]).tolist())
    return FitResult(params=params, rmse=math.sqrt(2.0 * cost / len(data)), n_samples=len(data),
                     converged=converged, iterations=steps, evaluations=evals)


def _fit_problem(data: SampleSet):
    """``(residual, jacobian, x0)`` of the fit in its six coordinates."""
    s = _default_fit_init(data)
    x0 = np.r_[s.p0, s.pmax, np.log([s.tau1, s.tau2, s.beta1, s.beta2])]
    x0 = np.clip(x0, _FIT_LOWER, _FIT_UPPER)
    psi = np.stack([data.psi1, data.psi2])
    pos = psi > 0.0
    log_psi = np.log(np.where(pos, psi, 1.0))

    def decay(x):
        # u_i = (psi_i/tau_i)^beta_i and log(psi_i/tau_i), 0 where psi_i = 0
        log_ratio = np.where(pos, log_psi - x[2:4, None], 0.0)
        return np.where(pos, np.exp(np.exp(x[4:6, None]) * log_ratio), 0.0), log_ratio

    def residual(x):
        u, _ = decay(x)
        return x[0] + (x[1] - x[0]) * -np.expm1(-u.sum(axis=0)) - data.p

    def jacobian(x):
        u, log_ratio = decay(x)
        e = np.exp(-u.sum(axis=0))
        bu = np.exp(x[4:6, None]) * u * ((x[1] - x[0]) * e)
        return np.vstack([e, 1.0 - e, -bu, bu * log_ratio]).T

    return residual, jacobian, x0


def _bounded_lm(residual, jacobian, x, lower, upper):
    """Minimise ``|residual(x)|^2 / 2`` over the box ``[lower, upper]``.

    Levenberg–Marquardt: the step solves ``[J; sqrt(lam D)] dx = [-r; 0]``
    by least squares, with Marquardt's scaling ``D`` the running maximum
    of ``diag(J^T J)`` (Moré 1978), and ``lam`` follows Nielsen's
    gain-ratio rule (Madsen, Nielsen & Tingleff 2004). A variable at a
    bound whose gradient points out of the box is held out of the step,
    and each trial point is clipped to the box. Stops on a relative step
    of at most ``_FIT_TOL``, on a decrease of at most ``_FIT_TOL * cost``
    once ``lam`` is near Gauss–Newton, or on a zero decrease. Returns
    ``(x, cost, converged, steps, evaluations)``; not converged means
    ``_FIT_MAX_STEPS`` accepted steps did not stop it.
    """
    r = residual(x)
    cost, evals, lam, scale = 0.5 * (r @ r), 1, _LM_LAMBDA0, np.zeros_like(x)
    for step in range(1, _FIT_MAX_STEPS + 1):
        jac = jacobian(x)
        grad = jac.T @ r
        scale = np.maximum(scale, np.einsum("ij,ij->j", jac, jac))
        free = ~(((x <= lower) & (grad > 0.0)) | ((x >= upper) & (grad < 0.0)))
        rhs, grow = np.r_[-r, np.zeros(np.count_nonzero(free))], 2.0
        while True:
            damped = np.vstack([jac[:, free], np.diag(np.sqrt(lam * scale[free]))])
            dx = np.zeros_like(x)
            dx[free] = np.linalg.lstsq(damped, rhs, rcond=None)[0]
            trial = np.clip(x + dx, lower, upper)
            r_trial = residual(trial)
            evals += 1
            cost_trial = 0.5 * (r_trial @ r_trial)
            tiny = np.linalg.norm(trial - x) <= _FIT_TOL * (_FIT_TOL + np.linalg.norm(x))
            if cost_trial <= cost or tiny:
                break
            lam, grow = lam * grow, 2.0 * grow
        if cost_trial > cost:  # a tiny step that does not lower the cost
            return x, cost, True, step - 1, evals
        decrease, gauss_newton = cost - cost_trial, lam <= _LM_GAUSS_NEWTON
        model = r + jac @ (trial - x)
        predicted = cost - 0.5 * (model @ model)
        gain = decrease / predicted if predicted > 0.0 else 0.0
        lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
        x, r, cost = trial, r_trial, cost_trial
        if tiny or decrease == 0.0 or (gauss_newton and decrease <= _FIT_TOL * cost):
            return x, cost, True, step, evals
    return x, cost, False, _FIT_MAX_STEPS, evals


def synthetic_sample_set(params: SurfaceParams, seed: int, noise_sigma: float = 0.0) -> SampleSet:
    """Deterministic synthetic samples of a known surface.

    A per-axis grid of zero plus 19 BERs log-spaced from 1e-5 to
    :data:`PSI_MAX` is fully crossed, the surface evaluated, and optional
    Gaussian noise added (clipped back into [0, 1]). Used for
    fit-recovery tests and to generate the bundled example CSV.
    """
    axis = np.concatenate([[0.0], np.geomspace(1e-5, PSI_MAX, 19)])
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    psi1 = g1.ravel()
    psi2 = g2.ravel()
    p = np.asarray(eval_surface(params, psi1, psi2), dtype=float)
    if noise_sigma > 0.0:
        p = p + noise_sigma * Rng(seed).normal_at(0, p.size)
    return SampleSet(psi1=psi1, psi2=psi2, p=np.clip(p, 0.0, 1.0))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

_SAMPLE_HEADER = ["psi1", "psi2", "P"]


def _read_csv_rows(path) -> list[list[float]]:
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        if [c.strip() for c in first] != _SAMPLE_HEADER:
            raise ConfigError(f"{path}: line 1: expected header "
                              f"{','.join(_SAMPLE_HEADER)!r}, got {','.join(first)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(_SAMPLE_HEADER):
                raise ConfigError(f"{path}: line {lineno}: expected {len(_SAMPLE_HEADER)} "
                                  f"fields, got {len(row)}")
            try:
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from None
    return rows


def load_sample_set(path) -> SampleSet:
    """Read ``psi1,psi2,P`` rows; unreadable or malformed input raises :class:`ConfigError`."""
    try:
        rows = _read_csv_rows(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    arr = np.asarray(rows, dtype=float).reshape(-1, 3)
    try:
        return SampleSet(psi1=arr[:, 0], psi2=arr[:, 1], p=arr[:, 2])
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def save_sample_set(data: SampleSet, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SAMPLE_HEADER)
        for v1, v2, vp in zip(data.psi1, data.psi2, data.p):
            writer.writerow([f"{v1:.12g}", f"{v2:.12g}", f"{vp:.12g}"])


# Document family and name of each serialised model class.
_DOCUMENTS = {SurfaceParams: (SURFACE_FAMILY, "surface"), StreamCurve: (CURVE_FAMILY, "curve")}


def _write_document(obj, path) -> None:
    """Write ``obj``'s family and fields (unset optional ones left out) as YAML.

    A :class:`FitResult` writes its parameters plus a ``fit`` section.
    """
    fit = obj if isinstance(obj, FitResult) else None
    params = fit.params if fit else obj
    doc = {"family": _DOCUMENTS[type(params)][0]}
    for f in fields(params):
        if getattr(params, f.name) is not None:
            doc[f.name] = float(getattr(params, f.name))
    if fit:
        doc["fit"] = {"rmse": float(fit.rmse), "n_samples": int(fit.n_samples),
                      "converged": bool(fit.converged)}
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def _read_document(cls, path):
    """Read a ``cls`` document; any defect in it raises :class:`ConfigError`."""
    family, name = _DOCUMENTS[cls]
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping")
    if doc.get("family", family) != family:
        raise ConfigError(f"{path}: unknown {name} family {doc['family']!r}")
    try:
        return cls(**{
            f.name: float(doc[f.name]) for f in fields(cls)
            if f.default is MISSING or doc.get(f.name) is not None
        })
    except KeyError as exc:
        raise ConfigError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError, DomainError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def save_surface(result: FitResult | SurfaceParams, path) -> None:
    """Write a surface document (YAML) with optional fit metadata."""
    _write_document(result, path)


def load_surface(path) -> SurfaceParams:
    return _read_document(SurfaceParams, path)


def save_curve(curve: StreamCurve, path) -> None:
    _write_document(curve, path)


def load_curve(path) -> StreamCurve:
    return _read_document(StreamCurve, path)
