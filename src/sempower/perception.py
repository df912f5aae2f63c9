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
functional forms can be introduced without ambiguity. The solvers rely
only on evaluation (:func:`eval_surface`), partial derivatives
(:func:`surface_partials`), monotonicity, and the inverse in ``psi2``
along the constraint line (:func:`invert_surface_psi2`, closed-form for
this family), so swapping the family means providing those four for the
new form.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np
import yaml

from .errors import ConfigError, DomainError, InfeasibleError, SingularityError
from .numerics import Rng, ToleranceConfig

__all__ = [
    "PSI_MAX",
    "L_PROMPT",
    "L_EDGE",
    "SurfaceParams",
    "StreamCurve",
    "SampleSet",
    "FitResult",
    "eval_surface",
    "surface_partials",
    "eval_curve",
    "invert_curve",
    "semantic_value_transmitted",
    "semantic_value_received",
    "invert_surface_psi2",
    "solve_psi2_on_constraint",
    "constraint_line_endpoints",
    "fit_surface",
    "default_surface",
    "default_prompt_curve",
    "default_edge_curve",
    "default_curve",
    "synthetic_sample_set",
    "load_sample_set",
    "save_sample_set",
    "save_surface",
    "load_surface",
    "save_curve",
    "load_curve",
    "SURFACE_FAMILY",
    "CURVE_FAMILY",
]

# BER domain: 0.5 is the random-guess ceiling for binary data.
PSI_MAX = 0.5

# Rounding level of P, which lies in [0, 1]: eval_surface and the
# closed-form constraint inverse are exact to a few ulps of 1, so a
# target that close to a slice end is on the slice.
_P_ROUNDING = 8 * np.finfo(float).eps

# Semantic values of the transmitted prompt and edge streams.
L_PROMPT = 0.5887
L_EDGE = 0.3596

SURFACE_FAMILY = "exp-power-sum"
CURVE_FAMILY = "exp-power"


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
        if not (0.0 <= self.p0 < self.pmax <= 1.0):
            raise DomainError(
                f"need 0 <= p0 < pmax <= 1, got p0={self.p0}, pmax={self.pmax}"
            )
        for name in ("tau1", "tau2", "beta1", "beta2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be finite and > 0, got {v}")


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
        if not (0.0 <= self.p0 < self.pmax <= 1.0):
            raise DomainError(
                f"need 0 <= p0 < pmax <= 1, got p0={self.p0}, pmax={self.pmax}"
            )
        for name in ("tau", "beta"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be finite and > 0, got {v}")
        if self.value is not None and abs((1.0 - self.p0) - self.value) > 1e-12:
            raise DomainError("value must agree with 1 - p0 (within rounding)")


def _check_psi(psi, what: str = "psi") -> np.ndarray:
    arr = np.asarray(psi, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= PSI_MAX)):  # NaN and +-inf fail too
        raise DomainError(f"{what} must lie in [0, {PSI_MAX}]")
    return arr


def eval_surface(s: SurfaceParams, psi1, psi2):
    """Perception error ``P(psi1, psi2)``; scalars or arrays.

    Non-decreasing in each argument, with range ``[p0, pmax)`` over the
    BER domain ``[0, 0.5]^2``. Evaluated as
    ``p0 + (pmax - p0) * (1 - exp(-u))`` with ``expm1``, which is exact
    at the floor and accurate for small decay arguments.
    """
    a1 = _check_psi(psi1, "psi1")
    a2 = _check_psi(psi2, "psi2")
    u = (a1 / s.tau1) ** s.beta1 + (a2 / s.tau2) ** s.beta2
    out = s.p0 + (s.pmax - s.p0) * (-np.expm1(-u))
    if np.ndim(psi1) == 0 and np.ndim(psi2) == 0:
        return float(out)
    return out


def surface_partials(s: SurfaceParams, psi1, psi2):
    """Analytic partial derivatives ``(dP/dpsi1, dP/dpsi2)``.

    Both are non-negative everywhere on the domain. With a shape
    exponent below one the derivative diverges at zero BER, which raises
    :class:`SingularityError`.
    """
    a1 = _check_psi(psi1, "psi1")
    a2 = _check_psi(psi2, "psi2")
    if s.beta1 < 1.0 and np.any(a1 == 0.0):
        raise SingularityError("dP/dpsi1 is singular at psi1=0 when beta1 < 1")
    if s.beta2 < 1.0 and np.any(a2 == 0.0):
        raise SingularityError("dP/dpsi2 is singular at psi2=0 when beta2 < 1")
    envelope = (s.pmax - s.p0) * np.exp(
        -((a1 / s.tau1) ** s.beta1) - (a2 / s.tau2) ** s.beta2
    )
    d1 = envelope * (s.beta1 / s.tau1) * (a1 / s.tau1) ** (s.beta1 - 1.0)
    d2 = envelope * (s.beta2 / s.tau2) * (a2 / s.tau2) ** (s.beta2 - 1.0)
    if np.ndim(psi1) == 0 and np.ndim(psi2) == 0:
        return float(d1), float(d2)
    return d1, d2


def eval_curve(c: StreamCurve, psi):
    """Single-stream perception error ``P_i(psi)``; exactly ``p0`` at 0."""
    a = _check_psi(psi)
    out = c.p0 + (c.pmax - c.p0) * (-np.expm1(-((a / c.tau) ** c.beta)))
    return float(out) if np.ndim(psi) == 0 else out


def invert_curve(c: StreamCurve, p_value: float) -> float:
    """BER at which the curve reaches ``p_value``.

    Defined for ``p_value in [p0, pmax)``; the inverse can exceed the BER
    domain cap for values close to ``pmax``, callers cap as appropriate.
    It is infinite where ``(p_value - p0) / (pmax - p0)`` rounds to 1.
    """
    if not (c.p0 <= p_value < c.pmax):
        raise DomainError(
            f"curve value must lie in [{c.p0:g}, {c.pmax:g}), got {p_value}"
        )
    if p_value == c.p0:
        return 0.0
    fraction = (p_value - c.p0) / (c.pmax - c.p0)
    if fraction >= 1.0:
        return math.inf
    return c.tau * (-math.log1p(-fraction)) ** (1.0 / c.beta)


def semantic_value_transmitted(c: StreamCurve) -> float:
    """Semantic value of the error-free stream, ``1 - P_i(0) = 1 - p0``."""
    return c.value if c.value is not None else 1.0 - c.p0


def semantic_value_received(c: StreamCurve, psi):
    """Semantic value after transmission at BER ``psi``, ``1 - P_i(psi)``.

    Computed as the transmitted value minus the perception degradation
    above the floor, so it equals the transmitted value exactly at zero
    BER and never exceeds it.
    """
    degradation = np.asarray(eval_curve(c, psi)) - c.p0
    out = semantic_value_transmitted(c) - degradation
    return float(out) if np.ndim(psi) == 0 else out


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
    if name in ("prompt", "default-prompt"):
        return default_prompt_curve()
    if name in ("edge", "default-edge"):
        return default_edge_curve()
    raise DomainError(f"unknown bundled curve {name!r}; use 'prompt' or 'edge'")


# ---------------------------------------------------------------------------
# Constraint geometry
# ---------------------------------------------------------------------------


def invert_surface_psi2(s: SurfaceParams, psi1, p_bar: float, psi2_max: float = PSI_MAX):
    """Closed-form ``psi2`` on the constraint ``P(psi1, psi2) = p_bar``.

    ``P = p_bar`` is equivalent to ``(psi1/tau1)^beta1 + (psi2/tau2)^beta2
    = U`` with ``U = -log1p(-(p_bar - p0) / (pmax - p0))``, so
    ``psi2 = tau2 * max(U - (psi1/tau1)^beta1, 0)^(1/beta2)``, clipped
    to ``[0, psi2_max]``. Scalars or arrays of ``psi1``; no validation,
    the caller keeps ``p0 <= p_bar < pmax`` and ``psi1`` in the domain
    (:func:`solve_psi2_on_constraint` is the checked form).
    """
    a1 = np.asarray(psi1, dtype=float)
    u = -math.log1p(-(p_bar - s.p0) / (s.pmax - s.p0))
    rest = np.maximum(u - (a1 / s.tau1) ** s.beta1, 0.0)
    out = np.minimum(s.tau2 * rest ** (1.0 / s.beta2), psi2_max)
    return float(out) if a1.ndim == 0 else out


def solve_psi2_on_constraint(
    s: SurfaceParams,
    psi1,
    p_bar: float,
    tol: ToleranceConfig | None = None,
    psi2_max: float = PSI_MAX,
):
    """The ``psi2`` with ``P(psi1, psi2) = p_bar`` at fixed ``psi1``.

    Checked form of :func:`invert_surface_psi2` for scalars or arrays of
    ``psi1``: raises :class:`InfeasibleError` when ``p_bar`` is outside
    the reachable slice ``[P(psi1, 0), P(psi1, psi2_max)]`` by more than
    rounding (so the ends from :func:`constraint_line_endpoints` are
    accepted), and returns exactly 0 where ``P(psi1, 0) >= p_bar``.
    ``tol`` is ignored (the root is closed-form); it stays for callers
    that pass it.
    """
    lo_val = eval_surface(s, psi1, 0.0)
    hi_val = eval_surface(s, psi1, psi2_max)
    if np.any(p_bar < lo_val - _P_ROUNDING) or np.any(p_bar > hi_val + _P_ROUNDING):
        raise InfeasibleError(
            f"target {p_bar:g} outside the reachable slice "
            f"[{np.max(lo_val):g}, {np.min(hi_val):g}] at the given psi1"
        )
    psi2 = np.where(lo_val >= p_bar, 0.0, invert_surface_psi2(s, psi1, p_bar, psi2_max))
    return float(psi2) if np.ndim(psi1) == 0 else psi2


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
    the smallest feasible ``psi1`` and the right end at the largest. The
    ``psi1`` ends come from :func:`invert_surface_psi2` with the axes
    swapped. ``tol`` is ignored, as in :func:`solve_psi2_on_constraint`.

    Raises :class:`InfeasibleError` unless ``p0 < p_bar < P(psi_max)``.
    """
    m1, m2 = psi_max
    top = eval_surface(s, m1, m2)
    if not (s.p0 < p_bar < top):
        raise InfeasibleError(
            f"target {p_bar:g} outside the open achievable range ({s.p0:g}, {top:g})"
        )
    swapped = replace(s, tau1=s.tau2, tau2=s.tau1, beta1=s.beta2, beta2=s.beta1)
    # Left end: psi1 as small as the box allows.
    if eval_surface(s, 0.0, m2) >= p_bar:
        left = (0.0, solve_psi2_on_constraint(s, 0.0, p_bar, psi2_max=m2))
    else:
        left = (invert_surface_psi2(swapped, m2, p_bar, m1), m2)
    # Right end: psi2 as small as possible, ideally zero.
    if eval_surface(s, m1, 0.0) >= p_bar:
        right = (invert_surface_psi2(swapped, 0.0, p_bar, m1), 0.0)
    else:
        right = (m1, solve_psi2_on_constraint(s, m1, p_bar, psi2_max=m2))
    return left, right


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
        _check_psi(self.psi1, "psi1")
        _check_psi(self.psi2, "psi2")
        if self.p.size and (np.any(self.p < 0.0) or np.any(self.p > 1.0)):
            raise DomainError("P values must lie in [0, 1]")

    def __len__(self) -> int:
        return int(self.psi1.size)


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters plus fit metadata."""

    params: SurfaceParams
    rmse: float
    n_samples: int
    converged: bool


_N_SURFACE_PARAMS = 6

# Box for the fit vector (p0, pmax, log tau1, log tau2, log beta1,
# log beta2). The scale and shape boxes keep (psi/tau)^beta below
# (0.5/1e-12)^20 = exp(539) for every psi in the BER domain, so no
# iterate overflows.
_FIT_LOWER = np.r_[0.0, 0.0, np.log([1e-12, 1e-12, 0.05, 0.05])]
_FIT_UPPER = np.r_[1.0, 1.0, np.log([1e3, 1e3, 20.0, 20.0])]


def _default_fit_init(data: SampleSet) -> SurfaceParams:
    p_lo = float(np.min(data.p))
    p_hi = float(np.max(data.p))
    pmax = min(0.999, p_hi + 0.02)
    p0 = min(max(p_lo, 1e-4), 0.98 * pmax)
    pos1 = data.psi1[data.psi1 > 0.0]
    pos2 = data.psi2[data.psi2 > 0.0]
    tau1 = float(np.median(pos1)) if pos1.size else 1e-2
    tau2 = float(np.median(pos2)) if pos2.size else 1e-2
    return SurfaceParams(p0=p0, pmax=pmax, tau1=tau1, tau2=tau2, beta1=1.0, beta2=1.0)


def fit_surface(data: SampleSet, init: SurfaceParams | None = None) -> FitResult:
    """Least-squares fit of the surface family to sampled ``(psi, P)`` rows.

    One bounded trust-region-reflective solve
    (:func:`scipy.optimize.least_squares`, ``method="trf"``; Branch,
    Coleman & Li 1999) over ``(p0, pmax, log tau1, log tau2, log beta1,
    log beta2)`` with the analytic Jacobian. ``p0`` and ``pmax`` are
    boxed to ``[0, 1]``, the log scales and shapes to a finite box.
    ``converged`` is False when the evaluation budget ran out. Constant
    ``P``, or a fit that does not end with ``p0 < pmax``, raises
    :class:`DomainError`.
    """
    from scipy.optimize import least_squares

    if len(data) < _N_SURFACE_PARAMS:
        raise DomainError(
            f"need at least {_N_SURFACE_PARAMS} samples to fit, got {len(data)}"
        )
    if np.ptp(data.p) == 0.0:
        raise DomainError("P is constant over the samples; the surface is not identifiable")
    s = init if init is not None else _default_fit_init(data)
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

    # No gradient test: TRF scales the gradient by the distance to the
    # box, so it reads ~0 near p0 = 0 or pmax = 1 while the fit is still
    # 1e-8 off; the step and cost tests stop it there.
    res = least_squares(
        residual, x0, jac=jacobian, bounds=(_FIT_LOWER, _FIT_UPPER), method="trf",
        xtol=1e-12, ftol=1e-12, gtol=None,
    )
    if not res.x[0] < res.x[1]:
        raise DomainError(
            f"surface fit failed: it ended with p0={res.x[0]:.6g} >= pmax={res.x[1]:.6g}, "
            "so the samples do not rise with the BERs as the surface family must"
        )
    params = SurfaceParams(*res.x[:2].tolist(), *np.exp(res.x[2:]).tolist())
    rmse = math.sqrt(2.0 * res.cost / len(data))
    return FitResult(params=params, rmse=rmse, n_samples=len(data), converged=bool(res.status > 0))


def synthetic_sample_set(
    params: SurfaceParams,
    seed: int,
    noise_sigma: float = 0.0,
    n_axis: int = 20,
    psi_lo: float = 1e-5,
    psi_hi: float = PSI_MAX,
) -> SampleSet:
    """Deterministic synthetic samples of a known surface.

    A per-axis grid of zero plus ``n_axis - 1`` log-spaced BERs is fully
    crossed, the surface evaluated, and optional Gaussian noise added
    (clipped back into [0, 1]). Used for fit-recovery tests and to
    generate the bundled example CSV.
    """
    axis = np.concatenate([[0.0], np.geomspace(psi_lo, psi_hi, n_axis - 1)])
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    psi1 = g1.ravel()
    psi2 = g2.ravel()
    p = np.asarray(eval_surface(params, psi1, psi2), dtype=float)
    if noise_sigma > 0.0:
        p = p + noise_sigma * Rng(seed).normal(p.size)
    return SampleSet(psi1=psi1, psi2=psi2, p=np.clip(p, 0.0, 1.0))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

_SAMPLE_HEADER = ["psi1", "psi2", "P"]


def _read_csv_rows(path, header: list[str]) -> list[list[float]]:
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        if [c.strip() for c in first] != header:
            raise ConfigError(
                f"{path}: line 1: expected header {','.join(header)!r}, got {','.join(first)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ConfigError(
                    f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from None
    return rows


def load_sample_set(path) -> SampleSet:
    """Read ``psi1,psi2,P`` rows; malformed input raises :class:`ConfigError`."""
    rows = _read_csv_rows(path, _SAMPLE_HEADER)
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


def save_surface(result: FitResult | SurfaceParams, path) -> None:
    """Write a surface document (YAML) with optional fit metadata."""
    if isinstance(result, FitResult):
        params, meta = result.params, {
            "rmse": float(result.rmse),
            "n_samples": int(result.n_samples),
            "converged": bool(result.converged),
        }
    else:
        params, meta = result, None
    doc = {
        "family": SURFACE_FAMILY,
        "p0": float(params.p0),
        "pmax": float(params.pmax),
        "tau1": float(params.tau1),
        "tau2": float(params.tau2),
        "beta1": float(params.beta1),
        "beta2": float(params.beta2),
    }
    if meta is not None:
        doc["fit"] = meta
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def load_surface(path) -> SurfaceParams:
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping")
    family = doc.get("family", SURFACE_FAMILY)
    if family != SURFACE_FAMILY:
        raise ConfigError(f"{path}: unknown surface family {family!r}")
    try:
        return SurfaceParams(
            p0=float(doc["p0"]),
            pmax=float(doc["pmax"]),
            tau1=float(doc["tau1"]),
            tau2=float(doc["tau2"]),
            beta1=float(doc["beta1"]),
            beta2=float(doc["beta2"]),
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError, DomainError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def save_curve(curve: StreamCurve, path) -> None:
    doc = {
        "family": CURVE_FAMILY,
        "p0": float(curve.p0),
        "pmax": float(curve.pmax),
        "tau": float(curve.tau),
        "beta": float(curve.beta),
    }
    if curve.value is not None:
        doc["value"] = float(curve.value)
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def load_curve(path) -> StreamCurve:
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping")
    family = doc.get("family", CURVE_FAMILY)
    if family != CURVE_FAMILY:
        raise ConfigError(f"{path}: unknown curve family {family!r}")
    try:
        return StreamCurve(
            p0=float(doc["p0"]),
            pmax=float(doc["pmax"]),
            tau=float(doc["tau"]),
            beta=float(doc["beta"]),
            value=float(doc["value"]) if doc.get("value") is not None else None,
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError, DomainError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
