"""Power allocators for the two-stream perception-constrained problem.

All solvers minimise the total cost ``sum_i K_i q_i`` subject to the
joint perception error hitting the target ``p_bar``. Because the BER of
each stream decreases strictly with its power and the perception error
is non-decreasing in the BERs, the optimum always meets the constraint
with equality, so every method works on the constraint line
``P(psi1, psi2) = p_bar`` and differs only in how it picks a point on it:

``equal_snr``
    Semantic-unaware baseline. Both streams get the same received SNR;
    the common SNR is found by a one-dimensional root solve.
``proportional``
    Decouples the constraint per stream: both received semantic values
    are degraded by the same ratio ``L_hat_i / L_i = rho``, with ``rho``
    chosen so the joint surface meets the target.
``bisection``
    Bisects the constraint line on the sign of the total cost derivative
    ``df/dpsi1 + (dpsi2/dpsi1) df/dpsi2``, where the line slope comes
    from implicit differentiation of the constraint.
``grid_oracle``
    Brute force: a log-spaced scan of the line, used as independent
    ground truth for the optimisers.

Costs use symbol power times the stream's bit count by default
(``cost_basis="bits"``); ``cost_basis="symbols"`` divides the bit count
by the bits per symbol.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .channel import ChannelState
from .errors import DomainError, InfeasibleError, SempowerWarning
from .modulation import (
    PSI_FLOOR,
    ModulationScheme,
    ber_from_snr,
    power_from_ber,
    zero_power_ber,
)
from .numerics import ToleranceConfig, bisect_root, normal_pdf, q_inverse
from .perception import (
    PSI_MAX,
    StreamCurve,
    SurfaceParams,
    constraint_line_endpoints,
    eval_surface,
    invert_curve,
    invert_surface_psi2,
    semantic_value_transmitted,
    surface_partials,
)

__all__ = [
    "StreamSpec",
    "ProblemSpec",
    "Allocation",
    "SweepRow",
    "SOLVER_ORDER",
    "achievable_range",
    "solve_equal_snr",
    "solve_proportional",
    "solve_bisection",
    "solve_grid_oracle",
    "solve",
    "sweep_targets",
]

SOLVER_ORDER = ("equal_snr", "proportional", "bisection", "grid_oracle")


@dataclass(frozen=True)
class StreamSpec:
    """One semantic data stream: payload size, link, modulation, curve."""

    bits: int
    modulation: ModulationScheme
    channel: ChannelState
    curve: StreamCurve
    name: str = ""

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise DomainError(f"bits must be >= 1, got {self.bits}")


@dataclass(frozen=True)
class ProblemSpec:
    """Allocation problem: two streams, a joint surface, a target error."""

    streams: tuple[StreamSpec, StreamSpec]
    surface: SurfaceParams
    target: float
    tol: ToleranceConfig = ToleranceConfig()
    cost_basis: str = "bits"

    def __post_init__(self) -> None:
        if len(self.streams) != 2:
            raise DomainError("exactly two streams are supported")
        if not (0.0 < self.target < 1.0):
            raise DomainError(f"target must lie in (0, 1), got {self.target}")
        if self.cost_basis not in ("bits", "symbols"):
            raise DomainError(f"cost_basis must be 'bits' or 'symbols', got {self.cost_basis!r}")


@dataclass(frozen=True)
class Allocation:
    """Solver output: powers, BERs, achieved error, cost and diagnostics."""

    q: tuple[float, float]
    psi: tuple[float, float]
    achieved_p: float
    total_cost: float
    solver: str
    iterations: int
    feasible: bool
    converged: bool = True


def _weights(p: ProblemSpec) -> tuple[float, float]:
    if p.cost_basis == "symbols":
        return tuple(s.bits / s.modulation.bits_per_symbol for s in p.streams)
    return tuple(float(s.bits) for s in p.streams)


def _psi_box(p: ProblemSpec) -> tuple[float, float]:
    # BERs above the zero-power value never occur, so the constraint line
    # is intersected with the reachable box.
    return tuple(min(PSI_MAX, zero_power_ber(s.modulation)) for s in p.streams)


def achievable_range(p: ProblemSpec) -> tuple[float, float]:
    """Perception errors reachable by some allocation, ``(floor, top)``.

    The floor needs unbounded power (zero BER on both streams); the top
    is met for free at zero power.
    """
    box = _psi_box(p)
    return float(p.surface.p0), float(eval_surface(p.surface, box[0], box[1]))


def _finish(p: ProblemSpec, psi: tuple[float, float], solver: str, iterations: int,
            converged: bool = True) -> Allocation:
    w = _weights(p)
    q = tuple(
        float(power_from_ber(s.modulation, s.channel, max(v, PSI_FLOOR)))
        for s, v in zip(p.streams, psi)
    )
    return Allocation(
        q=q,
        psi=(float(psi[0]), float(psi[1])),
        achieved_p=eval_surface(p.surface, psi[0], psi[1]),
        total_cost=w[0] * q[0] + w[1] * q[1],
        solver=solver,
        iterations=iterations,
        feasible=True,
        converged=converged,
    )


def _check_target(p: ProblemSpec, solver: str) -> Allocation | None:
    """Validate the target; a zero-power allocation when it is free.

    Targets at or below the surface floor are unreachable at any power.
    Targets at or above the zero-power error are met with slack by
    transmitting nothing: the returned allocation is feasible but does
    not meet the constraint with equality (there is no BER left to
    trade).
    """
    lo, hi = achievable_range(p)
    if p.target <= lo:
        raise InfeasibleError(
            f"target {p.target:g} at or below the surface floor; achievable range "
            f"is ({lo:g}, {hi:g})"
        )
    if p.target >= hi:
        box = _psi_box(p)
        return Allocation(
            q=(0.0, 0.0),
            psi=box,
            achieved_p=eval_surface(p.surface, box[0], box[1]),
            total_cost=0.0,
            solver=solver,
            iterations=0,
            feasible=True,
        )
    return None


def solve_equal_snr(p: ProblemSpec) -> Allocation:
    """Semantic-unaware baseline: both streams at the same received SNR.

    The common SNR solving ``P(psi1(g), psi2(g)) = target`` is bracketed
    by doubling and bisected; powers follow as ``g * noise_i / gain_i``.
    """
    free = _check_target(p, "equal_snr")
    if free is not None:
        return free
    m1, m2 = (s.modulation for s in p.streams)
    evals = 0

    def gap(g: float) -> float:
        nonlocal evals
        evals += 1
        return eval_surface(p.surface, ber_from_snr(m1, g), ber_from_snr(m2, g)) - p.target

    hi = 1.0
    for _ in range(80):
        if gap(hi) < 0.0:
            break
        hi *= 4.0
    else:
        raise InfeasibleError("could not bracket the equal-SNR solution")
    g_star = bisect_root(gap, 0.0, hi, replace(p.tol, abs_tol=min(p.tol.abs_tol, 1e-12)))
    psi = (ber_from_snr(m1, g_star), ber_from_snr(m2, g_star))
    alloc = _finish(p, psi, "equal_snr", evals)
    # Equal SNR fixes the powers directly; BER inversion would amplify
    # rounding where the curve is flat, so override with the exact values.
    q = tuple(g_star * s.channel.noise_w / s.channel.gain for s in p.streams)
    w = _weights(p)
    return replace(alloc, q=q, total_cost=w[0] * q[0] + w[1] * q[1])


def solve_proportional(p: ProblemSpec) -> Allocation:
    """Both streams keep the same fraction of their semantic value.

    For a degradation ratio ``rho`` each stream's BER is the curve
    inverse of ``1 - rho * L_i``; the ratio is bisected until the joint
    surface meets the target. Raises :class:`DomainError` when the rule
    demands a BER beyond the zero-power value of a stream's modulation
    (the decoupled requirement cannot bind there).
    """
    free = _check_target(p, "proportional")
    if free is not None:
        return free
    box = _psi_box(p)
    lvals = tuple(semantic_value_transmitted(s.curve) for s in p.streams)
    evals = 0

    def psi_raw(rho: float, s: StreamSpec, lv: float) -> float:
        wanted = 1.0 - rho * lv
        if wanted <= s.curve.p0:
            return 0.0
        if wanted >= s.curve.pmax:
            return math.inf
        return invert_curve(s.curve, wanted)

    def gap(rho: float) -> float:
        # BERs are capped at the reachable box while bracketing; the cap
        # never binds at an interior solution.
        nonlocal evals
        evals += 1
        v1, v2 = (min(psi_raw(rho, s, lv), cap) for s, lv, cap in zip(p.streams, lvals, box))
        return eval_surface(p.surface, v1, v2) - p.target

    # gap is decreasing in rho: gap(1) = p0 - target < 0; a tiny rho caps
    # both BERs at the box, where the target is beatable by assumption.
    rho_star = bisect_root(gap, 1e-9, 1.0, replace(p.tol, abs_tol=min(p.tol.abs_tol, 1e-14)))
    psi = []
    for s, lv, cap in zip(p.streams, lvals, box):
        raw = psi_raw(rho_star, s, lv)
        if raw > cap * (1.0 + 1e-9):
            raise DomainError(
                f"proportional rule requires BER {raw:g} beyond the zero-power "
                f"value {cap:g} of {s.modulation.name}"
            )
        psi.append(min(raw, cap))
    return _finish(p, tuple(psi), "proportional", evals)


def _dpower_dpsi(m: ModulationScheme, state: ChannelState, psi: float) -> float:
    """Analytic derivative of :func:`power_from_ber` in the BER.

    With ``x = Qinv(psi log2 M / a)`` the derivative is
    ``-2 (sigma^2 / (b |h|^2)) (log2 M / a) x / phi(x)``; it is negative
    on the whole invertible branch.
    """
    g = m.bits_per_symbol / m.a
    x = q_inverse(max(psi, PSI_FLOOR) * g)
    scale = state.noise_w / (m.b * state.gain)
    return -2.0 * scale * g * x / float(normal_pdf(x))


def solve_bisection(p: ProblemSpec) -> Allocation:
    """Bisection on the constraint line driven by the cost derivative.

    Starting from the line's end points, each step takes ``psi2`` at the
    midpoint ``psi1`` from the closed-form constraint inverse
    (:func:`invert_surface_psi2`), forms the total derivative of the
    cost along the line (objective partials plus the implicit slope
    ``dpsi2/dpsi1 = -(dP/dpsi1)/(dP/dpsi2)``), and keeps the half where
    the derivative changes sign. Stops when the ``psi1`` bracket is
    narrower than the tolerance.
    """
    free = _check_target(p, "bisection")
    if free is not None:
        return free
    box = _psi_box(p)
    tol = p.tol
    (l1, _l2), (r1, _r2) = constraint_line_endpoints(p.surface, p.target, psi_max=box)
    s1, s2 = p.streams
    w = _weights(p)
    iterations = 0
    converged = True
    while (r1 - l1) >= max(tol.abs_tol, tol.rel_tol * abs(0.5 * (l1 + r1))):
        if iterations >= tol.max_iter:
            converged = False
            break
        mid = 0.5 * (l1 + r1)
        psi2 = invert_surface_psi2(p.surface, mid, p.target, box[1])
        df1 = w[0] * _dpower_dpsi(s1.modulation, s1.channel, mid)
        df2 = w[1] * _dpower_dpsi(s2.modulation, s2.channel, psi2)
        dp1, dp2 = surface_partials(p.surface, mid, psi2)
        slope = -dp1 / dp2
        if df1 + slope * df2 >= 0.0:
            r1 = mid
        else:
            l1 = mid
        iterations += 1
    psi1 = 0.5 * (l1 + r1)
    psi2 = invert_surface_psi2(p.surface, psi1, p.target, box[1])
    return _finish(p, (psi1, psi2), "bisection", iterations, converged)


def solve_grid_oracle(p: ProblemSpec, grid_n: int = 4096) -> Allocation:
    """Exhaustive scan of the constraint line at grid resolution.

    ``grid_n`` log-spaced ``psi1`` values cover the feasible bracket;
    ``psi2`` comes from the closed-form constraint inverse in one array
    call and the cheapest point wins (ties go to the smallest ``psi1``).
    Serves as the independent check on the optimising solvers.
    """
    if grid_n < 64:
        raise DomainError(f"grid_n must be >= 64, got {grid_n}")
    free = _check_target(p, "grid_oracle")
    if free is not None:
        return free
    box = _psi_box(p)
    (l1, _), (r1, _) = constraint_line_endpoints(p.surface, p.target, psi_max=box)
    lo = l1 if l1 > 0.0 else max(r1 * 1e-12, 1e-300)
    grid = np.geomspace(lo, r1, grid_n)
    psi2 = invert_surface_psi2(p.surface, grid, p.target, box[1])
    s1, s2 = p.streams
    w = _weights(p)
    q1 = np.asarray(power_from_ber(s1.modulation, s1.channel, np.maximum(grid, PSI_FLOOR)))
    q2 = np.asarray(power_from_ber(s2.modulation, s2.channel, np.maximum(psi2, PSI_FLOOR)))
    cost = w[0] * q1 + w[1] * q2
    k = int(np.argmin(cost))
    return _finish(p, (float(grid[k]), float(psi2[k])), "grid_oracle", grid_n)


_SOLVERS = {
    "equal_snr": solve_equal_snr,
    "proportional": solve_proportional,
    "bisection": solve_bisection,
    "grid_oracle": solve_grid_oracle,
}


def solve(p: ProblemSpec, solver: str, grid_n: int = 4096) -> Allocation:
    """Dispatch by solver name (see :data:`SOLVER_ORDER`)."""
    if solver not in _SOLVERS:
        raise DomainError(f"unknown solver {solver!r}; choose from {list(SOLVER_ORDER)}")
    if solver == "grid_oracle":
        return solve_grid_oracle(p, grid_n)
    return _SOLVERS[solver](p)


@dataclass(frozen=True)
class SweepRow:
    """One (target, solver) cell of a sweep; exactly one of the two
    payload fields is set."""

    p_bar: float
    solver: str
    allocation: Allocation | None = None
    error: str | None = None


# Bisection assumes the cost is unimodal along the constraint line; the
# oracle cross-check guards against surfaces where that fails.
ORACLE_AGREEMENT_RTOL = 0.005


def sweep_targets(
    p: ProblemSpec,
    targets: Sequence[float],
    solvers: Sequence[str] = SOLVER_ORDER,
    grid_n: int = 4096,
) -> list[SweepRow]:
    """Run the selected solvers over a list of targets.

    Rows come back ordered by target then solver order; a target that a
    solver cannot handle produces an error row instead of aborting the
    sweep. When both the bisection solver and the grid oracle run, their
    costs are cross-checked and a :class:`SempowerWarning` is emitted on
    disagreement beyond :data:`ORACLE_AGREEMENT_RTOL` (a sign the cost
    is not unimodal along the constraint line, or the grid too coarse).
    """
    for name in solvers:
        if name not in _SOLVERS:
            raise DomainError(f"unknown solver {name!r}")
    rows: list[SweepRow] = []
    for t in targets:
        spec = replace(p, target=float(t))
        per_target: dict[str, Allocation] = {}
        for name in solvers:
            try:
                alloc = solve(spec, name, grid_n)
                per_target[name] = alloc
                rows.append(SweepRow(p_bar=float(t), solver=name, allocation=alloc))
            except (InfeasibleError, DomainError) as exc:
                rows.append(SweepRow(p_bar=float(t), solver=name, error=str(exc)))
        if "bisection" in per_target and "grid_oracle" in per_target:
            cost_b = per_target["bisection"].total_cost
            cost_g = per_target["grid_oracle"].total_cost
            if cost_g > 0.0 and abs(cost_b - cost_g) > ORACLE_AGREEMENT_RTOL * cost_g:
                direction = "above" if cost_b > cost_g else "below"
                warnings.warn(
                    f"target {t:g}: bisection cost {cost_b:.6g} is {direction} the "
                    f"grid-oracle cost {cost_g:.6g} by more than "
                    f"{ORACLE_AGREEMENT_RTOL:.1%}; the cost may not be unimodal "
                    "along the constraint line",
                    SempowerWarning,
                    stacklevel=2,
                )
    return rows
