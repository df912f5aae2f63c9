"""Power allocators for the two-stream perception-constrained problem.

All solvers minimise the total cost ``sum_i K_i q_i`` subject to the
joint perception error hitting the target ``p_bar``. Because the BER of
each stream decreases strictly with its power and the perception error
is non-decreasing in the BERs, the optimum always meets the constraint
with equality, so every method works on the constraint line
``P(psi1, psi2) = p_bar`` and differs only in how it picks a point on it:

``equal_snr``
    Semantic-unaware baseline. Both streams get the same received SNR;
    the common SNR is found by a one-dimensional root search.
``proportional``
    Decouples the constraint per stream: both streams keep the same
    fraction ``L_hat_i / L_i`` of their semantic value: each stream's
    rule is the fraction it has lost.
``bisection``
    The paper's solver: each stream's rule is its cost's slope in its
    decay share, and where they meet the cost stops falling; keeps the
    cheapest of that point and the line's two ends.
``grid_oracle``
    Brute force: a two-pass scan of the line in decay shares, used as
    independent ground truth for the optimisers.

Every solver starts from one set-up (:func:`_line`): it checks the
target against the reachable range, returns the zero-power allocation
for a target at or above the zero-power error, and otherwise gives the
line ``u1 + u2 = U`` with ``u_i = (psi_i/tau_i)^beta_i`` and each
stream's link constants. The shares ``s_i = u_i / U`` give each BER in
closed form, ``psi_i = tau_i (s_i U)^(1/beta_i)``. The two
semantic-aware methods differ only in a per-stream rule, a value of the
stream's share with its derivative; one search (:func:`_share_search`)
finds where the two streams' rules meet, in ``z = log(s1 / s2)``, so
the point is on the line by construction and both shares keep full
relative precision down to the subnormals; each evaluation is one call
of a pair rule that gives both streams' rules at once.

Every search is the bracketed ITP search of :func:`bisect_root` on a
logarithm, never more than midpoint bisection's count plus one step.
``equal_snr`` brackets its common SNR in closed form: 6 evaluations or
so. The share search takes Newton steps on the rules' exact
derivatives, ``bisection``'s from the closed-form high-SNR optimum: 4
evaluations or so each.

Costs use symbol power times the stream's bit count by default
(``cost_basis="bits"``); ``cost_basis="symbols"`` divides the bit count
by the bits per symbol.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Sequence

from . import numerics
from .channel import ChannelState
from .errors import DomainError, InfeasibleError, SempowerWarning
from .modulation import PSI_FLOOR, ModulationScheme, _ber, _inversion, _Inversion, _power
from .numerics import ToleranceConfig, _quantile, bisect_root
from .perception import (
    StreamCurve,
    SurfaceParams,
    _ber_of_decay,
    _decay,
    _line_ends,
    _line_u,
    _surface,
    _surface_of_decay,
    _top_share,
    line_point,
    semantic_value_transmitted,
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

# Stopping rule of the searches, all on a logarithm (of the common SNR, or
# of the share ratio s1 / s2): a width of 1e-9 there is 1e-9 relative in
# the SNR and in both shares. No bracket spans 1,490, so midpoint
# bisection needs at most 41 steps.
SEARCH_TOL = ToleranceConfig(abs_tol=1e-9, rel_tol=1e-300, max_iter=100)
_TINY = 5e-324  # the smallest positive double
# Largest |P - p_bar| a proportional allocation may leave.
PROPORTIONAL_ATOL = 1e-9
# Largest difference of the two streams' lost value fractions it may leave.
PROPORTIONAL_RULE_ATOL = 1e-8
# Largest |P - p_bar| an equal-SNR allocation may leave: acceptance c03's.
EQUAL_SNR_ATOL = 1e-6


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
    cost_basis: str = "bits"

    def __post_init__(self) -> None:
        if len(self.streams) != 2:
            raise DomainError("exactly two streams are supported")
        if not (0.0 < self.target < 1.0):
            raise DomainError(f"target must lie in (0, 1), got {self.target}")
        if self.cost_basis not in ("bits", "symbols"):
            raise DomainError(f"cost_basis must be 'bits' or 'symbols', got {self.cost_basis!r}")
        # The dearest allocation holds both streams at the BER floor; a
        # finite cost there keeps every solver's powers and costs finite.
        dearest = 0.0
        for i, (s, w, link) in enumerate(zip(self.streams, _weights(self), _inversions(self))):
            dearest += w * _power(link, PSI_FLOOR)
            if not math.isfinite(dearest):
                raise DomainError(
                    f"stream {s.name or i + 1}: the power for BER {PSI_FLOOR:g} overflows over "
                    f"its link (noise {s.channel.noise_w:g} W, gain {s.channel.gain:g})"
                )


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

    def __init__(self, q, psi, achieved_p, total_cost, solver, iterations, feasible,
                 converged=True):
        # plain stores: the generated __init__'s object.__setattr__ calls took 6% of a solve
        d = self.__dict__
        d["q"], d["psi"], d["achieved_p"], d["total_cost"] = q, psi, achieved_p, total_cost
        d["solver"], d["iterations"], d["feasible"] = solver, iterations, feasible
        d["converged"] = converged


def _weights(p: ProblemSpec) -> tuple[float, float]:
    s1, s2 = p.streams
    if p.cost_basis == "symbols":
        return s1.bits / s1.modulation.bits_per_symbol, s2.bits / s2.modulation.bits_per_symbol
    return float(s1.bits), float(s2.bits)


def achievable_range(p: ProblemSpec) -> tuple[float, float]:
    """Perception errors reachable by some allocation, ``(floor, top)``.

    The floor needs unbounded power (zero BER on both streams); the top
    is met for free at zero power.
    """
    c1, c2 = _inversions(p)
    return float(p.surface.p0), _surface(p.surface, c1.top, c2.top)


def _inversions(p: ProblemSpec) -> tuple[_Inversion, _Inversion]:
    """Each stream's BER-inversion constants, built once per solve."""
    s1, s2 = p.streams
    return (_inversion(s1.modulation, s1.channel.noise_w / s1.channel.gain),
            _inversion(s2.modulation, s2.channel.noise_w / s2.channel.gain))


_Line = namedtuple("_Line", "box u top ends links w")  # one solve's set-up: see _line


def _cheapest(p: ProblemSpec, line: _Line, shares: Iterable[tuple[float, float]]):
    """The first cheapest of the share pairs ``shares`` on ``p``'s line: ``(cost, index, psi, q)``.

    Each point is :func:`line_point`, :func:`_power` of each BER clamped at
    :data:`PSI_FLOOR` (a line end can hold a BER of 0.0) and ``w1 q1 + w2 q2``
    in their order of operations, so to the last bit, with each stream's
    constants bound once. Every cost is at most the finite one that
    :class:`ProblemSpec` checks, both BERs at the floor, so one point wins.
    """
    sf, u, (w1, w2), (l1, l2) = p.surface, line.u, line.w, line.links
    (_, top1, g1, b1, k1), (_, top2, g2, b2, k2) = l1, l2
    tau1, tau2, ib1, ib2 = sf.tau1, sf.tau2, 1.0 / sf.beta1, 1.0 / sf.beta2
    inv_cdf, floor, best_cost = numerics._normal_dist_inv_cdf, PSI_FLOOR, math.inf
    for i, (s1, s2) in enumerate(shares):
        try:
            psi1 = tau1 * (s1 * u) ** ib1
        except OverflowError:
            psi1 = _ber_of_decay(tau1, s1 * u, ib1)
        try:
            psi2 = tau2 * (s2 * u) ** ib2
        except OverflowError:
            psi2 = _ber_of_decay(tau2, s2 * u, ib2)
        psi1 = top1 if top1 < psi1 else psi1  # clipped to the box, as line_point clips
        psi2 = top2 if top2 < psi2 else psi2
        v1 = floor if floor > psi1 else psi1
        v2 = floor if floor > psi2 else psi2
        if not (0.0 < v1 <= top1 and 0.0 < v2 <= top2):  # NaN fails too
            _power(l1, v1), _power(l2, v2)  # one of them raises _power's DomainError
        x1, x2 = inv_cdf(v1 * g1, 0.0, 1.0), inv_cdf(v2 * g2, 0.0, 1.0)
        q1, q2 = x1 * x1 / b1 * k1, x2 * x2 / b2 * k2
        cost = w1 * q1 + w2 * q2
        if cost < best_cost:
            best_cost, best = cost, (i, psi1, psi2, q1, q2)
    i, psi1, psi2, q1, q2 = best
    return best_cost, i, (psi1, psi2), (q1, q2)


def _finish(p: ProblemSpec, psi: tuple[float, float], q: tuple[float, float], cost: float,
            solver: str, iterations: int, converged: bool = True,
            atol: float = math.inf, why: str = "") -> Allocation:
    """The allocation at ``psi`` with powers ``q`` and total ``cost``; a converged one that
    misses the target by more than ``atol`` raises :class:`DomainError`, saying ``why``."""
    if not math.isfinite(cost):
        raise DomainError(
            f"{solver}: the total cost of powers {q[0]:g} W and {q[1]:g} W overflows"
        )
    sf = p.surface  # both BERs lie in the box, so no _check_ber
    achieved = _surface_of_decay(sf, _decay(psi[0], sf.tau1, sf.beta1)
                                 + _decay(psi[1], sf.tau2, sf.beta2))
    if converged and abs(achieved - p.target) > atol:
        raise DomainError(f"{solver} misses target {p.target:g} by "
                          f"{abs(achieved - p.target):.3g}: {why}")
    # positional: keyword arguments cost 2% of a solve on a fading block
    return Allocation(q, psi, achieved, cost, solver, iterations, True, converged)


def _line(p: ProblemSpec, solver: str) -> _Line | Allocation:
    """The constraint line every solver searches, or the allocation that needs none.

    Returns a :class:`_Line`: the reachable box (BERs above a stream's
    zero-power value never occur), the line ``u1 + u2 = U`` with each
    stream's largest share ``top`` inside it (:func:`decay_shares`) and
    its ``ends``, and each stream's :func:`_inversions` and :func:`_weights`,
    all built once per solve. Targets at or below the surface floor are
    unreachable at any power. Targets at or above the zero-power error are
    met with slack by transmitting nothing: the zero-power allocation is
    returned instead of the line, feasible but not on the constraint.
    """
    links, sf = _inversions(p), p.surface
    box = links[0].top, links[1].top  # in (0, 0.5]: no _check_ber
    # each stream's decay at the box, for both the surface there and its top share
    v1, v2 = _decay(box[0], sf.tau1, sf.beta1), _decay(box[1], sf.tau2, sf.beta2)
    lo, hi = float(sf.p0), _surface_of_decay(sf, v1 + v2)
    if p.target <= lo:
        raise InfeasibleError(
            f"target {p.target:g} at or below the surface floor; achievable range "
            f"is ({lo:g}, {hi:g})"
        )
    if p.target >= hi:
        return Allocation((0.0, 0.0), box, hi, 0.0, solver, 0, True)
    top = _top_share(v1, u := _line_u(sf, p.target)), _top_share(v2, u)
    return _Line(box, u, top, _line_ends(top), links, _weights(p))


def solve_equal_snr(p: ProblemSpec) -> Allocation:
    """Semantic-unaware baseline: both streams at the same received SNR.

    :func:`bisect_root` finds the common SNR ``g`` where the decays of the
    two BERs sum to ``U`` (:func:`decay_shares`), that is ``P = target``,
    on ``log U - log(u1 + u2)`` in ``log g``. There each decay is at most
    ``U`` and the larger at least ``U/2``, so the largest SNRs that put a
    stream's decay at ``U`` and at ``U/2`` bracket it in closed form. The
    search starts from the gap's value at the lower end; ``iterations``
    counts every gap evaluation. Powers follow as ``g * noise_i / gain_i``.
    A target missed by more than :data:`EQUAL_SNR_ATOL` raises
    :class:`DomainError`: ``P`` moves too steeply with ``g`` there (or
    jumps, at a subnormal ``tau``).
    """
    if isinstance(line := _line(p, "equal_snr"), Allocation):
        return line
    box, u, top, _, links, w = line
    m1, m2 = (s.modulation for s in p.streams)
    sf = p.surface

    def gap(v: float) -> float:  # log U - log(u1 + u2) at g = e^v: about linear in g
        g = math.exp(v)
        # a decay beyond binary64 (near a lo set by the smallest double in
        # place of a smaller psi g) is infinite, and so is its logarithm
        d = _decay(_ber(m1, g), sf.tau1, sf.beta1) + _decay(_ber(m2, g), sf.tau2, sf.beta2)
        return log_u - math.log(d) if d > 0.0 else math.inf

    def snr(c: _Inversion, psi: float) -> float:  # not clamped at PSI_FLOOR: hi stays above
        x = _quantile(max(psi * c.g, _TINY))  # a smaller product only lowers lo
        return x * x / c.b

    # Each stream's decay is U at its share top (or its BER is at the box)
    # and U/2 at a share of 1/2; the gap at lo is at most 0 but for rounding.
    log_u = math.log(u)
    lo, hi = (math.log(max(map(snr, links, line_point(sf, u, shares, box))) or _TINY)
              for shares in (top, (min(0.5, top[0]), min(0.5, top[1]))))
    v, steps, converged = bisect_root(gap, lo, hi, SEARCH_TOL, min(gap(lo), 0.0))
    g_star = math.exp(v)
    psi = (_ber(m1, g_star), _ber(m2, g_star))
    # Equal SNR fixes the powers directly; BER inversion would amplify
    # rounding where the curve is flat, so use the exact values.
    q = tuple(g_star * s.channel.noise_w / s.channel.gain for s in p.streams)
    return _finish(p, psi, q, w[0] * q[0] + w[1] * q[1], "equal_snr", steps + 1, converged,
                   EQUAL_SNR_ATOL, "P moves too steeply with the common SNR to meet it")


def _shares(z: float) -> tuple[float, float]:
    """The shares ``(s1, s2)`` with ``log(s1 / s2) = z``, each to full relative precision."""
    e = math.exp(-abs(z))
    small, big = e / (1.0 + e), 1.0 / (1.0 + e)
    return (big, small) if z > 0.0 else (small, big)


def _share_search(
    ends: Sequence[tuple[float, float]], pair: Callable[[float, float], tuple[float, float, float]],
    seed: float = math.nan,
) -> tuple[tuple[float, float], int, bool]:
    """Search the constraint line in ``z = log(s1 / s2)`` for the point where two rules meet.

    Each stream's rule maps its share ``s_i`` to a value and its derivative
    ``d_i`` in ``log s_i``; one call ``pair(s1, s2)`` gives both streams',
    ``(gap, d1, d2)``. The gap, stream 2's value less stream 1's, is
    negative below the point and positive above it; its derivative
    ``-(d2 s1 + d1 s2)`` gives Newton steps. Between the line's ``ends``
    (:func:`_line_ends`), ``z`` runs from ``log((1 - top2) / top2)`` to
    ``log(top1 / (1 - top1))``, a share of 0 taken as 5e-324; the ends are
    never evaluated. A ``seed`` inside the line is evaluated first, and its
    value starts the search from that end. Returns ``((s1, s2), steps,
    converged)``, counting every evaluation of the gap.
    """
    slope = [math.nan]  # d gap / dz at the last call

    # gap and df bind what they read as defaults: a closure would make a cell per name per solve
    def gap(z: float, pair=pair, slope=slope, exp=math.exp) -> float:
        e = exp(-z if z > 0.0 else z)  # _shares(z), without the call
        s1, s2 = (1.0 / (1.0 + e), e / (1.0 + e)) if z > 0.0 else (e / (1.0 + e), 1.0 / (1.0 + e))
        y, d1, d2 = pair(s1, s2)
        slope[0] = -(d2 * s1 + d1 * s2)  # d log s1 / dz = s2, d log s2 / dz = -s1
        return y

    (a1, a2), (b1, b2), log = *ends, math.log
    lo, hi = log(a1 or _TINY) - log(a2 or _TINY), log(b1 or _TINY) - log(b2 or _TINY)
    f_lo, f_hi, calls = math.nan, math.nan, 0
    if lo < seed < hi:  # the seed's value ends the bracket on the point's side
        y, calls = gap(seed), 1
        lo, hi, f_lo, f_hi = (seed, hi, y, f_hi) if y < 0.0 else (lo, seed, f_lo, y)
    z, steps, converged = bisect_root(gap, lo, hi, SEARCH_TOL, f_lo, f_hi,
                                      lambda z, slope=slope: slope[0])
    return _shares(z), steps + calls, converged


def _lost_value(c: StreamCurve, psi: float) -> tuple[float, float]:
    """Fraction of a stream's semantic value lost at BER ``psi``, ``1 - L_hat / L``,
    and its derivative in ``log psi``."""
    scale = (c.pmax - c.p0) / semantic_value_transmitted(c)
    v = _decay(psi, c.tau, c.beta)
    if v == math.inf:  # a decay beyond binary64 loses the whole range
        return scale, 0.0
    return -math.expm1(-v) * scale, math.exp(-v) * v * c.beta * scale


def solve_proportional(p: ProblemSpec) -> Allocation:
    """Both streams keep the same fraction of their semantic value.

    Along the constraint line the fraction stream ``i`` has lost,
    ``A_i (1 - exp(-v_i))`` with ``A_i = (pmax_i - p0_i) / L_i`` and
    ``v_i = (psi_i/tau_i)^beta_i`` on its curve, rises with its decay
    share while the other stream's falls. :func:`_share_search` finds the
    share ratio where the two streams' :func:`_lost_value` at the BERs of
    their shares meet, and :func:`_cheapest` gives the BERs and powers, so
    the target is met by construction. ``iterations`` counts every
    evaluation of the difference. Raises :class:`DomainError`, naming the
    stream that loses less, when the converged point's lost fractions
    differ by more than :data:`PROPORTIONAL_RULE_ATOL` (the rule needs a
    BER beyond that stream's zero-power value, or the difference jumps
    across 0 where a BER underflows), or when rounding leaves the target
    missed by more than :data:`PROPORTIONAL_ATOL`.
    """
    if isinstance(line := _line(p, "proportional"), Allocation):
        return line
    box, u, _, ends = line[:4]
    (cap1, cap2), (c1, c2), sf = box, (s.curve for s in p.streams), p.surface

    def pair(s1: float, s2: float) -> tuple[float, float, float]:
        # each BER clipped at the box as line_point clips it; no slope where clipped
        psi1 = _ber_of_decay(sf.tau1, s1 * u, 1.0 / sf.beta1)
        psi2 = _ber_of_decay(sf.tau2, s2 * u, 1.0 / sf.beta2)
        psi1, psi2 = cap1 if cap1 < psi1 else psi1, cap2 if cap2 < psi2 else psi2
        (lost1, d1), (lost2, d2) = _lost_value(c1, psi1), _lost_value(c2, psi2)
        return (lost1 - lost2, -d1 / sf.beta1 if psi1 < cap1 else 0.0,
                -d2 / sf.beta2 if psi2 < cap2 else 0.0)

    shares, steps, converged = _share_search(ends, pair)
    cost, _, psi, q = _cheapest(p, line, [shares])
    gap = pair(*shares)[0]  # lost_1 - lost_2 at the answer
    if converged and abs(gap) > PROPORTIONAL_RULE_ATOL:
        i = 0 if gap < 0.0 else 1
        s = p.streams[i]
        raise DomainError(
            f"proportional rule cannot be met: stream {s.name or i + 1} keeps {abs(gap):.3g} more "
            f"of its semantic value than the other at BER {psi[i]:g} (zero-power value "
            f"{box[i]:g} of {s.modulation.name})")
    return _finish(p, psi, q, cost, "proportional", steps, converged,
                   atol=PROPORTIONAL_ATOL, why="its point rounds off the constraint line")


def _share_slopes(p: ProblemSpec, line: _Line) -> tuple[Callable, float]:
    """:func:`solve_bisection`'s ``(pair, seed)`` for :func:`_share_search`: the pair rule of
    each stream's ``log |d cost_i / d s_i|`` in its share ``s_i``.

    With ``x = Qinv(psi log2 M / a)`` the power falls with the BER as
    ``2 (sigma^2 / (b |h|^2)) (log2 M / a) x / phi(x)``, and ``dpsi/ds = psi / (beta s)``;
    the streams' constants ``k_i = w_i (log2 M / a) sigma^2 / (b |h|^2)`` enter the gap
    as one term, ``log(k_2 / k_1)``, bound once per solve. The logarithm cannot overflow
    and drops the factor ``2 / sqrt(2 pi)`` both streams share. It is ``-inf`` at the
    zero-power BER and ``+inf`` where the BER underflows. The slope
    ignores the clamp at :data:`PSI_FLOOR`: the clamped cost can rise
    and then fall again along the line, which a one-dimensional search
    cannot follow, so the caller compares the line's ends instead. ``g``
    is the stream's ``log2 M / a``; with the BER capped at the box the
    argument of ``Qinv`` lies in ``(0, 0.5]``. The derivative in ``log s``
    comes too, from the same ``x``: ``(1 - M (x + 1/x)) / beta - 1`` with
    ``M = Q(x)/phi(x) = sqrt(2 pi) exp(log(psi g) + x^2/2)``, -1 where
    ``psi`` is capped or underflows and ``-inf`` at the zero-power BER.

    The seed is ``-e``: ``e = log(c_2 / c_1)`` with
    ``c_i = w_i (noise_i / gain_i) / (b_i beta_i)`` is ``log(s_2 / s_1)``
    at the high-SNR optimum, and ``k_i = c_i g_i beta_i``. A factor both
    streams share (the noise power scaled by 4, say) cancels exactly in
    the ratio; where it leaves binary64, the logarithms are subtracted.
    """
    sf, (l1, l2), (w1, w2), log = p.surface, line.links, line.w, math.log
    b1, b2, ib1, ib2 = sf.beta1, sf.beta2, 1.0 / sf.beta1, 1.0 / sf.beta2
    c1, c2 = w1 * l1.k / l1.b / b1, w2 * l2.k / l2.b / b2
    if 0.0 < c1 < math.inf and 0.0 < c2 / c1 < math.inf:
        e = log(c2 / c1)
    else:  # noise / gain itself may underflow to 0
        e1, e2 = (log(w) + log(link.k or _TINY) - log(link.b) - log(b)
                  for w, link, b in zip(line.w, line.links, (b1, b2)))
        e = e2 - e1
    (cap1, cap2), g1, g2, sqrt_2pi = line.box, l1.g, l2.g, 2.5066282746310002  # M = sqrt(2 pi) e^h

    # each stream's constants, bound once as defaults: no cell per name per solve
    def pair(s1: float, s2: float, tau1=sf.tau1, tau2=sf.tau2, ib1=ib1, ib2=ib2, cap1=cap1,
             cap2=cap2, g1=g1, g2=g2, u=line.u, lb1=log(b1) + log(g1), lb2=log(b2) + log(g2),
             a1=ib1 - 1.0, a2=ib2 - 1.0, m1=sqrt_2pi * ib1, m2=sqrt_2pi * ib2, log=log,
             exp=math.exp, inv_cdf=numerics._normal_dist_inv_cdf, inf=math.inf,
             off=e + log(l2.g * b2 / (l1.g * b1))):
        try:  # _ber_of_decay, without the calls where tau x^(1/beta) fits binary64
            psi1, psi2 = tau1 * (s1 * u) ** ib1, tau2 * (s2 * u) ** ib2
        except OverflowError:
            psi1, psi2 = _ber_of_decay(tau1, s1 * u, ib1), _ber_of_decay(tau2, s2 * u, ib2)
        capped1, capped2 = cap1 < psi1, cap2 < psi2  # pg: min(psi, cap) g, without the call
        pg1, pg2 = (cap1 if capped1 else psi1) * g1, (cap2 if capped2 else psi2) * g2
        if pg1 == 0.0 or (x := -inv_cdf(pg1, 0.0, 1.0)) <= 0.0:  # underflow, zero-power BER
            v1, d1 = (inf, -1.0) if pg1 == 0.0 else (-inf, -inf)
        else:
            h = log(pg1) + 0.5 * x * x  # log(pg): x is the quantile of pg as rounded
            v1 = log(x) - log(s1) + h - lb1
            d1 = -1.0 if capped1 else a1 - (x + 1.0 / x) * m1 * exp(h)
        if pg2 == 0.0 or (x := -inv_cdf(pg2, 0.0, 1.0)) <= 0.0:
            v2, d2 = (inf, -1.0) if pg2 == 0.0 else (-inf, -inf)
        else:
            h = log(pg2) + 0.5 * x * x
            v2 = log(x) - log(s2) + h - lb2
            d2 = -1.0 if capped2 else a2 - (x + 1.0 / x) * m2 * exp(h)
        return v2 - v1 + off, d1, d2

    return pair, -e


def solve_bisection(p: ProblemSpec) -> Allocation:
    """The paper's solver: a search of the constraint line in its decay-share coordinate.

    Each stream's rule is its ``log |d cost_i / d s_i|`` (:func:`_share_slopes`),
    and :func:`_share_search` finds the ``z = log(s1 / s2)`` where the two
    meet, up to the constants' ratio: there the cost stops falling as one
    share grows. The search starts from the high-SNR optimum: with ``x = Qinv(psi g)`` large,
    ``log x + x^2/2 + log psi ~ -log g - log(2 pi)/2``, so the slopes meet
    near ``s_i ~ w_i sigma_i^2 / (b_i |h_i|^2 beta_i)``, that is at
    ``z = -e``. Below the BER floor the power is clamped, which can leave
    a cheaper minimum at an end, so :func:`_cheapest` prices the found
    point and both ends, and an end wins only when strictly cheaper.
    ``iterations`` counts the evaluations of the slope difference, two
    normal quantiles each, and the pricing takes six more; the search is
    ITP, and the solver keeps the paper's name.
    """
    if isinstance(line := _line(p, "bisection"), Allocation):
        return line
    found, steps, converged = _share_search(line.ends, *_share_slopes(p, line))
    cost, _, psi, q = _cheapest(p, line, (found, *line.ends))
    return _finish(p, psi, q, cost, "bisection", steps, converged)


def solve_grid_oracle(p: ProblemSpec, grid_n: int = 4096) -> Allocation:
    """Exhaustive scan of the constraint line in its decay shares.

    At ``y`` the smaller share is ``e^-|y| / 2`` (stream 1's for ``y < 0``)
    and the larger one minus it. Exactly ``grid_n`` points are priced
    through :func:`_cheapest`: both exact line ends, a pass evenly spaced
    in ``y`` over the line (a share of 0 taken as 5e-324), and one evenly
    spaced strictly between the neighbours of its cheapest point. The
    cheapest point wins, ties going to the smallest ``y``: the independent
    check on the optimising solvers.
    """
    if grid_n < 64:
        raise DomainError(f"grid_n must be >= 64, got {grid_n}")
    if isinstance(line := _line(p, "grid_oracle"), Allocation):
        return line
    ends, exp = line.ends, math.exp

    def on_line(ys: list[float]):  # the share pairs at each y
        for y in ys:
            e = 0.5 * exp(y if y < 0.0 else -y)  # the smaller share, without abs()
            yield (e, 1.0 - e) if y < 0.0 else (1.0 - e, e)

    def cheapest(ys: list[float], shares=None) -> tuple:  # (cost, y, psi, q), first cheapest y
        cost, i, psi, q = _cheapest(p, line, on_line(ys) if shares is None else shares)
        return cost, ys[i], psi, q

    lo, hi = (math.log(2.0 * (s1 or _TINY)) if s1 < s2 else -math.log(2.0 * (s2 or _TINY))
              for s1, s2 in ends)
    n1, n2 = (grid_n - 1) // 2, (grid_n - 2) // 2
    step = (hi - lo) / (n1 + 1)
    first = cheapest([lo + i * step for i in range(1, n1 + 1)])
    a, fine = first[1] - step, 2.0 * step / (n2 + 1)  # an even pass 2 skips first
    cost, _, psi, q = min(cheapest([lo, hi], ends), first,
                          cheapest([a + j * fine for j in range(1, n2 + 1)]))
    return _finish(p, psi, q, cost, "grid_oracle", grid_n)


_SOLVERS = {
    "equal_snr": solve_equal_snr,
    "proportional": solve_proportional,
    "bisection": solve_bisection,
    "grid_oracle": solve_grid_oracle,
}
SOLVER_ORDER = tuple(_SOLVERS)


def _solver(name: str, grid_n: int) -> Callable[[ProblemSpec], Allocation]:
    """The solver called ``name`` from :data:`_SOLVERS`, the oracle bound to ``grid_n``."""
    if name not in _SOLVERS:
        raise DomainError(f"unknown solver {name!r}; choose from {list(SOLVER_ORDER)}")
    fn = _SOLVERS[name]
    return partial(fn, grid_n=grid_n) if name == "grid_oracle" else fn


def solve(p: ProblemSpec, solver: str, grid_n: int = 4096) -> Allocation:
    """Dispatch by solver name (see :data:`SOLVER_ORDER`)."""
    return _solver(solver, grid_n)(p)


@dataclass(frozen=True)
class SweepRow:
    """One (target, solver) cell of a sweep; exactly one of the two
    payload fields is set."""

    p_bar: float
    solver: str
    allocation: Allocation | None = None
    error: str | None = None


# The bisection solver assumes the cost is unimodal along the constraint line; the
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
    chosen = [(name, _solver(name, grid_n)) for name in solvers]
    rows: list[SweepRow] = []
    for t in targets:
        spec = replace(p, target=float(t))
        per_target: dict[str, Allocation] = {}
        for name, fn in chosen:
            try:
                alloc = fn(spec)
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
