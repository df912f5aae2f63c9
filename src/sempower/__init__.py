"""Semantic-aware power allocation for two-stream semantic communication.

The package models the bit error rate of each semantic data stream as a
function of its allocated symbol power over a quasi-static fading
channel, models the perception error of the regenerated content as a
fitted monotone function of the per-stream BERs, and computes
minimum-total-power allocations that meet a perception target.

Modules
-------
numerics    Q function and inverse, ITP root search, finite differences, PRNG.
channel     Path loss, fading, SNR.
modulation  Analytic BER model and its inversions.
perception  Perception surface, stream curves, semantic values, fitting.
solvers     Equal-SNR, proportional, bisection and grid-oracle allocators.
simulator   Monte Carlo link-level validation.
cli         Command-line frontend (``sempower``).
"""

from ._version import __version__
from .channel import (
    ChannelParams,
    ChannelState,
    dbm_to_watt,
    make_channel_state,
    path_loss_linear,
    sample_fading,
    snr,
)
from .errors import (
    ConfigError,
    DomainError,
    InfeasibleError,
    SempowerError,
    SempowerWarning,
    SingularityError,
)
from .modulation import (
    PRESETS,
    ModulationScheme,
    ber_from_snr,
    power_from_ber,
    preset,
    snr_from_ber,
    zero_power_ber,
)
from .numerics import (
    Rng,
    ToleranceConfig,
    bisect_root,
    derive_seed,
    finite_difference,
    q_function,
    q_inverse,
)
from .perception import (
    FitResult,
    L_EDGE,
    L_PROMPT,
    SampleSet,
    StreamCurve,
    SurfaceParams,
    constraint_line_endpoints,
    default_edge_curve,
    default_prompt_curve,
    default_surface,
    eval_curve,
    eval_surface,
    fit_surface,
    load_sample_set,
    load_surface,
    save_sample_set,
    save_surface,
    semantic_value_received,
    semantic_value_transmitted,
    solve_psi2_on_constraint,
    surface_partials,
    synthetic_sample_set,
)
from .simulator import SimConfig, simulate_ber
from .solvers import (
    Allocation,
    ProblemSpec,
    SOLVER_ORDER,
    StreamSpec,
    SweepRow,
    achievable_range,
    solve,
    solve_bisection,
    solve_equal_snr,
    solve_grid_oracle,
    solve_proportional,
    sweep_targets,
)

__all__ = [name for name in dir() if not name.startswith("_")]
