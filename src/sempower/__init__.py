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
# each module's __all__ is the one list of its public names
from .channel import *
from .errors import *
from .modulation import *
from .numerics import *
from .perception import *
from .simulator import *
from .solvers import *

__all__ = [name for name in dir() if not name.startswith("_")]
