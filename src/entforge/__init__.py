"""entforge: quantum sawtooth-map simulation and multipartite-entanglement analysis.

The package exports the names of the README's library example; everything
else is imported from its module (``entforge.experiments``,
``entforge.noise``, ...).
"""

__version__ = "0.1.0"

from .core import ValidationError
from .entanglement import mixed_spectrum, page_value, pure_spectrum, stats
from .noise import run_trajectories
from .sawtooth import (
    MapParams,
    build_step_circuit,
    evolve_circuit,
    evolve_exact,
    momentum_basis_state,
)

__all__ = [
    "__version__",
    "MapParams",
    "ValidationError",
    "build_step_circuit",
    "evolve_circuit",
    "evolve_exact",
    "mixed_spectrum",
    "momentum_basis_state",
    "page_value",
    "pure_spectrum",
    "run_trajectories",
    "stats",
]
