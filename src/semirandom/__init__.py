"""Simulator and numerical laboratory for k-choice semi-random graph processes.

Each round offers k independent uniform vertices (squares); the player
selects one and attaches an edge to a vertex of her choice (the circle).
The package implements adaptive strategies for three targets: minimum
degree, a perfect matching, and a Hamiltonian cycle; solves the matching
drift systems that predict their scaled hitting times; and cross-validates
simulation against those predictions.
"""

from .process import GraphState, ProcessConfig, init_state
from .rng import SquareSource, trial_rng, trial_streams
from .strategies.mindeg import add_edge

__version__ = "0.1.0"

__all__ = [
    "GraphState",
    "ProcessConfig",
    "add_edge",
    "init_state",
    "SquareSource",
    "trial_rng",
    "trial_streams",
    "__version__",
]
