"""Runtime-analysis laboratory for stochastic search heuristics.

Exact Markov-chain oracles, executable theorem bounds, and reproducible
Monte Carlo experiments for randomised local search and evolutionary
algorithms on pseudo-Boolean functions.
"""

from .algorithms import (
    AlgorithmConfig,
    AlgorithmKind,
    Budget,
    RunTrace,
    TieBreak,
    one_plus_one_config,
    rls_config,
    run_algorithm,
)
from .bounds import BoundReport, Direction
from .core import (
    BlockKind,
    BlockSpec,
    FitnessFunction,
    MutationParams,
    OneBitFlip,
    RngStream,
    UnitationSpec,
    gap_function,
    linear_function,
    needle,
    onemax,
    plateau_function,
)
from .empirics import Experiment, StartPolicy, run_batch
from .oracle import build_level_chain, exact_expected_hitting_time

__version__ = "0.1.0"

__all__ = [
    "AlgorithmConfig",
    "AlgorithmKind",
    "BlockKind",
    "BlockSpec",
    "BoundReport",
    "Budget",
    "Direction",
    "Experiment",
    "FitnessFunction",
    "MutationParams",
    "OneBitFlip",
    "RngStream",
    "RunTrace",
    "StartPolicy",
    "TieBreak",
    "UnitationSpec",
    "build_level_chain",
    "exact_expected_hitting_time",
    "gap_function",
    "linear_function",
    "needle",
    "one_plus_one_config",
    "onemax",
    "plateau_function",
    "rls_config",
    "run_algorithm",
    "run_batch",
    "__version__",
]
