"""imclim: limit-behaviour analysis for upper transition operators.

The package models the one-step dynamics of a finite-state imprecise Markov
chain as an upper transition operator and decides -- exactly, for finitely
generated operators -- whether every orbit of the operator converges.  A
numerical orbit engine provides the independent cross-check behind every
symbolic verdict.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatchError,
    ImclimError,
    ModelValidationError,
    NotWellDefinedError,
    PreconditionError,
    UnsupportedOperatorError,
)
from .operators import (
    BUILTIN_OPERATORS,
    CounterexampleOperator,
    CredalOperator,
    StateSpace,
    SupportTable,
    UpperOperator,
)
from .graphs import (
    AccessGraph,
    ClassInfo,
    build_graph,
    communication_classes,
    to_dot,
)
from .reachability import (
    StatePartition,
    partition_states,
)
from .decomposition import (
    Decomposition,
    Verdict,
    Witness,
    decide_convergence,
    decompose,
)
from .orbits import (
    OrbitCheck,
    OrbitComparison,
    OrbitParams,
    OrbitResult,
    default_function_suite,
    iterate_orbit,
    iterate_orbits,
    oracle_compare,
    replay_orbit,
    search_cycle_witness,
)
from .modelio import (
    load_model,
    parse_model,
    write_orbit_trace,
)
from .report import AnalysisReport, analyze

__all__ = [
    "__version__",
    # errors
    "ImclimError",
    "ModelValidationError",
    "DimensionMismatchError",
    "PreconditionError",
    "NotWellDefinedError",
    "UnsupportedOperatorError",
    # operators
    "StateSpace",
    "SupportTable",
    "UpperOperator",
    "CredalOperator",
    "CounterexampleOperator",
    "BUILTIN_OPERATORS",
    # graphs
    "AccessGraph",
    "ClassInfo",
    "build_graph",
    "communication_classes",
    "to_dot",
    # reachability
    "StatePartition",
    "partition_states",
    # decomposition
    "Decomposition",
    "Verdict",
    "Witness",
    "decompose",
    "decide_convergence",
    # orbits
    "OrbitParams",
    "OrbitResult",
    "OrbitCheck",
    "OrbitComparison",
    "iterate_orbit",
    "iterate_orbits",
    "replay_orbit",
    "oracle_compare",
    "default_function_suite",
    "search_cycle_witness",
    # model io
    "load_model",
    "parse_model",
    "write_orbit_trace",
    # report
    "AnalysisReport",
    "analyze",
]
