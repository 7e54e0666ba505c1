"""absorb-kit: desk-scale clique-decomposition toolkit.

Hypergraph kernels, divisibility checks, exact cover search, integral and
fractional decompositions, absorber/booster gadgets, omni-absorbers,
randomized packing engines, and an end-to-end Steiner triple system
pipeline.
"""

from .divide import DesignParams, divisible_subgraphs, is_divisible, params_admissible
from .errors import (AbsorbKitError, BudgetError, CapacityError,
                     ConstructionError, DivisibilityError, ParameterError,
                     ParseError, PreconditionError, ReliabilityError)
from .exactcover import (count_decompositions, enumerate_decompositions,
                         find_decomposition, find_two_disjoint_decompositions)
from .hypercore import (Decomposition, Hypergraph, MultiHypergraph, Packing,
                        enumerate_cliques, max_level_degree,
                        read_graph, read_packing, write_graph, write_packing)
from .pipeline import PipelineConfig, oracle_steiner, pipeline_steiner, verify_design

__all__ = [
    "AbsorbKitError", "BudgetError", "CapacityError", "ConstructionError",
    "Decomposition", "DesignParams", "DivisibilityError", "Hypergraph",
    "MultiHypergraph", "Packing", "ParameterError", "ParseError",
    "PipelineConfig", "PreconditionError", "ReliabilityError",
    "count_decompositions", "divisible_subgraphs", "enumerate_cliques",
    "enumerate_decompositions", "find_decomposition",
    "find_two_disjoint_decompositions", "is_divisible",
    "max_level_degree", "oracle_steiner", "params_admissible",
    "pipeline_steiner", "read_graph", "read_packing", "verify_design",
    "write_graph", "write_packing",
]

__version__ = "0.1.0"
