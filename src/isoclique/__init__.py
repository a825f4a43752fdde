"""Isolation-aware maximal clique enumeration.

A maximal clique of size k is isolated at factor ell when strictly fewer
than ell * k edges connect it to the rest of the graph. This package
enumerates exactly those cliques with a pivoted backtracking search
whose sterile subtrees are discarded by provably sound bounds, and ships
brute-force oracles, synthetic graph generators, and a CLI around it.
"""

from . import oracle
from .enumeration import CliqueReport, RunStats, enumerate_all_maximal, enumerate_isolated
from .generators import (
    BAConfig,
    FeatureModelConfig,
    GeneratorConfigError,
    generate,
    parse_generator_spec,
)
from .graph import (
    EdgeListParseError,
    Graph,
    load_edge_list,
    load_edge_list_report,
    write_edge_list,
)
from .pruning import STRATEGIES

__version__ = "0.1.0"

__all__ = [
    "BAConfig",
    "CliqueReport",
    "EdgeListParseError",
    "FeatureModelConfig",
    "GeneratorConfigError",
    "Graph",
    "RunStats",
    "STRATEGIES",
    "enumerate_all_maximal",
    "enumerate_isolated",
    "generate",
    "load_edge_list",
    "load_edge_list_report",
    "oracle",
    "parse_generator_spec",
    "write_edge_list",
]
