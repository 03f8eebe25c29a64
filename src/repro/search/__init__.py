"""Searching-based DSE baseline (the paper's DAT [15] stand-in).

Exhaustive and genetic optimizers over the same tiling/scheduling space and
cost model as the principle engine, for intra-operator and fused dataflows.
Used to validate principle optimality (Fig. 9) and to quantify the
evaluation-count gap between one-shot principles and black-box search.
"""

from .space import SearchResult, power_of_two_tiles, space_size, tile_grid
from .exhaustive import exhaustive_search
from .genetic import GAResult, GASettings, GeneticOptimizer, genetic_search
from .branch_bound import FusedBBResult, branch_and_bound_fused_search, branch_and_bound_search
from .fusion_search import (
    FusedSearchResult,
    exhaustive_fused_search,
    genetic_fused_search,
)

__all__ = [
    "FusedBBResult",
    "branch_and_bound_fused_search",
    "branch_and_bound_search",
    "SearchResult",
    "power_of_two_tiles",
    "space_size",
    "tile_grid",
    "exhaustive_search",
    "GAResult",
    "GASettings",
    "GeneticOptimizer",
    "genetic_search",
    "FusedSearchResult",
    "exhaustive_fused_search",
    "genetic_fused_search",
]
