"""Searching-based DSE baseline (the paper's DAT [15] stand-in).

Exhaustive and genetic optimizers over the same tiling/scheduling space and
cost model as the principle engine for intra-operator dataflows, an
exhaustive grid search for fused ones, and an exact branch and bound over
trip counts for both (one box search behind the intra and fused probes).
Used to validate principle optimality (Fig. 9) and to quantify the
evaluation-count gap between one-shot principles and black-box search.
"""

from .space import SearchResult, power_of_two_tiles, tile_grid
from .exhaustive import exhaustive_search
from .genetic import GAResult, GASettings, GeneticOptimizer, genetic_search
from .branch_bound import branch_and_bound_fused_search, branch_and_bound_search
from .fusion_search import FusedSearchResult, exhaustive_fused_search

__all__ = [
    "branch_and_bound_fused_search",
    "branch_and_bound_search",
    "SearchResult",
    "power_of_two_tiles",
    "tile_grid",
    "exhaustive_search",
    "GAResult",
    "GASettings",
    "GeneticOptimizer",
    "genetic_search",
    "FusedSearchResult",
    "exhaustive_fused_search",
]
