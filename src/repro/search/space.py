"""Design-space definitions for searching-based dataflow optimization.

This package is the library's stand-in for the searching-based optimizers
the paper compares against (DAT [15]'s mixed-integer programming + genetic
algorithms over the full tiling & scheduling space).  It shares the cost
model with the principle engine, so "search finds X" and "principles
construct X" are directly comparable -- the Fig. 9 validation.

The space for one operator is

* schedule: any permutation of the loop dimensions (n! orders), and
* tiling: any integer tile vector with the buffer-footprint constraint.

Exhaustive enumeration discretizes tiles (powers of two plus the full
extent by default); the genetic optimizer mutates raw integers and can land
anywhere in the space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from ..ir.operator import TensorOperator
from ..dataflow.fusion_nest import FusedChain, FusedDataflow
from ..dataflow.spec import Dataflow


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a search run: an operator's dataflow, or a fused
    chain's (the fused branch and bound)."""

    dataflow: Union[Dataflow, FusedDataflow]
    memory_access: int
    evaluations: int
    label: str

    def describe(self, subject: Union[TensorOperator, FusedChain]) -> str:
        return (
            f"{self.label}: MA={self.memory_access} after {self.evaluations} "
            f"evaluations [{self.dataflow.describe(subject)}]"
        )


def power_of_two_tiles(extent: int, include_extent: bool = True) -> Tuple[int, ...]:
    """Tile candidates 1, 2, 4, ... up to ``extent`` (plus ``extent``)."""
    if extent <= 0:
        raise ValueError("extent must be positive")
    tiles: List[int] = []
    tile = 1
    while tile < extent:
        tiles.append(tile)
        tile *= 2
    if include_extent or not tiles:
        tiles.append(extent)
    return tuple(tiles)


def tile_grid(
    operator: TensorOperator,
    per_dim: Dict[str, Sequence[int]] = None,
) -> Dict[str, Tuple[int, ...]]:
    """Per-dimension tile candidate lists (default: powers of two + extent)."""
    grid: Dict[str, Tuple[int, ...]] = {}
    for dim, extent in operator.dims.items():
        if per_dim is not None and dim in per_dim:
            candidates = tuple(sorted(set(per_dim[dim])))
            for tile in candidates:
                if not 1 <= tile <= extent:
                    raise ValueError(
                        f"tile candidate {tile} for dim {dim!r} out of range"
                    )
            grid[dim] = candidates
        else:
            grid[dim] = power_of_two_tiles(extent)
    return grid
