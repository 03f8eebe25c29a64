"""Searching-based inter-operator (fused) dataflow optimization.

The inter-operator analogue of :mod:`repro.search.exhaustive`: enumerate
global tile vectors for a fused chain and keep the best *fusable* dataflow
-- the paper's DAT baseline applied to fusion.  The fused space is much
larger than the intra space (tiles over the union of both operators' dims),
which is the paper's point about search time exploding when fusion enters
the picture.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from ..ir.operator import TensorOperator
from ..dataflow.cost import PartialSumConvention
from ..dataflow.fusion_nest import FusedChain, FusedDataflow, charge_fused
from ..dataflow.tiling import Tiling
from .space import power_of_two_tiles


@dataclass(frozen=True)
class FusedSearchResult:
    """Outcome of a fused-space search."""

    chain: FusedChain
    dataflow: FusedDataflow
    memory_access: int
    evaluations: int
    label: str

    def describe(self) -> str:
        ops = "+".join(op.name for op in self.chain.ops)
        return (
            f"{self.label}[{ops}]: MA={self.memory_access} after "
            f"{self.evaluations} evaluations [{self.dataflow.describe(self.chain)}]"
        )


def exhaustive_fused_search(
    ops: Sequence[TensorOperator],
    buffer_elems: int,
    grid: Optional[Dict[str, Tuple[int, ...]]] = None,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
) -> Optional[FusedSearchResult]:
    """Brute-force the fused tile space of a chain.

    The structure is the chain's common dims as shared loops and each
    operator's private loops (:attr:`FusedChain.private_orders`), validated
    once; each grid point is charged through
    :func:`repro.dataflow.fusion_nest.charge_fused`.  Tiles default to
    powers of two plus the full extent per global dim.  Returns ``None``
    when no grid point is simultaneously feasible (fits the buffer) and
    fusable (non-redundant intermediates).
    """

    chain = FusedChain.from_ops(ops)
    extents = chain.global_dims
    structure = FusedDataflow(
        shared_order=chain.common_dims,
        private_orders=chain.private_orders,
        tiling=Tiling(extents),
    )
    structure.validate(chain)
    dims = tuple(extents)
    if grid is None:
        grid = {dim: power_of_two_tiles(extent) for dim, extent in extents.items()}
    # Each candidate resolved once: UNTILED is the extent, and a tile out
    # of range raises.
    choices = [
        [Tiling({dim: tile}).resolve({dim: extents[dim]})[dim] for tile in grid[dim]]
        for dim in dims
    ]
    axes = chain.buffered_axes()
    best: Optional[Tuple[Dict[str, int], int]] = None
    evaluations = 0
    for point in itertools.product(*choices):
        tiles = dict(zip(dims, point))
        footprint = sum(math.prod(tiles[dim] for dim in index) for index in axes)
        if footprint > buffer_elems:
            continue
        evaluations += 1
        trips = {dim: -(-extent // tiles[dim]) for dim, extent in extents.items()}
        report = charge_fused(
            chain, structure.shared_order, structure.private_orders, trips, convention
        )
        if not report.fusable:
            continue
        if best is None or report.total < best[1]:
            best = (tiles, report.total)
    if best is None:
        return None
    return FusedSearchResult(
        chain=chain,
        dataflow=replace(structure, tiling=Tiling(best[0])),
        memory_access=best[1],
        evaluations=evaluations,
        label="exhaustive-fused",
    )
