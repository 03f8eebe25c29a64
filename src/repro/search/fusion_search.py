"""Searching-based inter-operator (fused) dataflow optimization.

The inter-operator analogue of :mod:`repro.search.exhaustive` /
:mod:`repro.search.genetic`: enumerate (or evolve) global tile vectors for a
fused chain and keep the best *fusable* dataflow -- the paper's DAT baseline
applied to fusion.  The fused space is much larger than the intra space
(tiles over the union of both operators' dims), which is the paper's point
about search time exploding when fusion enters the picture.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..ir.operator import TensorOperator
from ..dataflow.cost import PartialSumConvention
from ..dataflow.fusion_nest import (
    FusedChain,
    FusedDataflow,
    fused_memory_access,
)
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


def _default_structure(chain: FusedChain) -> Tuple[Tuple[str, ...], Dict[str, Tuple[str, ...]]]:
    common = chain.common_dims
    shared_order = tuple(common)
    private_orders = {}
    common_set = set(common)
    for index, op in enumerate(chain.ops):
        private_orders[op.name] = tuple(
            dim for dim in chain.op_global_dims(index) if dim not in common_set
        )
    return shared_order, private_orders


def exhaustive_fused_search(
    ops: Sequence[TensorOperator],
    buffer_elems: int,
    grid: Optional[Dict[str, Tuple[int, ...]]] = None,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
) -> Optional[FusedSearchResult]:
    """Brute-force the fused tile space of a chain.

    Tiles default to powers of two plus the full extent per global dim.
    Returns ``None`` when no grid point is simultaneously feasible (fits the
    buffer) and fusable (non-redundant intermediates).
    """

    chain = FusedChain.from_ops(ops)
    shared_order, private_orders = _default_structure(chain)
    if grid is None:
        grid = {
            dim: power_of_two_tiles(extent)
            for dim, extent in chain.global_dims.items()
        }
    dims = tuple(chain.global_dims)
    best: Optional[Tuple[FusedDataflow, int]] = None
    evaluations = 0
    for tiles in itertools.product(*(grid[dim] for dim in dims)):
        dataflow = FusedDataflow(
            shared_order=shared_order,
            private_orders=private_orders,
            tiling=Tiling(dict(zip(dims, tiles))),
        )
        if dataflow.buffer_footprint(chain) > buffer_elems:
            continue
        evaluations += 1
        report = fused_memory_access(chain, dataflow, convention)
        if not report.fusable:
            continue
        if best is None or report.total < best[1]:
            best = (dataflow, report.total)
    if best is None:
        return None
    return FusedSearchResult(
        chain=chain,
        dataflow=best[0],
        memory_access=best[1],
        evaluations=evaluations,
        label="exhaustive-fused",
    )


def genetic_fused_search(
    ops: Sequence[TensorOperator],
    buffer_elems: int,
    population: int = 64,
    generations: int = 60,
    mutation_rate: float = 0.35,
    seed: int = 2025,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
) -> Optional[FusedSearchResult]:
    """GA over fused tile vectors (deterministic for a fixed seed)."""
    chain = FusedChain.from_ops(ops)
    shared_order, private_orders = _default_structure(chain)
    dims = tuple(chain.global_dims)
    extents = tuple(chain.global_dims[dim] for dim in dims)
    rng = random.Random(seed)
    evaluations = 0

    def random_tile(extent: int) -> int:
        import math

        if extent == 1:
            return 1
        return max(1, min(extent, round(2 ** rng.uniform(0.0, math.log2(extent)))))

    def build(tiles: Tuple[int, ...]) -> FusedDataflow:
        return FusedDataflow(
            shared_order=shared_order,
            private_orders=private_orders,
            tiling=Tiling(dict(zip(dims, tiles))),
        )

    def fitness(tiles: Tuple[int, ...]) -> float:
        nonlocal evaluations
        dataflow = build(tiles)
        footprint = dataflow.buffer_footprint(chain)
        evaluations += 1
        report = fused_memory_access(chain, dataflow, convention)
        penalty = 0.0
        if footprint > buffer_elems:
            penalty += report.total * (footprint / buffer_elems)
            penalty += chain.ideal_memory_access()
        if not report.fusable:
            penalty += chain.ideal_memory_access() * 10
        return report.total + penalty

    def feasible(tiles: Tuple[int, ...]) -> bool:
        dataflow = build(tiles)
        if dataflow.buffer_footprint(chain) > buffer_elems:
            return False
        return fused_memory_access(chain, dataflow, convention).fusable

    def mutate(tiles: Tuple[int, ...]) -> Tuple[int, ...]:
        mutated = list(tiles)
        for index, extent in enumerate(extents):
            if rng.random() < mutation_rate:
                choice = rng.random()
                if choice < 0.25:
                    mutated[index] = extent
                elif choice < 0.5:
                    mutated[index] = 1
                else:
                    factor = 2 ** rng.randint(-2, 2)
                    mutated[index] = max(1, min(extent, int(mutated[index] * factor)))
        return tuple(mutated)

    population_tiles = [
        tuple(random_tile(extent) for extent in extents) for _ in range(population)
    ]
    best: Optional[Tuple[float, Tuple[int, ...]]] = None
    for _ in range(generations):
        scored = sorted(
            ((fitness(tiles), tiles) for tiles in population_tiles),
            key=lambda item: item[0],
        )
        for score, tiles in scored:
            if feasible(tiles) and (best is None or score < best[0]):
                best = (score, tiles)
            break
        elite = [tiles for _, tiles in scored[:2]]
        offspring = list(elite)
        while len(offspring) < population:
            contenders = rng.sample(scored, k=min(3, len(scored)))
            parent = min(contenders, key=lambda item: item[0])[1]
            partner = min(
                rng.sample(scored, k=min(3, len(scored))), key=lambda item: item[0]
            )[1]
            child = tuple(
                parent[i] if rng.random() < 0.5 else partner[i]
                for i in range(len(dims))
            )
            offspring.append(mutate(child))
        population_tiles = offspring
    if best is None:
        return None
    dataflow = build(best[1])
    total = fused_memory_access(chain, dataflow, convention).total
    return FusedSearchResult(
        chain=chain,
        dataflow=dataflow,
        memory_access=total,
        evaluations=evaluations,
        label="genetic-fused",
    )
