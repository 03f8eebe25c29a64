"""Callback-based tile solvers: the reference oracle for the closed forms.

Before the footprints were compiled into integer coefficients
(:class:`repro.core.nra.TileConstraint`), every "largest feasible tile"
probe bisected over a footprint callable that built and resolved a
:class:`~repro.dataflow.tiling.Tiling`.  That solver is kept here, verbatim
in behaviour, so the property tests can assert the closed forms return
exactly the same candidate lists (cut to the first pair of each trip pair,
:func:`first_per_trip_pair`), Single-, Two- and Three-NRA candidates,
fused dataflows and generic untile / resident / stream candidates.  It also
keeps the slow scoring path: every candidate pair is ranked by building its
dataflow and counting it through
:func:`~repro.dataflow.cost.memory_access` /
:func:`~repro.dataflow.fusion_nest.fused_memory_access`, not by the
trip-count scorers the library now uses.  :func:`optimize_fused` is the
fused search's all-recount loop: every pattern, medium and shared order's
solution is built, recounted and classified, where the library scores
them all and builds only the winner.  :func:`branch_and_bound_search` and
:func:`branch_and_bound_fused_search` are the two branch-and-bound probes
as they were before they shared one box search: each node builds a
:class:`~repro.dataflow.tiling.Tiling` for its footprint, and each fused
node a whole validated :class:`~repro.dataflow.fusion_nest.FusedDataflow`
for its cost.  The intra one keeps its node under-count: an order's nodes
are added only when that order found a fitting corner.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.fusion import (
    FusedPattern,
    FusedResult,
    FusionMedium,
    Role,
    _shared_order,
    cross_patterns,
    profitable_patterns,
)
from repro.core.generic import GenericCandidate
from repro.core.nra import NRACandidate, _other_dim
from repro.dataflow.cost import PartialSumConvention, memory_access
from repro.dataflow.fusion_nest import FusedChain, FusedDataflow, fused_memory_access
from repro.dataflow.scheduling import Schedule, stationary_schedule
from repro.dataflow.spec import Dataflow, NRAClass
from repro.dataflow.tiling import Tiling
from repro.dataflow.scheduling import all_schedules
from repro.ir.operator import TensorOperator, validate_buffer_elems
from repro.search.branch_bound import _linear_cost, _multiplier_dims
from repro.search.space import SearchResult


def max_feasible(
    footprint: Callable[[int], int], upper: int, budget: int
) -> Optional[int]:
    """Largest ``t`` in [1, upper] with ``footprint(t) <= budget`` (bisection)."""
    if upper < 1 or footprint(1) > budget:
        return None
    low, high = 1, upper
    while low < high:
        mid = (low + high + 1) // 2
        if footprint(mid) <= budget:
            low = mid
        else:
            high = mid - 1
    return low


def _evaluate(operator: TensorOperator, dataflow: Dataflow) -> int:
    """Exact per-instance access count, through the materialized nest."""
    return memory_access(operator, dataflow).per_instance_total


def _ceil_div(numerator: int, denominator: int) -> int:
    return -(-numerator // denominator)


def pair_candidates(
    footprint: Callable[[int, int], int],
    upper_x: int,
    upper_y: int,
    budget: int,
    max_trip_delta: int = 4,
) -> List[Tuple[int, int]]:
    """Candidate tile pairs, every probe a bisection over ``footprint``."""

    def balanced(t: int) -> int:
        return footprint(min(t, upper_x), min(t, upper_y))

    base = max_feasible(balanced, max(upper_x, upper_y), budget)
    if base is None:
        return []
    seeds: List[Tuple[int, int]] = []
    tx = min(base, upper_x)
    grown_y = max_feasible(lambda t: footprint(tx, t), upper_y, budget)
    if grown_y is not None:
        seeds.append((tx, grown_y))
    ty = min(base, upper_y)
    grown_x = max_feasible(lambda t: footprint(t, ty), upper_x, budget)
    if grown_x is not None:
        seeds.append((grown_x, ty))
    if not seeds:
        return []

    candidates: set = set()

    def snap(extent: int, tile: int) -> int:
        return _ceil_div(extent, _ceil_div(extent, tile))

    def add(tile_x: int, tile_y: int) -> None:
        tile_x = max(1, min(tile_x, upper_x))
        tile_y = max(1, min(tile_y, upper_y))
        if footprint(tile_x, tile_y) <= budget:
            candidates.add((tile_x, tile_y))

    for seed_x, seed_y in seeds:
        add(seed_x, seed_y)
        trips_x = _ceil_div(upper_x, seed_x)
        trips_y = _ceil_div(upper_y, seed_y)
        for delta in range(max_trip_delta + 1):
            tile_x = _ceil_div(upper_x, trips_x + delta)
            regrown = max_feasible(
                lambda t, tx=tile_x: footprint(tx, t), upper_y, budget
            )
            if regrown is not None:
                add(tile_x, snap(upper_y, regrown))
                add(tile_x, regrown)
            tile_y = _ceil_div(upper_y, trips_y + delta)
            regrown_x = max_feasible(
                lambda t, ty=tile_y: footprint(t, ty), upper_x, budget
            )
            if regrown_x is not None:
                add(snap(upper_x, regrown_x), tile_y)
                add(regrown_x, tile_y)

    def distinct_tiles(extent: int, cap: int):
        values = []
        trips = 1
        while len(values) < cap:
            tile = _ceil_div(extent, trips)
            values.append(tile)
            if tile == 1:
                break
            trips = _ceil_div(extent, tile - 1)
        return values

    sweep_cap = 96
    if 2 * math.isqrt(upper_x) + 2 <= sweep_cap:
        for tile_x in distinct_tiles(upper_x, sweep_cap):
            grown = max_feasible(
                lambda t, tx=tile_x: footprint(tx, t), upper_y, budget
            )
            if grown is not None:
                add(tile_x, snap(upper_y, grown))
                add(tile_x, grown)
    if 2 * math.isqrt(upper_y) + 2 <= sweep_cap:
        for tile_y in distinct_tiles(upper_y, sweep_cap):
            grown_x = max_feasible(
                lambda t, ty=tile_y: footprint(t, ty), upper_x, budget
            )
            if grown_x is not None:
                add(snap(upper_x, grown_x), tile_y)
                add(grown_x, tile_y)
    return sorted(candidates)


def first_per_trip_pair(
    pairs: List[Tuple[int, int]], upper_x: int, upper_y: int
) -> List[Tuple[int, int]]:
    """Sorted ``pairs`` cut to the first pair of each trip pair.

    A pair's score depends only on ``(ceil(upper_x/t_x), ceil(upper_y/t_y))``
    and callers keep the first minimum in sorted order, so no later pair of
    a trip pair can win.
    """
    kept: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for tile_x, tile_y in pairs:
        trips = (_ceil_div(upper_x, tile_x), _ceil_div(upper_y, tile_y))
        kept.setdefault(trips, (tile_x, tile_y))
    return list(kept.values())


# ----------------------------------------------------------------------
# NRA constructors
# ----------------------------------------------------------------------
def single_nra_pairs(
    operator: TensorOperator, stationary: str, buffer_elems: int
) -> List[Tuple[int, int]]:
    dim_x, dim_y = operator.dims_of(stationary)
    dim_z = _other_dim(operator, (dim_x, dim_y))

    def footprint(tile_x: int, tile_y: int) -> int:
        tiling = Tiling({dim_x: tile_x, dim_y: tile_y, dim_z: 1})
        return tiling.buffer_footprint(operator)

    return pair_candidates(
        footprint, operator.dims[dim_x], operator.dims[dim_y], buffer_elems
    )


def single_nra(
    operator: TensorOperator, stationary: str, buffer_elems: int
) -> Optional[NRACandidate]:
    dim_x, dim_y = operator.dims_of(stationary)
    dim_z = _other_dim(operator, (dim_x, dim_y))
    pairs = single_nra_pairs(operator, stationary, buffer_elems)
    if not pairs:
        return None
    schedule = stationary_schedule(operator, stationary)
    best: Optional[Tuple[int, Dataflow]] = None
    for tile_x, tile_y in pairs:
        dataflow = Dataflow(
            Tiling({dim_x: tile_x, dim_y: tile_y, dim_z: 1}), schedule
        )
        total = _evaluate(operator, dataflow)
        if best is None or total < best[0]:
            best = (total, dataflow)
    assert best is not None
    return NRACandidate(
        label=f"single[{stationary}]", nra=NRAClass.SINGLE, dataflow=best[1]
    )


def two_nra(
    operator: TensorOperator,
    untiled_dim: str,
    maximized_dim: str,
    buffer_elems: int,
) -> Optional[NRACandidate]:
    dim_y = _other_dim(operator, (untiled_dim, maximized_dim))

    def tiling_for(tile_x: int) -> Tiling:
        return Tiling(
            {
                untiled_dim: operator.dims[untiled_dim],
                maximized_dim: tile_x,
                dim_y: 1,
            }
        )

    tile_x = max_feasible(
        lambda t: tiling_for(t).buffer_footprint(operator),
        operator.dims[maximized_dim],
        buffer_elems,
    )
    if tile_x is None:
        return None
    return NRACandidate(
        label=f"two[untile {untiled_dim}, max {maximized_dim}]",
        nra=NRAClass.TWO,
        dataflow=Dataflow(
            tiling_for(tile_x), Schedule((maximized_dim, dim_y, untiled_dim))
        ),
    )


def three_nra(
    operator: TensorOperator, resident: str, buffer_elems: int
) -> Optional[NRACandidate]:
    """``resident``'s dims whole, the other dim at 1, if that fits."""
    dim_x, dim_y = operator.dims_of(resident)
    dim_z = _other_dim(operator, (dim_x, dim_y))
    tiling = Tiling(
        {dim_x: operator.dims[dim_x], dim_y: operator.dims[dim_y], dim_z: 1}
    )
    if tiling.buffer_footprint(operator) > buffer_elems:
        return None
    return NRACandidate(
        label=f"three[resident {resident}]",
        nra=NRAClass.THREE,
        dataflow=Dataflow(tiling, Schedule((dim_z, dim_x, dim_y))),
    )


# ----------------------------------------------------------------------
# Generic families
# ----------------------------------------------------------------------
def generic_role_candidates(
    operator: TensorOperator, buffer_elems: int
) -> List[GenericCandidate]:
    """The untile, resident and stream candidates of an einsum-like
    operator, the untiled family's grown tile found by bisection."""
    all_dims = operator.dim_names

    def tiling_for(tiles: Mapping[str, int]) -> Tiling:
        return Tiling({dim: tiles.get(dim, 1) for dim in all_dims})

    def fits(tiling: Tiling) -> bool:
        return tiling.buffer_footprint(operator) <= buffer_elems

    candidates: List[GenericCandidate] = []
    for untiled, maximized in itertools.permutations(all_dims, 2):
        whole = {untiled: operator.dims[untiled]}
        tile = max_feasible(
            lambda t: tiling_for({**whole, maximized: t}).buffer_footprint(
                operator
            ),
            operator.dims[maximized],
            buffer_elems,
        )
        if tile is None:
            continue
        order = (maximized,) + tuple(
            dim for dim in all_dims if dim not in (maximized, untiled)
        ) + (untiled,)
        candidates.append(
            GenericCandidate(
                label=f"untile[{untiled}, max {maximized}]",
                dataflow=Dataflow(
                    tiling_for({**whole, maximized: tile}), Schedule(order)
                ),
            )
        )
    for tensor in operator.tensors:
        dims = operator.dims_of(tensor.name)
        tiling = tiling_for({dim: operator.dims[dim] for dim in dims})
        if fits(tiling):
            order = tuple(d for d in all_dims if d not in dims) + tuple(
                d for d in all_dims if d in dims
            )
            candidates.append(
                GenericCandidate(
                    label=f"resident[{tensor.name}]",
                    dataflow=Dataflow(tiling, Schedule(order)),
                )
            )
    for streamed in all_dims:
        tiling = tiling_for(
            {dim: operator.dims[dim] for dim in all_dims if dim != streamed}
        )
        if fits(tiling):
            order = (streamed,) + tuple(d for d in all_dims if d != streamed)
            candidates.append(
                GenericCandidate(
                    label=f"stream[{streamed}]",
                    dataflow=Dataflow(tiling, Schedule(order)),
                )
            )
    return candidates


# ----------------------------------------------------------------------
# Fused patterns
# ----------------------------------------------------------------------
def solve_pattern(
    chain: FusedChain,
    pattern: FusedPattern,
    buffer_elems: int,
    medium: FusionMedium = FusionMedium.MEMORY,
    register_elems: Optional[int] = None,
    shared_order: Optional[Tuple[str, ...]] = None,
) -> Optional[FusedDataflow]:
    """The pattern solver with a capacity-footprint callback per probe."""
    roles = pattern.roles
    fixed: Dict[str, int] = {}
    free: List[str] = []
    for dim, role in roles.items():
        if role is Role.UNTILE:
            fixed[dim] = chain.global_dims[dim]
        elif role is Role.MINIMIZE:
            fixed[dim] = 1
        else:
            free.append(dim)
    if shared_order is None:
        shared_order = _shared_order(chain, roles)
    private_orders = chain.private_orders
    intermediates = tuple(t.name for t in chain.intermediates())
    excluded = intermediates if medium is FusionMedium.COMPUTE_UNIT else ()

    def build(tiles: Mapping[str, int]) -> FusedDataflow:
        return FusedDataflow(
            shared_order=shared_order,
            private_orders=private_orders,
            tiling=Tiling({**fixed, **tiles}),
        )

    def feasible(dataflow: FusedDataflow) -> bool:
        if dataflow.buffer_footprint(chain, exclude=excluded) > buffer_elems:
            return False
        if medium is FusionMedium.COMPUTE_UNIT:
            for name in intermediates:
                if dataflow.tile_elements(chain, name) > register_elems:
                    return False
        return True

    def capacity_footprint(dataflow: FusedDataflow) -> int:
        footprint = dataflow.buffer_footprint(chain, exclude=excluded)
        if medium is FusionMedium.COMPUTE_UNIT:
            for name in intermediates:
                tile = dataflow.tile_elements(chain, name)
                if tile > register_elems:
                    footprint = max(footprint, buffer_elems + tile)
        return footprint

    if not free:
        dataflow = build({})
        return dataflow if feasible(dataflow) else None
    if len(free) == 1:
        dim = free[0]
        tile = max_feasible(
            lambda t: capacity_footprint(build({dim: t})),
            chain.global_dims[dim],
            buffer_elems,
        )
        if tile is None:
            return None
        dataflow = build({dim: tile})
        return dataflow if feasible(dataflow) else None
    dim_x, dim_y = free
    pairs = pair_candidates(
        lambda x, y: capacity_footprint(build({dim_x: x, dim_y: y})),
        chain.global_dims[dim_x],
        chain.global_dims[dim_y],
        buffer_elems,
    )
    best: Optional[Tuple[int, FusedDataflow]] = None
    for tile_x, tile_y in pairs:
        dataflow = build({dim_x: tile_x, dim_y: tile_y})
        if not feasible(dataflow):
            continue
        report = fused_memory_access(chain, dataflow)
        if not report.fusable:
            continue
        if best is None or report.total < best[0]:
            best = (report.total, dataflow)
    return None if best is None else best[1]


# ----------------------------------------------------------------------
# Fused search
# ----------------------------------------------------------------------
def optimize_fused(
    ops: Sequence[TensorOperator],
    buffer_elems: int,
    include_cross: bool = False,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    medium: FusionMedium = FusionMedium.MEMORY,
    register_elems: Optional[int] = None,
    solve: Callable[..., Optional[FusedDataflow]] = solve_pattern,
) -> Optional[FusedResult]:
    """The all-recount fused search: every solved candidate is built and
    counted through ``fused_memory_access``, the cheapest kept.

    ``solve`` is the per-(pattern, medium, order) solver; the default is
    this module's callback solver.
    """

    buffer_elems = validate_buffer_elems(buffer_elems)
    chain = FusedChain.from_ops(ops)
    if len(chain.common_dims) != 2:
        return None
    patterns = profitable_patterns(chain)
    if include_cross:
        patterns = patterns + cross_patterns(chain)
    if medium is FusionMedium.BEST:
        media = (FusionMedium.MEMORY, FusionMedium.COMPUTE_UNIT)
    else:
        media = (medium,)
    shared_orders = tuple(itertools.permutations(chain.common_dims))
    best: Optional[FusedResult] = None
    for pattern in patterns:
      for active_medium in media:
       for shared_order in shared_orders:
        dataflow = solve(
            chain, pattern, buffer_elems, medium=active_medium,
            register_elems=register_elems, shared_order=shared_order,
        )
        if dataflow is None:
            continue
        report = fused_memory_access(chain, dataflow, convention)
        if not report.fusable:
            continue
        if best is None or report.total < best.report.total:
            best = FusedResult(
                chain=chain,
                pattern=pattern,
                dataflow=dataflow,
                report=report,
                medium=active_medium,
            )
    return best


# ----------------------------------------------------------------------
# Branch-and-bound probes, one dataflow per node
# ----------------------------------------------------------------------
def _min_footprint(operator: TensorOperator, trips: Dict[str, int]) -> int:
    tiles = {
        dim: _ceil_div(extent, trips[dim])
        for dim, extent in operator.dims.items()
    }
    return Tiling(tiles).buffer_footprint(operator)


def _optimize_order(
    operator: TensorOperator,
    order: Tuple[str, ...],
    buffer_elems: int,
    convention: PartialSumConvention,
    budget: Optional[List[int]],
) -> Optional[Tuple[int, Dict[str, int], int]]:
    mult_dims = _multiplier_dims(operator, order)
    dims = list(operator.dims)
    best_cost: Optional[int] = None
    best_trips: Optional[Dict[str, int]] = None
    stack = [({d: 1 for d in dims}, {d: operator.dims[d] for d in dims})]
    nodes = 0
    while stack:
        if budget is not None:
            if budget[0] <= 0:
                break
            budget[0] -= 1
        low, high = stack.pop()
        nodes += 1
        if _min_footprint(operator, high) > buffer_elems:
            continue
        bound = _linear_cost(operator, mult_dims, low, convention)
        if best_cost is not None and bound >= best_cost:
            continue
        if _min_footprint(operator, low) <= buffer_elems:
            if best_cost is None or bound < best_cost:
                best_cost = bound
                best_trips = dict(low)
            continue
        widest = max(dims, key=lambda d: high[d] - low[d])
        if high[widest] == low[widest]:
            continue
        mid = (low[widest] + high[widest]) // 2
        left_high = dict(high)
        left_high[widest] = mid
        right_low = dict(low)
        right_low[widest] = mid + 1
        stack.append((dict(low), left_high))
        stack.append((right_low, dict(high)))
    if best_cost is None or best_trips is None:
        return None
    return best_cost, best_trips, nodes


def branch_and_bound_search(
    operator: TensorOperator,
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    max_nodes: Optional[int] = None,
) -> Optional[SearchResult]:
    """Intra probe: per loop order, a box search over a built tiling's
    footprint; an order's nodes count only when it found a fitting corner."""
    best: Optional[Tuple[int, Dataflow]] = None
    nodes = 0
    budget = [max_nodes] if max_nodes is not None else None
    for schedule in all_schedules(operator):
        outcome = _optimize_order(
            operator, schedule.order, buffer_elems, convention, budget
        )
        if outcome is None:
            continue
        _, trips, visited = outcome
        nodes += visited
        tiles = {
            dim: _ceil_div(extent, trips[dim])
            for dim, extent in operator.dims.items()
        }
        dataflow = Dataflow(Tiling(tiles), schedule)
        total = memory_access(operator, dataflow, convention).total
        if best is None or total < best[0]:
            best = (total, dataflow)
    if best is None:
        return None
    return SearchResult(best[1], best[0], nodes, "branch-and-bound")


def branch_and_bound_fused_search(
    ops: Sequence[TensorOperator],
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    max_nodes: Optional[int] = None,
) -> Optional[SearchResult]:
    """Fused probe: per shared order, a box search that builds, resolves
    and (for the cost) validates and counts a fused dataflow per corner."""
    chain = FusedChain.from_ops(ops)
    dims = list(chain.global_dims)
    common = list(chain.common_dims)
    privates = {
        op.name: tuple(d for d in chain.op_global_dims(i) if d not in common)
        for i, op in enumerate(chain.ops)
    }
    best_cost: Optional[int] = None
    best_dataflow: Optional[FusedDataflow] = None
    nodes = 0
    for shared_order in itertools.permutations(common):

        def build(trips: Dict[str, int]) -> FusedDataflow:
            tiles = {d: _ceil_div(chain.global_dims[d], trips[d]) for d in dims}
            return FusedDataflow(
                shared_order=shared_order,
                private_orders=privates,
                tiling=Tiling(tiles),
            )

        def true_cost(trips: Dict[str, int]) -> Optional[int]:
            report = fused_memory_access(chain, build(trips), convention)
            return report.total if report.fusable else None

        def footprint(trips: Dict[str, int]) -> int:
            return build(trips).buffer_footprint(chain)

        stack = [
            ({d: 1 for d in dims}, {d: chain.global_dims[d] for d in dims})
        ]
        while stack:
            if max_nodes is not None and nodes >= max_nodes:
                break
            low, high = stack.pop()
            nodes += 1
            if footprint(high) > buffer_elems:
                continue
            bound = true_cost(low)
            if bound is None:
                continue
            if best_cost is not None and bound >= best_cost:
                continue
            if footprint(low) <= buffer_elems:
                best_cost = bound
                best_dataflow = build(low)
                continue
            widest = max(dims, key=lambda d: high[d] - low[d])
            if high[widest] == low[widest]:
                continue
            mid = (low[widest] + high[widest]) // 2
            left_high = dict(high)
            left_high[widest] = mid
            right_low = dict(low)
            right_low[widest] = mid + 1
            stack.append((dict(low), left_high))
            stack.append((right_low, dict(high)))
    if best_cost is None or best_dataflow is None:
        return None
    return SearchResult(best_dataflow, best_cost, nodes, "branch-and-bound-fused")
