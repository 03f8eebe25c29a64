"""Exact branch-and-bound dataflow optimization (DAT's MIP component).

DAT [15] combines genetic search with mixed-integer programming.  This
module supplies the MIP-strength comparator: for each loop order, the
memory access of an MM-like operator is *linear* in the per-dimension trip
counts ``n_d = ceil(D_d / T_d)`` (each tensor's redundancy multiplier is a
single trip count or 1), while the minimal buffer footprint for given trip
counts is ``sum_t prod_{d in t} ceil(D_d / n_d)`` -- monotonically
*decreasing* in every ``n_d``.  That monotone structure lets branch and
bound find the **provably global optimum** of the modeled space:

* lower-bound a box of trip counts by its cheapest corner (all ``n`` low);
* check feasibility at the most-tiled corner (all ``n`` high);
* prune, or split the widest dimension and recurse.

One box search, :func:`_box_search`, runs both probes: the intra one per
loop order with the linear cost above, the fused one per shared-loop order
with the true fused count (:func:`repro.dataflow.fusion_nest.charge_fused`).
A node is a dict of trip counts; no dataflow is built until a search ends.

Because any tiling is dominated by its trip-count-snapped form (same trip
counts, no larger footprint), optimizing over trip counts loses nothing.
The test suite uses this to certify the one-shot principles *exactly*:
``optimize_intra`` must equal the branch-and-bound optimum everywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir.operator import TensorOperator
from ..dataflow.cost import PartialSumConvention, memory_access
from ..dataflow.fusion_nest import FusedChain, FusedDataflow, charge_fused
from ..dataflow.scheduling import all_schedules
from ..dataflow.spec import Dataflow
from ..dataflow.tiling import Tiling
from .space import SearchResult

#: Trip count per dim.
Trips = Dict[str, int]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _multiplier_dims(
    operator: TensorOperator, order: Tuple[str, ...]
) -> Dict[str, Optional[str]]:
    """For each tensor: the dim whose trip count multiplies its accesses.

    Under the reuse rule with loop order ``order``, tensor ``t``'s
    multiplier is the product of trip counts of loops outside its innermost
    indexing loop that don't index it.  For MM-like operators (each tensor
    indexed by 2 of 3 dims) that is at most one loop; returns ``None`` when
    the tensor is unconditionally non-redundant under this order.
    """

    result: Dict[str, Optional[str]] = {}
    for tensor in operator.tensors:
        dims = set(operator.dims_of(tensor.name))
        innermost = -1
        for position, dim in enumerate(order):
            if dim in dims:
                innermost = position
        outside = [
            dim for position, dim in enumerate(order)
            if position < innermost and dim not in dims
        ]
        if len(outside) > 1:
            raise ValueError("not an MM-like operator/order")
        result[tensor.name] = outside[0] if outside else None
    return result


def _linear_cost(
    operator: TensorOperator,
    mult_dims: Dict[str, Optional[str]],
    trips: Dict[str, int],
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
) -> int:
    total = 0
    for tensor in operator.tensors:
        dim = mult_dims[tensor.name]
        factor = trips[dim] if dim is not None else 1
        if (
            tensor.name == operator.output.name
            and convention is PartialSumConvention.READ_WRITE
        ):
            # 2*passes - 1 accesses per element: still linear and still
            # monotonically increasing in the trip count, so the
            # cheapest-corner bound stays valid.
            total += tensor.size * (2 * factor - 1)
        else:
            total += tensor.size * factor
    return total




def _tiles(extents: Mapping[str, int], trips: Trips) -> Trips:
    """The tile of each dim that runs (at most) its given trip count."""
    return {dim: _ceil_div(extent, trips[dim]) for dim, extent in extents.items()}


def _footprint(
    axes: Sequence[Sequence[str]], extents: Mapping[str, int]
) -> Callable[[Trips], int]:
    """Minimal buffer footprint at given trip counts: the sum over the
    buffered index sets of their tile products, tile ``ceil(D / n)``."""

    def footprint(trips: Trips) -> int:
        return sum(
            math.prod(_ceil_div(extents[dim], trips[dim]) for dim in dims)
            for dims in axes
        )

    return footprint


def _box_search(
    dims: Sequence[str],
    extents: Mapping[str, int],
    cost: Callable[[Trips], Optional[int]],
    footprint: Callable[[Trips], int],
    buffer_elems: int,
    budget: Optional[List[int]],
    incumbent: Optional[int] = None,
) -> Tuple[Optional[Tuple[int, Trips]], int]:
    """Branch and bound over the trip-count box ``1 <= n_d <= D_d``.

    ``cost`` is non-decreasing in every trip count (``None`` prunes a
    point) and ``footprint`` non-increasing, so a box is dropped when its
    most-tiled corner overflows the buffer, bounded by its least-tiled
    corner, and solved by that corner when it fits; otherwise its widest
    dim is split.  Returns the cheapest fitting point cheaper than
    ``incumbent`` as ``(cost, trips)`` (``None`` if none is), and the nodes
    expanded.  ``budget`` is a shared single-element node allowance,
    decremented in place; when it runs out the search stops with the best
    point found so far.
    """

    best: Optional[Tuple[int, Trips]] = None
    stack = [({dim: 1 for dim in dims}, {dim: extents[dim] for dim in dims})]
    nodes = 0
    while stack:
        if budget is not None:
            if budget[0] <= 0:
                break
            budget[0] -= 1
        low, high = stack.pop()
        nodes += 1
        if footprint(high) > buffer_elems:
            continue
        bound = cost(low)
        if bound is None or (incumbent is not None and bound >= incumbent):
            continue
        if footprint(low) <= buffer_elems:
            best = (bound, low)
            incumbent = bound
            continue
        widest = max(dims, key=lambda dim: high[dim] - low[dim])
        if high[widest] == low[widest]:
            continue  # a single point, and it does not fit
        mid = (low[widest] + high[widest]) // 2
        stack.append((low, {**high, widest: mid}))
        stack.append(({**low, widest: mid + 1}, high))
    return best, nodes


def branch_and_bound_search(
    operator: TensorOperator,
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    max_nodes: Optional[int] = None,
) -> Optional[SearchResult]:
    """Provably optimal dataflow over the modeled space (all orders).

    Each loop order is searched from scratch with its linear cost.
    Returns ``None`` when no dataflow fits the buffer.  ``max_nodes``
    bounds the total nodes expanded across all loop orders (the
    certification layer's budgeted probe); an exhausted budget returns the
    best feasible dataflow found so far, dropping the optimality proof.
    ``evaluations`` counts every node expanded.
    """

    dims = list(operator.dims)
    footprint = _footprint(
        [operator.dims_of(tensor.name) for tensor in operator.tensors],
        operator.dims,
    )
    budget = [max_nodes] if max_nodes is not None else None
    best: Optional[Tuple[int, Dataflow]] = None
    nodes = 0
    for schedule in all_schedules(operator):
        mult_dims = _multiplier_dims(operator, schedule.order)
        found, expanded = _box_search(
            dims,
            operator.dims,
            lambda trips: _linear_cost(operator, mult_dims, trips, convention),
            footprint,
            buffer_elems,
            budget,
        )
        nodes += expanded
        if found is None:
            continue
        dataflow = Dataflow(Tiling(_tiles(operator.dims, found[1])), schedule)
        total = memory_access(operator, dataflow, convention).total
        if best is None or total < best[0]:
            best = (total, dataflow)
    if best is None:
        return None
    return SearchResult(
        dataflow=best[1],
        memory_access=best[0],
        evaluations=nodes,
        label="branch-and-bound",
    )


def branch_and_bound_fused_search(
    ops: List[TensorOperator],
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    max_nodes: Optional[int] = None,
) -> Optional[SearchResult]:
    """Provably optimal *fused* dataflow for a two-matmul chain.

    The same box search over global trip counts, with two twists that keep
    it exact for fused nests:

    * the cost is the **true** fused count (:func:`charge_fused`; fused
      cost is monotone in every trip count, so the cheapest corner bounds
      the box), and a point whose intermediate is re-fetched is pruned;
    * the structure (shared loops over the intermediate's dims, one private
      loop per operator) is fixed, but every permutation of the shared
      dims is enumerated -- a tensor indexed by only one common dim is
      re-swept by common loops ordered before it, so the order changes
      cost; private loops cannot legally move outside the shared nest.

    Each structure is validated once; a node only charges it at its trip
    counts.  The incumbent carries across shared orders.  Used to certify
    that the Fig. 4 pattern set plus integer refinement
    (`repro.core.fusion.optimize_fused`) covers the global fused optimum.
    ``max_nodes`` bounds the nodes expanded across all shared orders (the
    certification layer's budgeted probe); exhausting it returns the best
    feasible dataflow found so far without the optimality proof.
    """

    chain = FusedChain.from_ops(ops)
    extents = chain.global_dims
    dims = list(extents)
    footprint = _footprint(chain.buffered_axes(), extents)
    budget = [max_nodes] if max_nodes is not None else None
    best_cost: Optional[int] = None
    best_dataflow: Optional[FusedDataflow] = None
    nodes = 0
    for shared_order in itertools.permutations(chain.common_dims):
        structure = FusedDataflow(
            shared_order, chain.private_orders, Tiling(extents)
        )
        structure.validate(chain)

        def cost(trips: Trips) -> Optional[int]:
            # Trip count n runs tile ceil(D/n), which runs ceil(D/tile) trips.
            snapped = {
                dim: _ceil_div(extents[dim], tile)
                for dim, tile in _tiles(extents, trips).items()
            }
            report = charge_fused(
                chain, shared_order, chain.private_orders, snapped, convention
            )
            return report.total if report.fusable else None

        found, expanded = _box_search(
            dims, extents, cost, footprint, buffer_elems, budget, best_cost
        )
        nodes += expanded
        if found is not None:
            best_cost = found[0]
            best_dataflow = replace(
                structure, tiling=Tiling(_tiles(extents, found[1]))
            )
    if best_cost is None or best_dataflow is None:
        return None
    return SearchResult(
        dataflow=best_dataflow,
        memory_access=best_cost,
        evaluations=nodes,
        label="branch-and-bound-fused",
    )
