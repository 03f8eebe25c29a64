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

Because any tiling is dominated by its trip-count-snapped form (same trip
counts, no larger footprint), optimizing over trip counts loses nothing.
The test suite uses this to certify the one-shot principles *exactly*:
``optimize_intra`` must equal the branch-and-bound optimum everywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir.operator import TensorOperator
from ..dataflow.cost import PartialSumConvention, memory_access
from ..dataflow.fusion_nest import FusedChain, FusedDataflow, fused_memory_access
from ..dataflow.scheduling import Schedule, all_schedules
from ..dataflow.spec import Dataflow
from ..dataflow.tiling import Tiling
from .space import SearchResult


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


def _min_footprint(operator: TensorOperator, trips: Dict[str, int]) -> int:
    tiles = {
        dim: _ceil_div(extent, trips[dim])
        for dim, extent in operator.dims.items()
    }
    return Tiling(tiles).buffer_footprint(operator)


@dataclass
class _Box:
    low: Dict[str, int]
    high: Dict[str, int]


def _optimize_order(
    operator: TensorOperator,
    order: Tuple[str, ...],
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    budget: Optional[List[int]] = None,
) -> Optional[Tuple[int, Dict[str, int], int]]:
    """Global optimum (cost, trips, nodes) for one loop order, or None.

    ``budget`` is a shared single-element node allowance (mutated in
    place); when it runs out the search stops expanding and returns the
    best found so far, which may be suboptimal but is always feasible.
    """

    mult_dims = _multiplier_dims(operator, order)
    dims = list(operator.dims)
    root = _Box(
        low={d: 1 for d in dims},
        high={d: operator.dims[d] for d in dims},
    )
    best_cost: Optional[int] = None
    best_trips: Optional[Dict[str, int]] = None
    stack: List[_Box] = [root]
    nodes = 0
    while stack:
        if budget is not None:
            if budget[0] <= 0:
                break
            budget[0] -= 1
        box = stack.pop()
        nodes += 1
        # Feasibility: the most-tiled corner has the smallest footprint.
        if _min_footprint(operator, box.high) > buffer_elems:
            continue
        # Bound: the least-tiled corner has the smallest cost.
        bound = _linear_cost(operator, mult_dims, box.low, convention)
        if best_cost is not None and bound >= best_cost:
            continue
        # Is the cheapest corner itself feasible?  Then it is this box's
        # optimum (cost increases in every trip count).
        if _min_footprint(operator, box.low) <= buffer_elems:
            if best_cost is None or bound < best_cost:
                best_cost = bound
                best_trips = dict(box.low)
            continue
        # Split the widest dimension.
        widest = max(dims, key=lambda d: box.high[d] - box.low[d])
        if box.high[widest] == box.low[widest]:
            continue  # degenerate box, infeasible cheap corner: dead end
        mid = (box.low[widest] + box.high[widest]) // 2
        left = _Box(low=dict(box.low), high=dict(box.high))
        left.high[widest] = mid
        right = _Box(low=dict(box.low), high=dict(box.high))
        right.low[widest] = mid + 1
        stack.append(left)
        stack.append(right)
    if best_cost is None or best_trips is None:
        return None
    return best_cost, best_trips, nodes


def branch_and_bound_search(
    operator: TensorOperator,
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    max_nodes: Optional[int] = None,
) -> Optional[SearchResult]:
    """Provably optimal dataflow over the modeled space (all orders).

    Returns ``None`` when no dataflow fits the buffer.  ``max_nodes``
    bounds the total nodes expanded across all loop orders (the
    certification layer's budgeted probe); an exhausted budget returns the
    best feasible dataflow found so far, dropping the optimality proof.
    """

    best: Optional[Tuple[int, Dataflow]] = None
    nodes = 0
    budget = [max_nodes] if max_nodes is not None else None
    for schedule in all_schedules(operator):
        outcome = _optimize_order(
            operator, schedule.order, buffer_elems, convention, budget
        )
        if outcome is None:
            continue
        cost, trips, visited = outcome
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
    return SearchResult(
        dataflow=best[1],
        memory_access=best[0],
        evaluations=nodes,
        label="branch-and-bound",
    )


# ----------------------------------------------------------------------
# Fused-space branch and bound
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FusedBBResult:
    """Outcome of the fused-space branch and bound."""

    dataflow: object  # FusedDataflow (import-cycle-free annotation)
    memory_access: int
    evaluations: int
    label: str = "branch-and-bound-fused"


def branch_and_bound_fused_search(
    ops: List[TensorOperator],
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    max_nodes: Optional[int] = None,
) -> Optional[FusedBBResult]:
    """Provably optimal *fused* dataflow for a two-matmul chain.

    Same box-splitting scheme over global trip counts, with two twists that
    keep it exact for fused nests:

    * the lower bound is the **true** fused cost at the cheapest corner
      (evaluated through :func:`fused_memory_access`; fused cost is
      monotone in every trip count, so the corner bounds the box);
    * the structure (shared loops over the intermediate's dims, one private
      loop per operator) is fixed, but every permutation of the shared
      dims is enumerated -- a tensor indexed by only one common dim is
      re-swept by common loops ordered before it, so the order changes
      cost; private loops cannot legally move outside the shared nest.

    Used to certify that the Fig. 4 pattern set plus integer refinement
    (`repro.core.fusion.optimize_fused`) covers the global fused optimum.
    ``max_nodes`` bounds the nodes expanded across all shared orders (the
    certification layer's budgeted probe); exhausting it returns the best
    feasible dataflow found so far without the optimality proof.
    """

    chain = FusedChain.from_ops(ops)
    dims = list(chain.global_dims)
    common = list(chain.common_dims)
    privates = {
        op.name: tuple(
            d for d in chain.op_global_dims(i) if d not in common
        )
        for i, op in enumerate(chain.ops)
    }

    best_cost: Optional[int] = None
    best_dataflow: Optional[FusedDataflow] = None
    nodes = 0
    # The shared-loop order matters: a tensor indexed by only one common
    # dim is re-swept by common loops ordered before that dim.  Enumerate
    # every order of the (two) common dims.
    for shared_order in itertools.permutations(common):

        def build(trips: Dict[str, int]) -> FusedDataflow:
            tiles = {
                d: _ceil_div(chain.global_dims[d], trips[d]) for d in dims
            }
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

        stack: List[Tuple[Dict[str, int], Dict[str, int]]] = [
            (
                {d: 1 for d in dims},
                {d: chain.global_dims[d] for d in dims},
            )
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
    return FusedBBResult(
        dataflow=best_dataflow,
        memory_access=best_cost,
        evaluations=nodes,
    )
