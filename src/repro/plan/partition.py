"""Exact partitioning of whole operator DAGs into fused sets.

The paper's Principle 4 decides fusion *pairwise*; the chain DP
(:func:`optimize_chain`) extends it to one linear chain, and
:func:`optimize_graph` runs it over every maximal chain of
:meth:`~repro.ir.graph.OperatorGraph.chains` (the chain-independent
plan).  This module plans the **whole DAG**:

* a *partition* splits the graph's operators into *segments* -- each a
  single operator or a producer/consumer run fusable as one nest
  (:class:`~repro.dataflow.fusion_nest.FusedChain` rules: consecutive
  consumption, equal repetition counts, the produced tensor's only
  consumer inside the segment);
* *join* operators (several produced inputs) may extend a segment from
  **any one** of their producers -- the chain detector in
  :meth:`~repro.ir.graph.OperatorGraph.chains` refuses all of them, so
  this is the first DAG-only degree of freedom;
* *retained intermediates* are the second: a tensor with consumers in
  later segments can stay resident in a reserved slice of the buffer
  from its producer segment through its last consumer segment instead of
  spilling to DRAM.  Every segment in the live range is re-optimized at
  the reduced budget, and the retained tensor's DRAM traffic (its
  counted accesses, redundant re-reads included -- they all hit the
  resident copy) is elided.

The partition space -- join in-links x chain cuts x retention sets -- is
defined once here (:func:`_candidate_partitions`) and walked by both
searches over it.  :func:`plan_dag` is exact over that space: the chain
DP segments every join choice's paths exactly, and retained candidates
are costed unless a sound lower bound already rules them out.  Costing
goes through :func:`segment_cost` (``optimize_intra`` /
``optimize_fused``), so a plan's claim is exactly the sum the
certification layer can recount segment-by-segment.  Every plan lists
its segments in execution order.  The budgeted enumerative mapper
(:mod:`repro.plan.enumerative`) walks the same space independently of
the planner's pruning, and :func:`repro.verify.certify_plan`
cross-checks the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..ir.graph import OperatorGraph
from ..ir.operator import (
    InvalidWorkloadError,
    TensorOperator,
    validate_buffer_elems,
)
from ..dataflow.cost import PartialSumConvention
from ..core.fusion import FusedResult, FusionMedium, cached_optimize_fused
from ..core.intra import InfeasibleError, IntraResult, cached_optimize_intra
from ..core.nra import UnsupportedOperatorError

SegmentResult = Union[IntraResult, FusedResult]


@dataclass(frozen=True)
class PlanSegment:
    """One fused set of a DAG plan.

    ``resident`` names the retained tensors this segment touches (their
    DRAM traffic is elided from its cost); ``reserved_elems`` is the
    buffer capacity set aside for *all* retained tensors live while this
    segment runs (touched or merely passing through), so the segment's
    dataflow was optimized at ``buffer_elems - reserved_elems``.
    """

    ops: Tuple[TensorOperator, ...]
    result: SegmentResult
    resident: Tuple[str, ...] = ()
    reserved_elems: int = 0

    @property
    def fused(self) -> bool:
        return len(self.ops) > 1

    @property
    def raw_memory_access(self) -> int:
        """The segment optimizer's count, before retention elision."""
        return self.result.memory_access

    @property
    def elided_access(self) -> int:
        """DRAM traffic absorbed by buffer-resident (retained) tensors."""
        per_tensor = self.result.report.per_tensor
        count = self.result.report.count
        return count * sum(
            per_tensor[name].accesses for name in self.resident if name in per_tensor
        )

    @property
    def memory_access(self) -> int:
        return self.raw_memory_access - self.elided_access

    def describe(self) -> str:
        text = self.result.describe()
        if self.resident:
            text += (
                f" [resident {'+'.join(self.resident)}: "
                f"-{self.elided_access} MA, {self.reserved_elems} elems reserved]"
            )
        return text


@dataclass(frozen=True)
class DagPlan:
    """A fused-set partition of a whole operator DAG, with retention."""

    graph_name: str
    buffer_elems: int
    segments: Tuple[PlanSegment, ...]
    retained: Tuple[str, ...] = ()
    method: str = "principle"

    @property
    def memory_access(self) -> int:
        return sum(segment.memory_access for segment in self.segments)

    @property
    def fused_segments(self) -> Tuple[PlanSegment, ...]:
        return tuple(segment for segment in self.segments if segment.fused)

    def signature(self) -> Tuple:
        """Canonical identity used for deterministic tie-breaking."""
        return (
            tuple(tuple(op.name for op in segment.ops) for segment in self.segments),
            self.retained,
        )

    def describe(self) -> str:
        lines = [
            f"dag-plan[{self.graph_name}] @ {self.buffer_elems} elems "
            f"({self.method}): total MA={self.memory_access}"
        ]
        if self.retained:
            lines.append("  retained: " + ", ".join(self.retained))
        lines.extend("  " + segment.describe() for segment in self.segments)
        return "\n".join(lines)


def clean_links(graph: OperatorGraph) -> Dict[str, str]:
    """Producer-name -> consumer-name edges a fused set may run across.

    A link requires the produced tensor's *only* consumer to be the
    linked operator (fusion elides the tensor, so nobody else may need
    it from DRAM) and equal repetition counts (the fused nest executes
    both operators under one ``count``).  Unlike
    :meth:`~repro.ir.graph.OperatorGraph.chains`, a join operator keeps
    links from *all* of its producers here -- the planner chooses one.
    """

    links: Dict[str, str] = {}
    for operator in graph:
        consumers = graph.consumers(operator.output.name)
        if len(consumers) == 1 and consumers[0].count == operator.count:
            links[operator.name] = consumers[0].name
    return links


def _execution_rank(order: Sequence[TensorOperator]) -> Dict[str, int]:
    """Each operator's position in a topological order of its graph."""
    return {op.name: index for index, op in enumerate(order)}


def _order_segments(
    rank: Mapping[str, int], segments_ops: Sequence[Sequence[TensorOperator]]
) -> Tuple[Tuple[TensorOperator, ...], ...]:
    """Segments in a valid execution order (by last-op topological rank).

    Cross-segment data flows only out of a segment's *last* operator
    (any earlier operator's output is consumed inside the segment by the
    clean-link rule), and an edge ``u -> v`` puts ``u`` before ``v`` in
    the operator order, so sorting by last-op rank linearizes the
    segment DAG.
    """

    return tuple(
        sorted((tuple(ops) for ops in segments_ops), key=lambda ops: rank[ops[-1].name])
    )


def _segment_structure_ok(
    graph: OperatorGraph, ordered: Sequence[Tuple[TensorOperator, ...]]
) -> bool:
    """Partition validity: exact cover + clean links inside every segment."""
    seen: set = set()
    for ops in ordered:
        if not ops:
            return False
        for op in ops:
            if op.name in seen or op.name not in graph:
                return False
            seen.add(op.name)
        for a, b in zip(ops, ops[1:]):
            consumers = graph.consumers(a.output.name)
            if (
                len(consumers) != 1
                or consumers[0].name != b.name
                or a.count != b.count
            ):
                return False
    return len(seen) == len(graph)


def _retention_structure(
    graph: OperatorGraph,
    ordered: Sequence[Tuple[TensorOperator, ...]],
    retained: Sequence[str],
) -> Optional[Tuple[Tuple[int, ...], Tuple[Tuple[str, ...], ...]]]:
    """Reserved capacity and resident sets per segment, or ``None``.

    Validates every retained tensor: produced by the *last* operator of
    an earlier segment (mid-segment outputs are elided by fusion and
    never materialize fully), consumed only in strictly later segments,
    with producer and consumers agreeing on ``count`` (residency is
    per-instance, so differing repetition factors have no consistent
    live range).
    """

    segment_of: Dict[str, int] = {}
    for index, ops in enumerate(ordered):
        for op in ops:
            segment_of[op.name] = index
    reserved = [0] * len(ordered)
    resident: List[List[str]] = [[] for _ in ordered]
    for name in retained:
        producer = graph.producer(name)
        consumers = graph.consumers(name)
        if producer is None or not consumers:
            return None
        producer_segment = segment_of[producer.name]
        if ordered[producer_segment][-1].name != producer.name:
            return None
        consumer_segments = [segment_of[c.name] for c in consumers]
        if min(consumer_segments) <= producer_segment:
            return None
        if any(c.count != producer.count for c in consumers):
            return None
        size = producer.output.size
        for index in range(producer_segment, max(consumer_segments) + 1):
            reserved[index] += size
        resident[producer_segment].append(name)
        for index in sorted(set(consumer_segments)):
            resident[index].append(name)
    return tuple(reserved), tuple(tuple(sorted(names)) for names in resident)


def cost_partition(
    graph: OperatorGraph,
    segments_ops: Sequence[Sequence[TensorOperator]],
    retained: Sequence[str],
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    medium: FusionMedium = FusionMedium.MEMORY,
    register_elems: Optional[int] = None,
    method: str = "principle",
) -> Optional[DagPlan]:
    """Cost one candidate (partition, retention set); ``None`` if invalid.

    This is the *single* cost path shared by the planner and the
    enumerative baseline, so their cross-check compares search quality,
    not cost models -- the cost model itself is audited independently by
    :func:`repro.verify.certify_plan`.
    """

    buffer_elems = validate_buffer_elems(buffer_elems)
    ordered = _order_segments(
        _execution_rank(graph.topological_order()), segments_ops
    )
    return _cost_ordered(
        graph, ordered, retained, buffer_elems, method,
        convention=convention, medium=medium, register_elems=register_elems,
    )


def _cost_ordered(
    graph: OperatorGraph,
    ordered: Sequence[Tuple[TensorOperator, ...]],
    retained: Sequence[str],
    buffer_elems: int,
    method: str,
    **costing,
) -> Optional[DagPlan]:
    """:func:`cost_partition` for segments already in execution order."""
    if not _segment_structure_ok(graph, ordered):
        return None
    retained = tuple(sorted(set(retained)))
    structure = _retention_structure(graph, ordered, retained)
    if structure is None:
        return None
    segments: List[PlanSegment] = []
    for ops, reserve, names in zip(ordered, *structure):
        budget = buffer_elems - reserve
        if budget <= 0:
            return None
        result = segment_cost(ops, budget, **costing)
        if result is None:
            return None
        segments.append(
            PlanSegment(ops=ops, result=result, resident=names, reserved_elems=reserve)
        )
    return DagPlan(
        graph_name=graph.name,
        buffer_elems=buffer_elems,
        segments=tuple(segments),
        retained=retained,
        method=method,
    )


def retention_candidates(
    graph: OperatorGraph, segments_ops: Sequence[Sequence[TensorOperator]]
) -> Tuple[str, ...]:
    """Tensor names eligible for retention under a given partition."""
    return _retention_candidates(
        graph,
        _order_segments(_execution_rank(graph.topological_order()), segments_ops),
    )


def _retention_candidates(
    graph: OperatorGraph, ordered: Sequence[Tuple[TensorOperator, ...]]
) -> Tuple[str, ...]:
    """:func:`retention_candidates` for segments already in execution order."""
    segment_of: Dict[str, int] = {}
    for index, ops in enumerate(ordered):
        for op in ops:
            segment_of[op.name] = index
    names: List[str] = []
    for index, ops in enumerate(ordered):
        producer = ops[-1]
        consumers = graph.consumers(producer.output.name)
        if not consumers:
            continue
        if any(segment_of[c.name] <= index for c in consumers):
            continue
        if any(c.count != producer.count for c in consumers):
            continue
        names.append(producer.output.name)
    return tuple(sorted(names))


def segment_cost(
    ops: Sequence[TensorOperator],
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    medium: FusionMedium = FusionMedium.MEMORY,
    register_elems: Optional[int] = None,
) -> Optional[SegmentResult]:
    """Optimal cost of one candidate segment, or ``None`` when infeasible.

    A length-1 segment costs its intra-operator optimum; longer segments
    cost their best fused dataflow.  Results are memoized in
    :mod:`repro.core.memo` -- identical segments recur across chains,
    scenarios, and every candidate partition the planners evaluate, so
    the planner's hot path is a table lookup.
    """

    if len(ops) == 1:
        try:
            return cached_optimize_intra(ops[0], buffer_elems, convention)
        except (UnsupportedOperatorError, InfeasibleError):
            return None
    return cached_optimize_fused(
        ops, buffer_elems, convention=convention,
        medium=medium, register_elems=register_elems,
    )


def validate_max_group(max_group: int) -> None:
    """Reject a fused-set bound below one operator: no partition has one."""
    if max_group < 1:
        raise InvalidWorkloadError(f"max_group must be at least 1, got {max_group}")


def optimize_chain(
    ops: Sequence[TensorOperator],
    buffer_elems: int,
    enable_fusion: bool = True,
    max_group: int = 3,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    medium: FusionMedium = FusionMedium.MEMORY,
    register_elems: Optional[int] = None,
) -> Tuple[PlanSegment, ...]:
    """Optimal segmentation of one linear chain by dynamic programming.

    Segments hold at most ``max_group`` operators (one without fusion).
    Raises :class:`~repro.core.intra.InfeasibleError` when no
    segmentation fits the buffer.
    """

    ops = tuple(ops)
    if not ops:
        return ()
    best_cost: List[float] = [float("inf")] * (len(ops) + 1)
    best_cut: List[Optional[Tuple[int, SegmentResult]]] = [None] * (len(ops) + 1)
    best_cost[0] = 0.0
    longest = max_group if enable_fusion else 1
    for end in range(1, len(ops) + 1):
        for start in range(max(0, end - longest), end):
            if best_cost[start] == float("inf"):
                continue
            result = segment_cost(
                ops[start:end], buffer_elems, convention=convention,
                medium=medium, register_elems=register_elems,
            )
            if result is None:
                continue
            cost = best_cost[start] + result.memory_access
            if cost < best_cost[end]:
                best_cost[end] = cost
                best_cut[end] = (start, result)
    if best_cut[-1] is None:
        raise InfeasibleError(
            f"no feasible plan for chain starting at {ops[0].name!r} with "
            f"buffer {buffer_elems}"
        )
    segments: List[PlanSegment] = []
    end = len(ops)
    while end > 0:
        entry = best_cut[end]
        assert entry is not None
        start, result = entry
        segments.append(PlanSegment(ops=ops[start:end], result=result))
        end = start
    segments.reverse()
    return tuple(segments)


def optimize_graph(
    graph: OperatorGraph,
    buffer_elems: int,
    enable_fusion: bool = True,
    max_group: int = 3,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    medium: FusionMedium = FusionMedium.MEMORY,
    register_elems: Optional[int] = None,
) -> DagPlan:
    """The chain-independent plan: chain DP over every maximal chain.

    Each chain of :meth:`~repro.ir.graph.OperatorGraph.chains` is
    segmented on its own, with no join choice and no retention.  This is
    the chain baseline that ``dag_plan`` records and
    :func:`repro.verify.certify_plan` reports; :func:`plan_dag` searches
    a space that contains it.
    """

    buffer_elems = validate_buffer_elems(buffer_elems)
    validate_max_group(max_group)
    return _chain_dp_plan(
        graph, _execution_rank(graph.topological_order()), graph.chains(),
        buffer_elems, enable_fusion, max_group,
        convention=convention, medium=medium, register_elems=register_elems,
    )


def _chain_dp_plan(
    graph: OperatorGraph,
    rank: Mapping[str, int],
    paths: Sequence[Tuple[TensorOperator, ...]],
    buffer_elems: int,
    enable_fusion: bool,
    max_group: int,
    **costing,
) -> DagPlan:
    """Chain DP over each path; the segments as one plan in execution order."""
    segments = sorted(
        (
            segment
            for path in paths
            for segment in optimize_chain(
                path, buffer_elems, enable_fusion=enable_fusion,
                max_group=max_group, **costing,
            )
        ),
        key=lambda segment: rank[segment.ops[-1].name],
    )
    return DagPlan(
        graph_name=graph.name, buffer_elems=buffer_elems, segments=tuple(segments)
    )


# ----------------------------------------------------------------------
# The partition space: join choices x chain cuts (x retention sets)
# ----------------------------------------------------------------------
def _join_choices(graph: OperatorGraph) -> Iterator[Dict[str, str]]:
    """Every kept-link map: one in-link (or none) per join, deterministically.

    Every operator has at most one clean out-link (its output's sole
    consumer), so once each join keeps at most one in-link the kept
    links form vertex-disjoint paths.  A single clean in-link is always
    kept: cutting it is one of the chain DP's cut placements, so "keep
    none" adds nothing there.
    """

    in_links: Dict[str, List[str]] = {}
    for producer, consumer in clean_links(graph).items():
        in_links.setdefault(consumer, []).append(producer)
    consumers = sorted(in_links)
    choices = [
        sorted(in_links[name]) if len(in_links[name]) == 1
        else [None] + sorted(in_links[name])
        for name in consumers
    ]
    for combo in product(*choices):
        yield {
            producer: consumer
            for producer, consumer in zip(combo, consumers)
            if producer is not None
        }


def _paths_from_links(
    graph: OperatorGraph,
    order: Sequence[TensorOperator],
    kept: Mapping[str, str],
) -> Tuple[Tuple[TensorOperator, ...], ...]:
    """Vertex-disjoint paths induced by a producer->consumer link choice."""
    has_kept_predecessor = set(kept.values())
    paths: List[Tuple[TensorOperator, ...]] = []
    for operator in order:
        if operator.name in has_kept_predecessor:
            continue
        path = [operator]
        current = operator.name
        while current in kept:
            current = kept[current]
            path.append(graph.operator(current))
        paths.append(tuple(path))
    return tuple(paths)


def _compositions(length: int, max_part: int) -> Iterator[Tuple[int, ...]]:
    """All ordered part-size tuples summing to ``length`` (parts <= cap)."""
    if length == 0:
        yield ()
        return
    for first in range(1, min(length, max_part) + 1):
        for rest in _compositions(length - first, max_part):
            yield (first,) + rest


def _candidate_partitions(
    graph: OperatorGraph, max_group: int, enable_fusion: bool
) -> Iterator[Tuple[Tuple[TensorOperator, ...], ...]]:
    """Every (join choice, cut placement) partition, in execution order."""
    order = graph.topological_order()
    rank = _execution_rank(order)
    longest = max_group if enable_fusion else 1
    for kept in _join_choices(graph):
        paths = _paths_from_links(graph, order, kept)
        per_path = [list(_compositions(len(path), longest)) for path in paths]
        for cut_combo in product(*per_path):
            segments: List[Tuple[TensorOperator, ...]] = []
            for path, parts in zip(paths, cut_combo):
                start = 0
                for part in parts:
                    segments.append(path[start : start + part])
                    start += part
            yield _order_segments(rank, segments)


# ----------------------------------------------------------------------
# The planner
# ----------------------------------------------------------------------
def _retention_lower_bound(
    ordered: Sequence[Tuple[TensorOperator, ...]],
    full: Sequence[Optional[SegmentResult]],
    reserved: Sequence[int],
    resident: Sequence[Tuple[str, ...]],
    buffer_elems: int,
) -> Optional[int]:
    """A lower bound on a retained candidate's total; ``None`` if it misfits.

    A segment outside every live range costs exactly its full-buffer
    optimum (``full``).  One inside a live range runs at a smaller
    budget, where the full-buffer optimum bounds nothing
    (``optimize_intra`` is not monotone in the buffer), but it still
    moves each non-resident external tensor once per instance.
    """

    total = 0
    for ops, result, reserve, names in zip(ordered, full, reserved, resident):
        if reserve >= buffer_elems:
            return None
        if reserve == 0:
            if result is None:
                return None
            total += result.memory_access
            continue
        skip = set(names) | {op.output.name for op in ops[:-1]}
        external = {t.name: t.size for op in ops for t in op.tensors}
        total += ops[0].count * sum(
            size for name, size in external.items() if name not in skip
        )
    return total


def _best_retention(
    graph: OperatorGraph,
    plan: DagPlan,
    buffer_elems: int,
    enable_fusion: bool,
    max_group: int,
    **costing,
) -> DagPlan:
    """Phase 2 of :func:`plan_dag`: the best retained plan, else ``plan``.

    ``plan`` enters with the empty signature, which sorts before every
    real one, so a retained plan replaces it only on a strictly lower
    total.  A candidate is costed only if its lower bound, keyed the same
    way, stays below the incumbent.
    """

    best, best_key = plan, (plan.memory_access, ())
    for ordered in _candidate_partitions(graph, max_group, enable_fusion):
        candidates = _retention_candidates(graph, ordered)
        if not candidates:
            continue
        names = tuple(tuple(op.name for op in ops) for ops in ordered)
        full = [segment_cost(ops, buffer_elems, **costing) for ops in ordered]
        for size in range(1, len(candidates) + 1):
            for retained in combinations(candidates, size):
                structure = _retention_structure(graph, ordered, retained)
                assert structure is not None, "candidates are retainable"
                bound = _retention_lower_bound(
                    ordered, full, *structure, buffer_elems
                )
                if bound is None or (bound, (names, retained)) >= best_key:
                    continue
                trial = _cost_ordered(
                    graph, ordered, retained, buffer_elems, plan.method, **costing
                )
                if trial is None:
                    continue
                key = (trial.memory_access, trial.signature())
                if key < best_key:
                    best, best_key = trial, key
    return best


def plan_dag(
    graph: OperatorGraph,
    buffer_elems: int,
    enable_fusion: bool = True,
    max_group: int = 3,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    medium: FusionMedium = FusionMedium.MEMORY,
    register_elems: Optional[int] = None,
    enable_retention: bool = True,
) -> DagPlan:
    """The exact DAG plan over join choices x chain cuts x retention sets.

    This is the space :func:`~repro.plan.enumerative.enumerate_plans`
    walks, searched in two phases:

    1. Without retention a partition's cost is a sum over its segments,
       so the chain DP is exact on each path: every join choice is
       segmented by DP, and the minimum by ``(memory_access,
       signature)`` is kept.  The chain plan (:func:`optimize_graph`) is
       one of these partitions, so the result never loses to it.
    2. With ``enable_retention``, :func:`_best_retention` walks every
       retained candidate, pruned by a sound lower bound.

    Raises :class:`~repro.ir.operator.InvalidWorkloadError` for a
    non-positive buffer or ``max_group`` below 1, and
    :class:`~repro.core.intra.InfeasibleError` when no partition in the
    space fits the buffer.
    """

    buffer_elems = validate_buffer_elems(buffer_elems)
    validate_max_group(max_group)
    costing = dict(convention=convention, medium=medium, register_elems=register_elems)
    order = graph.topological_order()
    rank = _execution_rank(order)
    best: Optional[DagPlan] = None
    for kept in _join_choices(graph):
        try:
            plan = _chain_dp_plan(
                graph, rank, _paths_from_links(graph, order, kept),
                buffer_elems, enable_fusion, max_group, **costing,
            )
        except InfeasibleError:
            continue
        if best is None or (plan.memory_access, plan.signature()) < (
            best.memory_access, best.signature()
        ):
            best = plan
    if best is None:
        # The chain plan is one of these partitions, so it misfits too;
        # its DP raises, naming the first chain with no feasible cut.
        optimize_graph(graph, buffer_elems, enable_fusion, max_group, **costing)
        raise AssertionError("the chain plan lies in the searched space")
    if enable_retention:
        best = _best_retention(
            graph, best, buffer_elems, enable_fusion, max_group, **costing
        )
    return best
