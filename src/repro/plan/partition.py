"""Principle-guided partitioning of whole operator DAGs into fused sets.

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

Costing goes through :func:`segment_cost` (``optimize_intra`` /
``optimize_fused``), so a plan's claim is exactly the sum the
certification layer can recount segment-by-segment.  The planner itself
is *principle-guided search*: chain DP segments each path exactly, joins
are resolved by the measured pairwise fusion gain (Principle 4's
measured form), retention is accepted greedily when it strictly lowers
the total, and the chain-independent plan is always evaluated as a
fallback -- so a DAG plan is never worse than it.  Every plan lists its
segments in execution order.  Optimality over the whole partition space is
*not* claimed; the budgeted enumerative mapper
(:mod:`repro.plan.enumerative`) is the independent search baseline the
principle-guided result is cross-checked (and, via
:func:`repro.verify.certify_plan`, self-healed) against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..ir.graph import OperatorGraph
from ..ir.operator import (
    InvalidWorkloadError,
    TensorOperator,
    validate_buffer_elems,
)
from ..dataflow.cost import PartialSumConvention
from ..core.fusion import FusedResult, FusionMedium
from ..core.intra import InfeasibleError, IntraResult
from ..core.memo import cached_optimize_fused, cached_optimize_intra
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


def _order_segments(
    graph: OperatorGraph, segments_ops: Sequence[Tuple[TensorOperator, ...]]
) -> Tuple[Tuple[TensorOperator, ...], ...]:
    """Segments in a valid execution order (by last-op topological rank).

    Cross-segment data flows only out of a segment's *last* operator
    (any earlier operator's output is consumed inside the segment by the
    clean-link rule), and an edge ``u -> v`` puts ``u`` before ``v`` in
    the operator order, so sorting by last-op rank linearizes the
    segment DAG.
    """

    return tuple(
        sorted((tuple(ops) for ops in segments_ops), key=_last_op_rank(graph))
    )


def _last_op_rank(graph: OperatorGraph):
    """Sort key of a segment's ops: its last operator's topological rank."""
    rank = {op.name: index for index, op in enumerate(graph.topological_order())}
    return lambda ops: rank[ops[-1].name]


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

    This is the *single* cost path shared by the principle-guided
    planner and the enumerative baseline, so their cross-check compares
    search quality, not cost models -- the cost model itself is audited
    independently by :func:`repro.verify.certify_plan`.
    """

    buffer_elems = validate_buffer_elems(buffer_elems)
    ordered = _order_segments(graph, [tuple(ops) for ops in segments_ops])
    if not _segment_structure_ok(graph, ordered):
        return None
    retained = tuple(sorted(set(retained)))
    structure = _retention_structure(graph, ordered, retained)
    if structure is None:
        return None
    reserved, resident = structure
    segments: List[PlanSegment] = []
    for index, ops in enumerate(ordered):
        budget = buffer_elems - reserved[index]
        if budget <= 0:
            return None
        result = segment_cost(
            ops, budget, convention=convention, medium=medium,
            register_elems=register_elems,
        )
        if result is None:
            return None
        segments.append(
            PlanSegment(
                ops=ops,
                result=result,
                resident=resident[index],
                reserved_elems=reserved[index],
            )
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
    ordered = _order_segments(graph, [tuple(ops) for ops in segments_ops])
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
    :func:`plan_dag`'s fallback candidate and the chain baseline that
    ``dag_plan`` records and :func:`repro.verify.certify_plan` report.
    """

    buffer_elems = validate_buffer_elems(buffer_elems)
    validate_max_group(max_group)
    rank = _last_op_rank(graph)
    segments = sorted(
        (
            segment
            for chain in graph.chains()
            for segment in optimize_chain(
                chain, buffer_elems, enable_fusion=enable_fusion,
                max_group=max_group, convention=convention, medium=medium,
                register_elems=register_elems,
            )
        ),
        key=lambda segment: rank(segment.ops),
    )
    return DagPlan(
        graph_name=graph.name, buffer_elems=buffer_elems, segments=tuple(segments)
    )


def _principle_paths(
    graph: OperatorGraph,
    buffer_elems: int,
    enable_fusion: bool,
    convention: PartialSumConvention,
    medium: FusionMedium,
    register_elems: Optional[int],
) -> Tuple[Tuple[TensorOperator, ...], ...]:
    """Vertex-disjoint paths over clean links, joins resolved by measured gain.

    Every operator has at most one clean out-link (its output's sole
    consumer), so after each join keeps at most one in-link the kept
    links form disjoint paths.  The join choice is Principle 4's
    measured form: keep the producer whose pairwise fused nest saves the
    most versus running both unfused (ties and the no-feasible-fusion
    case fall back to the lexicographically first producer -- the chain
    DP can always cut a kept link, so keeping one is never harmful).
    """

    links = clean_links(graph)
    in_links: Dict[str, List[str]] = {}
    for producer, consumer in links.items():
        in_links.setdefault(consumer, []).append(producer)
    kept: Dict[str, str] = {}
    for consumer_name in sorted(in_links):
        producers = sorted(in_links[consumer_name])
        if len(producers) == 1:
            kept[producers[0]] = consumer_name
            continue
        choice = producers[0]
        if enable_fusion:
            consumer = graph.operator(consumer_name)
            best_gain: Optional[int] = None
            for producer_name in producers:
                producer = graph.operator(producer_name)
                pair = segment_cost(
                    (producer, consumer), buffer_elems, convention=convention,
                    medium=medium, register_elems=register_elems,
                )
                if pair is None:
                    continue
                solo_p = segment_cost((producer,), buffer_elems, convention=convention)
                solo_c = segment_cost((consumer,), buffer_elems, convention=convention)
                if solo_p is None or solo_c is None:
                    continue
                gain = (
                    solo_p.memory_access + solo_c.memory_access - pair.memory_access
                )
                if best_gain is None or gain > best_gain:
                    best_gain, choice = gain, producer_name
        kept[choice] = consumer_name
    has_kept_predecessor = set(kept.values())
    paths: List[Tuple[TensorOperator, ...]] = []
    for operator in graph.topological_order():
        if operator.name in has_kept_predecessor:
            continue
        path = [operator]
        current = operator.name
        while current in kept:
            current = kept[current]
            path.append(graph.operator(current))
        paths.append(tuple(path))
    return tuple(paths)


def _segment_paths(
    paths: Sequence[Tuple[TensorOperator, ...]],
    buffer_elems: int,
    enable_fusion: bool,
    max_group: int,
    convention: PartialSumConvention,
    medium: FusionMedium,
    register_elems: Optional[int],
) -> Tuple[Tuple[TensorOperator, ...], ...]:
    """Chain-DP each path exactly; returns the flat segment op-tuples."""
    return tuple(
        segment.ops
        for path in paths
        for segment in optimize_chain(
            path, buffer_elems, enable_fusion=enable_fusion,
            max_group=max_group, convention=convention, medium=medium,
            register_elems=register_elems,
        )
    )


def _improve_retention(
    graph: OperatorGraph,
    plan: DagPlan,
    buffer_elems: int,
    convention: PartialSumConvention,
    medium: FusionMedium,
    register_elems: Optional[int],
) -> DagPlan:
    """Greedy retention: accept candidates that strictly lower the total.

    Candidates are tried in descending order of the DRAM traffic they
    could absorb under the current plan (ties by name), because a
    retained tensor's benefit is bounded by its counted accesses while
    its cost -- shrinking the budget of every live-range segment -- is
    shared.  The partition is held fixed; only budgets and elisions
    move.
    """

    segments_ops = tuple(segment.ops for segment in plan.segments)
    candidates = retention_candidates(graph, segments_ops)
    if not candidates:
        return plan

    def potential(name: str) -> int:
        saved = 0
        for segment in plan.segments:
            per_tensor = segment.result.report.per_tensor
            if name in per_tensor:
                touches = name == segment.ops[-1].output.name or any(
                    name in (t.name for t in op.inputs) for op in segment.ops
                )
                if touches:
                    saved += segment.result.report.count * per_tensor[name].accesses
        return saved

    best = plan
    retained: List[str] = list(plan.retained)
    for name in sorted(candidates, key=lambda n: (-potential(n), n)):
        if name in retained:
            continue
        trial = cost_partition(
            graph, segments_ops, tuple(retained) + (name,), buffer_elems,
            convention=convention, medium=medium,
            register_elems=register_elems, method=plan.method,
        )
        if trial is not None and trial.memory_access < best.memory_access:
            best = trial
            retained.append(name)
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
    """Principle-guided DAG plan: join choices + chain DP + retention.

    Both the join-resolved path decomposition and the chain-independent
    plan (:func:`optimize_graph`, the fallback) are costed and the better
    kept, so the result is never worse than :func:`optimize_graph` on
    the same graph (the hypothesis suite asserts exactly this property);
    with ``enable_retention=False`` and no join to resolve it equals it.
    Raises :class:`~repro.ir.operator.InvalidWorkloadError` for a
    non-positive buffer or ``max_group`` below 1, and
    :class:`~repro.core.intra.InfeasibleError` when some chain has no
    feasible plan at all.
    """

    buffer_elems = validate_buffer_elems(buffer_elems)
    validate_max_group(max_group)
    costing = dict(
        convention=convention, medium=medium, register_elems=register_elems
    )
    best = optimize_graph(graph, buffer_elems, enable_fusion, max_group, **costing)
    paths = _principle_paths(graph, buffer_elems, enable_fusion, **costing)
    principle = cost_partition(
        graph,
        _segment_paths(paths, buffer_elems, enable_fusion, max_group, **costing),
        (), buffer_elems, **costing,
    )
    if principle is not None and (
        principle.memory_access, principle.signature()
    ) < (best.memory_access, best.signature()):
        best = principle
    if enable_retention:
        best = _improve_retention(graph, best, buffer_elems, **costing)
    return best
