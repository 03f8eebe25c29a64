"""Graph-level fusion planning.

Applies the principle-based optimizers across an operator graph: each
maximal chain is segmented into fusion groups by dynamic programming over
segment memory-access costs, where

* a length-1 segment costs its intra-operator optimum
  (:func:`repro.core.intra.optimize_intra`), and
* a longer segment costs its best fused dataflow
  (:func:`repro.core.fusion.optimize_fused`), infinite when nothing fits.

With ``fusion_predicate`` set to the Principle 4 test the planner behaves
exactly like the paper (fuse only same-NRA neighbors, applied pairwise);
left as ``None`` it fuses whenever fusion measurably wins, which the test
suite uses to confirm Principle 4 and the measured decision agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..ir.graph import OperatorGraph
from ..ir.operator import TensorOperator
from ..dataflow.cost import PartialSumConvention
from .fusion import FusedResult, FusionMedium
from .intra import InfeasibleError, IntraResult
from .memo import cached_optimize_fused, cached_optimize_intra
from .nra import UnsupportedOperatorError
from .principles import principle4_same_nra

SegmentResult = Union[IntraResult, FusedResult]
FusionPredicate = Callable[[TensorOperator, TensorOperator], bool]


@dataclass(frozen=True)
class Segment:
    """One fusion group in a plan (a single op or a fused chain)."""

    ops: Tuple[TensorOperator, ...]
    result: SegmentResult

    @property
    def fused(self) -> bool:
        return len(self.ops) > 1

    @property
    def memory_access(self) -> int:
        return self.result.memory_access

    def describe(self) -> str:
        return self.result.describe()


@dataclass(frozen=True)
class GraphPlan:
    """A fusion/segmentation plan for a whole operator graph."""

    graph_name: str
    segments: Tuple[Segment, ...]

    @property
    def memory_access(self) -> int:
        return sum(segment.memory_access for segment in self.segments)

    @property
    def fused_segments(self) -> Tuple[Segment, ...]:
        return tuple(segment for segment in self.segments if segment.fused)

    def describe(self) -> str:
        lines = [f"plan[{self.graph_name}]: total MA={self.memory_access}"]
        lines.extend("  " + segment.describe() for segment in self.segments)
        return "\n".join(lines)


def principle4_predicate(
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
) -> FusionPredicate:
    """A fusion predicate implementing Principle 4 at a given buffer size."""

    def predicate(producer: TensorOperator, consumer: TensorOperator) -> bool:
        return principle4_same_nra(producer, consumer, buffer_elems, convention)

    return predicate


def segment_cost(
    ops: Sequence[TensorOperator],
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    fusion_predicate: Optional[FusionPredicate] = None,
    medium: FusionMedium = FusionMedium.MEMORY,
    register_elems: Optional[int] = None,
) -> Optional[SegmentResult]:
    """Optimal cost of one candidate segment, or ``None`` when infeasible.

    A length-1 segment costs its intra-operator optimum; longer segments
    cost their best fused dataflow (gated by ``fusion_predicate`` when
    one is set).  Results are memoized in :mod:`repro.core.memo` --
    identical segments recur across chains, scenarios, and every candidate
    partition the DAG planners evaluate, so the planner's hot path is a
    table lookup.
    """

    if len(ops) == 1:
        try:
            return cached_optimize_intra(ops[0], buffer_elems, convention)
        except (UnsupportedOperatorError, InfeasibleError):
            return None
    if fusion_predicate is not None:
        if not all(fusion_predicate(a, b) for a, b in zip(ops, ops[1:])):
            return None
    return cached_optimize_fused(
        ops, buffer_elems, convention=convention,
        medium=medium, register_elems=register_elems,
    )


def _segment_cost(
    ops: Sequence[TensorOperator],
    buffer_elems: int,
    convention: PartialSumConvention,
    predicate: Optional[FusionPredicate],
    medium: FusionMedium,
    register_elems: Optional[int],
) -> Optional[SegmentResult]:
    return segment_cost(
        ops, buffer_elems, convention=convention, fusion_predicate=predicate,
        medium=medium, register_elems=register_elems,
    )


def optimize_chain(
    ops: Sequence[TensorOperator],
    buffer_elems: int,
    enable_fusion: bool = True,
    max_group: int = 3,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    fusion_predicate: Optional[FusionPredicate] = None,
    medium: FusionMedium = FusionMedium.MEMORY,
    register_elems: Optional[int] = None,
) -> Tuple[Segment, ...]:
    """Optimal segmentation of one linear chain by dynamic programming."""
    ops = tuple(ops)
    if not ops:
        return ()
    best_cost: List[float] = [float("inf")] * (len(ops) + 1)
    best_cut: List[Optional[Tuple[int, SegmentResult]]] = [None] * (len(ops) + 1)
    best_cost[0] = 0.0
    longest = max(1, max_group if enable_fusion else 1)
    for end in range(1, len(ops) + 1):
        for start in range(max(0, end - longest), end):
            if best_cost[start] == float("inf"):
                continue
            result = _segment_cost(
                ops[start:end], buffer_elems, convention, fusion_predicate,
                medium, register_elems,
            )
            if result is None:
                continue
            cost = best_cost[start] + result.memory_access
            if cost < best_cost[end]:
                best_cost[end] = cost
                best_cut[end] = (start, result)
    if best_cut[-1] is None:
        raise ValueError(
            f"no feasible plan for chain starting at {ops[0].name!r} with "
            f"buffer {buffer_elems}"
        )
    segments: List[Segment] = []
    end = len(ops)
    while end > 0:
        entry = best_cut[end]
        assert entry is not None
        start, result = entry
        segments.append(Segment(ops=ops[start:end], result=result))
        end = start
    segments.reverse()
    return tuple(segments)


def optimize_graph(
    graph: OperatorGraph,
    buffer_elems: int,
    enable_fusion: bool = True,
    max_group: int = 3,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    fusion_predicate: Optional[FusionPredicate] = None,
    medium: FusionMedium = FusionMedium.MEMORY,
    register_elems: Optional[int] = None,
) -> GraphPlan:
    """Plan the whole graph: segment every maximal chain independently."""
    segments: List[Segment] = []
    for chain in graph.chains():
        segments.extend(
            optimize_chain(
                chain,
                buffer_elems,
                enable_fusion=enable_fusion,
                max_group=max_group,
                convention=convention,
                fusion_predicate=fusion_predicate,
                medium=medium,
                register_elems=register_elems,
            )
        )
    return GraphPlan(graph_name=graph.name, segments=tuple(segments))
