"""Budgeted enumerative DAG mapper (LoopTree-style search baseline).

LoopTree and Fast-and-Fusiest explore fused-set mappings by *enumeration*
rather than by closed-form principles.  This module is the repo's version
of that idea, scoped to the same partition space the principle-guided
planner optimizes over (see :mod:`repro.plan.partition`):

* one kept in-link per join operator (including "keep none"),
* every cut placement of every resulting path into segments of at most
  ``max_group`` operators,
* every subset of the eligible retained-intermediate tensors (capped --
  see :data:`MAX_RETENTION_CANDIDATES`).

Each candidate is costed through the *shared*
:func:`repro.plan.partition.cost_partition` primitive, so a disagreement
between this mapper and :func:`repro.plan.partition.plan_dag` is a
*search* gap, never a cost-model gap -- the cost model itself is audited
independently by :func:`repro.verify.certify_plan`.  The search is
budgeted: evaluation stops after ``budget`` candidate costings and the
outcome reports whether the space was exhausted, exactly the contract a
LoopTree-style mapper gives on large graphs.

Because the enumeration covers every chain-DP cut placement, an
*exhausted* run can never be beaten by the principle planner's DP -- and
when the principle planner loses (a greedy join choice or greedy
retention going wrong), :func:`repro.verify.certify_plan` adopts this
mapper's plan and records a structured discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..ir.graph import OperatorGraph
from ..ir.operator import TensorOperator, validate_buffer_elems
from ..dataflow.cost import PartialSumConvention
from ..core.fusion import FusionMedium
from .partition import (
    DagPlan,
    clean_links,
    cost_partition,
    retention_candidates,
    validate_max_group,
)

#: Default cap on candidate costings per :func:`enumerate_plans` call.
DEFAULT_PLAN_BUDGET = 4096

#: Retention subsets are exponential; only the first this-many eligible
#: tensors (sorted by name) are enumerated.  The cap is reported through
#: :attr:`EnumerationStats.retention_truncated` rather than silently
#: shrinking the space.
MAX_RETENTION_CANDIDATES = 6


@dataclass(frozen=True)
class EnumerationStats:
    """How much of the partition space one enumeration visited."""

    plans_evaluated: int
    budget: int
    exhausted: bool
    retention_truncated: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "plans_evaluated": self.plans_evaluated,
            "budget": self.budget,
            "exhausted": self.exhausted,
            "retention_truncated": self.retention_truncated,
        }


@dataclass(frozen=True)
class EnumerativeOutcome:
    """Best plan found (``None`` if nothing feasible was seen) + stats."""

    plan: Optional[DagPlan]
    stats: EnumerationStats


def _compositions(length: int, max_part: int) -> Iterator[Tuple[int, ...]]:
    """All ordered part-size tuples summing to ``length`` (parts <= cap)."""
    if length == 0:
        yield ()
        return
    for first in range(1, min(length, max_part) + 1):
        for rest in _compositions(length - first, max_part):
            yield (first,) + rest


def _paths_from_links(
    graph: OperatorGraph, kept: Dict[str, str]
) -> Tuple[Tuple[TensorOperator, ...], ...]:
    """Vertex-disjoint paths induced by a producer->consumer link choice."""
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


def _candidate_partitions(
    graph: OperatorGraph, max_group: int, enable_fusion: bool
) -> Iterator[Tuple[Tuple[TensorOperator, ...], ...]]:
    """Every (join choice, cut placement) partition, deterministically."""
    links = clean_links(graph)
    in_links: Dict[str, List[str]] = {}
    for producer, consumer in links.items():
        in_links.setdefault(consumer, []).append(producer)
    choices: List[List[Optional[str]]] = []
    consumers: List[str] = []
    for consumer_name in sorted(in_links):
        producers = sorted(in_links[consumer_name])
        consumers.append(consumer_name)
        if len(producers) == 1:
            # A single clean in-link is always kept: cutting it is one of
            # the DP's cut placements, so "keep none" adds nothing here.
            choices.append([producers[0]])
        else:
            choices.append([None] + producers)
    longest = max_group if enable_fusion else 1
    for combo in product(*choices):
        kept = {
            producer: consumer
            for producer, consumer in zip(combo, consumers)
            if producer is not None
        }
        paths = _paths_from_links(graph, kept)
        per_path = [list(_compositions(len(path), longest)) for path in paths]
        for cut_combo in product(*per_path):
            segments: List[Tuple[TensorOperator, ...]] = []
            for path, parts in zip(paths, cut_combo):
                start = 0
                for part in parts:
                    segments.append(path[start : start + part])
                    start += part
            yield tuple(segments)


def enumerate_plans(
    graph: OperatorGraph,
    buffer_elems: int,
    enable_fusion: bool = True,
    max_group: int = 3,
    budget: int = DEFAULT_PLAN_BUDGET,
    enable_retention: bool = True,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    medium: FusionMedium = FusionMedium.MEMORY,
    register_elems: Optional[int] = None,
) -> EnumerativeOutcome:
    """Exhaustively cost partitions until done or out of budget.

    The best plan is chosen by ``(memory_access, signature)`` so the
    result is deterministic regardless of enumeration order; ties
    between equal-cost plans go to the canonically smaller partition.
    """

    buffer_elems = validate_buffer_elems(buffer_elems)
    validate_max_group(max_group)
    if budget < 1:
        raise ValueError(f"enumeration budget must be >= 1, got {budget}")
    best: Optional[DagPlan] = None
    evaluated = 0
    truncated = False
    exhausted = True
    for segments_ops in _candidate_partitions(graph, max_group, enable_fusion):
        if enable_retention:
            candidates = retention_candidates(graph, segments_ops)
            if len(candidates) > MAX_RETENTION_CANDIDATES:
                candidates = candidates[:MAX_RETENTION_CANDIDATES]
                truncated = True
        else:
            candidates = ()
        subsets: List[Tuple[str, ...]] = [()]
        for size in range(1, len(candidates) + 1):
            subsets.extend(combinations(candidates, size))
        for retained in subsets:
            if evaluated >= budget:
                exhausted = False
                break
            evaluated += 1
            plan = cost_partition(
                graph, segments_ops, retained, buffer_elems,
                convention=convention, medium=medium,
                register_elems=register_elems,
                method="enumerative",
            )
            if plan is None:
                continue
            if best is None or (plan.memory_access, plan.signature()) < (
                best.memory_access, best.signature()
            ):
                best = plan
        if not exhausted:
            break
    stats = EnumerationStats(
        plans_evaluated=evaluated,
        budget=budget,
        exhausted=exhausted,
        retention_truncated=truncated,
    )
    return EnumerativeOutcome(plan=best, stats=stats)
