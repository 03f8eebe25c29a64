"""Budgeted enumerative DAG mapper (LoopTree-style search baseline).

LoopTree and Fast-and-Fusiest explore fused-set mappings by *enumeration*
rather than by closed-form principles.  This module is the repo's version
of that idea, over the partition space :mod:`repro.plan.partition`
defines (and :func:`~repro.plan.partition.plan_dag` searches exactly):

* one kept in-link per join operator (including "keep none"),
* every cut placement of every resulting path into segments of at most
  ``max_group`` operators,
* every subset of the eligible retained-intermediate tensors (capped --
  see :data:`MAX_RETENTION_CANDIDATES`).

Each candidate is costed through the *shared* cost path of
:func:`repro.plan.partition.cost_partition`, with no pruning, so a
disagreement between this mapper and the planner is a *search* bug,
never a cost-model gap -- the cost model itself is audited independently
by :func:`repro.verify.certify_plan`.  The search is budgeted:
evaluation stops after ``budget`` candidate costings and the outcome
reports whether the space was exhausted, exactly the contract a
LoopTree-style mapper gives on large graphs.  An exhausted run with no
retention cap hit covers the planner's whole space, so the two must
agree on the total; when they do not, :func:`repro.verify.certify_plan`
adopts this mapper's plan and records a structured discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from ..ir.graph import OperatorGraph
from ..ir.operator import validate_buffer_elems
from ..dataflow.cost import PartialSumConvention
from ..core.fusion import FusionMedium
from .partition import (
    DagPlan,
    _candidate_partitions,
    _cost_ordered,
    _retention_candidates,
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
    costing = dict(
        convention=convention, medium=medium, register_elems=register_elems
    )
    best: Optional[DagPlan] = None
    evaluated = 0
    truncated = False
    exhausted = True
    for ordered in _candidate_partitions(graph, max_group, enable_fusion):
        if enable_retention:
            candidates = _retention_candidates(graph, ordered)
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
            plan = _cost_ordered(
                graph, ordered, retained, buffer_elems, "enumerative", **costing
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
