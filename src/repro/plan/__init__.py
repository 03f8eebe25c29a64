"""Graph-level fusion planning: the repo's one graph planner.

``repro.plan`` plans *whole operator DAGs* into fused sets with retained
intermediates, extending the paper's pairwise Principle 4 from one chain
to the whole graph:

* :mod:`repro.plan.partition` -- the partition/retention model and its
  space, the shared :func:`cost_partition` primitive, the chain DP and
  the chain-independent plan (:func:`optimize_graph`), and
  :func:`plan_dag`, exact over the whole space.  ``plan_dag(...,
  enable_retention=False)`` is "the plan" of a graph (``repro plan
  MODEL``, ``graph_plan`` requests, FuseCU/UnfCU); every plan is a
  :class:`DagPlan` whose segments are listed in execution order;
* :mod:`repro.plan.enumerative` -- a LoopTree-style budgeted enumerative
  mapper over the same space, the independent search baseline;
* :mod:`repro.plan.scenarios` -- the pinned scenario catalog (attention,
  moe, decode, training-backward) shared by CLI, service, CI, and bench.

Certification of plans lives in :func:`repro.verify.certify_plan`, which
recounts a plan segment-by-segment and cross-checks (and, should the two
searches ever disagree, self-heals) the planner against the enumeration.
"""

from .partition import (
    DagPlan,
    PlanSegment,
    clean_links,
    cost_partition,
    optimize_graph,
    plan_dag,
    retention_candidates,
)
from .enumerative import (
    DEFAULT_PLAN_BUDGET,
    MAX_RETENTION_CANDIDATES,
    EnumerationStats,
    EnumerativeOutcome,
    enumerate_plans,
)
from .scenarios import (
    SCENARIO_BUFFERS,
    SCENARIO_CONFIG,
    SCENARIOS,
    PlanScenario,
    list_scenarios,
    scenario_graph,
)

__all__ = [
    "DagPlan",
    "PlanSegment",
    "clean_links",
    "cost_partition",
    "optimize_graph",
    "plan_dag",
    "retention_candidates",
    "DEFAULT_PLAN_BUDGET",
    "MAX_RETENTION_CANDIDATES",
    "EnumerationStats",
    "EnumerativeOutcome",
    "enumerate_plans",
    "SCENARIO_BUFFERS",
    "SCENARIO_CONFIG",
    "SCENARIOS",
    "PlanScenario",
    "list_scenarios",
    "scenario_graph",
]
