"""Certification of DAG plans: recount, cross-check, self-heal.

:func:`certify_plan` audits a :class:`repro.plan.partition.DagPlan` the
way :func:`repro.verify.certify.certify_intra` audits one dataflow --
every structural and numeric claim is re-derived from the graph and the
independent counters in :mod:`repro.verify.audit`, never from the
planner's own helpers:

* **cover** -- the segments partition the graph exactly;
* **topology** -- within-segment links are legal fusion edges and every
  cross-segment edge points forward in the execution order;
* **retention** -- each retained tensor is eligible (last-op producer,
  strictly-later consumers, equal counts) and every segment's reserved
  capacity equals the live retained footprint;
* **feasibility** -- each segment's recomputed footprint fits the buffer
  *minus* its recomputed reservation;
* **cost_audit** -- each segment's base claim equals the independent
  recount, the per-tensor split sums to it, and the plan total equals
  the recounted sum net of retention elisions;
* **fusability** -- fused segments keep all intermediates non-redundant;
* **bound** -- the total respects the graph's infinite-buffer ideal;
* **chain_baseline** -- a DAG plan is never worse than the tested
  chain-independent plan on the same graph.

With ``paranoid=True`` the budgeted enumerative mapper
(:mod:`repro.plan.enumerative`) probes the same partition space; a
strictly better enumerative plan -- or any failed check -- triggers the
same self-healing fallback the intra/fused certifiers use: the
enumerative plan replaces the claim, is re-audited, and the event lands
in the process-wide discrepancy registry batch tooling drains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir.graph import OperatorGraph
from ..ir.operator import validate_buffer_elems
from ..dataflow.cost import PartialSumConvention
from ..core.fusion import FusionMedium
from ..core.intra import InfeasibleError
from ..plan.enumerative import DEFAULT_PLAN_BUDGET, enumerate_plans
from ..plan.partition import DagPlan, optimize_graph, plan_dag
from .audit import (
    audit_footprint,
    audit_fused_footprint,
    audit_fused_memory_access,
    audit_memory_access,
)
from .certificate import Certificate, CheckResult, DiscrepancyReport
from .certify import record_discrepancy


@dataclass(frozen=True)
class CertifiedPlan:
    """A (possibly healed) DAG plan plus its certificate.

    ``baseline_memory_access`` carries the enumerative probe's best total
    when the probe ran (``paranoid=True``), else ``None``.
    """

    plan: DagPlan
    certificate: Certificate
    baseline_memory_access: Optional[int] = None


def _plan_structure(
    graph: OperatorGraph, plan: DagPlan
) -> Tuple[List[CheckResult], Dict[str, int], Tuple[int, ...]]:
    """Structural checks plus the recomputed op->segment map and reserves."""
    checks: List[CheckResult] = []

    segment_of: Dict[str, int] = {}
    duplicates: List[str] = []
    for index, segment in enumerate(plan.segments):
        for op in segment.ops:
            if op.name in segment_of:
                duplicates.append(op.name)
            segment_of[op.name] = index
    graph_names = sorted(op.name for op in graph)
    missing = sorted(set(graph_names) - set(segment_of))
    extra = sorted(set(segment_of) - set(graph_names))
    checks.append(
        CheckResult(
            name="cover",
            passed=not (duplicates or missing or extra),
            claimed=sum(len(segment.ops) for segment in plan.segments),
            recomputed=len(graph_names),
            detail="segments must partition the graph exactly"
            + (f" (missing={missing} extra={extra} dup={duplicates})"
               if duplicates or missing or extra else ""),
        )
    )

    bad_links: List[str] = []
    backward: List[str] = []
    if not (duplicates or missing or extra):
        for index, segment in enumerate(plan.segments):
            for a, b in zip(segment.ops, segment.ops[1:]):
                consumers = graph.consumers(a.output.name)
                if (
                    len(consumers) != 1
                    or consumers[0].name != b.name
                    or a.count != b.count
                ):
                    bad_links.append(f"{a.name}->{b.name}")
            for op in segment.ops:
                for consumer in graph.consumers(op.output.name):
                    if segment_of[consumer.name] < index:
                        backward.append(f"{op.name}->{consumer.name}")
    checks.append(
        CheckResult(
            name="topology",
            passed=not (bad_links or backward),
            recomputed=sorted(bad_links + backward) or None,
            detail="in-segment links must be sole-consumer equal-count "
            "edges; cross-segment edges must point forward",
        )
    )

    reserved = [0] * len(plan.segments)
    resident: List[set] = [set() for _ in plan.segments]
    retention_faults: List[str] = []
    for name in plan.retained:
        producer = graph.producer(name)
        consumers = graph.consumers(name)
        if producer is None or not consumers:
            retention_faults.append(f"{name}: not an intermediate tensor")
            continue
        pseg = segment_of.get(producer.name)
        csegs = [segment_of.get(c.name) for c in consumers]
        if pseg is None or any(s is None for s in csegs):
            retention_faults.append(f"{name}: uncovered producer/consumer")
            continue
        if plan.segments[pseg].ops[-1].name != producer.name:
            retention_faults.append(f"{name}: producer not last in segment")
        if min(csegs) <= pseg:
            retention_faults.append(f"{name}: consumer not strictly later")
        if any(c.count != producer.count for c in consumers):
            retention_faults.append(f"{name}: repetition counts differ")
        for index in range(pseg, max(csegs) + 1):
            reserved[index] += producer.output.size
        resident[pseg].add(name)
        for index in csegs:
            resident[index].add(name)
    reserve_faults: List[str] = []
    for index, segment in enumerate(plan.segments):
        if segment.reserved_elems != reserved[index]:
            reserve_faults.append(
                f"segment {index}: claimed {segment.reserved_elems} "
                f"reserved, recomputed {reserved[index]}"
            )
        if tuple(sorted(resident[index])) != tuple(sorted(segment.resident)):
            reserve_faults.append(
                f"segment {index}: resident set "
                f"{sorted(segment.resident)} != {sorted(resident[index])}"
            )
    checks.append(
        CheckResult(
            name="retention",
            passed=not (retention_faults or reserve_faults),
            claimed=list(plan.retained) or None,
            recomputed=(retention_faults + reserve_faults) or None,
            detail="retained tensors must be eligible and reservations "
            "must equal the live retained footprint",
        )
    )
    return checks, segment_of, tuple(reserved)


def _plan_cost_checks(
    graph: OperatorGraph,
    plan: DagPlan,
    buffer_elems: int,
    convention: PartialSumConvention,
    claimed_total: int,
    reserved: Tuple[int, ...],
) -> List[CheckResult]:
    checks: List[CheckResult] = []
    footprint_faults: List[str] = []
    cost_faults: List[str] = []
    fusability_faults: List[str] = []
    recounted_total = 0
    for index, segment in enumerate(plan.segments):
        result = segment.result
        budget = buffer_elems - reserved[index]
        if segment.fused:
            chain = result.chain
            compute_unit = result.medium is FusionMedium.COMPUTE_UNIT
            exclude = (
                tuple(t.name for t in chain.intermediates())
                if compute_unit
                else ()
            )
            footprint = audit_fused_footprint(chain, result.dataflow, exclude=exclude)
            recount, inter_mult = audit_fused_memory_access(
                chain, result.dataflow, convention
            )
            redundant = sorted(
                name for name, mult in inter_mult.items() if mult != 1
            )
            if redundant:
                fusability_faults.append(f"segment {index}: {redundant}")
        else:
            footprint = audit_footprint(result.operator, result.dataflow)
            recount = audit_memory_access(result.operator, result.dataflow, convention)
        if footprint > budget:
            footprint_faults.append(
                f"segment {index}: footprint {footprint} > budget {budget}"
            )
        if recount != segment.raw_memory_access:
            cost_faults.append(
                f"segment {index}: claimed {segment.raw_memory_access}, "
                f"recounted {recount}"
            )
        report = result.report
        split = report.count * sum(
            entry.accesses for entry in report.per_tensor.values()
        )
        if split != segment.raw_memory_access:
            cost_faults.append(
                f"segment {index}: per-tensor split sums to {split}, "
                f"not {segment.raw_memory_access}"
            )
        elided = report.count * sum(
            report.per_tensor[name].accesses
            for name in segment.resident
            if name in report.per_tensor
        )
        if elided != segment.elided_access:
            cost_faults.append(
                f"segment {index}: claimed elision {segment.elided_access}, "
                f"recomputed {elided}"
            )
        recounted_total += recount - elided
    checks.append(
        CheckResult(
            name="feasibility",
            passed=not footprint_faults,
            claimed=buffer_elems,
            recomputed=footprint_faults or None,
            detail="recomputed segment footprints vs buffer minus reservation",
        )
    )
    if recounted_total != claimed_total:
        cost_faults.append(
            f"plan total: claimed {claimed_total}, recounted {recounted_total}"
        )
    checks.append(
        CheckResult(
            name="cost_audit",
            passed=not cost_faults,
            claimed=claimed_total,
            recomputed=recounted_total,
            detail="independent segment-by-segment recount net of retention"
            + (f" ({'; '.join(cost_faults)})" if cost_faults else ""),
        )
    )
    checks.append(
        CheckResult(
            name="fusability",
            passed=not fusability_faults,
            recomputed=fusability_faults or None,
            detail="fused intermediates must be non-redundant",
        )
    )
    bound = graph.ideal_memory_access()
    checks.append(
        CheckResult(
            name="bound",
            passed=claimed_total >= bound,
            claimed=claimed_total,
            recomputed=bound,
            detail="plan total vs infinite-buffer graph ideal",
        )
    )
    return checks


def _plan_checks(
    graph: OperatorGraph,
    plan: DagPlan,
    buffer_elems: int,
    convention: PartialSumConvention,
    claimed_total: int,
    chain_total: Optional[int],
) -> List[CheckResult]:
    checks, _, reserved = _plan_structure(graph, plan)
    structural_ok = all(check.passed for check in checks)
    if structural_ok:
        checks.extend(
            _plan_cost_checks(
                graph, plan, buffer_elems, convention, claimed_total, reserved
            )
        )
    else:
        checks.append(
            CheckResult(
                name="cost_audit",
                passed=False,
                claimed=claimed_total,
                detail="skipped: structural checks failed",
            )
        )
    if chain_total is None:
        checks.append(
            CheckResult(
                name="chain_baseline",
                passed=True,
                detail="skipped: chain-independent plan infeasible",
            )
        )
    else:
        checks.append(
            CheckResult(
                name="chain_baseline",
                passed=claimed_total <= chain_total,
                claimed=claimed_total,
                recomputed=chain_total,
                detail="DAG plan must not lose to the chain-independent plan",
            )
        )
    return checks


def _plan_subject(graph: OperatorGraph, plan: DagPlan) -> str:
    return f"{graph.name}[{len(plan.segments)} segments]"


def _describe_partition(plan: DagPlan) -> str:
    parts = [
        "+".join(op.name for op in segment.ops) for segment in plan.segments
    ]
    text = " | ".join(parts)
    if plan.retained:
        text += " ; retained " + ",".join(plan.retained)
    return text


def certify_plan(
    graph: OperatorGraph,
    buffer_elems: int,
    plan: Optional[DagPlan] = None,
    enable_fusion: bool = True,
    max_group: int = 3,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    medium: FusionMedium = FusionMedium.MEMORY,
    register_elems: Optional[int] = None,
    enable_retention: bool = True,
    claimed_memory_access: Optional[int] = None,
    paranoid: bool = False,
    budget: int = DEFAULT_PLAN_BUDGET,
) -> CertifiedPlan:
    """Independently certify a DAG plan for ``graph``.

    ``plan`` defaults to a fresh :func:`repro.plan.partition.plan_dag`
    run with the same knobs.  ``claimed_memory_access`` overrides the
    claim under audit (the fault-injection hook mirroring
    ``certify_intra``).  With ``paranoid=True`` the budgeted enumerative
    mapper probes the partition space; a strictly better enumerative
    plan or any failed check triggers the self-healing fallback and a
    recorded discrepancy.
    """

    buffer_elems = validate_buffer_elems(buffer_elems)
    knobs = dict(
        enable_fusion=enable_fusion, max_group=max_group,
        convention=convention, medium=medium,
        register_elems=register_elems,
    )
    if plan is None:
        plan = plan_dag(
            graph, buffer_elems, enable_retention=enable_retention, **knobs
        )
    claimed = (
        plan.memory_access
        if claimed_memory_access is None
        else claimed_memory_access
    )
    try:
        chain_total: Optional[int] = optimize_graph(
            graph, buffer_elems, **knobs
        ).memory_access
    except InfeasibleError:
        chain_total = None
    checks = _plan_checks(
        graph, plan, buffer_elems, convention, claimed, chain_total
    )
    discrepancy: Optional[DiscrepancyReport] = None
    healed = False
    failed = any(not check.passed for check in checks)
    baseline_total: Optional[int] = None

    if paranoid:
        probe = enumerate_plans(
            graph, buffer_elems, budget=budget,
            enable_retention=enable_retention, **knobs
        )
        if probe.plan is not None:
            baseline_total = probe.plan.memory_access
        if probe.plan is not None and (baseline_total < claimed or failed):
            discrepancy = DiscrepancyReport(
                kind="plan",
                subject=_plan_subject(graph, plan),
                claimed_memory_access=claimed,
                certified_memory_access=baseline_total,
                dataflow=_describe_partition(probe.plan),
                evaluations=probe.stats.plans_evaluated,
                reason="failed_audit" if failed else "probe_beat_analytical",
            )
            record_discrepancy(discrepancy)
            plan = probe.plan
            claimed = plan.memory_access
            checks = _plan_checks(
                graph, plan, buffer_elems, convention, claimed, chain_total
            )
            healed = True
        elif probe.plan is not None:
            checks.append(
                CheckResult(
                    name="optimality_probe",
                    passed=True,
                    claimed=claimed,
                    recomputed=baseline_total,
                    detail=(
                        f"enumerative probe ({probe.stats.plans_evaluated} "
                        f"plans, exhausted={probe.stats.exhausted})"
                    ),
                )
            )

    certificate = Certificate(
        kind="plan",
        subject=_plan_subject(graph, plan),
        buffer_elems=buffer_elems,
        checks=tuple(checks),
        discrepancy=discrepancy,
        healed=healed,
    )
    return CertifiedPlan(
        plan=plan,
        certificate=certificate,
        baseline_memory_access=baseline_total,
    )
