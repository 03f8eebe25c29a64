"""Request execution: one pure function per analysis kind.

:func:`run_payload` is the unit of work the engine ships to its pool.  It
is a module-level function of a plain dict returning a plain dict, so it is
picklable for :class:`concurrent.futures.ProcessPoolExecutor` and safe for
thread pools alike.  All failures -- malformed requests, unknown models,
infeasible buffers -- are captured into a structured error record; a worker
never raises, so one poisoned request can never kill a batch.

Results contain only deterministic JSON-able data (no timings, no object
ids), which is what makes ``--jobs 1`` and ``--jobs 4`` batch outputs
byte-identical and cache entries portable across processes.

Resilience hooks: each attempt honors a *cooperative* per-request
deadline (checked between parse and execute -- a thread cannot be
preempted, so well-behaved workers self-enforce), routes through the
process-wide fault-injection plan when one is active, and stamps
successful records with an integrity digest so the engine can detect a
corrupted result envelope and retry it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Any, Dict, List, Mapping, Optional

from ..arch import ALL_PLATFORMS, MemorySpec, evaluate_graph
from ..core import decide_fusion, optimize_intra
from ..core.lower_bound import shift_point_band, three_nra_threshold
from ..dataflow.cost import PartialSumConvention
from ..dataflow.serialize import dataflow_to_dict
from ..ir import matmul
from ..plan import optimize_graph
from ..workloads import build_layer_graph, model_by_name
from .errors import classify_exception
from .faults import CORRUPTED_RESULT, active_fault_plan
from .requests import AnalysisRequest, parse_request, request_key
from .resilience import Deadline

#: Platform used to normalize comparison rows (the paper's baseline).
COMPARE_BASELINE = "TPUv4i"


def _convention(name: str) -> PartialSumConvention:
    for convention in PartialSumConvention:
        if convention.value == name:
            return convention
    raise ValueError(
        f"unknown partial-sum convention {name!r}; choose from "
        + ", ".join(c.value for c in PartialSumConvention)
    )


def _certification_dict(result: Any) -> Optional[Dict[str, Any]]:
    """JSON form of an attached certificate (ints/strs/bools only)."""
    certificate = getattr(result, "certificate", None)
    return None if certificate is None else certificate.as_dict()


def _intra_result_dict(result: Any) -> Dict[str, Any]:
    record = {
        "operator": result.operator.name,
        "dims": dict(result.operator.dims),
        "memory_access": result.memory_access,
        "ideal": result.operator.ideal_memory_access(),
        "redundancy": round(result.redundancy, 6),
        "nra_class": str(result.nra_class),
        "regime": None if result.regime is None else result.regime.regime.value,
        "label": result.label,
        "dataflow": dataflow_to_dict(result.dataflow),
        "per_tensor": {
            name: {"accesses": entry.accesses, "multiplier": entry.multiplier}
            for name, entry in sorted(result.report.per_tensor.items())
        },
    }
    certification = _certification_dict(result)
    if certification is not None:
        record["certification"] = certification
    return record


def _certifies(params: Mapping[str, Any]) -> bool:
    return params.get("certify", False) or params.get("paranoid", False)


def _certified(
    params: Mapping[str, Any], certify: Any, subject: Any, result: Any,
    **options: Any,
) -> Any:
    """``result`` after ``certify`` (:func:`repro.verify.certify_intra` or
    ``certify_fused``) checks it, possibly healed; a failed check raises
    :class:`repro.verify.CertificationError`."""

    from ..verify import certified_result

    return certified_result(
        certify(
            subject,
            params["buffer_elems"],
            result=result,
            convention=_convention(params["convention"]),
            paranoid=params.get("paranoid", False),
            **options,
        )
    )


def _execute_intra(params: Mapping[str, Any]) -> Dict[str, Any]:
    op = matmul("mm", params["m"], params["k"], params["l"])
    result = optimize_intra(
        op, params["buffer_elems"], _convention(params["convention"])
    )
    if _certifies(params):
        # Imported here, like every verify import in this module: only
        # certified requests load the verify layer.
        from ..verify import certify_intra

        result = _certified(params, certify_intra, op, result)
    return _intra_result_dict(result)


def _execute_fusion(params: Mapping[str, Any]) -> Dict[str, Any]:
    op1 = matmul("mm1", params["m"], params["k"], params["l"])
    op2 = matmul("mm2", params["m"], params["l"], params["n"], a=op1.output)
    decision = decide_fusion(
        [op1, op2],
        params["buffer_elems"],
        include_cross=params["include_cross"],
        convention=_convention(params["convention"]),
    )
    if _certifies(params):
        from ..verify import certify_fused, certify_intra

        # Arguments evaluate in order: each operator's optimum, then the
        # fused winner.  The Principle 4 prediction stays as solved.
        decision = dataclasses.replace(
            decision,
            unfused=tuple(
                _certified(params, certify_intra, result.operator, result)
                for result in decision.unfused
            ),
            fused=None if decision.fused is None else _certified(
                params, certify_fused, decision.ops, decision.fused,
                include_cross=params["include_cross"],
            ),
        )
    record = {
        "ops": [op.name for op in decision.ops],
        "unfused_memory_access": decision.unfused_memory_access,
        "fused_memory_access": decision.fused_memory_access,
        "profitable": decision.profitable,
        "predicted_profitable": decision.predicted_profitable,
        "saving": round(decision.saving, 6),
        "fused": None if decision.fused is None else decision.fused.describe(),
    }
    certifications = {}
    for intra in decision.unfused:
        certification = _certification_dict(intra)
        if certification is not None:
            certifications[intra.operator.name] = certification
    fused_certification = (
        None if decision.fused is None else _certification_dict(decision.fused)
    )
    if fused_certification is not None:
        certifications["fused"] = fused_certification
    if certifications:
        record["certification"] = certifications
    return record


def _execute_graph_plan(params: Mapping[str, Any]) -> Dict[str, Any]:
    from ..plan import plan_dag

    graph = build_layer_graph(model_by_name(params["model"]))
    plan = plan_dag(
        graph,
        params["buffer_elems"],
        enable_fusion=params["enable_fusion"],
        max_group=params["max_group"],
        enable_retention=False,
    )
    return {
        "model": params["model"],
        "graph": plan.graph_name,
        "total_memory_access": plan.memory_access,
        "segments": [
            {
                "ops": [op.name for op in segment.ops],
                "fused": segment.fused,
                "memory_access": segment.memory_access,
            }
            for segment in plan.segments
        ],
    }


def _execute_dag_plan(params: Mapping[str, Any]) -> Dict[str, Any]:
    from ..plan import enumerate_plans, plan_dag, scenario_graph

    graph = scenario_graph(params["scenario"], params["model"] or None)
    buffer_elems = params["buffer_elems"]
    knobs = dict(
        enable_fusion=params["enable_fusion"],
        max_group=params["max_group"],
    )
    if _certifies(params):
        from ..verify import certify_plan

        certified = certify_plan(
            graph,
            buffer_elems,
            enable_retention=params["retention"],
            paranoid=params.get("paranoid", False),
            budget=params["budget"],
            **knobs,
        )
        plan = certified.plan
    else:
        certified = None
        plan = plan_dag(
            graph, buffer_elems, enable_retention=params["retention"], **knobs
        )
    record: Dict[str, Any] = {
        "scenario": params["scenario"],
        "model": params["model"] or None,
        "graph": plan.graph_name,
        "buffer_elems": buffer_elems,
        "method": plan.method,
        "total_memory_access": plan.memory_access,
        "ideal_memory_access": graph.ideal_memory_access(),
        "chain_memory_access": optimize_graph(
            graph, buffer_elems, **knobs
        ).memory_access,
        "retained": list(plan.retained),
        "segments": [
            {
                "ops": [op.name for op in segment.ops],
                "fused": segment.fused,
                "memory_access": segment.memory_access,
                "resident": list(segment.resident),
                "reserved_elems": segment.reserved_elems,
            }
            for segment in plan.segments
        ],
    }
    if params["baseline"]:
        outcome = enumerate_plans(
            graph,
            buffer_elems,
            budget=params["budget"],
            enable_retention=params["retention"],
            **knobs,
        )
        record["baseline"] = {
            "total_memory_access": (
                None if outcome.plan is None else outcome.plan.memory_access
            ),
            "agrees": (
                outcome.plan is not None
                and plan.memory_access <= outcome.plan.memory_access
            ),
            **outcome.stats.as_dict(),
        }
    if certified is not None:
        record["certification"] = certified.certificate.as_dict()
    return record


def _execute_platform_compare(params: Mapping[str, Any]) -> Dict[str, Any]:
    memory = MemorySpec(buffer_bytes=params["buffer_elems"])
    graph = build_layer_graph(model_by_name(params["model"]))
    perfs = {
        factory(memory).name: evaluate_graph(graph, factory(memory))
        for factory in ALL_PLATFORMS
    }
    baseline = perfs[COMPARE_BASELINE]
    rows: List[Dict[str, Any]] = []
    for name, perf in perfs.items():
        rows.append(
            {
                "platform": name,
                "memory_access": perf.total_memory_access,
                "normalized_ma": round(
                    perf.total_memory_access / baseline.total_memory_access, 6
                ),
                "utilization": round(perf.utilization, 6),
                "speedup": round(perf.speedup_over(baseline), 6),
            }
        )
    return {
        "model": params["model"],
        "baseline": COMPARE_BASELINE,
        "rows": rows,
    }


def _execute_sweep_point(params: Mapping[str, Any]) -> Dict[str, Any]:
    op = matmul("mm", params["m"], params["k"], params["l"])
    result = optimize_intra(
        op, params["buffer_elems"], _convention(params["convention"])
    )
    band = shift_point_band(op)
    return {
        "operator": op.name,
        "dims": dict(op.dims),
        "buffer_elems": params["buffer_elems"],
        "memory_access": result.memory_access,
        "ideal": op.ideal_memory_access(),
        "normalized": round(result.redundancy, 6),
        "regime": None if result.regime is None else result.regime.regime.value,
        "nra_class": str(result.nra_class),
        "shift_band": [band[0], band[1]],
        "three_nra_at": three_nra_threshold(op),
    }


_EXECUTORS = {
    "intra": _execute_intra,
    "fusion": _execute_fusion,
    "graph_plan": _execute_graph_plan,
    "dag_plan": _execute_dag_plan,
    "platform_compare": _execute_platform_compare,
    "sweep_point": _execute_sweep_point,
}


def execute_request(
    request: AnalysisRequest, deadline: Optional[Deadline] = None
) -> Dict[str, Any]:
    """Execute one canonical request; raises on failure.

    This is the fault-injection point: when a plan is active (set
    in-process or inherited via ``REPRO_FAULTS``), matching raise /
    delay / crash clauses fire here, before the real computation.
    """

    key = request_key(request)
    plan = active_fault_plan()
    if plan is not None:
        plan.apply(request.kind, key, deadline)
    if deadline is not None:
        deadline.check(f"{request.kind} request")
    return _EXECUTORS[request.kind](request.param_dict)


def result_digest(result: Any) -> str:
    """Integrity digest of a result payload (canonical JSON, SHA-256)."""
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def run_payload(
    payload: Mapping[str, Any],
    deadline_seconds: Optional[float] = None,
) -> Dict[str, Any]:
    """Parse + execute a raw request payload with full error capture.

    Returns a record shaped for the batch output stream::

        {"key": ..., "kind": ..., "ok": true,  "result": {...}, "seconds": ...}
        {"key": ..., "kind": ..., "ok": false, "error": {...},  "seconds": ...}

    ``seconds`` (monotonic wall time of this evaluation) and ``integrity``
    (digest of ``result``, verified by the engine) are stripped from the
    deterministic output stream by the engine/report layers.  Error dicts
    carry a ``category`` field (transient/permanent) so retry decisions
    survive process boundaries.

    ``deadline_seconds`` starts this attempt's cooperative deadline: the
    budget is enforced at safe points here and inside injected delays;
    preemptive enforcement (for workers that never yield) is the engine's
    job.
    """

    started = time.monotonic()
    deadline = (
        Deadline(deadline_seconds) if deadline_seconds is not None else None
    )
    kind = payload.get("kind") if isinstance(payload, Mapping) else None
    try:
        request = parse_request(payload)
        if deadline is not None:
            deadline.check(f"{request.kind} request")
        result = execute_request(request, deadline)
        record: Dict[str, Any] = {
            "key": request_key(request),
            "kind": request.kind,
            "ok": True,
            "result": result,
            "integrity": result_digest(result),
        }
        plan = active_fault_plan()
        if plan is not None and plan.should_corrupt(
            request.kind, record["key"]
        ):
            # Mangle *after* the digest is taken, so the engine's
            # integrity check catches the corruption in transit.
            record["result"] = dict(CORRUPTED_RESULT)
    except Exception as exc:  # noqa: BLE001 - error isolation by design
        record = {
            "key": None,
            "kind": kind if isinstance(kind, str) else None,
            "ok": False,
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "category": classify_exception(exc),
            },
        }
    record["seconds"] = time.monotonic() - started
    return record
