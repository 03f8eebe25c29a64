"""Certification entry points: audit a result, probe it, heal it.

:func:`certify_intra` and :func:`certify_fused` take an optimization
result (or compute one) and re-derive every claim it makes through the
independent counters in :mod:`repro.verify.audit`:

* **feasibility** -- the dataflow's recomputed footprint fits the buffer
  (plus the register-file constraint for compute-unit fusion);
* **cost_audit** -- the claimed memory-access count equals the analytical
  recount of the loop nest;
* **simulation** (intra only) -- a literal tile-by-tile walk of the nest
  agrees too, when the nest is small enough to enumerate;
* **bound** -- the claim respects the infinite-buffer ideal (of the
  operator, or of the fused chain);
* **regime** / **nra_consistency** / **fusability** -- the structural
  claims (buffer regime, per-operator NRA classes, non-redundant
  intermediates) hold under recomputation.

With ``paranoid=True`` a budgeted branch-and-bound probe cross-checks
optimality.  When the probe certifies a strictly better dataflow -- or the
analytical result fails its own audit -- the probe's dataflow replaces it
(*self-healing fallback*): the returned result is rebuilt from the probe,
re-audited, and the event is recorded as a
:class:`~repro.verify.certificate.DiscrepancyReport` both on the
certificate and in a process-wide registry that batch tooling drains into
its reports.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

from ..ir.operator import TensorOperator, validate_buffer_elems
from ..dataflow.cost import PartialSumConvention, memory_access
from ..dataflow.fusion_nest import FusedChain, fused_memory_access
from ..dataflow.spec import NRAClass
from ..core.fusion import (
    FusedPattern,
    FusedResult,
    FusionMedium,
    Role,
    optimize_fused,
)
from ..core.intra import InfeasibleError, IntraResult, optimize_intra
from ..core.nra import is_mm_like
from ..core.regimes import classify_buffer
from ..search.branch_bound import (
    branch_and_bound_fused_search,
    branch_and_bound_search,
)
from .audit import (
    _ceil_div,
    _fused_tiles,
    _op_order,
    _walk_multiplier,
    audit_footprint,
    audit_fused_footprint,
    audit_fused_memory_access,
    audit_memory_access,
    simulate_memory_access,
)
from .certificate import (
    Certificate,
    CertificationError,
    CheckResult,
    DiscrepancyReport,
)

#: Default node budget for the paranoid branch-and-bound probe.  Enough to
#: prove optimality exactly for BERT-scale operators (~45k nodes) while
#: keeping the probe bounded on adversarial shapes.
DEFAULT_PROBE_NODES = 200_000

#: Default iteration ceiling for the literal nest simulation.
DEFAULT_SIMULATE_LIMIT = 200_000


# ----------------------------------------------------------------------
# Discrepancy registry (drained by the service layer into batch reports)
# ----------------------------------------------------------------------
_registry_lock = threading.Lock()
_registry: List[DiscrepancyReport] = []


def record_discrepancy(report: DiscrepancyReport) -> None:
    with _registry_lock:
        _registry.append(report)


def list_discrepancies() -> Tuple[DiscrepancyReport, ...]:
    with _registry_lock:
        return tuple(_registry)


def drain_discrepancies() -> Tuple[DiscrepancyReport, ...]:
    """Return all recorded discrepancies and clear the registry."""
    with _registry_lock:
        drained = tuple(_registry)
        _registry.clear()
    return drained


# ----------------------------------------------------------------------
# Intra-operator certification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CertifiedIntra:
    """A (possibly healed) intra result plus its certificate."""

    result: IntraResult
    certificate: Certificate


def _intra_checks(
    result,
    buffer_elems: int,
    convention: PartialSumConvention,
    claimed: int,
    simulate_limit: int,
) -> List[CheckResult]:
    operator = result.operator
    checks: List[CheckResult] = []

    footprint = audit_footprint(operator, result.dataflow)
    checks.append(
        CheckResult(
            name="feasibility",
            passed=footprint <= buffer_elems,
            claimed=buffer_elems,
            recomputed=footprint,
            detail="recomputed footprint vs buffer capacity",
        )
    )

    recount = audit_memory_access(operator, result.dataflow, convention)
    checks.append(
        CheckResult(
            name="cost_audit",
            passed=recount == claimed,
            claimed=claimed,
            recomputed=recount,
            detail="independent reuse-rule recount",
        )
    )

    simulated = simulate_memory_access(
        operator, result.dataflow, convention, limit=simulate_limit
    )
    if simulated is None:
        checks.append(
            CheckResult(
                name="simulation",
                passed=True,
                detail=f"skipped: nest exceeds {simulate_limit} tile iterations",
            )
        )
    else:
        checks.append(
            CheckResult(
                name="simulation",
                passed=simulated == claimed,
                claimed=claimed,
                recomputed=simulated,
                detail="literal tile-by-tile nest walk",
            )
        )

    # A true lower bound: every tensor moves at least once.  The principle
    # engine's own answer is no bound -- a healed result may beat it.
    bound = operator.ideal_memory_access()
    checks.append(
        CheckResult(
            name="bound",
            passed=claimed >= bound,
            claimed=claimed,
            recomputed=bound,
            detail="claimed MA vs infinite-buffer ideal",
        )
    )

    if result.regime is not None:
        recomputed_regime = classify_buffer(operator, buffer_elems).regime
        checks.append(
            CheckResult(
                name="regime",
                passed=recomputed_regime is result.regime.regime,
                claimed=result.regime.regime.value,
                recomputed=recomputed_regime.value,
                detail="buffer-regime classification",
            )
        )
    return checks


def certify_intra(
    operator: TensorOperator,
    buffer_elems: int,
    result=None,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    claimed_memory_access: Optional[int] = None,
    paranoid: bool = False,
    probe_nodes: int = DEFAULT_PROBE_NODES,
    simulate_limit: int = DEFAULT_SIMULATE_LIMIT,
) -> CertifiedIntra:
    """Independently certify an intra-operator optimization result.

    ``result`` defaults to a fresh :func:`repro.core.intra.optimize_intra`
    run.  ``claimed_memory_access`` overrides the claim under audit (the
    fault-injection hook used by tests and ``repro certify --corrupt-ma``).
    With ``paranoid=True`` a branch-and-bound probe bounded by
    ``probe_nodes`` cross-checks optimality; a strictly better probe
    dataflow -- or any failed check -- triggers the self-healing fallback.
    """

    buffer_elems = validate_buffer_elems(buffer_elems)
    if result is None:
        result = optimize_intra(operator, buffer_elems, convention)
    claimed = (
        result.memory_access
        if claimed_memory_access is None
        else claimed_memory_access
    )
    checks = _intra_checks(
        result, buffer_elems, convention, claimed, simulate_limit
    )
    discrepancy: Optional[DiscrepancyReport] = None
    healed = False
    failed = any(not check.passed for check in checks)

    if paranoid and is_mm_like(operator):
        probe = branch_and_bound_search(
            operator, buffer_elems, convention, max_nodes=probe_nodes
        )
        if probe is not None and (probe.memory_access < claimed or failed):
            discrepancy = DiscrepancyReport(
                kind="intra",
                subject=operator.name,
                claimed_memory_access=claimed,
                certified_memory_access=probe.memory_access,
                dataflow=probe.dataflow.describe(operator),
                evaluations=probe.evaluations,
                reason="failed_audit" if failed else "probe_beat_analytical",
            )
            record_discrepancy(discrepancy)
            result = IntraResult(
                operator=operator,
                dataflow=probe.dataflow,
                report=memory_access(operator, probe.dataflow, convention),
                regime=classify_buffer(operator, buffer_elems),
                label="branch-and-bound-fallback",
            )
            claimed = result.memory_access
            checks = _intra_checks(
                result, buffer_elems, convention, claimed, simulate_limit
            )
            healed = True
        elif probe is not None:
            checks.append(
                CheckResult(
                    name="optimality_probe",
                    passed=True,
                    claimed=claimed,
                    recomputed=probe.memory_access,
                    detail=f"branch-and-bound probe ({probe.evaluations} nodes)",
                )
            )

    certificate = Certificate(
        kind="intra",
        subject=operator.name,
        buffer_elems=buffer_elems,
        checks=tuple(checks),
        discrepancy=discrepancy,
        healed=healed,
    )
    return CertifiedIntra(
        result=replace(result, certificate=certificate),
        certificate=certificate,
    )


# ----------------------------------------------------------------------
# Fused-chain certification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CertifiedFused:
    """A (possibly healed) fused result plus its certificate."""

    result: FusedResult
    certificate: Certificate


def _fused_checks(
    result,
    buffer_elems: int,
    convention: PartialSumConvention,
    claimed: int,
    register_elems: Optional[int],
) -> List[CheckResult]:
    chain: FusedChain = result.chain
    dataflow = result.dataflow
    checks: List[CheckResult] = []
    intermediates = tuple(t.name for t in chain.intermediates())
    compute_unit = result.medium is FusionMedium.COMPUTE_UNIT
    exclude = intermediates if compute_unit else ()

    footprint = audit_fused_footprint(chain, dataflow, exclude=exclude)
    checks.append(
        CheckResult(
            name="feasibility",
            passed=footprint <= buffer_elems,
            claimed=buffer_elems,
            recomputed=footprint,
            detail="recomputed fused footprint vs buffer capacity"
            + (" (intermediates in compute unit)" if compute_unit else ""),
        )
    )

    if compute_unit:
        if register_elems is None:
            checks.append(
                CheckResult(
                    name="registers",
                    passed=False,
                    detail="compute-unit medium but no register capacity given",
                )
            )
        else:
            worst = max(
                (
                    dataflow.tile_elements(chain, name)
                    for name in intermediates
                ),
                default=0,
            )
            checks.append(
                CheckResult(
                    name="registers",
                    passed=worst <= register_elems,
                    claimed=register_elems,
                    recomputed=worst,
                    detail="largest intermediate tile vs register capacity",
                )
            )

    recount, inter_mult = audit_fused_memory_access(
        chain, dataflow, convention
    )
    checks.append(
        CheckResult(
            name="cost_audit",
            passed=recount == claimed,
            claimed=claimed,
            recomputed=recount,
            detail="independent fused reuse-rule recount",
        )
    )
    checks.append(
        CheckResult(
            name="fusability",
            passed=all(m == 1 for m in inter_mult.values()),
            recomputed={name: mult for name, mult in sorted(inter_mult.items())},
            detail="intermediate tensors must be non-redundant",
        )
    )

    bound = chain.ideal_memory_access()
    checks.append(
        CheckResult(
            name="bound",
            passed=claimed >= bound,
            claimed=claimed,
            recomputed=bound,
            detail="claimed MA vs fused infinite-buffer ideal",
        )
    )

    tiles = _fused_tiles(chain, dataflow)
    trips = {
        dim: _ceil_div(extent, tiles[dim])
        for dim, extent in chain.global_dims.items()
    }
    recomputed_nra = []
    for index, op in enumerate(chain.ops):
        order = _op_order(chain, dataflow, index)
        non_redundant = sum(
            1
            for tensor in op.tensors
            if _walk_multiplier(
                order, trips, chain.global_dims_of_tensor(index, tensor.name)
            )
            == 1
        )
        recomputed_nra.append(NRAClass(max(1, min(3, non_redundant))))
    checks.append(
        CheckResult(
            name="nra_consistency",
            passed=tuple(recomputed_nra) == tuple(result.per_op_nra),
            claimed=[cls.value for cls in result.per_op_nra],
            recomputed=[cls.value for cls in recomputed_nra],
            detail="per-operator NRA classes",
        )
    )
    return checks


def _fallback_fused_result(chain: FusedChain, dataflow, convention):
    """Rebuild a FusedResult around a branch-and-bound dataflow."""
    tiles = _fused_tiles(chain, dataflow)
    roles = {}
    for dim, extent in chain.global_dims.items():
        if tiles[dim] == extent:
            roles[dim] = Role.UNTILE
        elif tiles[dim] == 1:
            roles[dim] = Role.MINIMIZE
        else:
            roles[dim] = Role.MAXIMIZE
    pattern = FusedPattern(
        label="branch-and-bound-fallback", roles=roles, cross_nra=True
    )
    return FusedResult(
        chain=chain,
        pattern=pattern,
        dataflow=dataflow,
        report=fused_memory_access(chain, dataflow, convention),
        medium=FusionMedium.MEMORY,
    )


def certify_fused(
    ops: Sequence[TensorOperator],
    buffer_elems: int,
    result=None,
    include_cross: bool = False,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
    register_elems: Optional[int] = None,
    claimed_memory_access: Optional[int] = None,
    paranoid: bool = False,
    probe_nodes: int = DEFAULT_PROBE_NODES,
) -> CertifiedFused:
    """Independently certify a fused-chain optimization result.

    ``result`` defaults to a fresh
    :func:`repro.core.fusion.optimize_fused` run (memory medium).  The
    branch-and-bound probe explores memory-medium fused nests for
    two-operator chains only; longer chains are audited without a probe.
    Raises :class:`repro.core.intra.InfeasibleError` when no fused
    dataflow exists to certify.
    """

    ops = tuple(ops)
    buffer_elems = validate_buffer_elems(buffer_elems)
    if result is None:
        result = optimize_fused(
            ops,
            buffer_elems,
            include_cross=include_cross,
            convention=convention,
            register_elems=register_elems,
        )
        if result is None:
            raise InfeasibleError(
                "no fused dataflow fits a buffer of "
                f"{buffer_elems} elements for chain "
                + "+".join(op.name for op in ops)
            )
    chain: FusedChain = result.chain
    subject = "+".join(op.name for op in chain.ops)
    claimed = (
        result.memory_access
        if claimed_memory_access is None
        else claimed_memory_access
    )
    checks = _fused_checks(
        result, buffer_elems, convention, claimed, register_elems
    )
    discrepancy: Optional[DiscrepancyReport] = None
    healed = False
    failed = any(not check.passed for check in checks)

    if paranoid and len(chain.ops) == 2:
        probe = branch_and_bound_fused_search(
            list(ops), buffer_elems, convention, max_nodes=probe_nodes
        )
        if probe is not None and (probe.memory_access < claimed or failed):
            discrepancy = DiscrepancyReport(
                kind="fused",
                subject=subject,
                claimed_memory_access=claimed,
                certified_memory_access=probe.memory_access,
                dataflow=probe.dataflow.describe(chain),
                evaluations=probe.evaluations,
                reason="failed_audit" if failed else "probe_beat_analytical",
            )
            record_discrepancy(discrepancy)
            result = _fallback_fused_result(chain, probe.dataflow, convention)
            claimed = result.memory_access
            checks = _fused_checks(
                result, buffer_elems, convention, claimed, register_elems
            )
            healed = True
        elif probe is not None:
            checks.append(
                CheckResult(
                    name="optimality_probe",
                    passed=True,
                    claimed=claimed,
                    recomputed=probe.memory_access,
                    detail=f"fused branch-and-bound probe ({probe.evaluations} nodes)",
                )
            )

    certificate = Certificate(
        kind="fused",
        subject=subject,
        buffer_elems=buffer_elems,
        checks=tuple(checks),
        discrepancy=discrepancy,
        healed=healed,
    )
    return CertifiedFused(
        result=replace(result, certificate=certificate),
        certificate=certificate,
    )


def certified_result(
    certified: Union[CertifiedIntra, CertifiedFused],
) -> Union[IntraResult, FusedResult]:
    """The certified result, or :class:`CertificationError` if a check failed.

    The message names the operator (``'mm'``) or the fused chain
    (``fused chain mm1+mm2``) and lists every failed check.
    """

    certificate = certified.certificate
    if not certificate.ok:
        subject = (
            repr(certificate.subject)
            if certificate.kind == "intra"
            else f"fused chain {certificate.subject}"
        )
        raise CertificationError(
            f"certification failed for {subject}: "
            + "; ".join(certificate.failure_summaries()),
            certificate=certificate,
        )
    return certified.result
