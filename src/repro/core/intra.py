"""Intra-operator principle-based optimization (paper Sec. III-A).

:func:`optimize_intra` returns the communication-optimal dataflow for a
single operator and buffer size from the twelve closed-form NRA candidates
(:mod:`repro.core.nra`).  Each candidate's tile pairs are ranked by the
shared reuse rule on their trip counts and only the winner is built as a
dataflow; the candidates are then evaluated through the shared access
counter, under the caller's partial-sum convention, keeping the minimum.
:func:`one_shot_dataflow` follows the paper's regime table literally
(classify the buffer, then apply the matching principle only); the two
agree everywhere -- the regime table is exactly the statement of *which*
candidate wins where -- and the test suite asserts it.
:func:`cached_optimize_intra` answers the same question through the
memo's ``intra`` table (:mod:`repro.core.memo`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from ..ir.operator import TensorOperator, validate_buffer_elems
from ..dataflow.cost import (
    MemoryAccessReport,
    PartialSumConvention,
    memory_access,
)
from ..dataflow.spec import Dataflow, NRAClass
from . import memo
from .nra import (
    NRACandidate,
    UnsupportedOperatorError,
    all_candidates,
    is_mm_like,
    is_streaming,
    rename_label,
    single_nra,
    streaming_dataflow,
    three_nra,
    two_nra,
)
from .regimes import BufferRegime, RegimeReport, classify_buffer


class InfeasibleError(ValueError):
    """Raised when no dataflow fits the buffer at all."""


@dataclass(frozen=True)
class IntraResult:
    """Outcome of intra-operator optimization for one operator."""

    operator: TensorOperator
    dataflow: Dataflow
    report: MemoryAccessReport
    regime: Optional[RegimeReport]
    label: str
    #: Attached by :func:`repro.verify.certify_intra`; typed loosely
    #: because :mod:`repro.verify` sits above :mod:`repro.core`.
    certificate: Optional[Any] = field(default=None, compare=False)

    @property
    def memory_access(self) -> int:
        """Total accesses including the operator's repetition count."""
        return self.report.total

    @property
    def nra_class(self) -> NRAClass:
        return self.report.nra_class

    @property
    def redundancy(self) -> float:
        return self.report.total / self.operator.ideal_memory_access()

    def describe(self) -> str:
        regime = self.regime.regime.value if self.regime else "-"
        return (
            f"{self.operator.name}: MA={self.memory_access} "
            f"({self.nra_class}, regime={regime}) "
            f"[{self.dataflow.describe(self.operator)}]"
        )


def _pick_best(
    operator: TensorOperator,
    candidates: List[NRACandidate],
    buffer_elems: int,
    convention: PartialSumConvention,
) -> Tuple[NRACandidate, MemoryAccessReport]:
    best: Optional[Tuple[NRACandidate, MemoryAccessReport]] = None
    best_total = 0
    # Every closed-form candidate fits the buffer by construction.
    for candidate in candidates:
        report = memory_access(operator, candidate.dataflow, convention)
        total = report.total
        if best is None or total < best_total or (
            # Tie-break toward the higher realized NRA class so the chosen
            # label matches the regime narrative (several constructor
            # families can collapse to the same dataflow at boundaries).
            total == best_total
            and report.nra_class.value > best[1].nra_class.value
        ):
            best, best_total = (candidate, report), total
    if best is None:
        raise InfeasibleError(
            f"no dataflow for {operator.name!r} fits a buffer of "
            f"{buffer_elems} elements"
        )
    return best


def optimize_intra(
    operator: TensorOperator,
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
) -> IntraResult:
    """Principle-based optimal intra-operator dataflow.

    Parameters
    ----------
    operator:
        The operator to optimize (MM-like or streaming).
    buffer_elems:
        On-chip buffer capacity in elements.
    convention:
        Partial-sum accounting convention (see
        :class:`repro.dataflow.cost.PartialSumConvention`).

    :func:`repro.verify.certify_intra` checks the answer independently.
    """

    buffer_elems = validate_buffer_elems(buffer_elems)
    if is_streaming(operator):
        dataflow = streaming_dataflow(operator)
        return IntraResult(
            operator=operator,
            dataflow=dataflow,
            report=memory_access(operator, dataflow, convention),
            regime=None,
            label="streaming",
        )
    if not is_mm_like(operator):
        raise UnsupportedOperatorError(
            f"operator {operator.name!r} is neither MM-like nor streaming"
        )
    candidates = all_candidates(operator, buffer_elems)
    best, report = _pick_best(operator, candidates, buffer_elems, convention)
    return IntraResult(
        operator=operator,
        dataflow=best.dataflow,
        report=report,
        regime=classify_buffer(operator, buffer_elems),
        label=best.label,
    )


def cached_optimize_intra(
    operator: TensorOperator,
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
) -> IntraResult:
    """Drop-in :func:`optimize_intra` backed by the memo's ``intra`` table.

    Infeasible/unsupported operators raise exactly as the uncached function
    does; failures are never cached.
    """

    hit = memo.memoized(
        "intra",
        (memo.operator_signature(operator), buffer_elems, convention.value),
        lambda: optimize_intra(operator, buffer_elems, convention),
    )
    if hit.operator == operator:
        return hit
    # Same structure, different operator: re-score the winning dataflow
    # against the caller's operator so names in the report and label are
    # right.  Equal signatures list the tensors in corresponding order.
    report = memory_access(operator, hit.dataflow, convention)
    regime = None if hit.regime is None else classify_buffer(operator, buffer_elems)
    renames = {
        cached.name: tensor.name
        for cached, tensor in zip(hit.operator.tensors, operator.tensors)
    }
    return IntraResult(
        operator=operator,
        dataflow=hit.dataflow,
        report=report,
        regime=regime,
        label=rename_label(hit.label, renames),
    )


def one_shot_dataflow(
    operator: TensorOperator,
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
) -> IntraResult:
    """The paper's literal regime-table procedure (Sec. III-A4).

    Classify the buffer, then construct only the candidate(s) the matching
    principle prescribes:

    * tiny   -> Single-NRA with the smallest tensor stationary;
    * small  -> the better of that Single-NRA and the best Two-NRA untiling
      the smallest dimension;
    * medium -> Two-NRA untiling the smallest dimension;
    * large  -> Three-NRA keeping the smallest tensor resident.

    When the prescribed candidate is infeasible at a regime boundary (e.g. a
    Three-NRA whose streaming strips overflow just above ``Tensor_min``),
    the next-lower class is used, mirroring the paper's "shift point" bands.
    """

    if is_streaming(operator):
        return optimize_intra(operator, buffer_elems, convention)
    if not is_mm_like(operator):
        raise UnsupportedOperatorError(
            f"operator {operator.name!r} is neither MM-like nor streaming"
        )
    regime = classify_buffer(operator, buffer_elems)
    smallest_tensor = operator.smallest_tensor.name
    smallest_dim = operator.smallest_dim
    candidates: List[NRACandidate] = []

    def add(candidate: Optional[NRACandidate]) -> None:
        if candidate is not None:
            candidates.append(candidate)

    def add_two_nra_for(dim: str) -> None:
        for maximized in operator.dim_names:
            if maximized != dim:
                add(two_nra(operator, dim, maximized, buffer_elems))

    if regime.regime is BufferRegime.TINY:
        add(single_nra(operator, smallest_tensor, buffer_elems))
    elif regime.regime is BufferRegime.SMALL:
        add(single_nra(operator, smallest_tensor, buffer_elems))
        add_two_nra_for(smallest_dim)
    elif regime.regime is BufferRegime.MEDIUM:
        add_two_nra_for(smallest_dim)
        if not candidates:
            add(single_nra(operator, smallest_tensor, buffer_elems))
    else:
        add(three_nra(operator, smallest_tensor, buffer_elems))
        if not candidates:
            add_two_nra_for(smallest_dim)

    if not candidates:
        # Fall back to the full candidate set near infeasibility boundaries.
        candidates = all_candidates(operator, buffer_elems)
    best, report = _pick_best(operator, candidates, buffer_elems, convention)
    return IntraResult(
        operator=operator,
        dataflow=best.dataflow,
        report=report,
        regime=regime,
        label=best.label,
    )
