"""The four dataflow-optimization principles (paper Sec. III).

Each principle is exposed both as *documentation* (a :class:`Principle`
record with its tiling and scheduling rules and the concrete recommendation
for a given operator) and as *machinery* (the closed-form constructors in
:mod:`repro.core.nra` and the fusion profitability predicate
:func:`principle4_same_nra`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..ir.operator import TensorOperator
from ..dataflow.cost import PartialSumConvention
from ..dataflow.spec import NRAClass
from .intra import IntraResult, optimize_intra
from .nra import is_mm_like
from .regimes import classify_buffer


@dataclass(frozen=True)
class Principle:
    """One of the paper's four principles, with concrete recommendations."""

    number: int
    title: str
    tiling_rule: str
    scheduling_rule: str
    recommendation: str


def principle1(operator: TensorOperator) -> Principle:
    """Single-NRA: stationary-tensor selection and tiling (paper Principle 1)."""
    stationary = operator.smallest_tensor
    dims = ", ".join(operator.dims_of(stationary.name))
    return Principle(
        number=1,
        title="Single-tensor non-redundant access",
        tiling_rule=(
            "maximize tile size for stationary tensor dimensions, minimize "
            "for non-stationary ones"
        ),
        scheduling_rule="choose the smallest tensor to be stationary",
        recommendation=(
            f"keep {stationary.name} stationary; maximize tiles of ({dims}); "
            "tile the remaining dimension at 1"
        ),
    )


def principle2(operator: TensorOperator) -> Principle:
    """Two-NRA: untiled-dimension selection and tiling (paper Principle 2)."""
    smallest = operator.smallest_dim
    return Principle(
        number=2,
        title="Two-tensor non-redundant access",
        tiling_rule=(
            "maximize the tile size for the dimension not in the redundant "
            "access tensor, minimize for others"
        ),
        scheduling_rule="untile/unroll the smallest dimension",
        recommendation=(
            f"leave dimension {smallest} (extent "
            f"{operator.dims[smallest]}) untiled; maximize the tile of a "
            "dimension outside the redundant tensor"
        ),
    )


def principle3(operator: TensorOperator) -> Principle:
    """Three-NRA: resident-tensor selection (paper Principle 3)."""
    resident = operator.smallest_tensor
    return Principle(
        number=3,
        title="Three-tensor non-redundant access",
        tiling_rule="do not care",
        scheduling_rule="untile/unroll the smallest tensor",
        recommendation=(
            f"keep {resident.name} ({resident.size} elements) entirely "
            "on-chip; every tensor is then accessed exactly once"
        ),
    )


def principle4() -> Principle:
    """Fusion profitability (paper Principle 4)."""
    return Principle(
        number=4,
        title="Profitable operator fusion",
        tiling_rule="share the intermediate tensor's tiling across operators",
        scheduling_rule="only fuse tensor operators with the same NRA dataflow",
        recommendation=(
            "fuse adjacent operators only when their optimal intra-operator "
            "dataflows fall in the same NRA class; cross-NRA fusion trades "
            "dominant redundant accesses for the intermediate's traffic and "
            "loses"
        ),
    )


ALL_PRINCIPLES = (principle1, principle2, principle3)


def optimal_nra_class(
    operator: TensorOperator,
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
) -> Optional[NRAClass]:
    """NRA class of the operator's optimal intra dataflow.

    Streaming operators (elementwise/softmax) return ``None``: they are
    NRA-neutral and fuse freely with either neighbor.
    """

    if not is_mm_like(operator):
        return None
    return optimize_intra(operator, buffer_elems, convention).nra_class


def principle4_same_nra(
    producer: TensorOperator,
    consumer: TensorOperator,
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
) -> bool:
    """Principle 4 prediction: is fusing this pair profitable?

    True when both operators' optimal intra-operator dataflows share the
    same NRA class (streaming operators are neutral and never block fusion).
    """

    return _same_nra(
        optimal_nra_class(producer, buffer_elems, convention),
        optimal_nra_class(consumer, buffer_elems, convention),
    )


def principle4_predicts(optima: Sequence[IntraResult]) -> bool:
    """Principle 4 over a chain, from its operators' optimal intra results.

    True when every adjacent pair passes :func:`principle4_same_nra`; the
    results must be the uncertified optima, as :func:`optimal_nra_class`
    solves them, so a caller that already holds them solves nothing twice.
    """

    classes = [
        result.nra_class if is_mm_like(result.operator) else None
        for result in optima
    ]
    return all(_same_nra(a, b) for a, b in zip(classes, classes[1:]))


def _same_nra(nra_a: Optional[NRAClass], nra_b: Optional[NRAClass]) -> bool:
    # A streaming operator (``None``) is neutral and never blocks fusion.
    return nra_a is None or nra_b is None or nra_a == nra_b


def regime_summary(operator: TensorOperator, buffer_elems: int) -> str:
    """One-line report combining regime classification and Principles 1-3."""
    report = classify_buffer(operator, buffer_elems)
    return (
        f"{operator.name}: BS={buffer_elems} elements -> {report.regime} "
        f"(Dmin={report.d_min}, Tensor_min={report.tensor_min}); candidates: "
        + ", ".join(str(nra) for nra in report.candidates)
    )
