"""Communication lower bounds (the paper's headline analytical product).

The principles yield, for each operator and buffer size, the minimum
memory<->buffer traffic any tiling/scheduling can achieve within the modeled
space; :func:`intra_lower_bound` exposes it directly (a graph's bound is
its plan's total, :func:`repro.plan.plan_dag`).  :func:`closed_form_curve`
additionally provides the paper's piecewise MA(BS) curve used in the
Fig. 9 validation plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..ir.operator import TensorOperator
from ..dataflow.cost import PartialSumConvention
from .intra import optimize_intra
from .regimes import BufferRegime, classify_buffer


def intra_lower_bound(
    operator: TensorOperator,
    buffer_elems: int,
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
) -> int:
    """Minimum memory access for one operator at the given buffer size."""
    return optimize_intra(operator, buffer_elems, convention).memory_access


@dataclass(frozen=True)
class CurvePoint:
    """One (buffer size, lower bound) sample of the MA(BS) curve."""

    buffer_elems: int
    memory_access: int
    regime: BufferRegime


def closed_form_curve(
    operator: TensorOperator,
    buffer_sizes: Sequence[int],
    convention: PartialSumConvention = PartialSumConvention.SINGLE,
) -> Tuple[CurvePoint, ...]:
    """Sample the lower-bound curve over a sweep of buffer sizes."""
    points = []
    for buffer_elems in buffer_sizes:
        result = optimize_intra(operator, buffer_elems, convention)
        points.append(
            CurvePoint(
                buffer_elems=buffer_elems,
                memory_access=result.memory_access,
                regime=classify_buffer(operator, buffer_elems).regime,
            )
        )
    return tuple(points)


def shift_point_band(operator: TensorOperator) -> Tuple[float, float]:
    """The paper's Single->Two-NRA shift band ``[Dmin^2/4, Dmin^2/2]``."""
    d_min = min(operator.dims.values())
    return (d_min * d_min / 4, d_min * d_min / 2)


def three_nra_threshold(operator: TensorOperator) -> int:
    """Buffer size beyond which Three-NRA (ideal MA) becomes reachable."""
    return operator.smallest_tensor.size
