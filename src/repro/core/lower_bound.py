"""The principle engine's MA(BS) answers, as the paper plots them.

:func:`intra_lower_bound` returns, for one operator and buffer size, the
memory<->buffer traffic of the principle engine's own optimum
(:func:`repro.core.intra.optimize_intra`: the best of its closed-form
candidates).  That is the engine's optimum over its modelled space, not a
bound independent of the engine: on some cells branch and bound
(:mod:`repro.search.branch_bound`) finds a cheaper dataflow, so a check
against it compares the engine with itself.  A graph's total is its
plan's, :func:`repro.plan.plan_dag`.  :func:`closed_form_curve` samples
the paper's piecewise MA(BS) curve used in the Fig. 9 validation plots.
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
    """The principle engine's optimal memory access for one operator at
    the given buffer size: its own modelled-space optimum, not a bound
    that every tiling and schedule must respect."""
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
