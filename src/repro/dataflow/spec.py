"""Complete intra-operator dataflow specifications.

A :class:`Dataflow` bundles a tiling with a schedule -- the two decisions
that determine memory<->buffer communication (paper Sec. II-A).  The third
dataflow component, spatial *mapping*, lives in
:mod:`repro.dataflow.mapping`; it determines buffer<->PE communication and
utilization and is layered on top of a :class:`Dataflow` by the
architecture models.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from ..ir.loopnest import LoopNest, TiledLoop
from ..ir.operator import TensorOperator
from .scheduling import Schedule
from .tiling import Tiling


class NRAClass(Enum):
    """Non-redundant-access class of a dataflow (paper Sec. III-A).

    The value counts how many operand tensors are accessed exactly once.
    """

    SINGLE = 1
    TWO = 2
    THREE = 3

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name.title()}-NRA"


@dataclass(frozen=True)
class Dataflow:
    """Tiling + schedule for one operator."""

    tiling: Tiling
    schedule: Schedule

    def validate(self, operator: TensorOperator) -> None:
        self.schedule.validate(operator)
        self.tiling.for_operator(operator)

    def loop_nest(self, operator: TensorOperator) -> LoopNest:
        """Materialize the tiled loop nest, outermost first."""
        self.schedule.validate(operator)
        resolved = self.tiling.for_operator(operator)
        return LoopNest(
            tuple(
                TiledLoop(dim=dim, extent=operator.dims[dim], tile=resolved[dim])
                for dim in self.schedule.order
            )
        )

    def untiled_dims(self, operator: TensorOperator) -> Tuple[str, ...]:
        return self.tiling.untiled_dims(operator.dims)

    def stationary_tensor_name(self, operator: TensorOperator) -> Optional[str]:
        tensor = self.schedule.stationary_tensor(operator, self.tiling)
        return tensor.name if tensor is not None else None

    def buffer_footprint(self, operator: TensorOperator) -> int:
        return self.tiling.buffer_footprint(operator)

    def describe(self, operator: TensorOperator) -> str:
        """Human-readable one-line summary used by example scripts."""
        resolved = self.tiling.for_operator(operator)
        tiles = ", ".join(
            f"T_{dim}={resolved[dim]}" for dim in self.schedule.order
        )
        stationary = self.stationary_tensor_name(operator) or "-"
        return (
            f"order=({', '.join(self.schedule.order)}); {tiles}; "
            f"stationary={stationary}"
        )
