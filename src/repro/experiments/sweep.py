"""Buffer-size sweep study: the MA(BS) lower-bound curves.

Complements Fig. 9: rather than sampling fixed buffer sizes, this harness
extracts the *corner points* of each operator's MA(BS) staircase
(:func:`repro.core.inverse.pareto_curve`), annotates the paper's regime
boundaries (``Dmin^2/4``, ``Dmin^2/2``, ``Tensor_min``), and renders the
normalized curves as an ASCII line chart -- the visual form of the paper's
Sec. III-A4 classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..arch.memory import PAPER_BUFFER_SWEEP_BYTES
from ..core.inverse import ParetoPoint, pareto_curve
from ..core.lower_bound import shift_point_band, three_nra_threshold
from ..ir.operator import TensorOperator
from ..service.engine import BatchEngine
from ..service.requests import AnalysisRequest, sweep_point_request
from .ascii_plots import line_chart
from .runner import format_table, run_grid


@dataclass(frozen=True)
class SweepCurve:
    """One operator's lower-bound staircase plus regime annotations."""

    operator: str
    ideal: int
    points: Tuple[ParetoPoint, ...]
    shift_band: Tuple[float, float]
    three_nra_at: int

    def normalized(self) -> List[Tuple[int, float]]:
        return [
            (point.buffer_elems, point.memory_access / self.ideal)
            for point in self.points
        ]


def run_sweep(
    operators: Sequence[TensorOperator],
    max_points: int = 24,
) -> List[SweepCurve]:
    """Extract every operator's MA(BS) corner curve."""
    curves: List[SweepCurve] = []
    for operator in operators:
        points = pareto_curve(operator, max_points=max_points)
        curves.append(
            SweepCurve(
                operator=operator.name,
                ideal=operator.ideal_memory_access(),
                points=tuple(points),
                shift_band=shift_point_band(operator),
                three_nra_at=three_nra_threshold(operator),
            )
        )
    return curves


def render_sweep(curves: Sequence[SweepCurve]) -> str:
    """Table of corners + a log-log-ish ASCII chart per operator."""
    blocks: List[str] = []
    for curve in curves:
        rows = [
            [point.buffer_elems, point.memory_access,
             round(point.memory_access / curve.ideal, 3)]
            for point in curve.points
        ]
        blocks.append(
            format_table(
                ["buffer (elems)", "MA lower bound", "MA / ideal"],
                rows,
                title=(
                    f"{curve.operator}: shift band "
                    f"[{curve.shift_band[0]:.0f}, {curve.shift_band[1]:.0f}], "
                    f"Three-NRA from ~{curve.three_nra_at} elems"
                ),
            )
        )
        xs = [math.log2(point.buffer_elems) for point in curve.points]
        ys = {
            "MA/ideal": [
                point.memory_access / curve.ideal for point in curve.points
            ]
        }
        blocks.append(
            line_chart(
                xs,
                ys,
                title=f"{curve.operator}: normalized MA vs log2(buffer)",
                height=10,
                width=56,
            )
        )
    return "\n\n".join(blocks)


# ----------------------------------------------------------------------
# Fixed-grid sweep through the batch engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepGridPoint:
    """One (operator, buffer size) sample of a fixed-grid sweep."""

    operator: str
    buffer_bytes: int
    memory_access: Optional[int]
    normalized: Optional[float]
    regime: Optional[str]
    error: Optional[str] = None


def sweep_grid_requests(
    operators: Sequence[TensorOperator],
    buffer_sweep_bytes: Sequence[int] = PAPER_BUFFER_SWEEP_BYTES,
) -> List[AnalysisRequest]:
    """The (operator x buffer) grid as batch-engine requests."""
    requests: List[AnalysisRequest] = []
    for operator in operators:
        dims = dict(operator.dims)
        if set(dims) != {"M", "K", "L"}:
            raise ValueError(
                f"sweep grid needs M/K/L matmul operators, got "
                f"{operator.name!r} with dims {sorted(dims)}"
            )
        for buffer_bytes in buffer_sweep_bytes:
            # 1-byte elements: buffer bytes == buffer elements (paper
            # accounting, as in the Fig. 9 harness).
            requests.append(
                sweep_point_request(
                    dims["M"], dims["K"], dims["L"], buffer_bytes
                )
            )
    return requests


def run_sweep_grid(
    operators: Sequence[TensorOperator],
    buffer_sweep_bytes: Sequence[int] = PAPER_BUFFER_SWEEP_BYTES,
    engine: Optional[BatchEngine] = None,
    jobs: int = 1,
    max_attempts: int = 1,
    deadline_seconds: Optional[float] = None,
    journal_path: Optional[str] = None,
    stop_event: Optional[object] = None,
) -> List[SweepGridPoint]:
    """Evaluate the MA(BS) grid through the batch engine.

    Unlike :func:`run_sweep` (which bisects out the exact staircase
    corners), this samples a *fixed* buffer grid -- the shape of workload a
    serving deployment sees -- so repeats hit the engine's result cache and
    independent points fan out across its pool.  Infeasible points come
    back as error records, not exceptions; ``max_attempts`` and
    ``deadline_seconds`` forward to the engine's resilience layer, so a
    hung point times out as a structured error instead of stalling the
    sweep.  ``journal_path`` checkpoints completed points to a
    write-ahead journal, so a killed sweep resumes where it died (see
    :func:`~repro.experiments.runner.run_grid`).
    """

    requests = sweep_grid_requests(operators, buffer_sweep_bytes)
    report = run_grid(
        requests,
        jobs=jobs,
        engine=engine,
        max_attempts=max_attempts,
        deadline_seconds=deadline_seconds,
        journal_path=journal_path,
        stop_event=stop_event,
    )
    points: List[SweepGridPoint] = []
    per_op = len(tuple(buffer_sweep_bytes))
    for position, entry in enumerate(report.entries):
        operator = operators[position // per_op]
        buffer_bytes = tuple(buffer_sweep_bytes)[position % per_op]
        if entry.ok:
            result = entry.record["result"]
            points.append(
                SweepGridPoint(
                    operator=operator.name,
                    buffer_bytes=buffer_bytes,
                    memory_access=result["memory_access"],
                    normalized=result["normalized"],
                    regime=result["regime"],
                )
            )
        else:
            points.append(
                SweepGridPoint(
                    operator=operator.name,
                    buffer_bytes=buffer_bytes,
                    memory_access=None,
                    normalized=None,
                    regime=None,
                    error=entry.record["error"]["message"],
                )
            )
    return points
