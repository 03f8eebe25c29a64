"""Fig. 9: validating principle optimality against searching-based DSE.

The paper sweeps buffer sizes from 32 KB to 32 MB and compares the memory
access of the principle-optimized dataflow (line) against DAT's searched
dataflow (points); the two coincide, with the principles occasionally
winning because DAT's genetic algorithm "does not guarantee global
optimization".

Here the DAT stand-in is :mod:`repro.search` (exhaustive over a
power-of-two grid + a genetic optimizer over raw integer tiles).  For every
(operator, buffer size) sample the harness reports

* ``principle``  -- one-shot principle-based MA (the claimed lower bound),
* ``exhaustive`` -- best grid point,
* ``genetic``    -- best GA individual,

normalized to the operator's infinite-buffer ideal.  The reproduction
claims checked by the benchmark: principle <= exhaustive and
principle <= genetic everywhere (ties expected at most sizes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..ir.operator import TensorOperator
from ..core.regimes import classify_buffer
from ..core.intra import cached_optimize_intra
from ..search.exhaustive import exhaustive_search
from ..search.genetic import GASettings, genetic_search
from ..arch.memory import PAPER_BUFFER_SWEEP_BYTES
from ..workloads.models import BERT
from ..workloads.transformer import representative_matmuls
from .runner import format_table


@dataclass(frozen=True)
class Fig9Point:
    """One (operator, buffer size) sample of the validation sweep."""

    operator: str
    buffer_bytes: int
    regime: str
    ideal: int
    principle: int
    exhaustive: Optional[int]
    genetic: Optional[int]
    #: ``True`` when the point's principle result carried an independent
    #: certificate (``run_fig9(certify=True)``); ``None`` when the sweep
    #: ran without certification.
    certified: Optional[bool] = None

    @property
    def principle_normalized(self) -> float:
        return self.principle / self.ideal

    @property
    def exhaustive_normalized(self) -> Optional[float]:
        return None if self.exhaustive is None else self.exhaustive / self.ideal

    @property
    def genetic_normalized(self) -> Optional[float]:
        return None if self.genetic is None else self.genetic / self.ideal

    @property
    def principle_at_most_search(self) -> bool:
        """The Fig. 9 claim: principles never lose to search."""
        for searched in (self.exhaustive, self.genetic):
            if searched is not None and self.principle > searched:
                return False
        return True


def default_operators() -> Tuple[TensorOperator, ...]:
    """BERT-layer matmul shapes, as in the paper's validation workloads."""
    return representative_matmuls(BERT)


def run_fig9(
    operators: Optional[Sequence[TensorOperator]] = None,
    buffer_sweep_bytes: Sequence[int] = PAPER_BUFFER_SWEEP_BYTES,
    ga_settings: GASettings = GASettings(population=48, generations=40),
    include_genetic: bool = True,
    certify: bool = False,
) -> List[Fig9Point]:
    """Run the Fig. 9 sweep and return one point per (operator, BS).

    With ``certify=True`` every principle point is revalidated by the
    independent :mod:`repro.verify` auditors (feasibility, recounted MA,
    lower bound, regime).  A point that fails its certificate raises
    :class:`~repro.verify.CertificationError` -- a reproduction figure
    built on an uncertified claim is worse than no figure.
    """
    if operators is None:
        operators = default_operators()
    points: List[Fig9Point] = []
    for operator in operators:
        ideal = operator.ideal_memory_access()
        for buffer_bytes in buffer_sweep_bytes:
            buffer_elems = buffer_bytes  # 1-byte elements (paper accounting)
            # Shared analysis memo: repeated (dims, buffer) tuples across
            # operators and harnesses are optimized once per process.
            result = cached_optimize_intra(operator, buffer_elems)
            certified: Optional[bool] = None
            if certify:
                from ..verify import CertificationError, certify_intra

                certificate = certify_intra(
                    operator, buffer_elems, result=result
                ).certificate
                if not certificate.ok:
                    raise CertificationError(
                        f"fig9 point ({operator.name}, {buffer_bytes}B) "
                        "failed certification: "
                        + "; ".join(certificate.failure_summaries()),
                        certificate=certificate,
                    )
                certified = True
            searched = exhaustive_search(operator, buffer_elems)
            genetic = (
                genetic_search(operator, buffer_elems, ga_settings)
                if include_genetic
                else None
            )
            points.append(
                Fig9Point(
                    operator=operator.name,
                    buffer_bytes=buffer_bytes,
                    regime=classify_buffer(operator, buffer_elems).regime.value,
                    ideal=ideal,
                    principle=result.memory_access,
                    exhaustive=None if searched is None else searched.memory_access,
                    genetic=None if genetic is None else genetic.memory_access,
                    certified=certified,
                )
            )
    return points


def render_fig9(points: Sequence[Fig9Point]) -> str:
    """Print the sweep as the paper's normalized-MA series."""
    rows = []
    for point in points:
        rows.append(
            [
                point.operator,
                point.buffer_bytes // 1024,
                point.regime,
                round(point.principle_normalized, 4),
                (
                    "-"
                    if point.exhaustive_normalized is None
                    else round(point.exhaustive_normalized, 4)
                ),
                (
                    "-"
                    if point.genetic_normalized is None
                    else round(point.genetic_normalized, 4)
                ),
                "yes" if point.principle_at_most_search else "NO",
            ]
        )
    return format_table(
        [
            "operator",
            "buffer (KB)",
            "regime",
            "principle/ideal",
            "exhaustive/ideal",
            "genetic/ideal",
            "principle<=search",
        ],
        rows,
        title="Fig. 9: normalized memory access, principles (line) vs search (points)",
    )
