"""Machine-checkable certificates for dataflow optimization results.

A :class:`Certificate` is the structured outcome of independently
re-deriving everything a result claims: that its dataflow fits the buffer
(feasibility), that its memory-access count is what the loop nest actually
incurs (cost audit + bounded simulation), that the count respects the
infinite-buffer ideal and the regime classification (bound/consistency
checks), and -- in paranoid mode -- that a budgeted branch-and-bound probe
cannot beat it (optimality probe).

When the probe *does* beat the analytical answer, or the analytical answer
fails its own audit, the certification layer falls back to the
branch-and-bound dataflow and records the event as a
:class:`DiscrepancyReport`; the certificate then describes the *healed*
result.  Everything here is plain, JSON-able, deterministic data so
certificates can ride inside batch result records across process pools and
journals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple


class CertificationError(ValueError):
    """An independently-audited result failed one of its checks.

    Deterministic for a given (workload, buffer, convention) triple, so the
    service layer classifies it permanent: retrying cannot change what the
    auditor recounts.  Carries the failing :class:`Certificate` when one
    was assembled.
    """

    def __init__(self, message: str, certificate: Optional["Certificate"] = None):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class CheckResult:
    """One independent check inside a certificate."""

    #: ``feasibility`` | ``cost_audit`` | ``simulation`` | ``bound`` |
    #: ``regime`` | ``fusability`` | ``nra_consistency`` | ``registers`` |
    #: ``optimality_probe``
    name: str
    passed: bool
    #: What the result claimed (count, regime name, ...); None when the
    #: check has no claimed side (e.g. a skipped simulation).
    claimed: Optional[Any] = None
    #: What the independent recomputation produced.
    recomputed: Optional[Any] = None
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name, "passed": self.passed}
        if self.claimed is not None:
            out["claimed"] = self.claimed
        if self.recomputed is not None:
            out["recomputed"] = self.recomputed
        if self.detail:
            out["detail"] = self.detail
        return out

    def describe(self) -> str:
        status = "ok" if self.passed else "FAIL"
        parts = [f"{self.name}: {status}"]
        if self.claimed is not None or self.recomputed is not None:
            parts.append(f"claimed={self.claimed} recomputed={self.recomputed}")
        if self.detail:
            parts.append(self.detail)
        return "  ".join(parts)


@dataclass(frozen=True)
class DiscrepancyReport:
    """A certified difference between the analytical answer and the probe.

    Recorded whenever the branch-and-bound fallback replaced an analytical
    result -- either because the probe found a strictly cheaper dataflow or
    because the analytical result failed its audit and could not be
    trusted.  ``improvement`` is ``claimed - certified`` (negative when a
    corrupted claim understated the true cost).
    """

    kind: str  # "intra" | "fused"
    subject: str  # operator or chain name
    claimed_memory_access: int
    certified_memory_access: int
    dataflow: str  # description of the certified-better dataflow
    evaluations: int  # branch-and-bound nodes spent by the probe
    reason: str  # "probe_beat_analytical" | "failed_audit"
    healed: bool = True

    @property
    def improvement(self) -> int:
        return self.claimed_memory_access - self.certified_memory_access

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "claimed_memory_access": self.claimed_memory_access,
            "certified_memory_access": self.certified_memory_access,
            "improvement": self.improvement,
            "dataflow": self.dataflow,
            "evaluations": self.evaluations,
            "reason": self.reason,
            "healed": self.healed,
        }

    def describe(self) -> str:
        return (
            f"discrepancy[{self.kind}:{self.subject}]: claimed MA "
            f"{self.claimed_memory_access} vs certified "
            f"{self.certified_memory_access} ({self.reason}); "
            f"healed={self.healed} via {self.dataflow}"
        )


@dataclass(frozen=True)
class Certificate:
    """The full audit trail for one optimization result."""

    kind: str  # "intra" | "fused"
    subject: str  # operator or chain name
    buffer_elems: int
    checks: Tuple[CheckResult, ...]
    discrepancy: Optional[DiscrepancyReport] = None
    #: True when the certified result is the branch-and-bound fallback
    #: rather than the analytical answer.
    healed: bool = False

    @property
    def ok(self) -> bool:
        """All checks hold for the (possibly healed) certified result."""
        return all(check.passed for check in self.checks)

    def failures(self) -> Tuple[CheckResult, ...]:
        return tuple(check for check in self.checks if not check.passed)

    def failure_summaries(self) -> Tuple[str, ...]:
        return tuple(check.describe() for check in self.failures())

    def check(self, name: str) -> Optional[CheckResult]:
        for candidate in self.checks:
            if candidate.name == name:
                return candidate
        return None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "buffer_elems": self.buffer_elems,
            "ok": self.ok,
            "healed": self.healed,
            "checks": [check.as_dict() for check in self.checks],
            "discrepancy": (
                None if self.discrepancy is None else self.discrepancy.as_dict()
            ),
        }

    def describe(self) -> str:
        status = "OK" if self.ok else "FAILED"
        lines = [
            f"certificate[{self.kind}:{self.subject}] @ "
            f"{self.buffer_elems} elems: {status}"
            + (" (healed by branch-and-bound fallback)" if self.healed else "")
        ]
        for check in self.checks:
            lines.append("  " + check.describe())
        if self.discrepancy is not None:
            lines.append("  " + self.discrepancy.describe())
        return "\n".join(lines)
