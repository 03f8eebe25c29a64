"""Batch outcome reporting: deterministic results + metered summary.

A :class:`BatchReport` separates the two audiences of a batch run:

* the **result stream** (:meth:`BatchReport.result_records` /
  :meth:`BatchReport.to_jsonl`) is pure data in input order -- no timings,
  no cache flags -- so identical request files produce byte-identical
  output regardless of ``--jobs`` or cache temperature;
* the **summary** (:meth:`BatchReport.render_text` /
  :meth:`BatchReport.summary_dict`) carries the metering: wall time,
  per-request latency, cache hit/miss/eviction counters, dedup and error
  counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.memo import CacheStats
from .metrics import LatencyReservoir


@dataclass(frozen=True)
class BatchEntry:
    """One request's outcome inside a batch."""

    index: int
    key: Optional[str]
    kind: Optional[str]
    ok: bool
    cached: bool
    seconds: float
    record: Dict[str, Any]
    #: Answered from a write-ahead journal left by an interrupted run.
    replayed: bool = False

    def result_record(self) -> Dict[str, Any]:
        """The deterministic output form (input order, data only)."""
        out: Dict[str, Any] = {
            "index": self.index,
            "key": self.key,
            "kind": self.kind,
            "ok": self.ok,
        }
        if self.ok:
            out["result"] = self.record.get("result")
        else:
            out["error"] = self.record.get("error")
        return out


@dataclass(frozen=True)
class BatchReport:
    """Results plus metering for one engine batch."""

    entries: List[BatchEntry]
    cache: CacheStats
    jobs: int
    executor: str
    wall_seconds: float
    computed: int
    deduplicated: int
    counters: Dict[str, int] = field(default_factory=dict)
    #: Per-batch resilience counters (retries, timeouts, breaker trips...).
    resilience: Dict[str, int] = field(default_factory=dict)
    #: Executor degradation events, e.g. {"from": "process", "to":
    #: "thread", "reason": "BrokenProcessPool"} -- empty on a clean run.
    degradations: List[Dict[str, str]] = field(default_factory=list)
    #: Requests answered by replaying a resume journal (0 on fresh runs).
    replayed: int = 0
    #: Journal bookkeeping (path, completions, recovery drops) when the
    #: batch ran with a write-ahead journal; ``None`` otherwise.
    journal: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    @property
    def requests(self) -> int:
        return len(self.entries)

    @property
    def errors(self) -> int:
        return sum(1 for entry in self.entries if not entry.ok)

    @property
    def cached_answers(self) -> int:
        return sum(1 for entry in self.entries if entry.cached)

    def result_records(self) -> List[Dict[str, Any]]:
        return [entry.result_record() for entry in self.entries]

    # ------------------------------------------------------------------
    # Certification surfacing
    # ------------------------------------------------------------------
    @staticmethod
    def _certifications(record: Dict[str, Any]) -> List[Dict[str, Any]]:
        """All certificate dicts embedded in one result record.

        Intra results carry one ``certification`` dict; fusion results
        carry a mapping of them (one per unfused operator plus the fused
        winner).
        """

        result = record.get("result")
        if not isinstance(result, dict):
            return []
        certification = result.get("certification")
        if certification is None:
            return []
        if "checks" in certification:
            return [certification]
        return [
            value
            for value in certification.values()
            if isinstance(value, dict) and "checks" in value
        ]

    @property
    def certified(self) -> int:
        """Entries whose result carries at least one passing certificate."""
        count = 0
        for entry in self.entries:
            if not entry.ok:
                continue
            certifications = self._certifications(entry.record)
            if certifications and all(c.get("ok") for c in certifications):
                count += 1
        return count

    def discrepancies(self) -> List[Dict[str, Any]]:
        """All discrepancy reports recorded by healed certificates."""
        found: List[Dict[str, Any]] = []
        for entry in self.entries:
            if not entry.ok:
                continue
            for certification in self._certifications(entry.record):
                discrepancy = certification.get("discrepancy")
                if discrepancy:
                    found.append(discrepancy)
        return found

    def to_jsonl(self) -> str:
        """One sorted-key JSON object per request, in input order."""
        return "\n".join(
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            for record in self.result_records()
        )

    # ------------------------------------------------------------------
    def latency_summary(self) -> Dict[str, Any]:
        """p50/p95/p99 of computed-request latencies (bounded reservoir).

        Cached and replayed answers are excluded -- their ``seconds`` is
        0.0 bookkeeping, not a measured evaluation -- so the percentiles
        describe what computing a request actually cost.
        """

        reservoir = LatencyReservoir()
        reservoir.extend(
            entry.seconds
            for entry in self.entries
            if not entry.cached and not entry.replayed and entry.key is not None
        )
        return reservoir.summary()

    def summary_dict(self) -> Dict[str, Any]:
        kinds: Dict[str, int] = {}
        for entry in self.entries:
            name = entry.kind or "invalid"
            kinds[name] = kinds.get(name, 0) + 1
        seconds = [entry.seconds for entry in self.entries if not entry.cached]
        return {
            "requests": self.requests,
            "errors": self.errors,
            "certified": self.certified,
            "discrepancies": len(self.discrepancies()),
            "computed": self.computed,
            "cached_answers": self.cached_answers,
            "deduplicated": self.deduplicated,
            "replayed": self.replayed,
            "journal": dict(self.journal) if self.journal else None,
            "jobs": self.jobs,
            "executor": self.executor,
            "wall_seconds": round(self.wall_seconds, 6),
            "max_request_seconds": round(max(seconds), 6) if seconds else 0.0,
            "latency": self.latency_summary(),
            "kinds": dict(sorted(kinds.items())),
            "cache": self.cache.as_dict(),
            "counters": dict(sorted(self.counters.items())),
            "resilience": dict(sorted(self.resilience.items())),
            "degradations": list(self.degradations),
        }

    def to_json(self) -> str:
        return json.dumps(self.summary_dict(), sort_keys=True, indent=2)

    def render_text(self) -> str:
        """Human-readable metering summary."""
        summary = self.summary_dict()
        cache = summary["cache"]
        lines = [
            "batch summary",
            "-------------",
            f"requests      : {summary['requests']}"
            f" ({', '.join(f'{k}={v}' for k, v in summary['kinds'].items())})",
            f"errors        : {summary['errors']}",
            f"computed      : {summary['computed']}"
            f" (deduplicated {summary['deduplicated']},"
            f" cached {summary['cached_answers']})",
            f"pool          : jobs={summary['jobs']}"
            f" executor={summary['executor']}",
            f"wall time     : {summary['wall_seconds']:.3f}s"
            f" (slowest request {summary['max_request_seconds']:.3f}s)",
        ]
        latency = summary["latency"]
        if latency["count"]:
            lines.append(
                f"latency       : p50={latency['p50']:.3f}s"
                f" p95={latency['p95']:.3f}s p99={latency['p99']:.3f}s"
                f" (computed n={latency['count']})"
            )
        lines += [
            f"cache         : hits={cache['hits']} misses={cache['misses']}"
            f" evictions={cache['evictions']}"
            f" size={cache['size']}/{cache['maxsize']}"
            f" hit_rate={cache['hit_rate']:.1%}",
        ]
        if summary["certified"] or summary["discrepancies"]:
            lines.append(
                f"certification : certified={summary['certified']}"
                f" discrepancies={summary['discrepancies']}"
            )
        journal = summary["journal"]
        if journal:
            lines.append(
                f"journal       : replayed={summary['replayed']}"
                f" journaled={journal['appended']}"
                f" checkpointed={journal['completed']}"
                + (
                    f" recovered_drops={journal['recovered_drops']}"
                    if journal.get("recovered_drops")
                    else ""
                )
            )
        resilience = summary["resilience"]
        if any(resilience.values()) or summary["degradations"]:
            lines.append(
                "resilience    : "
                + " ".join(f"{k}={v}" for k, v in resilience.items())
            )
        for event in summary["degradations"]:
            lines.append(
                f"degraded      : {event['from']} -> {event['to']}"
                f" ({event['reason']})"
            )
        return "\n".join(lines)
