"""Regenerate ``golden.json``: certified result digests for pinned seeds.

Usage (from the repository root)::

    python3 perfbench/golden.py

For each workload and pinned seed, computes the results of a fixed prefix
of the request stream in-process, certifies each one through
``repro.verify`` (the same request with ``certify: true`` must pass every
check and report the same memory access), and writes the digest of the
uncertified result line.  ``graph_plan`` and ``platform_compare`` have no
certifier and get no digest.  Regenerate only when an output change is
intended, and say so in the change that does it.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, Mapping

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from checks import PINNED_SEEDS, golden_payloads  # noqa: E402


def certified_twin(payload: Mapping) -> Dict:
    if payload["kind"] == "sweep_point":
        return {**payload, "kind": "intra", "certify": True}
    return {**payload, "certify": True}


def memory_access(record: Mapping):
    result = record["result"]
    if record["kind"] == "fusion":
        return result["unfused_memory_access"], result["fused_memory_access"]
    if record["kind"] == "dag_plan":
        return result["total_memory_access"]
    return result["memory_access"]


def main() -> int:
    from repro.service import BatchEngine, EngineConfig

    engine = BatchEngine(EngineConfig(jobs=2, executor="process"))
    golden: Dict[str, Dict[str, Dict[str, str]]] = {}
    for workload in sorted(wl.WORKLOADS):
        for seed in PINNED_SEEDS:
            payloads = golden_payloads(workload, seed)
            plain = engine.run_batch(payloads).result_records()
            twins = engine.run_batch([certified_twin(p) for p in payloads]).result_records()
            digests = {}
            for payload, record, twin in zip(payloads, plain, twins):
                certificates = twin["result"].get("certification") if twin["ok"] else None
                if not certificates:
                    raise SystemExit(f"no certificate for {payload}: {twin}")
                if "checks" in certificates:
                    certificates = {"result": certificates}
                if not all(c.get("ok") for c in certificates.values()):
                    raise SystemExit(f"certification failed for {payload}")
                if payload["kind"] != "sweep_point" and memory_access(twin) != memory_access(record):
                    raise SystemExit(f"certified MA differs for {payload}")
                if payload["kind"] == "sweep_point" and (
                    twin["result"]["memory_access"] != record["result"]["memory_access"]
                ):
                    raise SystemExit(f"certified MA differs for {payload}")
                digests[record["key"]] = checks.record_digest(record)
            golden.setdefault(workload, {})[str(seed)] = digests
            print(f"{workload} seed {seed}: {len(digests)} certified digests", flush=True)
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
