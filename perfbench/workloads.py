"""Seeded request streams for the benchmark's three workloads.

Everything here is a pure function of the workload seed: the same seed
yields byte-identical request payloads, call order and arrival times.
The inputs are pinned in this file (Table II layer dims, a power-of-two
grid, buffer ranges) rather than read from the program under test, so a
change to ``src/`` can never silently change what the benchmark sends.

Workloads
---------
``sweep-cold``   unique intra/sweep_point/fusion requests (~60/25/15)
                 through an in-process process-pool ``BatchEngine``.
``served-hot``   2 closed-loop connections drawing Zipf from a warmed
                 64-key pool against ``repro serve --shards 2``.
``served-mixed`` Poisson arrivals at ``MIXED_RATE`` calls/s on 2
                 connections against ``repro serve --shards 2 --journal``:
                 ~56% repeats, ~44% fresh keys of all six kinds, 10% of
                 calls small NDJSON batches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

Payload = Dict[str, object]

#: Table II models: (name, heads, seq_len, hidden).
TABLE_II: Tuple[Tuple[str, int, int, int], ...] = (
    ("Bert", 12, 1024, 768),
    ("GPT-2", 12, 2048, 768),
    ("Blenderbot", 16, 256, 1024),
    ("XLM", 16, 1024, 2048),
    ("DeBERTa-v2", 24, 1024, 1536),
    ("LLaMA2", 32, 4096, 4096),
    ("ALBERT", 64, 1024, 4096),
)
MODELS: Tuple[str, ...] = tuple(row[0] for row in TABLE_II)
SCENARIOS: Tuple[str, ...] = ("attention", "decode", "moe", "training-backward")
GRID: Tuple[int, ...] = tuple(1 << e for e in range(4, 13))  # 16 .. 4096
#: Buffers span the tiny..large regimes of every shape above.
BUFFER_RANGE = (4096, 1 << 20)
#: The small pinned scenario graphs overflow nothing past 64K elements.
PLAN_BUFFER_RANGE = (2048, 1 << 16)

#: sweep-cold: requests per ``run_batch`` call, and the per-deck kind mix.
SWEEP_BATCH = 20
SWEEP_DECK = {"intra": 12, "sweep_point": 5, "fusion": 3}

#: served-hot: warmed pool size, its kind mix, and the Zipf exponent.
HOT_POOL = 64
HOT_DECK = {"intra": 38, "sweep_point": 16, "fusion": 10}
ZIPF_S = 1.1

#: served-mixed: offered load in calls/s.  The seed commit on a 2-core box
#: keeps up with ~24 calls/s and falls behind at 32.  Half of that puts the
#: call median on a cliff between ~2.5 ms idle-connection hits and ~44 ms
#: back-to-back hits, and seeds land on either side (at 6 calls/s too), so
#: the rate sits at a sixth of capacity where the median is steady.
MIXED_RATE = 4.0
MIXED_POOL = 32
#: A deck of 20 calls holds 17 repeat singles, one fresh heavy single and
#: 2 NDJSON batches of 1 repeat + 7 fresh small-shape intra/sweep_point
#: keys: requests are ~56% repeats while 85% of calls are cache hits, so
#: head-of-line stalls land in the tail instead of at the median.
MIXED_REPEAT_SINGLES = 17
MIXED_BATCH_CALLS = 2
MIXED_BATCH = 8
MIXED_BATCH_REPEATS = 1
MIXED_BATCH_KINDS = ("intra", "sweep_point")
#: The heavy single of deck ``i`` is ``MIXED_HEAVY[i % 5]``, with these
#: params pinned (0.1-0.6 s each on the seed commit), so every seed offers
#: the same heavy work.  The planner, baseline and platform kinds come
#: first so that the half windows of a traced run reach them.
MIXED_HEAVY: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("dag_plan", {"scenario": "moe", "baseline": True}),
    ("platform_compare", {"model": "LLaMA2"}),
    ("graph_plan", {"model": "Blenderbot"}),
    ("dag_plan", {"scenario": "attention", "baseline": False}),
    ("fusion", {}),
)
#: Arrival times and the order of calls within each deck come from this
#: fixed seed; ``--seed`` draws every key.  Variation between seeds is
#: then the keys' cost and routing, not where a stall happens to fall.
MIXED_TIMELINE_SEED = 0
#: Batch keys use small shapes so one batch holds a shard for ~0.1 s.
SMALL_GRID: Tuple[int, ...] = (16, 32, 64, 128, 256)

CONNECTIONS = 2


@dataclass(frozen=True)
class WorkloadSpec:
    """Fixed per-workload measurement settings."""

    name: str
    #: Percentile reported as ``latency_tail_ms``: the highest of p99, p95
    #: and p90 with at least 10 samples beyond it in a 25 s window on a box
    #: 20% slower than the 2-core reference.
    tail_pct: float
    #: Latency limit (ms) behind ``slo_ok_ratio``.
    slo_ms: float


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec("sweep-cold", tail_pct=95.0, slo_ms=1000.0),
        WorkloadSpec("served-hot", tail_pct=95.0, slo_ms=100.0),
        WorkloadSpec("served-mixed", tail_pct=90.0, slo_ms=1000.0),
    )
}


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{stream}")


def _buffer(rng: random.Random, low: int, high: int) -> int:
    """Log-uniform integer buffer size in ``[low, high]``."""
    return int(round(low * (high / low) ** rng.random()))


def _layer_shapes() -> List[Tuple[int, int, int]]:
    shapes = []
    for _, heads, seq, hidden in TABLE_II:
        head, ffn = hidden // heads, 4 * hidden
        shapes += [
            (seq, hidden, hidden),
            (seq, head, seq),
            (seq, seq, head),
            (seq, hidden, ffn),
            (seq, ffn, hidden),
        ]
    return shapes


def _layer_chains() -> List[Tuple[int, int, int, int]]:
    chains = []
    for _, heads, seq, hidden in TABLE_II:
        head = hidden // heads
        chains += [(seq, head, seq, head), (seq, hidden, 4 * hidden, hidden)]
    return chains


LAYER_SHAPES = _layer_shapes()
LAYER_CHAINS = _layer_chains()


def _shape(rng: random.Random) -> Tuple[int, int, int]:
    if rng.random() < 0.5:
        return rng.choice(LAYER_SHAPES)
    return (rng.choice(GRID), rng.choice(GRID), rng.choice(GRID))


def _chain(rng: random.Random) -> Tuple[int, int, int, int]:
    if rng.random() < 0.5:
        return rng.choice(LAYER_CHAINS)
    return tuple(rng.choice(GRID) for _ in range(4))  # type: ignore[return-value]


def make_request(kind: str, rng: random.Random, small: bool = False) -> Payload:
    """One random request of ``kind`` (flat payload form)."""
    if kind in ("intra", "sweep_point"):
        if small:
            m, k, l = (rng.choice(SMALL_GRID) for _ in range(3))
        else:
            m, k, l = _shape(rng)
        return {"kind": kind, "m": m, "k": k, "l": l,
                "buffer_elems": _buffer(rng, *BUFFER_RANGE)}
    if kind == "fusion":
        m, k, l, n = _chain(rng)
        return {"kind": kind, "m": m, "k": k, "l": l, "n": n,
                "buffer_elems": _buffer(rng, *BUFFER_RANGE)}
    if kind == "dag_plan":
        return {"kind": kind, "scenario": rng.choice(SCENARIOS),
                "buffer_elems": _buffer(rng, *PLAN_BUFFER_RANGE)}
    if kind in ("graph_plan", "platform_compare"):
        return {"kind": kind, "model": rng.choice(MODELS),
                "buffer_elems": _buffer(rng, *BUFFER_RANGE)}
    raise ValueError(f"unknown kind {kind!r}")


def payload_id(payload: Payload) -> Tuple:
    """Identity of a flat payload; equal ids mean equal content keys."""
    return tuple(sorted(payload.items()))


class _UniqueSource:
    """Draws requests whose content keys never repeat within one stream."""

    def __init__(self, rng: random.Random, seen: set):
        self.rng = rng
        self.seen = seen

    def draw(self, kind: str, small: bool = False, **fixed: object) -> Payload:
        while True:
            payload = make_request(kind, self.rng, small=small)
            payload.update(fixed)
            ident = payload_id(payload)
            if ident not in self.seen:
                self.seen.add(ident)
                return payload


def _deck(counts: Dict[str, int], rng: random.Random) -> List[str]:
    deck = [kind for kind, count in sorted(counts.items()) for _ in range(count)]
    rng.shuffle(deck)
    return deck


def sweep_stream(seed: int) -> Iterator[Payload]:
    """Endless stream of unique sweep-cold requests."""
    rng = _rng(seed, "sweep")
    source = _UniqueSource(rng, set())
    while True:
        for kind in _deck(SWEEP_DECK, rng):
            yield source.draw(kind)


def hot_pool(seed: int) -> List[Payload]:
    """The 64 distinct served-hot keys, hottest first."""
    rng = _rng(seed, "hot-pool")
    source = _UniqueSource(rng, set())
    return [source.draw(kind) for kind in _deck(HOT_DECK, rng)]


def zipf_indices(seed: int, stream: str, size: int, count: int) -> List[int]:
    """``count`` Zipf(``ZIPF_S``) draws over ranks ``0..size-1``."""
    rng = _rng(seed, stream)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(size)]
    return rng.choices(range(size), weights=weights, k=count)


def hot_sequence(seed: int, connection: int, count: int) -> List[int]:
    """Pool indices one served-hot connection sends, in order."""
    return zipf_indices(seed, f"hot-seq-{connection}", HOT_POOL, count)


@dataclass(frozen=True)
class MixedCall:
    """One served-mixed call: due time (s from start) and its payloads."""

    due: float
    payloads: Tuple[Payload, ...]
    batch: bool


def mixed_repeat_pool(seed: int) -> List[Payload]:
    rng = _rng(seed, "mixed-pool")
    source = _UniqueSource(rng, set())
    deck = {"intra": 18, "sweep_point": 9, "fusion": 5}
    assert sum(deck.values()) == MIXED_POOL
    return [source.draw(kind) for kind in _deck(deck, rng)]


def mixed_calls(seed: int, seconds: float) -> List[MixedCall]:
    """The served-mixed schedule for a ``seconds``-long window.

    The call count is fixed at ``MIXED_RATE * seconds``; given that count
    the arrival times of a Poisson process are sorted uniform draws, so
    the offered rate is exact.
    """

    arrivals = _rng(MIXED_TIMELINE_SEED, "mixed-arrivals")
    order = _rng(MIXED_TIMELINE_SEED, "mixed-order")
    rng = _rng(seed, "mixed")
    pool = mixed_repeat_pool(seed)
    source = _UniqueSource(rng, {payload_id(p) for p in pool})
    cursor = iter(zipf_indices(seed, "mixed-repeats", len(pool), 1 << 16))

    def repeat() -> Payload:
        return pool[next(cursor)]

    count = max(1, int(round(MIXED_RATE * seconds)))
    dues = sorted(arrivals.uniform(0.0, seconds) for _ in range(count))
    calls: List[MixedCall] = []
    plan: List[str] = []
    decks = -1
    while len(calls) < count:
        if not plan:
            decks += 1
            heavy_kind, heavy_params = MIXED_HEAVY[decks % len(MIXED_HEAVY)]
            plan = _deck(
                {"heavy": 1, "repeat": MIXED_REPEAT_SINGLES, "batch": MIXED_BATCH_CALLS},
                order,
            )
        slot = plan.pop()
        due = dues[len(calls)]
        if slot == "batch":
            payloads = [repeat() for _ in range(MIXED_BATCH_REPEATS)] + [
                source.draw(MIXED_BATCH_KINDS[i % len(MIXED_BATCH_KINDS)], small=True)
                for i in range(MIXED_BATCH - MIXED_BATCH_REPEATS)
            ]
            calls.append(MixedCall(due, tuple(payloads), batch=True))
        elif slot == "repeat":
            calls.append(MixedCall(due, (repeat(),), batch=False))
        else:
            calls.append(
                MixedCall(due, (source.draw(heavy_kind, **heavy_params),), batch=False)
            )
    return calls
