"""Process-wide memoization of the analysis layers: the mechanism only.

Principles 1-4 make every analysis answer a pure function of operator
structure and buffer size, so sweeps, DSE baselines and the graph/DAG
planners keep asking the same questions.  This module is the one place
those answers are remembered: three bounded LRU tables of one type
(:class:`LRUCache`), keyed from one structural signature
(:func:`operator_signature`), filled through :func:`memoized` and counted
through one stats surface (:func:`memo_stats` / :func:`clear_memo`).

The optimizers own their lookups and import this module, never the other
way round:

* ``nra`` -- closed-form candidates (:func:`repro.core.nra.single_nra`
  etc.); its keys keep tensor names, reductions and flops, because a
  candidate's label names its stationary tensor;
* ``intra`` -- :func:`repro.core.intra.cached_optimize_intra`, keyed by
  structure alone: a hit for a renamed twin re-scores the cached dataflow
  against the caller's operator;
* ``fused`` -- :func:`repro.core.fusion.cached_optimize_fused`, which
  keeps op names, because a fused result embeds its chain.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterable, List, Tuple

from ..ir.operator import TensorOperator


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time cache counters.

    ``hits``/``misses`` count lookups (a duplicated request in one batch
    counts once per occurrence); ``evictions`` counts entries dropped by the
    LRU bound.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def currsize(self) -> int:
        """``functools.lru_cache``-style alias of :attr:`size`."""
        return self.size

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": round(self.hit_rate, 4),
        }


class LRUCache:
    """A bounded least-recently-used mapping with stats counters.

    ``get`` refreshes recency and counts a hit or miss; ``put`` inserts or
    refreshes and evicts the least-recently-used entry past ``maxsize``.
    The cache is thread-safe (the batch engine's thread pool shares one
    instance) and persistence-friendly: :meth:`items` / :meth:`load`
    round-trip the entries in LRU order.
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize <= 0:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing recency and counting hit/miss."""
        with self._lock:
            if key in self._entries:
                self._hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self._misses += 1
            return default

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Look up without touching recency or counters (for tests/tools)."""
        with self._lock:
            return self._entries.get(key, default)

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def keys(self) -> List[Hashable]:
        """Keys in LRU order (least recent first)."""
        with self._lock:
            return list(self._entries.keys())

    def items(self) -> List[Tuple[Hashable, Any]]:
        """Entries in LRU order, for persistence."""
        with self._lock:
            return list(self._entries.items())

    def load(self, pairs: Iterable[Tuple[Hashable, Any]]) -> int:
        """Warm the cache from ``(key, value)`` pairs; returns count loaded."""
        loaded = 0
        with self._lock:
            for key, value in pairs:
                self.put(key, value)
                loaded += 1
        return loaded

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                maxsize=self.maxsize,
            )


#: Table bounds (entries, not bytes).
NRA_CACHE_SIZE = 16384
INTRA_CACHE_SIZE = 8192
FUSED_CACHE_SIZE = 4096

_TABLES: Dict[str, LRUCache] = {
    "nra": LRUCache(NRA_CACHE_SIZE),
    "intra": LRUCache(INTRA_CACHE_SIZE),
    "fused": LRUCache(FUSED_CACHE_SIZE),
}
_MISSING = object()


def operator_signature(operator: TensorOperator, names: bool = False) -> Tuple:
    """A structural identity for an operator.

    Two operators with equal name-free signatures have identical
    optimization problems: same loop extents (in canonical order), same
    tensor indexing patterns, same dtypes, same repetition count.
    ``names=True`` also keys the tensor names.
    """

    tensors = operator.tensors
    signature = (
        tuple(operator.dims.items()),
        tuple(tuple(operator.indexing[tensor.name]) for tensor in tensors),
        tuple(tensor.dtype_bytes for tensor in tensors),
        operator.count,
    )
    if names:
        signature += (tuple(tensor.name for tensor in tensors),)
    return signature


def memoized(table: str, key: Hashable, compute: Callable[[], Any]) -> Any:
    """The entry of ``table`` under ``key``, computed and stored on a miss.

    ``None`` answers are stored like any other; exceptions propagate and
    store nothing.
    """

    cache = _TABLES[table]
    value = cache.get(key, _MISSING)
    if value is _MISSING:
        value = compute()
        cache.put(key, value)
    return value


def nra_key(operator: TensorOperator, *question: Hashable) -> Tuple:
    """Key of one closed-form NRA lookup: named signature + the question."""
    return (
        operator_signature(operator, names=True),
        tuple(sorted(operator.reduction_dims)),
        operator.flops_per_point,
    ) + question


def memo_stats() -> Dict[str, CacheStats]:
    """Counters of every table: ``{"nra", "intra", "fused": CacheStats}``."""
    return {name: cache.stats() for name, cache in _TABLES.items()}


def clear_memo() -> None:
    """Drop every entry and reset every counter (tests, cold benchmarks)."""
    for cache in _TABLES.values():
        cache.clear()
        cache.reset_stats()
