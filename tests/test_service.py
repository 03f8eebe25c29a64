"""Tests for the batch analysis engine (``repro.service``)."""

import json

import pytest

from repro.core import optimize_intra
from repro.core import cached_optimize_intra
from repro.core.memo import clear_memo, operator_signature
from repro.ir import matmul
from repro.service import (
    BatchEngine,
    EngineConfig,
    LRUCache,
    RequestError,
    fusion_request,
    intra_cache_stats,
    intra_request,
    parse_request,
    request_key,
    sweep_point_request,
)


# ----------------------------------------------------------------------
# Canonicalization / content-addressed keys
# ----------------------------------------------------------------------
class TestCanonicalization:
    def test_equal_requests_equal_keys(self):
        a = intra_request(64, 32, 48, 4096)
        b = intra_request(64, 32, 48, 4096)
        assert a == b
        assert request_key(a) == request_key(b)

    def test_dict_order_insensitive(self):
        a = parse_request(
            {"kind": "intra", "m": 64, "k": 32, "l": 48, "buffer_elems": 4096}
        )
        b = parse_request(
            {"buffer_elems": 4096, "l": 48, "k": 32, "m": 64, "kind": "intra"}
        )
        assert request_key(a) == request_key(b)

    def test_nested_params_form_equivalent(self):
        flat = parse_request(
            {"kind": "intra", "m": 64, "k": 32, "l": 48, "buffer_elems": 4096}
        )
        nested = parse_request(
            {
                "kind": "intra",
                "params": {"m": 64, "k": 32, "l": 48, "buffer_elems": 4096},
            }
        )
        assert request_key(flat) == request_key(nested)

    def test_defaults_applied(self):
        implicit = parse_request(
            {"kind": "fusion", "m": 8, "k": 8, "l": 8, "n": 8, "buffer_elems": 64}
        )
        explicit = fusion_request(8, 8, 8, 8, 64, include_cross=False)
        assert request_key(implicit) == request_key(explicit)

    def test_different_params_different_keys(self):
        assert request_key(intra_request(64, 32, 48, 4096)) != request_key(
            intra_request(64, 32, 48, 8192)
        )

    def test_different_kinds_different_keys(self):
        intra = intra_request(64, 32, 48, 4096)
        sweep = sweep_point_request(64, 32, 48, 4096)
        # The shared params coincide (intra additionally carries the
        # certification knobs); only the kind separates the keys.
        shared = {
            k: v
            for k, v in intra.param_dict.items()
            if k not in ("certify", "paranoid")
        }
        assert shared == sweep.param_dict
        assert request_key(intra) != request_key(sweep)

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "bogus"},
            {"kind": "intra", "m": 64, "k": 32},  # missing l, buffer
            {"kind": "intra", "m": "64", "k": 32, "l": 48, "buffer_elems": 1},
            {"kind": "intra", "m": 64, "k": 32, "l": 48, "buffer_elems": 1,
             "extra": 1},
            {"kind": "fusion", "m": 8, "k": 8, "l": 8, "n": 8,
             "buffer_elems": 64, "include_cross": "yes"},
            "not a mapping",
            {"kind": "graph_plan", "model": "Bert", "buffer_elems": 4096,
             "max_group": 0},
        ],
    )
    def test_malformed_requests_raise(self, payload):
        with pytest.raises(RequestError):
            parse_request(payload)


# ----------------------------------------------------------------------
# LRU cache
# ----------------------------------------------------------------------
class TestLRUCache:
    def test_eviction_order_is_lru(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_put_refreshes_recency(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh via put
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.peek("a") == 10

    def test_stats_counters(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert cache.get("b") == 2
        assert cache.get("a") is None
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 1)
        assert stats.size == 2
        assert stats.hit_rate == pytest.approx(0.5)

    def test_persistence_round_trip(self):
        cache = LRUCache(maxsize=4)
        for key, value in [("a", 1), ("b", 2), ("c", 3)]:
            cache.put(key, value)
        cache.get("a")  # make "a" most recent
        clone = LRUCache(maxsize=4)
        clone.load(cache.items())
        assert clone.keys() == cache.keys() == ["b", "c", "a"]

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)


# ----------------------------------------------------------------------
# Batch engine
# ----------------------------------------------------------------------
def _mixed_requests():
    """A small mixed batch with duplicates (structured + raw payload forms)."""
    requests = []
    for m, k, l in [(64, 32, 48), (96, 64, 80), (32, 32, 32)]:
        for buffer_elems in (1024, 4096):
            requests.append(intra_request(m, k, l, buffer_elems))
            requests.append(sweep_point_request(m, k, l, buffer_elems))
    requests.append(fusion_request(64, 32, 48, 40, 8192))
    # Duplicates, one via a scrambled raw payload.
    requests.append(intra_request(64, 32, 48, 1024))
    requests.append(
        {"buffer_elems": 4096, "l": 80, "k": 64, "m": 96, "kind": "intra"}
    )
    return requests


class TestBatchEngine:
    def test_parallel_matches_serial(self):
        requests = _mixed_requests()
        serial = BatchEngine(EngineConfig(jobs=1)).run_batch(requests)
        threaded = BatchEngine(EngineConfig(jobs=3)).run_batch(requests)
        assert serial.to_jsonl() == threaded.to_jsonl()

    def test_results_preserve_input_order(self):
        requests = _mixed_requests()
        report = BatchEngine().run_batch(requests)
        assert [entry.index for entry in report.entries] == list(
            range(len(requests))
        )
        records = report.result_records()
        assert [record["index"] for record in records] == list(
            range(len(requests))
        )

    def test_matches_direct_evaluation(self):
        report = BatchEngine().run_batch([intra_request(96, 64, 80, 4096)])
        result = report.entries[0].record["result"]
        direct = optimize_intra(matmul("mm", 96, 64, 80), 4096)
        assert result["memory_access"] == direct.memory_access
        assert result["label"] == direct.label

    def test_duplicates_deduplicated(self):
        requests = [intra_request(64, 32, 48, 4096)] * 4
        report = BatchEngine().run_batch(requests)
        assert report.computed == 1
        assert report.deduplicated == 3
        payloads = {json.dumps(r.get("result"), sort_keys=True)
                    for r in report.result_records()}
        assert len(payloads) == 1

    def test_error_isolation(self):
        requests = [
            intra_request(64, 32, 48, 4096),
            {"kind": "graph_plan", "model": "NotAModel", "buffer_elems": 1024},
            {"kind": "bogus"},
            "not json at all",
            sweep_point_request(64, 32, 48, 4096),
        ]
        report = BatchEngine(EngineConfig(jobs=2)).run_batch(requests)
        oks = [entry.ok for entry in report.entries]
        assert oks == [True, False, False, False, True]
        records = report.result_records()
        assert records[1]["error"]["type"] == "KeyError"
        assert records[2]["error"]["type"] == "RequestError"
        assert report.errors == 3

    def test_infeasible_buffer_is_structured_error(self):
        report = BatchEngine().run_batch([intra_request(64, 32, 48, 1)])
        entry = report.entries[0]
        assert not entry.ok
        assert entry.record["error"]["type"] == "InfeasibleError"

    def test_warm_cache_hit_rate(self):
        engine = BatchEngine()
        requests = _mixed_requests()
        cold = engine.run_batch(requests)
        # Only the two in-batch duplicates hit on a cold run.
        assert cold.cache.hits == cold.deduplicated == 2
        warm = engine.run_batch(requests)
        assert warm.computed == 0
        assert warm.cache.hit_rate > 0.9
        assert warm.to_jsonl() == cold.to_jsonl()

    def test_cache_eviction_under_pressure(self):
        engine = BatchEngine(EngineConfig(cache_size=2))
        report = engine.run_batch(
            [intra_request(64, 32, 48, b) for b in (1024, 2048, 4096)]
        )
        assert report.cache.evictions == 1
        assert report.cache.size == 2

    def test_cache_persistence(self, tmp_path):
        path = str(tmp_path / "cache.json")
        engine = BatchEngine()
        requests = _mixed_requests()
        cold = engine.run_batch(requests)
        saved = engine.save_cache(path)
        assert saved == len(engine.cache)
        fresh = BatchEngine()
        assert fresh.load_cache(path) == saved
        warm = fresh.run_batch(requests)
        assert warm.computed == 0
        assert warm.cache.hit_rate > 0.9
        assert warm.to_jsonl() == cold.to_jsonl()

    def test_process_pool_matches_serial(self):
        requests = [
            intra_request(64, 32, 48, 4096),
            sweep_point_request(96, 64, 80, 1024),
            intra_request(32, 32, 32, 2048),
        ]
        serial = BatchEngine().run_batch(requests)
        forked = BatchEngine(
            EngineConfig(jobs=2, executor="process")
        ).run_batch(requests)
        assert serial.to_jsonl() == forked.to_jsonl()

    def test_report_summary(self):
        report = BatchEngine().run_batch(_mixed_requests())
        summary = report.summary_dict()
        assert summary["requests"] == len(_mixed_requests())
        assert summary["errors"] == 0
        assert summary["wall_seconds"] >= 0
        text = report.render_text()
        assert "cache" in text and "pool" in text
        json.loads(report.to_json())  # valid JSON

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(jobs=0)
        with pytest.raises(ValueError):
            EngineConfig(cache_size=0)
        with pytest.raises(ValueError):
            EngineConfig(executor="rocket")


# ----------------------------------------------------------------------
# Shared intra-operator cache
# ----------------------------------------------------------------------
class TestIntraCache:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        clear_memo()
        yield
        clear_memo()

    def test_matches_uncached(self):
        op = matmul("mm", 96, 64, 80)
        cached = cached_optimize_intra(op, 4096)
        direct = optimize_intra(op, 4096)
        assert cached.memory_access == direct.memory_access
        assert cached.dataflow == direct.dataflow

    def test_repeat_hits(self):
        op = matmul("mm", 96, 64, 80)
        cached_optimize_intra(op, 4096)
        cached_optimize_intra(op, 4096)
        stats = intra_cache_stats()
        assert stats.hits == 1
        assert stats.misses == 1

    def test_structural_sharing_rewrites_names(self):
        first = matmul("proj_q", 96, 64, 80)
        second = matmul("proj_k", 96, 64, 80)
        cached_optimize_intra(first, 4096)
        result = cached_optimize_intra(second, 4096)
        assert intra_cache_stats().hits == 1
        assert result.operator.name == "proj_k"
        assert all(
            name.startswith("proj_k.") for name in result.report.per_tensor
        )
        assert (
            result.memory_access
            == optimize_intra(second, 4096).memory_access
        )

    def test_signature_separates_shapes(self):
        assert operator_signature(matmul("a", 96, 64, 80)) == operator_signature(
            matmul("b", 96, 64, 80)
        )
        assert operator_signature(matmul("a", 96, 64, 80)) != operator_signature(
            matmul("a", 96, 64, 81)
        )

    def test_infeasible_not_cached(self):
        op = matmul("mm", 64, 32, 48)
        from repro.core import InfeasibleError

        with pytest.raises(InfeasibleError):
            cached_optimize_intra(op, 1)
        assert intra_cache_stats().size == 0
