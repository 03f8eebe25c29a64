"""Integration tests for the serving daemon: a live server per test.

Each test boots a real :class:`ReproServer` on an ephemeral port and
talks to it with :class:`ReproClient` over actual sockets.  The pivotal
claims -- byte-identity with a direct ``run_batch``, correct 429/503
pushback, deadline mapping, lossless drain -- are all exercised against
the wire, not against mocks.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.server import (
    ProtocolMismatchWarning,
    ReproClient,
    ReproServer,
    ServerConfig,
    ServerError,
)
from repro.service import BatchEngine, EngineConfig, injected_faults, parse_request

REQUESTS = [
    {"kind": "intra", "m": 64, "k": 32, "l": 48, "buffer_elems": 4096},
    {"kind": "fusion", "m": 96, "k": 64, "l": 80, "n": 72,
     "buffer_elems": 16384},
    {"kind": "sweep_point", "m": 32, "k": 32, "l": 32, "buffer_elems": 1024},
    "this line is not json",
    {"kind": "intra", "m": 64, "k": 32, "l": 48, "buffer_elems": 4096},
]


def make_server(**overrides):
    config = ServerConfig(port=0, jobs=2, **overrides)
    return ReproServer(config).start()


def make_client(server, **overrides):
    kwargs = {"max_attempts": 1, "sleep": lambda _s: None}
    kwargs.update(overrides)
    return ReproClient(port=server.port, **kwargs)


def direct_jsonl(payloads, **config_overrides):
    engine = BatchEngine(EngineConfig(jobs=2, **config_overrides))
    return engine.run_batch(
        [p if isinstance(p, str) else parse_request(p) for p in payloads]
    ).to_jsonl()


# ----------------------------------------------------------------------
# Byte-identity with the direct engine
# ----------------------------------------------------------------------
class TestByteIdentity:
    def test_batch_matches_direct_run_including_error_lines(self):
        with make_server() as server, make_client(server) as client:
            lines = client.batch_lines(REQUESTS)
        assert "\n".join(lines) == direct_jsonl(REQUESTS)
        records = [json.loads(line) for line in lines]
        assert [r["index"] for r in records] == list(range(len(REQUESTS)))
        assert records[3]["ok"] is False  # the raw non-JSON line

    def test_single_analyze_matches_batch_record(self):
        with make_server() as server, make_client(server) as client:
            record = client.analyze(REQUESTS[0])
        expected = json.loads(direct_jsonl([REQUESTS[0]]))
        assert record == expected

    def test_stream_batch_rewrites_global_indexes(self):
        with make_server() as server, make_client(server) as client:
            records = list(client.stream_batch(REQUESTS, chunk_size=2))
        direct = [json.loads(line) for line in direct_jsonl(REQUESTS).split("\n")]
        assert records == direct

    def test_concurrent_clients_all_get_identical_bytes(self):
        expected = direct_jsonl(REQUESTS)
        results = [None] * 6
        with make_server(max_concurrency=3) as server:

            def worker(slot):
                with make_client(server, max_attempts=5) as client:
                    results[slot] = "\n".join(client.batch_lines(REQUESTS))

            threads = [
                threading.Thread(target=worker, args=(slot,))
                for slot in range(len(results))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert results == [expected] * len(results)

    def test_cache_persists_across_calls(self):
        with make_server() as server, make_client(server) as client:
            client.batch_lines(REQUESTS)
            client.batch_lines(REQUESTS)
            stats = client.stats()
        # The whole second call (and the in-batch duplicate) hit the LRU.
        assert stats["cache"]["hits"] >= 4
        assert stats["serving"]["cached_answers"] >= 4


# ----------------------------------------------------------------------
# Observability endpoints
# ----------------------------------------------------------------------
class TestObservability:
    def test_healthz_carries_protocol_handshake(self):
        with make_server() as server, make_client(server) as client:
            health = client.health()
        assert health["ok"] is True
        assert health["server"] == "repro-server"
        assert isinstance(health["protocol"], int)
        assert health["draining"] is False

    def test_readyz_and_metrics_and_stats(self):
        with make_server() as server, make_client(server) as client:
            client.batch_lines(REQUESTS)
            assert client.ready() is True
            text = client.metrics()
            stats = client.stats()
            as_json = json.loads(client.metrics(fmt="json"))
        assert 'repro_serving_total{counter="requests_served"} 5' in text
        assert 'repro_latency_seconds{quantile="50"}' in text
        assert stats["serving"]["requests_served"] == len(REQUESTS)
        assert stats["latency"]["count"] == 1  # one analyze call
        assert stats["admission"]["admitted"] == 1
        # http_requests ticks on every scrape; the served-work counters
        # must agree between the JSON and text expositions.
        assert as_json["serving"]["requests_served"] == len(REQUESTS)
        assert as_json["serving"]["computed"] == stats["serving"]["computed"]

    def test_unknown_route_is_404_and_wrong_method_405(self):
        with make_server() as server, make_client(server) as client:
            with pytest.raises(ServerError) as not_found:
                client._request("GET", "/nope", retry=False)
            with pytest.raises(ServerError) as wrong_method:
                client._request("GET", "/v1/analyze", retry=False)
        assert not_found.value.status == 404
        assert wrong_method.value.status == 405

    def test_bad_body_is_400(self):
        with make_server() as server, make_client(server) as client:
            with pytest.raises(ServerError) as excinfo:
                client._request(
                    "POST",
                    "/v1/analyze",
                    body=b"",
                    headers={"Content-Type": "application/json"},
                    retry=False,
                )
        assert excinfo.value.status == 400


# ----------------------------------------------------------------------
# Admission pushback over the wire
# ----------------------------------------------------------------------
class TestAdmissionOverTheWire:
    def test_queue_full_returns_503_with_retry_after(self):
        with injected_faults("delay:intra:seconds=0.8"):
            with make_server(max_concurrency=1, queue_depth=0) as server:

                def slow_call():
                    with make_client(
                        server, timeout=30.0, max_attempts=10
                    ) as client:
                        client.batch_lines([REQUESTS[0]])

                thread = threading.Thread(target=slow_call, daemon=True)
                thread.start()
                # Wait until the slow call actually holds the only slot...
                for _ in range(500):
                    if server.app.stats_dict()["admission"]["active"]:
                        break
                    threading.Event().wait(0.01)
                rejected = None
                with make_client(server) as client:
                    # ...then the next arrival must be shed, not queued
                    # (queue_depth=0).
                    try:
                        client.batch_lines([REQUESTS[2]])
                    except ServerError as exc:
                        rejected = exc
                thread.join(timeout=30.0)
        assert rejected is not None, "server never shed load"
        assert rejected.status == 503
        assert rejected.payload["error"]["type"] == "QueueFullError"
        assert rejected.retry_after is not None and rejected.retry_after > 0

    def test_rate_limit_returns_429_with_retry_after(self):
        with make_server(rate_limit=0.001, burst=1) as server:
            with make_client(server, client_id="chatty") as client:
                client.batch_lines([REQUESTS[0]])
                with pytest.raises(ServerError) as excinfo:
                    client.batch_lines([REQUESTS[2]])
            # A different identity is not affected.
            with make_client(server, client_id="other") as client:
                client.batch_lines([REQUESTS[2]])
        assert excinfo.value.status == 429
        assert excinfo.value.payload["error"]["type"] == "RateLimitedError"
        assert excinfo.value.retry_after is not None
        assert excinfo.value.retry_after > 0

    def test_client_retries_through_pushback_to_identical_results(self):
        with make_server(rate_limit=4.0, burst=1) as server:
            # Real (default) sleep: the bucket refills a token in 0.25s
            # and the retry loop must ride the server's Retry-After hint
            # through the 429s to a successful, correct answer.
            with ReproClient(
                port=server.port,
                max_attempts=8,
                retry_base_delay=0.01,
            ) as client:
                first = client.batch_lines([REQUESTS[0]])
                # Bucket empty now: this submission must ride the retry
                # loop (real time passes while attempts back off).
                second = client.batch_lines([REQUESTS[2]])
                stats = client.stats()
        assert "\n".join(first) == direct_jsonl([REQUESTS[0]])
        assert "\n".join(second) == direct_jsonl([REQUESTS[2]])
        assert stats["admission"]["rejected_rate_limited"] >= 1

    def test_deadline_header_maps_to_engine_deadline(self):
        with injected_faults("delay:intra:seconds=0.4"):
            with make_server() as server:
                with make_client(server, timeout=30.0) as client:
                    records = client.run_batch([REQUESTS[0]], deadline=0.05)
        assert len(records) == 1
        assert records[0]["ok"] is False
        assert records[0]["error"]["type"] == "DeadlineExceededError"

    def test_invalid_deadline_is_400(self):
        with make_server() as server, make_client(server) as client:
            with pytest.raises(ServerError) as excinfo:
                client.run_batch([REQUESTS[0]], deadline=-1.0)
        assert excinfo.value.status == 400

    def test_max_deadline_caps_client_requests(self):
        with injected_faults("delay:intra:seconds=0.4"):
            with make_server(max_deadline=0.05) as server:
                with make_client(server, timeout=30.0) as client:
                    # The client asks for a generous hour; the server
                    # clamps it to its 50ms ceiling and the delay blows it.
                    records = client.run_batch([REQUESTS[0]], deadline=3600.0)
        assert records[0]["error"]["type"] == "DeadlineExceededError"


# ----------------------------------------------------------------------
# Drain: SIGTERM semantics, losslessly
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_completes_inflight_work_and_rejects_new(self):
        with injected_faults("delay:intra:seconds=0.4"):
            server = make_server()
            try:
                result = {}
                accepted = threading.Event()

                def inflight_call():
                    with make_client(server, timeout=30.0) as client:
                        accepted.set()
                        result["lines"] = client.batch_lines([REQUESTS[0]])

                thread = threading.Thread(target=inflight_call, daemon=True)
                thread.start()
                accepted.wait(timeout=5.0)
                # Give the request time to be admitted before draining.
                for _ in range(100):
                    if server.app.stats_dict()["admission"]["active"]:
                        break
                    threading.Event().wait(0.01)
                drained = server.shutdown(drain=True, timeout=30.0)
                thread.join(timeout=30.0)
            finally:
                server.shutdown(drain=False)
        assert drained is True
        # The accepted request was not lost to the shutdown.
        assert "\n".join(result["lines"]) == direct_jsonl([REQUESTS[0]])

    def test_draining_server_rejects_with_503(self):
        with make_server() as server:
            server.app.begin_drain()
            with make_client(server) as client:
                assert client.ready() is False
                with pytest.raises(ServerError) as excinfo:
                    client.batch_lines([REQUESTS[0]])
        assert excinfo.value.status == 503
        assert excinfo.value.payload["error"]["type"] == "ServerDrainingError"
        # The base hint (2.0s) is spread deterministically per client
        # over [base, base * 1.5] to break up retry herds.
        assert 2.0 <= excinfo.value.retry_after <= 3.0

    def test_shutdown_is_idempotent(self):
        server = make_server()
        assert server.shutdown(drain=True) is True
        assert server.shutdown(drain=True) is True

    def test_started_context_managed_server_stops_promptly(self):
        """``__enter__`` after ``start()`` must not start a second thread."""
        before = set(threading.enumerate())
        with make_server() as server:
            with make_client(server) as client:
                assert client.ready() is True
            started = time.monotonic()
        assert time.monotonic() - started < 1.0
        assert [
            t for t in set(threading.enumerate()) - before
            if t.name == "repro-serve"
        ] == []


# ----------------------------------------------------------------------
# Protocol handshake
# ----------------------------------------------------------------------
class TestProtocolHandshake:
    def test_mismatch_warns_loudly_but_does_not_fail(self, monkeypatch, capsys):
        monkeypatch.setattr("repro.server.client.PROTOCOL_VERSION", 999)
        with make_server() as server:
            with make_client(server) as client:
                with pytest.warns(ProtocolMismatchWarning):
                    lines = client.batch_lines([REQUESTS[0]])
        assert "\n".join(lines) == direct_jsonl([REQUESTS[0]])
        assert "protocol mismatch" in capsys.readouterr().err

    def test_matching_protocol_is_silent(self, capsys):
        with make_server() as server:
            with make_client(server) as client:
                client.handshake()
                client.handshake()  # cached, no second round-trip
        assert "WARNING" not in capsys.readouterr().err

    def test_paranoid_server_certifies_results(self):
        with make_server(paranoid=True) as server:
            with make_client(server) as client:
                record = client.analyze(REQUESTS[0])
                stats = client.stats()
        assert record["result"]["certification"]["ok"] is True
        assert stats["certification"]["certified"] == 1
