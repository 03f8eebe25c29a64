"""One front-door contract for both serving tiers.

The single-process :class:`ServerApp` and the 2-shard :class:`ShardedApp`
must accept the same bodies, report errors the same way and render the
same bytes.  Every row below runs against both tiers: the application
rows call ``app.handle`` directly, the transport rows (411/413,
pipelined refusals, loopback latency) go over a raw socket or a
``ReproClient`` to the live listener, and the send-count and reset rows
run the shared ``RequestHandler`` over the tier's app on a private TCP
connection.
"""

from __future__ import annotations

import json
import socket
import statistics
import struct
import time
from types import SimpleNamespace

import pytest

from repro.server import ReproClient, ReproServer, ServerConfig
from repro.server.app import BadRequestError, ServerApp, resolve_deadline
from repro.server.http import RequestHandler
from repro.service import BatchEngine, EngineConfig, parse_request
from repro.shard import ShardedApp, ShardedServer

MAX_BATCH = 2
MAX_BODY = 4096

SINGLE = {"kind": "intra", "m": 64, "k": 32, "l": 48, "buffer_elems": 4096}
#: Sent by no error row, so its first answer is never a cache hit.
FRESH = {"kind": "intra", "m": 72, "k": 40, "l": 56, "buffer_elems": 4096}
BATCH = [
    {"kind": "sweep_point", "m": 32, "k": 32, "l": 32, "buffer_elems": 1024},
    "this line is not json",
]

#: Top-level ``/stats`` keys per tier.
STATS_KEYS = {
    "single": {
        "protocol", "uptime_seconds", "config", "serving", "admission",
        "latency", "cache", "intra_cache", "engine_counters", "breaker",
        "certification", "journal",
    },
    "sharded": {
        "protocol", "uptime_seconds", "config", "serving", "admission",
        "latency", "cache", "intra_cache", "engine_counters",
        "certification", "journal", "shards", "resharding", "hot_keys",
    },
}

#: Label-free ``/metrics`` names every tier exposes.
COMMON_METRICS = {
    "repro_uptime_seconds", "repro_serving_total",
    "repro_admission_active", "repro_admission_waiting",
    "repro_admission_admitted", "repro_admission_rejected_rate_limited",
    "repro_admission_rejected_queue_full", "repro_latency_seconds_count",
    "repro_latency_seconds", "repro_latency_seconds_max",
    "repro_cache_hits", "repro_cache_misses", "repro_cache_evictions",
    "repro_cache_size", "repro_intra_cache_hits", "repro_intra_cache_misses",
    "repro_intra_cache_evictions", "repro_intra_cache_size",
    "repro_engine_total",
}

SHARDED_METRICS = COMMON_METRICS | {
    "repro_shards_total", "repro_shards_ready", "repro_shards_failed",
    "repro_shards_respawns_total", "repro_shards_contained_total",
    "repro_shards_timeouts_total", "repro_shards_journals_degraded",
    "repro_journal_records", "repro_journal_bytes",
    "repro_journal_compactions_total",
    "repro_journal_corrupt_quarantined_total",
    "repro_journal_replay_seconds", "repro_shard_up", "repro_shard_respawns",
    "repro_resharding_active", "repro_handoff_pending",
    "repro_reshards_total", "repro_reshard_keys_moved_total",
    "repro_hot_keys", "repro_hot_keys_tracked", "repro_replica_reads_total",
}


def tier_config():
    return ServerConfig(
        port=0, jobs=1, max_batch_requests=MAX_BATCH, max_body_bytes=MAX_BODY
    )


def boot(tier):
    if tier == "single":
        return ReproServer(tier_config()).start()
    return ShardedServer(tier_config(), shards=2, health_interval=0.2).start()


@pytest.fixture(scope="module", params=["single", "sharded"])
def server(request):
    server = boot(request.param)
    server.tier = request.param
    yield server
    server.shutdown(drain=True)


def call(app, method, path, body=b"", headers=None, query=None):
    return app.handle(
        method, path, query or {}, headers or {}, body, "conformance"
    )


def error_of(response):
    payload = json.loads(response.body.decode("utf-8"))
    assert payload["ok"] is False
    assert payload["error"]["status"] == response.status
    assert response.content_type == "application/json"
    return payload["error"]["type"]


def direct_jsonl(payloads):
    engine = BatchEngine(EngineConfig(jobs=1))
    return engine.run_batch(
        [p if isinstance(p, str) else parse_request(p) for p in payloads]
    ).to_jsonl()


def ndjson(payloads):
    return "\n".join(
        p if isinstance(p, str) else json.dumps(p) for p in payloads
    ).encode("utf-8")


SINGLE_BODY = json.dumps(SINGLE).encode("utf-8")
JSON_CT = {"content-type": "application/json"}

# (id, method, path, body, headers, status, error type)
ERROR_ROWS = [
    ("unknown-route", "GET", "/nope", b"", {}, 404, "NotFound"),
    ("get-analyze", "GET", "/v1/analyze", b"", {}, 405, "MethodNotAllowed"),
    ("get-compact", "GET", "/admin/compact", b"", {}, 405,
     "MethodNotAllowed"),
    ("non-utf8", "POST", "/v1/analyze", b"\xff\xfe{}", JSON_CT, 400,
     "BadRequest"),
    ("empty-body", "POST", "/v1/analyze", b"", JSON_CT, 400, "BadRequest"),
    ("requests-not-list", "POST", "/v1/analyze", b'{"requests": 1}',
     JSON_CT, 400, "BadRequest"),
    ("deadline-garbage", "POST", "/v1/analyze", SINGLE_BODY,
     {**JSON_CT, "x-repro-deadline": "soon"}, 400, "BadRequest"),
    ("deadline-negative", "POST", "/v1/analyze", SINGLE_BODY,
     {**JSON_CT, "x-repro-deadline": "-1"}, 400, "BadRequest"),
    ("deadline-nan", "POST", "/v1/analyze", SINGLE_BODY,
     {**JSON_CT, "x-repro-deadline": "nan"}, 400, "BadRequest"),
    ("batch-too-large", "POST", "/v1/analyze",
     ndjson([SINGLE] * (MAX_BATCH + 1)),
     {"content-type": "application/x-ndjson"}, 400, "BatchTooLarge"),
]


@pytest.mark.parametrize(
    "method,path,body,headers,status,error_type",
    [row[1:] for row in ERROR_ROWS],
    ids=[row[0] for row in ERROR_ROWS],
)
def test_error_rows(server, method, path, body, headers, status, error_type):
    response = call(server.app, method, path, body, headers)
    assert response.status == status
    assert error_of(response) == error_type


def test_single_object_response(server):
    body = json.dumps(FRESH).encode("utf-8")
    first = call(server.app, "POST", "/v1/analyze", body, JSON_CT)
    second = call(server.app, "POST", "/v1/analyze", body, JSON_CT)
    assert first.status == second.status == 200
    assert first.content_type == "application/json"
    assert first.body == second.body
    assert first.body.decode("utf-8") == direct_jsonl([FRESH]) + "\n"
    assert first.headers["X-Repro-Requests"] == "1"
    assert first.headers["X-Repro-Errors"] == "0"
    assert first.headers["X-Repro-Cached"] == "0"
    assert second.headers["X-Repro-Cached"] == "1"


def test_ndjson_response(server):
    response = call(
        server.app, "POST", "/v1/analyze", ndjson(BATCH),
        {"content-type": "application/x-ndjson"},
    )
    assert response.status == 200
    assert response.content_type == "application/x-ndjson"
    assert response.body.decode("utf-8") == direct_jsonl(BATCH) + "\n"
    assert response.headers["X-Repro-Requests"] == "2"
    assert response.headers["X-Repro-Errors"] == "1"
    assert response.headers["X-Repro-Cached"] == "0"


def test_observability_endpoints(server):
    health = call(server.app, "GET", "/healthz")
    assert health.status == 200
    assert json.loads(health.body)["draining"] is False
    assert call(server.app, "GET", "/readyz").status == 200
    stats = json.loads(call(server.app, "GET", "/stats").body)
    assert set(stats) == STATS_KEYS[server.tier]
    assert json.loads(
        call(server.app, "GET", "/metrics", query={"format": ["json"]}).body
    ).keys() == stats.keys()
    text = call(server.app, "GET", "/metrics").body.decode("utf-8")
    names = {
        line.split("{")[0].split(" ")[0]
        for line in text.splitlines()
        if not line.startswith("#")
    }
    expected = COMMON_METRICS if server.tier == "single" else SHARDED_METRICS
    assert names == expected


def read_to_eof(sock):
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def raw_exchange(port, request):
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        data = read_to_eof(sock)
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body.decode("utf-8"))["error"]["type"]


def test_missing_content_length_is_411(server):
    status, error_type = raw_exchange(
        server.port, b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\n\r\n"
    )
    assert (status, error_type) == (411, "LengthRequired")


def test_oversized_body_is_413(server):
    status, error_type = raw_exchange(
        server.port,
        b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\n"
        b"Content-Length: %d\r\n\r\n" % (MAX_BODY + 1),
    )
    assert (status, error_type) == (413, "PayloadTooLarge")


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"

# (id, request whose body the server never reads, status, error type);
# each is followed on the same connection by a pipelined ``HEALTHZ``.
UNREAD_BODY_ROWS = [
    ("oversized-413",
     b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\n"
     b"Content-Length: %d\r\n\r\n" % (MAX_BODY + 1),
     413, "PayloadTooLarge"),
    ("chunked-411",
     b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\n"
     b"Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
     411, "LengthRequired"),
    ("negative-length",
     b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\n"
     b"Content-Length: -1\r\n\r\n",
     400, "BadRequest"),
    ("get-with-body",
     b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
     b"Content-Length: %d\r\n\r\n" % len(HEALTHZ),
     200, None),
]


def split_response(data):
    """``(status, headers, body, rest)`` of the first response in ``data``."""
    head, _, rest = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers["content-length"])
    status = int(lines[0].split(" ", 2)[1])
    return status, headers, rest[:length], rest[length:]


@pytest.mark.parametrize(
    "request_bytes,status,error_type",
    [row[1:] for row in UNREAD_BODY_ROWS],
    ids=[row[0] for row in UNREAD_BODY_ROWS],
)
def test_unread_body_closes_the_connection(
    server, request_bytes, status, error_type
):
    # No SHUT_WR: the server itself must end the exchange after one
    # response instead of parsing the unread body (here, the pipelined
    # ``/healthz``) as a second request.
    with socket.create_connection(
        ("127.0.0.1", server.port), timeout=10.0
    ) as sock:
        sock.sendall(request_bytes + HEALTHZ)
        data = read_to_eof(sock)
    got_status, headers, body, rest = split_response(data)
    assert got_status == status
    assert headers["connection"] == "close"
    if error_type is not None:
        assert json.loads(body.decode("utf-8"))["error"]["type"] == error_type
    assert rest == b""


def test_cached_round_trip_is_not_stalled(server):
    # A delayed-ACK stall costs ~40 ms per call; the bound is loose for
    # CI but fails at that quantum.
    with ReproClient(port=server.port) as client:
        client.analyze(SINGLE)
        times = []
        for _ in range(40):
            start = time.perf_counter()
            client.analyze(SINGLE)
            times.append(time.perf_counter() - start)
    assert statistics.median(times) < 0.020


def tcp_pair():
    """A connected ``(client, server side, address)`` TCP socket triple."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.create_connection(listener.getsockname(), timeout=10)
        accepted, address = listener.accept()
    return client, accepted, address


class CountingSocket(socket.socket):
    """A socket that counts the send calls made on it."""

    sends = 0

    def send(self, data, *args):
        self.sends += 1
        return super().send(data, *args)

    def sendall(self, data, *args):
        self.sends += 1
        return super().sendall(data, *args)


@pytest.mark.parametrize(
    "request_bytes,status",
    [
        (b"GET /healthz HTTP/1.1\r\nHost: t\r\n", 200),
        (b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\n"
         b"Content-Type: application/json\r\n"
         b"Content-Length: %d\r\n" % len(SINGLE_BODY), 200),
        (b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\n", 411),
        # Unknown method: the stdlib's own ``send_error`` reply.
        (b"BREW /v1/analyze HTTP/1.1\r\nHost: t\r\n", 501),
    ],
    ids=["healthz", "analyze", "refusal-411", "stdlib-501"],
)
def test_each_response_is_one_send(server, request_bytes, status):
    # Run the shared handler on one accepted TCP connection wrapped to
    # count sends; ``Connection: close`` ends it after one response.
    client, accepted, address = tcp_pair()
    conn = CountingSocket(fileno=accepted.detach())
    with client, conn:
        body = SINGLE_BODY if b"Content-Length" in request_bytes else b""
        client.sendall(request_bytes + b"Connection: close\r\n\r\n")
        client.sendall(body)
        RequestHandler(conn, address, SimpleNamespace(app=server.app))
        nodelay = conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        sends = conn.sends
        conn.shutdown(socket.SHUT_WR)
        data = read_to_eof(client)
    assert nodelay
    assert sends == 1
    got_status, _, body, rest = split_response(data)
    assert got_status == status
    assert rest == b""


def test_client_reset_before_the_response_is_swallowed(server):
    # The request arrives, then the client resets the connection: the
    # failed send must end the handler quietly, with no bytes left in a
    # buffer for a later flush to retry and raise on.
    client, accepted, address = tcp_pair()
    with accepted:
        client.sendall(HEALTHZ)
        client.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        client.close()
        time.sleep(0.05)
        handler = RequestHandler(
            accepted, address, SimpleNamespace(app=server.app)
        )
    assert handler.close_connection


@pytest.mark.parametrize("tier", ["single", "sharded"])
def test_draining_refuses_with_retry_after(tier):
    if tier == "single":
        app = ServerApp(tier_config())
    else:
        app = ShardedApp(tier_config(), shards=2, health_interval=0.2).start()
    try:
        app.begin_drain()
        response = call(app, "POST", "/v1/analyze", SINGLE_BODY, JSON_CT)
        assert response.status == 503
        assert error_of(response) == "ServerDrainingError"
        assert int(response.headers["Retry-After"]) >= 1
        ready = call(app, "GET", "/readyz")
        assert ready.status == 503
        assert error_of(ready) == "ServerDrainingError"
        health = call(app, "GET", "/healthz")
        assert health.status == 200
        assert json.loads(health.body)["draining"] is True
        assert app.wait_idle(timeout=1.0)
    finally:
        app.close()


@pytest.mark.parametrize("raw", ["nan", "NaN", "-nan", "0", "-0.5"])
def test_resolve_deadline_rejects_non_positive(raw):
    with pytest.raises(BadRequestError):
        resolve_deadline({}, {"x-repro-deadline": raw}, None, 5.0)


def test_config_rejects_nan_deadlines():
    nan = float("nan")
    for field in ("default_deadline", "max_deadline"):
        with pytest.raises(ValueError):
            ServerConfig(**{field: nan})
    with pytest.raises(ValueError):
        EngineConfig(deadline_seconds=nan)
