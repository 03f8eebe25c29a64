"""HTTP plumbing for the serving daemon (stdlib ``http.server`` only).

The transport layer and nothing else: a threaded HTTP/1.1 server whose
handler reads the request (with a bounded body), hands ``(method, path,
query, headers, body, client)`` to the application's ``handle`` method,
and writes the returned :class:`HttpResponse` back with an explicit
``Content-Length`` so keep-alive connections work.  Each response leaves
as one write on a socket with ``TCP_NODELAY`` set: sent as two writes
(headers, then body), Nagle's algorithm would hold the body until the
client's delayed ACK, ~40 ms per call on Linux.  All routing,
admission, and engine logic lives in :mod:`repro.server.app`; everything
here is mechanical and app-agnostic.
"""

from __future__ import annotations

import io
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterator, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import __version__ as PACKAGE_VERSION
from .protocol import PROTOCOL_VERSION

#: Refuse request bodies larger than this many bytes (HTTP 413).
DEFAULT_MAX_BODY_BYTES = 8 << 20


@dataclass
class HttpResponse:
    """One response to write: status, body bytes, and headers."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(
        cls,
        payload: Any,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
        sort_keys: bool = True,
    ) -> "HttpResponse":
        body = json.dumps(payload, sort_keys=sort_keys, indent=2) + "\n"
        return cls(
            status=status,
            body=body.encode("utf-8"),
            content_type="application/json",
            headers=dict(headers or {}),
        )

    @classmethod
    def ndjson(
        cls,
        text: str,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> "HttpResponse":
        if text and not text.endswith("\n"):
            text += "\n"
        return cls(
            status=status,
            body=text.encode("utf-8"),
            content_type="application/x-ndjson",
            headers=dict(headers or {}),
        )

    @classmethod
    def text(
        cls,
        text: str,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> "HttpResponse":
        return cls(
            status=status,
            body=text.encode("utf-8"),
            content_type="text/plain; charset=utf-8",
            headers=dict(headers or {}),
        )

    @classmethod
    def error(
        cls,
        status: int,
        error_type: str,
        message: str,
        retry_after: Optional[float] = None,
    ) -> "HttpResponse":
        """A structured JSON error, optionally with a ``Retry-After`` hint.

        ``Retry-After`` is integral seconds (per RFC 9110), rounded up so
        the hint never undershoots; the exact float rides in the JSON
        body as ``retry_after_seconds`` for clients that want precision.
        """

        headers: Dict[str, str] = {}
        payload: Dict[str, Any] = {
            "ok": False,
            "error": {"type": error_type, "message": message, "status": status},
        }
        if retry_after is not None:
            headers["Retry-After"] = str(max(1, int(retry_after + 0.999)))
            payload["error"]["retry_after_seconds"] = round(retry_after, 3)
        return cls.json(payload, status=status, headers=headers)


class RequestHandler(BaseHTTPRequestHandler):
    """Reads one request, delegates to ``server.app``, writes the response."""

    protocol_version = "HTTP/1.1"
    server_version = f"repro-serve/{PACKAGE_VERSION}"
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        # A GET body is never read; close rather than parse it as the
        # next request.
        unread = (
            self.headers.get("Content-Length", "0").strip() != "0"
            or "Transfer-Encoding" in self.headers
        )
        self._dispatch("GET", body=b"", close=unread)

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        body = self._read_body()
        if body is None:
            return  # error already written
        self._dispatch("POST", body=body)

    # ------------------------------------------------------------------
    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` after refusing it.

        A refused body is left unread on the socket, so every refusal
        closes the connection: parsing those bytes as the next request
        would answer a request the client never sent.
        """

        length_header = self.headers.get("Content-Length")
        if length_header is None:
            return self._refuse(
                411, "LengthRequired", "POST requires Content-Length"
            )
        try:
            length = int(length_header)
        except ValueError:
            return self._refuse(400, "BadRequest", "malformed Content-Length")
        if length < 0:
            return self._refuse(400, "BadRequest", "negative Content-Length")
        limit = self.server.app.max_body_bytes
        if length > limit:
            return self._refuse(
                413,
                "PayloadTooLarge",
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit; split the batch",
            )
        return self.rfile.read(length)

    def _refuse(self, status: int, error_type: str, message: str) -> None:
        response = HttpResponse.error(status, error_type, message)
        self._write(response, close=True)

    def _client_identity(self) -> str:
        header = self.headers.get("X-Repro-Client")
        if header:
            return header.strip()
        return self.client_address[0]

    def _dispatch(self, method: str, body: bytes, close: bool = False) -> None:
        app = self.server.app
        parsed = urlsplit(self.path)
        query = parse_qs(parsed.query)
        headers = {key.lower(): value for key, value in self.headers.items()}
        try:
            response = app.handle(
                method,
                parsed.path,
                query,
                headers,
                body,
                client=self._client_identity(),
            )
        except Exception as exc:  # noqa: BLE001 - the transport must answer
            app.log(f"500 on {method} {parsed.path}: {exc!r}")
            response = HttpResponse.error(
                500, type(exc).__name__, f"internal server error: {exc}"
            )
        self._write(response, close=close)

    @contextmanager
    def _one_write(self) -> Iterator[None]:
        """Collect what is written to ``wfile``; send it with one ``sendall``.

        ``wfile`` stays unbuffered, so a failed send leaves no bytes
        behind for the stdlib's later flushes to retry.
        """

        wfile, self.wfile = self.wfile, io.BytesIO()
        try:
            yield
            wfile.write(self.wfile.getvalue())
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-response; nothing to salvage.
            self.close_connection = True
        finally:
            self.wfile = wfile

    def _write(self, response: HttpResponse, close: bool = False) -> None:
        """Send ``response`` in one write; ``close`` ends the connection."""
        with self._one_write():
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            self.send_header("Content-Length", str(len(response.body)))
            self.send_header("X-Repro-Protocol", str(PROTOCOL_VERSION))
            for name, value in response.headers.items():
                self.send_header(name, value)
            if close:
                # ``send_header`` also sets ``close_connection``.
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(response.body)

    def send_error(self, *args: Any, **kwargs: Any) -> None:
        # The stdlib's own replies (bad request line, 501) in one write too.
        with self._one_write():
            super().send_error(*args, **kwargs)

    # Route http.server's chatty per-request logging through the app's
    # verbosity switch instead of unconditionally spamming stderr.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        self.server.app.log(
            f"{self.client_address[0]} {format % args}", access=True
        )


class ReproHTTPServer(ThreadingHTTPServer):
    """A threaded HTTP server bound to one application object."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], app: Any):
        super().__init__(address, RequestHandler)
        self.app = app

    @property
    def port(self) -> int:
        return self.server_address[1]


def first_query_value(
    query: Dict[str, List[str]], name: str
) -> Optional[str]:
    values = query.get(name)
    return values[0] if values else None
