"""HTTP plumbing shared by the assignment server and the front router.

One implementation of what both serving roles do around a request:
:class:`JsonHTTPServer` drains in-flight handlers on close (a connection
waiting for its next request is closed, not waited out), and
:class:`JsonRequestHandler` owns the socket timeout, trace-id intake (a
well-formed incoming ``X-Trace-Id`` is honoured, anything else replaced
by a fresh id), dispatch over a path -> route table, body limits and
JSON decoding, the ``{"error": {"code", "message", "trace_id"}}``
envelope, and the best-effort 500.  A request's latency and status are
recorded just before its response's last write, and a response sent
with the request body unread closes the connection.  The server
(:mod:`repro.serve.server`) and the router (:mod:`repro.serve.router`)
add their routes; their services decide which instruments a request
writes.
"""

from __future__ import annotations

import contextlib
import json
import re
import socket
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.obs.logging import get_logger, kv
from repro.obs.trace import new_trace_id, use_trace_id

log = get_logger("serve.http")

__all__ = [
    "JsonHTTPServer",
    "JsonRequestHandler",
    "RequestError",
    "decode_object",
]

# A well-formed trace id (16 lowercase hex chars, see obs.trace).  The
# router forwards its per-request id in X-Trace-Id so worker spans and
# error bodies join up with the front request; anything malformed is
# ignored and a fresh id minted.
_TRACE_ID_RE = re.compile(r"^[0-9a-f]{16}$")


class JsonHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one serving role's service.

    ``request_timeout_s`` is each connection's socket timeout and
    ``max_body_bytes`` the request-body limit (above it: 413).  ``app``
    provides the per-request instrument writes ``record_request()``,
    ``record_error()`` and ``observe_http(endpoint, status,
    elapsed_s)``, and ``close()``.  ``daemon_threads`` stays False and
    ``block_on_close`` True so ``server_close`` joins in-flight handler
    threads before closing the app -- shutdown drains accepted requests
    instead of abandoning them.  First it ends every open connection's
    keep-alive (:meth:`JsonRequestHandler.end_keepalive`), so a handler
    parked reading a next request line does not hold the join for a
    whole socket timeout.
    """

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        app: Any,
        handler: type,
        *,
        request_timeout_s: float,
        max_body_bytes: int,
    ):
        self.app = app
        self.request_timeout_s = request_timeout_s
        self.max_body_bytes = max_body_bytes
        self._handlers: set[JsonRequestHandler] = set()  # open connections
        self._closing = False
        super().__init__(address, handler)

    def server_close(self) -> None:
        self._closing = True  # a handler set up from now ends itself
        for handler in self._handlers.copy():
            handler.end_keepalive()
        super().server_close()  # joins handler threads first
        self.app.close()


class RequestError(Exception):
    """Raised by a route to answer with a structured error response."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers


Route = Callable[["JsonRequestHandler"], None]


def decode_object(body: bytes, what: str = "request") -> dict[str, Any]:
    """``body`` decoded as a JSON object, else a 400 :class:`RequestError`."""
    try:
        payload = json.loads(body)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise RequestError(400, f"invalid JSON body: {exc}") from None
    if not isinstance(payload, dict):
        raise RequestError(400, f"{what} body must be a JSON object")
    return payload


def _unknown_path(handler: "JsonRequestHandler") -> None:
    raise RequestError(404, f"unknown path {handler._path!r}")


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Request plumbing for a :class:`JsonHTTPServer`.

    Subclasses fill ``get_routes`` / ``post_routes`` (path -> function
    taking the handler).  A route answers through :meth:`_send_json` /
    :meth:`_send_body`, or raises :class:`RequestError`.
    """

    protocol_version = "HTTP/1.1"
    # Headers and body leave as two sends; with Nagle's algorithm on, a
    # keep-alive client's delayed ACK holds the body back ~40 ms.
    disable_nagle_algorithm = True
    server: JsonHTTPServer

    get_routes: dict[str, Route] = {}
    post_routes: dict[str, Route] = {}

    def request_span(self) -> contextlib.AbstractContextManager:
        """Context the route runs in (the server's sampled span)."""
        return contextlib.nullcontext()

    # -- plumbing --------------------------------------------------------
    def setup(self) -> None:
        super().setup()
        # Per-connection socket timeout: a stalled client cannot pin a
        # handler thread (and block graceful shutdown) forever.
        self.connection.settimeout(self.server.request_timeout_s)
        self._observed = True  # no request in flight yet
        self.server._handlers.add(self)
        if self.server._closing:
            self.end_keepalive()

    def finish(self) -> None:
        self.server._handlers.discard(self)
        super().finish()

    def end_keepalive(self) -> None:
        """Serve no request after the current one on this connection.

        A request in flight still reads its body and answers; a wait for
        the next request line (``_observed`` set: the last request's
        instruments are written) reads end-of-file at once.
        """
        self.close_connection = True
        if self._observed:
            with contextlib.suppress(OSError):  # the client may be gone
                self.connection.shutdown(socket.SHUT_RD)

    def log_message(self, format: str, *args: Any) -> None:
        log.debug("http " + format % args)

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Trace-Id", self._trace_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self._body_unread:
            # The unread body would be parsed as the next request line;
            # end the connection instead (send_header sets
            # close_connection).
            self.send_header("Connection", "close")
        self.end_headers()
        # Recorded before the last write: a client that has its answer
        # and scrapes /metrics sees its own request.
        self._observe_http()
        self.wfile.write(body)

    def _send_json(
        self,
        status: int,
        payload: dict | list,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._send_body(
            status,
            json.dumps(payload).encode("utf-8"),
            "application/json",
            headers=headers,
        )

    def _error(
        self,
        status: int,
        message: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self.server.app.record_error()
        self._send_json(
            status,
            {
                "error": {
                    "code": status,
                    "message": message,
                    "trace_id": self._trace_id,
                }
            },
            headers=headers,
        )

    def _read_body(self, required: bool = True) -> bytes:
        """The request's raw body.

        An absent body is a 400 when ``required``, else ``b""``; a
        malformed ``Content-Length`` is a 400 and a body over the
        server's ``max_body_bytes`` a 413 (neither is read).
        """
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            raise RequestError(
                400, f"invalid Content-Length header: {declared!r}"
            )
        length = int(declared)
        if length == 0:
            self._body_unread = False
            if required:
                raise RequestError(400, "missing request body")
            return b""
        limit = self.server.max_body_bytes
        if length > limit:
            raise RequestError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit",
            )
        body = self.rfile.read(length)
        self._body_unread = False
        return body

    def _read_json(
        self, what: str = "request", required: bool = True
    ) -> dict[str, Any] | None:
        """The request's JSON-object body (None: absent, not required)."""
        body = self._read_body(required)
        return decode_object(body, what) if body else None

    def _reload_slugs(self) -> list[str] | None:
        """The ``/reload`` body's ``slugs`` (None: reload everything)."""
        payload = self._read_json("reload", required=False)
        slugs = None if payload is None else payload.get("slugs")
        if slugs is not None and (
            not isinstance(slugs, list)
            or not all(isinstance(s, str) for s in slugs)
        ):
            raise RequestError(400, "'slugs' must be a list of model slugs")
        return slugs

    # -- dispatch --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._handle(self.get_routes)

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self._handle(self.post_routes)

    def _handle(self, routes: dict[str, Route]) -> None:
        app = self.server.app
        app.record_request()
        incoming = self.headers.get("X-Trace-Id", "")
        self._trace_id = (
            incoming if _TRACE_ID_RE.match(incoming) else new_trace_id()
        )
        self._status = 500  # every sent response overwrites it
        self._path = self.path.split("?", 1)[0]
        declared = self.headers.get("Content-Length")
        self._body_unread = declared not in (None, "0")
        self._observed = False
        self._start = time.perf_counter()
        try:
            with use_trace_id(self._trace_id), self.request_span():
                try:
                    routes.get(self._path, _unknown_path)(self)
                except RequestError as exc:
                    self._error(exc.status, str(exc), exc.headers)
        except BrokenPipeError:
            pass  # client went away; nothing to send
        except Exception as exc:  # defensive: never kill the thread
            log.error(
                "unhandled request error",
                extra=kv(
                    path=self.path,
                    error=repr(exc),
                    trace_id=self._trace_id,
                ),
            )
            try:
                self._error(500, f"internal error: {exc}")
            # lint: allow[COR003] best-effort 500; the socket may be gone
            except Exception:
                pass
        finally:
            self._observe_http()  # a request that sent nothing

    def _observe_http(self) -> None:
        """Write the request's latency and status instruments, once."""
        if self._observed:
            return
        self._observed = True
        path = self._path
        known = path in self.get_routes or path in self.post_routes
        self.server.app.observe_http(
            path[1:] if known else "other",
            self._status,
            time.perf_counter() - self._start,
        )
