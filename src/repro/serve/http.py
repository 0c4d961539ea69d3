"""HTTP plumbing shared by the assignment server and the front router.

One implementation of what both serving roles do around a request:
:class:`JsonHTTPServer` drains in-flight handlers on close, and
:class:`JsonRequestHandler` owns the socket timeout, trace-id intake (a
well-formed incoming ``X-Trace-Id`` is honoured, anything else replaced
by a fresh id), dispatch over a path -> route table, body limits and
JSON decoding, the ``{"error": {"code", "message", "trace_id"}}``
envelope, and the best-effort 500.  The server
(:mod:`repro.serve.server`) and the router (:mod:`repro.serve.router`)
add their routes; their services decide which instruments a request
writes.
"""

from __future__ import annotations

import contextlib
import json
import re
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.obs.logging import get_logger, kv
from repro.obs.trace import new_trace_id, use_trace_id

log = get_logger("serve.http")

__all__ = ["JsonHTTPServer", "JsonRequestHandler", "RequestError"]

# A well-formed trace id (16 lowercase hex chars, see obs.trace).  The
# router forwards its per-request id in X-Trace-Id so worker spans and
# error bodies join up with the front request; anything malformed is
# ignored and a fresh id minted.
_TRACE_ID_RE = re.compile(r"^[0-9a-f]{16}$")


class JsonHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one serving role's service.

    ``app`` provides ``config`` (``request_timeout_s``,
    ``max_body_bytes``), the per-request instrument writes
    ``record_request()``, ``record_error()`` and ``observe_http(endpoint,
    status, elapsed_s)``, and ``close()``.  ``daemon_threads`` stays
    False and ``block_on_close`` True so ``server_close`` joins
    in-flight handler threads before closing the app -- shutdown drains
    accepted requests instead of abandoning them.
    """

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], app: Any, handler: type):
        self.app = app
        super().__init__(address, handler)

    def server_close(self) -> None:
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
        self.connection.settimeout(self.server.app.config.request_timeout_s)

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
        self.end_headers()
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

    def _read_json(
        self, what: str = "request", required: bool = True
    ) -> tuple[dict[str, Any] | None, bytes]:
        """The request's JSON-object body and its raw bytes.

        An absent body is a 400 when ``required``, else ``(None, b"")``;
        a body over ``config.max_body_bytes`` is a 413.
        """
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            if required:
                raise RequestError(400, "missing request body")
            return None, b""
        limit = self.server.app.config.max_body_bytes
        if length > limit:
            raise RequestError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit",
            )
        body = self.rfile.read(length)
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise RequestError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise RequestError(400, f"{what} body must be a JSON object")
        return payload, body

    def _reload_slugs(self) -> list[str] | None:
        """The ``/reload`` body's ``slugs`` (None: reload everything)."""
        payload, _ = self._read_json("reload", required=False)
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
        start = time.perf_counter()
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
            path = self._path
            known = path in self.get_routes or path in self.post_routes
            app.observe_http(
                path[1:] if known else "other",
                self._status,
                time.perf_counter() - start,
            )
