"""Open-loop load generation from one process over at most two connections.

An open loop sends each request at its due time whether or not earlier
requests have finished.  Each of ``threads`` sender threads owns one
connection and takes the next due operation as soon as it is free, so a
stall in the server delays later requests and the delay shows: every
latency is measured from the request's *due* time, not from when it was
finally sent.  How late the generator itself ran (send time minus due
time) is reported as well.

A phase (one ladder step) ends at its wall time: operations still unsent
``grace_s`` after the step's end are shed and count against the step,
exactly like requests that were sent but not answered in time.
"""

from __future__ import annotations

import http.client
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from benchmarks.perf.spec import percentile

# A step passes when its p95 latency stays within this limit ...
LATENCY_LIMIT_MS = 50.0
# ... and at least this share of its scheduled requests succeed in time.
IN_TIME_SHARE = 0.95

SHED = -1  # status of an operation never sent


@dataclass(frozen=True)
class Op:
    """One scheduled operation: a request body index, or -1 for a write."""

    due_s: float
    index: int


@dataclass
class Outcome:
    """What happened to one scheduled operation."""

    op: Op
    status: int  # HTTP status; 0 = transport error; SHED = never sent
    body: bytes
    late_s: float  # send start minus due time
    latency_s: float  # completion minus due time
    end_s: float  # completion time, seconds after the phase began


def schedule(
    rate: float, duration_s: float, pick: Callable[[int], int]
) -> list[Op]:
    """Evenly spaced operations at ``rate`` per second for ``duration_s``."""
    n = max(1, int(round(rate * duration_s)))
    return [Op(i / rate, pick(i)) for i in range(n)]


def run_phase(
    ops: Sequence[Op],
    send: Callable[[int, Op], tuple[int, bytes]],
    duration_s: float,
    threads: int = 2,
    grace_s: float = 1.0,
) -> list[Outcome]:
    """Send ``ops`` at their due times; return outcomes in due order.

    ``send(k, op)`` runs on sender thread ``k`` and returns the HTTP
    status and response body; an exception is recorded as a transport
    failure (status 0).  Operations that would start more than
    ``grace_s`` after ``duration_s`` are shed, so the phase ends at its
    wall time plus the grace and the longest request in flight.
    """
    cutoff = duration_s + grace_s
    lock = threading.Lock()
    pending = iter(ops)
    outcomes: list[Outcome] = []
    start = time.perf_counter() + 0.01

    def sender(k: int) -> None:
        while True:
            with lock:
                op = next(pending, None)
            if op is None:
                return
            now = time.perf_counter() - start
            if now > cutoff:
                outcomes.append(
                    Outcome(op, SHED, b"", now - op.due_s, float("inf"), now)
                )
                continue
            if now < op.due_s:
                time.sleep(op.due_s - now)
            sent = time.perf_counter() - start
            try:
                status, body = send(k, op)
            # The sender must keep running: a failed request is recorded.
            except Exception as exc:
                status, body = 0, repr(exc).encode("utf-8")
            end = time.perf_counter() - start
            outcomes.append(
                Outcome(op, status, body, sent - op.due_s, end - op.due_s, end)
            )

    workers = [
        threading.Thread(target=sender, args=(k,), name=f"loadgen-{k}")
        for k in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    outcomes.sort(key=lambda o: o.op.due_s)
    return outcomes


@dataclass
class StepStats:
    """Latency and completion summary of one phase."""

    rate: float
    scheduled: int
    good: int  # answered 200 with correct content
    failed: int  # sent and answered wrongly, or transport error
    in_time: int  # good and finished within the step plus grace
    p50_ms: float
    p90_ms: float
    p95_ms: float
    late_p95_ms: float
    goodput: float  # rate of good completions inside the step, per second

    @property
    def passed(self) -> bool:
        return (
            self.failed == 0
            and self.in_time >= IN_TIME_SHARE * self.scheduled
            and self.p95_ms <= LATENCY_LIMIT_MS
        )


def step_stats(
    segments: Sequence[tuple[Sequence[Outcome], Sequence[bool]]],
    rate: float,
    duration_s: float,
    grace_s: float = 1.0,
) -> StepStats:
    """Summarise one step made of one or more phases (segments) of the
    same rate and length; each segment is its outcomes and, per outcome,
    whether it was correct."""
    every = [o for outcomes, _ in segments for o in outcomes]
    ok = [
        o for outcomes, good in segments for o, g in zip(outcomes, good) if g
    ]
    sent = [o for o in every if o.status != SHED]
    # Completions per second between the first and the last completion
    # inside each segment: under overload this is the sustained capacity.
    gaps = span = 0.0
    for outcomes, good in segments:
        ends = sorted(
            o.end_s
            for o, g in zip(outcomes, good)
            if g and o.end_s <= duration_s
        )
        if len(ends) > 1:
            gaps += len(ends) - 1
            span += ends[-1] - ends[0]
    goodput = gaps / span if span > 0 else len(ok) / duration_s
    latencies = [o.latency_s * 1e3 for o in ok]
    lateness = [o.late_s * 1e3 for o in sent]
    nan = float("nan")
    return StepStats(
        rate=rate,
        scheduled=len(every),
        good=len(ok),
        failed=len(sent) - len(ok),
        in_time=sum(1 for o in ok if o.end_s <= duration_s + grace_s),
        p50_ms=percentile(latencies, 50) if latencies else nan,
        p90_ms=percentile(latencies, 90) if latencies else nan,
        p95_ms=percentile(latencies, 95) if latencies else nan,
        late_p95_ms=percentile(lateness, 95) if lateness else nan,
        goodput=goodput,
    )


class _NoDelayConnection(http.client.HTTPConnection):
    """``http.client`` writes headers and body in two sends; with Nagle on,
    the second waits for the server's delayed ACK.  The load generator
    must not add that stall to what it measures, so it disables Nagle."""

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class HttpSender:
    """One connection per sender thread: persistent or fresh per request."""

    HEADERS = {"Content-Type": "application/json"}

    def __init__(
        self, host: str, port: int, keepalive: bool, timeout_s: float = 10.0
    ):
        self.host = host
        self.port = int(port)
        self.keepalive = keepalive
        self.timeout_s = timeout_s
        self._conns: dict[int, _NoDelayConnection] = {}

    def request(
        self, k: int, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        conn = self._conns.pop(k, None)
        if conn is None:
            conn = _NoDelayConnection(
                self.host, self.port, timeout=self.timeout_s
            )
        try:
            conn.request(
                method, path, body=body,
                headers=self.HEADERS if body is not None else {},
            )
            response = conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            raise
        if self.keepalive and not response.will_close:
            self._conns[k] = conn
        else:
            conn.close()
        return response.status, data

    def close(self) -> None:
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()
