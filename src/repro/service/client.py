"""Synchronous client library for the simulation job service.

A :class:`ServiceClient` talks newline-delimited JSON to a running
server over its unix socket.  It keeps **one connection per calling
thread**: opened on the thread's first call, held in a
``threading.local`` and reused by every later op, ``subscribe`` streams
included — the way an MPI process sets up a VI the first time it needs
a peer and then keeps it, rather than reconnecting per message.
:meth:`ServiceClient.close` (or leaving a ``with`` block) closes every
connection the client opened, on any thread.

Two rules keep a kept connection honest:

- *Stale connections.*  A kept connection that turns out dead — the
  send fails, or EOF arrives before any response byte, because the
  server dropped it while it sat idle — is replaced once and the line
  resent.  Every op is idempotent (a job id is its content-addressed
  key), so the resend never runs anything twice.
- *Unfinished streams.*  A ``subscribe`` stream owns its connection
  until its final event.  A stream left early (the caller stops
  iterating, or :meth:`ServiceClient.wait` times out) discards the
  connection, so a stale event is never read as the next op's response.

Typed errors from the server (``ServiceBusy``, ``Draining``,
``UnknownJob``, ...) are re-raised as the matching
:mod:`repro.service.protocol` exception classes, so callers handle
admission rejection with ``except ServiceBusy`` rather than by string
matching — the swarm's retry/backoff loop is the canonical example.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Any, Dict, Iterator, Optional, Set, Tuple

from repro.bench.clock import now_s
from repro.service.protocol import (
    MAX_LINE_BYTES,
    NotDone,
    RequestError,
    ServiceError,
    error_to_exception,
    encode,
)


class _Conn:
    """One kept connection: the socket and its buffered line reader."""

    __slots__ = ("sock", "lines")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        # a buffered reader: a subscribe ack and its terminal event may
        # arrive coalesced in one recv, and each readline() must yield
        # exactly one protocol line
        self.lines = sock.makefile("rb")

    def close(self) -> None:
        self.lines.close()
        self.sock.close()


class ServiceClient:
    """A small blocking client; one connection per calling thread."""

    def __init__(self, socket_path: str, timeout_s: float = 120.0):
        self.socket_path = socket_path
        self.timeout_s = timeout_s
        #: this thread's connection, as ``.conn`` (absent until first use)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: every open connection of this client, whatever thread holds it
        self._conns: Set[_Conn] = set()

    def close(self) -> None:
        """Close every connection this client opened.  The client stays
        usable: a later call opens a fresh connection."""
        with self._lock:
            conns, self._conns = self._conns, set()
            self._local = threading.local()
        for conn in conns:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- plumbing -----------------------------------------------------------

    def _open(self) -> _Conn:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.timeout_s)
            sock.connect(self.socket_path)
        except BaseException:
            sock.close()
            raise
        conn = _Conn(sock)
        with self._lock:
            self._conns.add(conn)
        return conn

    def _discard(self, conn: _Conn) -> None:
        with self._lock:
            self._conns.discard(conn)
        if getattr(self._local, "conn", None) is conn:
            self._local.conn = None
        conn.close()

    def _send(self, doc: Dict[str, Any],
              deadline: Optional[float] = None) -> Tuple[_Conn, bytes]:
        """Send one request line on this thread's connection; return the
        connection and the first response line.  Past ``deadline`` (host
        seconds) the read raises ``socket.timeout``."""
        line = encode(doc)
        if len(line) - 1 > MAX_LINE_BYTES:
            raise RequestError(
                f"request line of {len(line) - 1} bytes exceeds "
                f"{MAX_LINE_BYTES}")
        while True:
            conn = getattr(self._local, "conn", None)
            kept = conn is not None
            if not kept:
                conn = self._local.conn = self._open()
            try:
                if deadline is not None:
                    conn.sock.settimeout(max(deadline - now_s(), 1e-3))
                conn.sock.sendall(line)
                first = conn.lines.readline()
            except socket.timeout:
                self._discard(conn)
                raise
            except OSError:
                if not kept:
                    self._discard(conn)
                    raise
                first = b""
            if first:
                return conn, first
            self._discard(conn)
            if not kept:
                raise ServiceError("connection closed by server mid-response")
            # the server dropped the kept connection while it sat idle:
            # go round once more on a fresh one

    def _roundtrip(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        return self._check(self._send(doc)[1])

    @staticmethod
    def _check(line: bytes) -> Dict[str, Any]:
        resp = json.loads(line.decode("utf-8"))
        # streamed progress events carry no "ok" field; only an explicit
        # "ok": false document is a typed error
        if resp.get("ok", True) is False:
            raise error_to_exception(resp)
        return resp

    # -- ops ----------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self._roundtrip({"op": "ping"})

    def submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Submit one experiment request; returns ``{id, state, ...}``.

        Raises :class:`~repro.service.protocol.ServiceBusy` when the
        server's bounded admission queue is full and
        :class:`~repro.service.protocol.ServiceDraining` during
        shutdown — both are immediate typed refusals, never a hang.
        """
        return self._roundtrip({"op": "submit", "request": request})

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._roundtrip({"op": "status", "id": job_id})

    def fetch(self, job_id: str) -> str:
        """The finished job's canonical artifact text (byte-identical
        to what the direct CLI would have written)."""
        return self._roundtrip({"op": "fetch", "id": job_id})["artifact"]

    def metrics(self) -> Dict[str, Any]:
        return self._roundtrip({"op": "metrics"})["metrics"]

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to drain gracefully and exit 0."""
        return self._roundtrip({"op": "shutdown"})

    def subscribe(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Yield the job's progress events until (and including) the
        final one.  A job that already finished yields just its
        terminal event."""
        return self._events(job_id, deadline=None)

    def _events(self, job_id: str,
                deadline: Optional[float]) -> Iterator[Dict[str, Any]]:
        """The ``subscribe`` stream; past ``deadline`` (host seconds) a
        read raises ``socket.timeout`` instead of blocking on."""
        conn, ack = self._send({"op": "subscribe", "id": job_id}, deadline)
        # the stream owns the connection until its final event: an op
        # this thread makes meanwhile opens a connection of its own
        self._local.conn = None
        final = False
        try:
            self._check(ack)
            while not final:
                if deadline is not None:
                    conn.sock.settimeout(max(deadline - now_s(), 1e-3))
                line = conn.lines.readline()
                if not line:
                    return  # server went away mid-stream
                doc = self._check(line)
                final = bool(doc.get("final"))
                yield doc
        finally:
            if final and getattr(self._local, "conn", None) is None:
                if deadline is not None:
                    conn.sock.settimeout(self.timeout_s)
                self._local.conn = conn
            else:
                self._discard(conn)

    def wait(self, job_id: str, poll_s: float = 0.05,
             timeout_s: Optional[float] = None) -> Dict[str, Any]:
        """Block until the job is terminal; returns the final status
        document.  Completion is observed on the ``subscribe`` stream —
        no sleeping through it; ``status`` is polled every ``poll_s``
        only if the stream ends without a final event."""
        deadline = (now_s() + timeout_s) if timeout_s else None
        try:
            for _event in self._events(job_id, deadline):
                pass
        except socket.timeout:
            pass  # the status check below turns this into NotDone
        while True:
            resp = self.status(job_id)
            if resp["state"] in ("done", "failed"):
                return resp
            if deadline is not None and now_s() > deadline:
                raise NotDone(
                    f"job {job_id[:12]} still {resp['state']} "
                    f"after {timeout_s}s")
            time.sleep(poll_s)

    def wait_and_fetch(self, job_id: str,
                       timeout_s: Optional[float] = None) -> str:
        """Convenience: wait for completion, then fetch the artifact.
        Raises :class:`~repro.service.protocol.JobFailed` via fetch if
        the job failed."""
        self.wait(job_id, timeout_s=timeout_s)
        return self.fetch(job_id)


__all__ = ["ServiceClient", "ServiceError"]
