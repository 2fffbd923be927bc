"""Synchronous client library for the simulation job service.

A :class:`ServiceClient` talks newline-delimited JSON to a running
server over its unix socket.  Each call opens a short-lived connection
(one line out, one line in) except :meth:`subscribe`, which holds its
connection open and yields streamed progress events until the job's
final event arrives.

Typed errors from the server (``ServiceBusy``, ``Draining``,
``UnknownJob``, ...) are re-raised as the matching
:mod:`repro.service.protocol` exception classes, so callers handle
admission rejection with ``except ServiceBusy`` rather than by string
matching — the swarm's retry/backoff loop is the canonical example.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Iterator, Optional

from repro.service.clock import now_s
from repro.service.protocol import (
    NotDone,
    ServiceError,
    error_to_exception,
    encode,
)


class ServiceClient:
    """A small blocking client; safe to construct per-thread."""

    def __init__(self, socket_path: str, timeout_s: float = 120.0):
        self.socket_path = socket_path
        self.timeout_s = timeout_s

    # -- plumbing -----------------------------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout_s)
        sock.connect(self.socket_path)
        return sock

    def _roundtrip(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        with self._connect() as sock:
            sock.sendall(encode(doc))
            with sock.makefile("rb") as stream:
                line = stream.readline()
        return self._check(line)

    @staticmethod
    def _check(line: bytes) -> Dict[str, Any]:
        import json

        if not line:
            raise ServiceError("connection closed by server mid-response")
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
        with self._connect() as sock:
            sock.sendall(encode({"op": "subscribe", "id": job_id}))
            # a buffered reader: the ack and a terminal event may arrive
            # coalesced in one recv, and each readline() must yield
            # exactly one protocol line
            with sock.makefile("rb") as stream:

                def next_line() -> bytes:
                    if deadline is not None:
                        sock.settimeout(max(deadline - now_s(), 1e-3))
                    return stream.readline()

                ack = self._check(next_line())
                if ack.get("final"):
                    yield ack
                    return
                while True:
                    event = next_line()
                    if not event:
                        return  # server went away mid-stream
                    doc = self._check(event)
                    yield doc
                    if doc.get("final"):
                        return

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
