"""Wire protocol of the simulation service: newline-delimited JSON.

One request is one JSON object on one line; one response is one JSON
object on one line.  The only multi-line exchange is ``subscribe``,
where the server streams event objects (each ``{"event": ...}``) and
terminates with a final object carrying ``"final": true``.

A connection carries any number of requests, one after another: the
server answers each line in order and serves the connection until the
client closes it (or a ``shutdown`` is answered).  A request line is at
most :data:`MAX_LINE_BYTES` bytes before its newline; the server checks
that before decoding, answers a longer line with one typed
``BadRequest``, drops it through its newline and goes on serving the
same connection.

Requests::

    {"op": "ping"}
    {"op": "submit", "request": {"type": "kernel"|"cluster"|"sweep"|"noop", ...}}
    {"op": "status", "id": "<job id>"}
    {"op": "fetch",  "id": "<job id>"}
    {"op": "subscribe", "id": "<job id>"}
    {"op": "metrics"}
    {"op": "shutdown"}

Responses carry ``"ok": true`` plus op-specific fields, or ``"ok":
false`` with ``"error"`` (a typed name from :data:`ERROR_TYPES`) and
``"message"``.  Admission rejection is the typed error ``ServiceBusy``
— a full queue is *always* an explicit, immediate refusal, never an
unbounded buffer or a hang.

Job identity
------------
A job id **is** its content-addressed cache key: the SHA-256
fingerprint of the canonicalized request configuration (the same
:func:`repro.bench.cache.config_fingerprint` identity the sweep cache
uses).  Two clients submitting the same experiment therefore share one
id, one execution, and one cache entry, by construction.
"""

from __future__ import annotations

import json
from typing import Any, Dict

#: protocol schema generation, echoed by ``ping``
PROTOCOL_VERSION = 2

#: longest request line the server reads, newline excluded (the
#: server's stream-reader limit; the client refuses to send longer)
MAX_LINE_BYTES = 64 * 1024

#: typed error names a response's ``error`` field may carry
ERROR_TYPES = (
    "BadRequest",     # malformed JSON, unknown op, invalid request config
    "ServiceBusy",    # admission control: bounded queue is full (typed, not a hang)
    "Draining",       # server is shutting down and no longer admits work
    "UnknownJob",     # status/fetch/subscribe of an id the server never saw
    "JobFailed",      # fetch of a job whose execution raised
    "NotDone",        # fetch of a job still queued/running
)


class ServiceError(RuntimeError):
    """Base class of every typed client-visible service error."""

    error = "BadRequest"


class RequestError(ServiceError):
    """The request was malformed or semantically invalid."""

    error = "BadRequest"


class ServiceBusy(ServiceError):
    """Admission control rejected the submission: the bounded queue is
    full.  Carries the server's queue snapshot so clients can implement
    informed backoff."""

    error = "ServiceBusy"

    def __init__(self, message: str, queue_depth: int = 0, queue_bound: int = 0):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.queue_bound = queue_bound


class ServiceDraining(ServiceError):
    """The server is draining for shutdown and admits no new work."""

    error = "Draining"


class UnknownJob(ServiceError):
    """No job with that id exists on this server."""

    error = "UnknownJob"


class JobFailed(ServiceError):
    """The job's execution raised; the message carries the cause."""

    error = "JobFailed"


class NotDone(ServiceError):
    """The job exists but has not finished yet."""

    error = "NotDone"


#: error-name -> exception class, for client-side re-raising
_ERROR_CLASSES: Dict[str, type] = {
    "BadRequest": RequestError,
    "ServiceBusy": ServiceBusy,
    "Draining": ServiceDraining,
    "UnknownJob": UnknownJob,
    "JobFailed": JobFailed,
    "NotDone": NotDone,
}


def error_to_exception(doc: Dict[str, Any]) -> ServiceError:
    """Rebuild the typed exception a ``"ok": false`` response encodes."""
    name = doc.get("error", "BadRequest")
    message = doc.get("message", "service error")
    cls = _ERROR_CLASSES.get(name, ServiceError)
    if cls is ServiceBusy:
        return ServiceBusy(
            message,
            queue_depth=int(doc.get("queue_depth", 0)),
            queue_bound=int(doc.get("queue_bound", 0)),
        )
    return cls(message)


def encode(doc: Dict[str, Any]) -> bytes:
    """One protocol line: compact JSON + newline."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one protocol line; typed :class:`RequestError` on garbage."""
    try:
        doc = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RequestError(f"malformed protocol line: {exc}") from exc
    if not isinstance(doc, dict):
        raise RequestError("protocol line must be a JSON object")
    return doc


def error_response(exc: ServiceError, req_id: Any = None) -> Dict[str, Any]:
    """The ``"ok": false`` document for a typed error."""
    doc: Dict[str, Any] = {"ok": False, "error": exc.error, "message": str(exc)}
    if isinstance(exc, ServiceBusy):
        doc["queue_depth"] = exc.queue_depth
        doc["queue_bound"] = exc.queue_bound
    if req_id is not None:
        doc["id"] = req_id
    return doc
