"""The asyncio job server: admission, single-flight, workers, streaming.

``ServiceServer`` owns four pieces of state, all mutated only on the
event-loop thread (no locks):

- the **single-flight map** ``{job id -> Job}``: every request the
  server has ever admitted, keyed by content-addressed identity.  A
  concurrent identical submission joins the existing job; a later
  identical submission is served from the finished job or the disk
  cache.  N identical pending requests therefore collapse into exactly
  one execution, by construction.
- the **bounded admission queue**: external submissions that need
  computing go through ``put_nowait`` — a full queue is an immediate
  typed ``ServiceBusy`` rejection (explicit backpressure, never an
  unbounded buffer).  Cells expanded from an admitted sweep use
  *blocking* puts instead: the sweep was already admitted, so its
  cells trickle through the same queue as slots free up, throttled by
  the same bound.
- the **worker pool**: the bench fan-out's :func:`worker_pool` of
  simulation processes fed through the exact picklable entries the CLIs use
  (:func:`repro.bench.runner.compute_cell`,
  :func:`repro.bench.runner.compute_cluster_cell`), so results —
  and their SHA-256 cache identities — are byte-identical to direct
  CLI runs.  A pool process that dies fails the jobs the pool held
  (typed, ``WorkerDied: BrokenProcessPool``) and the pool is replaced once.
- the **subscriber queues**: per-job progress events (queued/started/
  per-cell progress/terminal) streamed to any client that subscribed.

Shutdown is a graceful drain: stop admitting (typed ``Draining``
rejections), let queued + running work finish within the grace period,
then abandon what remains (the cache's atomic writes mean abandoning
mid-cell never corrupts an entry), close the connections clients still
hold, wait for the listener, then close the pool (bounded joins).
Signal-initiated shutdown exits nonzero; a second signal hard-kills.
"""

from __future__ import annotations

import asyncio
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.bench.cache import ResultCache
from repro.bench.clock import now_s
from repro.bench.runner import (
    SweepOutcome,
    WorkerDied,
    artifact_text,
    bench_artifact,
    close_pool,
    matrix_from_dict,
    worker_pool,
)
from repro.service.jobs import (
    COMPUTE_FNS,
    KIND_SWEEP,
    JobRequest,
    normalize_request,
    request_from_cell,
)
from repro.service.metrics import fold_cache_counters, make_service_registry
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    NotDone,
    RequestError,
    ServiceBusy,
    ServiceDraining,
    ServiceError,
    UnknownJob,
    decode,
    encode,
    error_response,
)

STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"


@dataclass
class ServiceConfig:
    """Everything that parameterizes one server instance."""

    socket_path: str
    workers: int = 2
    queue_bound: int = 16
    #: result-cache directory; None = memory-only single-flight
    cache_dir: Optional[str] = None
    #: graceful-drain budget before in-flight work is abandoned
    drain_grace_s: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_bound < 1:
            raise ValueError("queue_bound must be >= 1")
        if self.drain_grace_s < 0:
            raise ValueError("drain_grace_s must be >= 0")


class Job:
    """One admitted unit of work and everybody waiting on it."""

    __slots__ = (
        "kind", "key", "label", "params", "cacheable", "state",
        "result", "error", "cached", "computed", "submitted_s",
        "started_s", "finished_s", "event", "subscribers",
    )

    def __init__(self, req: JobRequest):
        self.kind = req.kind
        self.key = req.key
        self.label = req.label
        self.params = req.params
        self.cacheable = req.cacheable
        self.state = STATE_QUEUED
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        #: served from the disk cache without execution
        self.cached = False
        #: executed by this server (vs joined/cached)
        self.computed = False
        self.submitted_s = now_s()
        self.started_s = 0.0
        self.finished_s = 0.0
        self.event = asyncio.Event()
        self.subscribers: List[asyncio.Queue] = []

    @property
    def terminal(self) -> bool:
        return self.state in (STATE_DONE, STATE_FAILED)


class ServiceServer:
    """A persistent simulation-as-a-service job server on a unix socket."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.cache: Optional[ResultCache] = (
            ResultCache(config.cache_dir) if config.cache_dir else None)
        self.metrics = make_service_registry(
            config.workers, config.queue_bound)
        self._jobs: Dict[str, Job] = {}
        self._queue: Optional[asyncio.Queue] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._worker_tasks: List[asyncio.Task] = []
        self._sweep_tasks: List[asyncio.Task] = []
        #: live connection handlers, oldest first (a dict for its order:
        #: shutdown cancels them in the order they connected)
        self._conn_tasks: Dict[asyncio.Task, None] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        self._shutdown = asyncio.Event()
        self._idle = asyncio.Event()
        self._active = 0
        self._running = 0
        self._exit_code = 0
        self._signals_seen = 0

    # -- lifecycle ----------------------------------------------------------

    async def run_async(
        self,
        ready: Optional[Callable[[], None]] = None,
        install_signal_handlers: bool = False,
    ) -> int:
        """Serve until shutdown is requested; return the exit code.

        ``ready`` is called once the socket is listening (used by the
        CLI to print the address and by tests to synchronize).
        ``install_signal_handlers`` wires SIGINT/SIGTERM to a graceful
        drain (exit ``128+signum``); a second signal hard-exits.  Only
        the CLI sets it — handlers need the main thread.
        """
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._queue = asyncio.Queue(maxsize=self.config.queue_bound)
        self._pool = worker_pool(self.config.workers)
        self._worker_tasks = [
            loop.create_task(self._worker(), name=f"svc-worker-{i}")
            for i in range(self.config.workers)
        ]
        sock = Path(self.config.socket_path)
        if sock.exists():
            # a dead server's socket file blocks bind; a live one will
            # have its listener replaced, which is the operator's call
            sock.unlink()
        sock.parent.mkdir(parents=True, exist_ok=True)
        server = await asyncio.start_unix_server(
            self._handle_connection, path=str(sock), limit=MAX_LINE_BYTES)
        if install_signal_handlers:
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(
                    signum, self._on_signal, signum)
        if ready is not None:
            ready()

        await self._shutdown.wait()

        # -- graceful drain: no new admissions, let work finish ------------
        self._draining = True
        self.metrics.gauge("service.draining").set(1)
        clean = True
        try:
            await asyncio.wait_for(
                self._wait_idle(), timeout=self.config.drain_grace_s)
        except asyncio.TimeoutError:
            clean = False
            self._abandon_pending()
        for task in self._sweep_tasks:
            task.cancel()
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(
            *self._sweep_tasks, *self._worker_tasks,
            return_exceptions=True)
        # clients keep their connections between requests, and since
        # Python 3.12 wait_closed() waits for every open one: stop
        # listening, close the handlers (idle ones sit in a read), and
        # only then wait for the listener
        server.close()
        handlers = list(self._conn_tasks)
        for task in handlers:
            task.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)
        await server.wait_closed()
        close_pool(self._pool, abort=not clean)
        try:
            sock.unlink()
        except OSError:
            pass
        return self._exit_code

    def request_shutdown(self, exit_code: int = 0) -> None:
        """Begin the graceful drain (idempotent; first caller wins the
        exit code)."""
        if not self._shutdown.is_set():
            self._exit_code = exit_code
            self._shutdown.set()

    def _on_signal(self, signum: int) -> None:
        self._signals_seen += 1
        if self._signals_seen >= 2:
            # second signal: the operator means it — abandon everything
            os._exit(128 + signum)
        self.request_shutdown(128 + signum)

    async def _wait_idle(self) -> None:
        while self._active > 0:
            self._idle.clear()
            await self._idle.wait()

    def _abandon_pending(self) -> None:
        """Grace expired: everything not terminal becomes a typed
        failure (the cache's atomic writes keep abandoned cells from
        ever corrupting an entry — they are simply absent)."""
        for job in list(self._jobs.values()):
            if not job.terminal:
                self._finish_failed(job, "abandoned at service shutdown")

    # -- bookkeeping --------------------------------------------------------

    def _publish(self, job: Job, event: Dict[str, Any]) -> None:
        event = {"id": job.key, "label": job.label, **event}
        for q in list(job.subscribers):
            q.put_nowait(event)

    def _terminal_event(self, job: Job) -> Dict[str, Any]:
        event: Dict[str, Any] = {
            "id": job.key, "label": job.label, "final": True,
            "event": "done" if job.state == STATE_DONE else "failed",
            "state": job.state, "cached": job.cached,
        }
        if job.error is not None:
            event["error"] = job.error
        return event

    def _job_terminal(self, job: Job) -> None:
        job.finished_s = now_s()
        job.event.set()
        self._active -= 1
        if self._active <= 0:
            self._idle.set()
        self._publish(job, self._terminal_event(job))

    def _finish_done(self, job: Job, result: Dict[str, Any],
                     computed: bool) -> None:
        job.result = result
        job.computed = computed
        job.state = STATE_DONE
        if computed:
            self.metrics.counter("service.executions").inc()
        self._job_terminal(job)

    def _finish_failed(self, job: Job, message: str) -> None:
        job.error = message
        job.state = STATE_FAILED
        self.metrics.counter("service.failed").inc()
        self._job_terminal(job)

    def _update_gauges(self) -> None:
        if self._queue is not None:
            self.metrics.gauge("service.queue_depth").set(self._queue.qsize())
        self.metrics.gauge("service.running").set(self._running)
        fold_cache_counters(self.metrics, self.cache)

    # -- admission / single-flight ------------------------------------------

    async def _admit(self, req: JobRequest, *, external: bool) -> Job:
        """Admit one request; returns the (possibly shared) job.

        External submissions face admission control (typed ServiceBusy
        on a full queue, Draining during shutdown); internal sweep
        cells use blocking puts — their sweep was already admitted.
        """
        assert self._queue is not None
        if external:
            self.metrics.counter("service.submits").inc()
        existing = self._jobs.get(req.key)
        if existing is not None and not (existing.state == STATE_FAILED):
            if external:
                if existing.terminal:
                    self.metrics.counter("service.cache_hits").inc()
                else:
                    self.metrics.counter("service.dedup_joined").inc()
            return existing
        if external and self._draining:
            raise ServiceDraining("service is draining; resubmit elsewhere")

        if req.cacheable and self.cache is not None:
            hit = self.cache.get(req.key)
            if hit is not None:
                job = Job(req)
                job.result = hit
                job.cached = True
                job.state = STATE_DONE
                job.event.set()
                self._jobs[req.key] = job
                if external:
                    self.metrics.counter("service.cache_hits").inc()
                return job

        job = Job(req)
        self._jobs[req.key] = job
        if req.kind == KIND_SWEEP:
            if external and self._queue.full():
                del self._jobs[req.key]
                self.metrics.counter("service.rejected_busy").inc()
                raise ServiceBusy(
                    "admission queue is full",
                    queue_depth=self._queue.qsize(),
                    queue_bound=self.config.queue_bound,
                )
            self._active += 1
            assert self._loop is not None
            self._sweep_tasks.append(
                self._loop.create_task(self._run_sweep(job)))
            self._sweep_tasks = [
                t for t in self._sweep_tasks if not t.done()]
        elif external:
            try:
                self._queue.put_nowait(job)
            except asyncio.QueueFull:
                del self._jobs[req.key]
                self.metrics.counter("service.rejected_busy").inc()
                raise ServiceBusy(
                    "admission queue is full",
                    queue_depth=self._queue.qsize(),
                    queue_bound=self.config.queue_bound,
                ) from None
            self._active += 1
        else:
            self._active += 1
            await self._queue.put(job)
        self.metrics.counter("service.accepted").inc()
        self._update_gauges()
        self._publish(job, {"event": "queued", "state": STATE_QUEUED})
        return job

    # -- execution ----------------------------------------------------------

    async def _worker(self) -> None:
        """One pool feeder: pull queued jobs, run them on a process."""
        assert self._queue is not None and self._loop is not None
        while True:
            job = await self._queue.get()
            if job.state != STATE_QUEUED:
                continue  # abandoned during drain
            job.state = STATE_RUNNING
            job.started_s = now_s()
            self._running += 1
            self.metrics.histogram("service.queue_wait_ms").observe(
                (job.started_s - job.submitted_s) * 1000.0)
            self._update_gauges()
            self._publish(job, {"event": "started", "state": STATE_RUNNING})
            fn = COMPUTE_FNS[job.kind]
            pool = self._pool
            try:
                _key, result = await self._loop.run_in_executor(
                    pool, fn, job.params)
            except asyncio.CancelledError:
                self._running -= 1
                if not job.terminal:
                    self._finish_failed(job, "aborted at service shutdown")
                raise
            except Exception as exc:  # worker raised: typed job failure
                self._running -= 1
                if isinstance(exc, BrokenProcessPool):
                    if pool is self._pool:
                        # a pool process died (SIGKILL, OOM) and the
                        # executor refuses all work from now on: the
                        # first feeder to see it replaces it
                        self._pool = worker_pool(self.config.workers)
                        close_pool(pool, abort=True)
                    exc = WorkerDied(f"{type(exc).__name__}: {exc}")
                self._finish_failed(job, f"{type(exc).__name__}: {exc}")
            else:
                self._running -= 1
                self.metrics.histogram("service.run_ms").observe(
                    (now_s() - job.started_s) * 1000.0)
                if job.cacheable and self.cache is not None:
                    self.cache.put(job.key, result)
                self._finish_done(job, result, computed=True)
            self._update_gauges()

    async def _run_sweep(self, job: Job) -> None:
        """Sweep coordinator: admit every cell through the single-flight
        map (deduped against direct submissions and other sweeps), then
        assemble the byte-identical ``BENCH_<name>.json`` artifact."""
        try:
            matrix = matrix_from_dict(job.params["matrix"])
            cells = matrix.cells()
            job.state = STATE_RUNNING
            job.started_s = now_s()
            self._publish(job, {
                "event": "started", "state": STATE_RUNNING,
                "cells": len(cells),
            })
            subs = []
            for cell in cells:
                sub = await self._admit(request_from_cell(cell),
                                        external=False)
                subs.append((cell, sub))

            async def watch(pair):
                await pair[1].event.wait()
                return pair

            total = len(subs)
            finished = 0
            for coro in asyncio.as_completed(
                    [watch(pair) for pair in subs]):
                cell, sub = await coro
                finished += 1
                self._publish(job, {
                    "event": "progress", "done": finished, "total": total,
                    "cell": sub.label, "cell_state": sub.state,
                })
            failures = [
                (sub.label, sub.error)
                for _cell, sub in subs if sub.state == STATE_FAILED
            ]
            if failures:
                label, error = failures[0]
                self._finish_failed(
                    job,
                    f"{len(failures)}/{total} cells failed "
                    f"(first: {label}: {error})",
                )
                return
            by_key = {sub.key: (cell, sub) for cell, sub in subs}
            ordered = [by_key[k] for k in sorted(by_key)]
            computed = sum(1 for _c, sub in ordered if sub.computed)
            outcome = SweepOutcome(
                matrix=matrix,
                results=[(cell, dict(sub.result or {}))
                         for cell, sub in ordered],
                computed=computed,
                cached=len(ordered) - computed,
            )
            text = artifact_text(bench_artifact(outcome))
            self._finish_done(job, {
                "artifact": text,
                "artifact_name": f"BENCH_{matrix.name}.json",
                "cells": total,
                "computed": computed,
                "cached": len(ordered) - computed,
            }, computed=False)
        except asyncio.CancelledError:
            if not job.terminal:
                self._finish_failed(job, "aborted at service shutdown")
            raise
        except Exception as exc:
            if not job.terminal:
                self._finish_failed(job, f"{type(exc).__name__}: {exc}")

    # -- protocol -----------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        """Serve a connection's request lines in order until the client
        closes it (clients keep one connection for many requests)."""
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks[task] = None
        self.metrics.counter("service.connections").inc()
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # EOF: b"" or an unterminated line
                except asyncio.LimitOverrunError as exc:
                    await self._reject_oversized(reader, writer, exc.consumed)
                    continue
                if not line:
                    break
                stop = await self._serve_line(line, writer)
                if stop:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # server teardown closes lingering connections quietly
        finally:
            if task is not None:
                self._conn_tasks.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    async def _reject_oversized(reader, writer, skip: int) -> None:
        """A request line over ``MAX_LINE_BYTES``: one typed
        ``BadRequest``, then drop the line through its newline (``skip``
        bytes of it are buffered) — the connection stays usable."""
        writer.write(encode(error_response(RequestError(
            f"request line exceeds {MAX_LINE_BYTES} bytes"))))
        await writer.drain()
        while True:
            await reader.readexactly(skip)
            try:
                await reader.readuntil(b"\n")
                return
            except asyncio.LimitOverrunError as exc:
                skip = exc.consumed

    async def _serve_line(self, line: bytes, writer) -> bool:
        """Serve one request line; True means close the connection."""
        try:
            doc = decode(line)
            op = doc.get("op")
            if op == "subscribe":
                await self._op_subscribe(doc, writer)
                return False
            resp = await self._dispatch(doc)
        except ServiceError as exc:
            writer.write(encode(error_response(exc)))
            await writer.drain()
            return False
        writer.write(encode(resp))
        await writer.drain()
        return bool(resp.get("draining")) and doc.get("op") == "shutdown"

    async def _dispatch(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        op = doc.get("op")
        if op == "ping":
            return {
                "ok": True, "pong": True, "version": PROTOCOL_VERSION,
                "draining": self._draining,
            }
        if op == "submit":
            req = normalize_request(doc.get("request"))
            job = await self._admit(req, external=True)
            return {
                "ok": True, "id": job.key, "state": job.state,
                "label": job.label, "cached": job.cached,
            }
        if op == "status":
            job = self._require_job(doc)
            resp: Dict[str, Any] = {
                "ok": True, "id": job.key, "state": job.state,
                "kind": job.kind, "label": job.label, "cached": job.cached,
                "queue_depth": self._queue.qsize() if self._queue else 0,
                "running": self._running,
            }
            if job.error is not None:
                resp["error_message"] = job.error
            if job.kind == KIND_SWEEP and job.result is not None:
                resp["cells"] = job.result.get("cells")
                resp["computed"] = job.result.get("computed")
            return resp
        if op == "fetch":
            job = self._require_job(doc)
            if job.state == STATE_FAILED:
                from repro.service.protocol import JobFailed

                raise JobFailed(job.error or "job failed")
            if not job.terminal:
                raise NotDone(f"job {job.key[:12]} is {job.state}")
            return {
                "ok": True, "id": job.key, "kind": job.kind,
                "artifact": self._artifact_for(job),
            }
        if op == "metrics":
            self._update_gauges()
            return {"ok": True, "metrics": self.metrics.as_dict()}
        if op == "shutdown":
            self.request_shutdown(0)
            return {"ok": True, "draining": True}
        raise RequestError(f"unknown op {op!r}")

    def _require_job(self, doc: Dict[str, Any]) -> Job:
        key = doc.get("id")
        job = self._jobs.get(key) if isinstance(key, str) else None
        if job is None:
            raise UnknownJob(f"no job {key!r} on this server")
        return job

    def _artifact_for(self, job: Job) -> str:
        """The canonical fetchable text of a finished job.

        Sweeps return the exact bytes ``write_bench_json`` would have
        written — ``cmp``-equal to the direct CLI artifact when both
        ran against the same cache lineage.  Single cells return a
        canonical ``{key, kind, result}`` document.
        """
        assert job.result is not None
        if job.kind == KIND_SWEEP:
            return job.result["artifact"]
        return artifact_text(
            {"key": job.key, "kind": job.kind, "result": job.result})

    async def _op_subscribe(self, doc: Dict[str, Any], writer) -> None:
        try:
            job = self._require_job(doc)
        except ServiceError as exc:
            writer.write(encode(error_response(exc)))
            await writer.drain()
            return
        if job.terminal:
            writer.write(encode({"ok": True, "subscribed": job.key}))
            writer.write(encode(self._terminal_event(job)))
            await writer.drain()
            return
        q: asyncio.Queue = asyncio.Queue()
        job.subscribers.append(q)
        writer.write(encode({
            "ok": True, "subscribed": job.key, "state": job.state}))
        await writer.drain()
        try:
            while True:
                event = await q.get()
                writer.write(encode(event))
                await writer.drain()
                if event.get("final"):
                    return
        finally:
            if q in job.subscribers:
                job.subscribers.remove(q)


def serve(config: ServiceConfig, install_signal_handlers: bool = True) -> int:
    """Blocking entry: run a server until drained; return exit code."""
    server = ServiceServer(config)

    def ready() -> None:
        print(f"repro.service listening on {config.socket_path} "
              f"({config.workers} workers, queue bound "
              f"{config.queue_bound}, cache "
              f"{config.cache_dir or 'disabled'})", flush=True)

    return asyncio.run(server.run_async(
        ready=ready, install_signal_handlers=install_signal_handlers))
