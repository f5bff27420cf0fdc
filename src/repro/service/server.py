"""Resident sensing service: asyncio request server over ``repro.api``.

One long-lived process amortizes what every CLI invocation re-pays —
interpreter start, model deploy, cache warm, worker-pool fork — and
turns the stable facade into a served API.  The event loop only parses,
schedules and replies; every work operation executes on the persistent
:class:`~concurrent.futures.ProcessPoolExecutor` from
:mod:`repro.utils.parallel` (the same pool the sweeps reuse), so a
Monte-Carlo ``simulate`` with a seed list still flows through the
batched lock-step engine inside a worker.

Scheduling contract (pinned by ``tests/test_service.py``):

- **Bounded admission** — at most ``queue_limit`` requests wait;
  admission past that fails *immediately* with a typed ``queue_full``
  error.  The server never blocks an admission and never drops one
  silently.
- **Deadlines** — a request's ``deadline_ms`` is converted to an
  absolute event-loop time at admission.  Expiring while queued means
  the request is never executed; expiring in flight abandons the worker
  task (its result is discarded and the in-flight slot is reclaimed
  when the worker finishes — process pools cannot preempt a running
  task).
- **Graceful drain** — SIGTERM or a ``shutdown`` operation stops
  admission (``shutting_down`` errors), finishes every queued and
  in-flight request, flushes the metrics snapshot, then closes.
- **Observability** — ``health``/``stats`` answer inline from a
  :class:`~repro.utils.profiling.MetricsRegistry` (queue depth,
  in-flight, per-op latency histograms, rejection counters).
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import signal
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import repro.api
from repro.service import protocol
from repro.service.errors import (
    BadRequestError,
    DeadlineExceededError,
    QueueFullError,
    RequestCancelledError,
    RequestNotFoundError,
    ServiceError,
    ShuttingDownError,
    UnknownOperationError,
)
from repro.utils.cache import atomic_write
from repro.utils.parallel import get_executor, resolve_jobs
from repro.utils.profiling import MetricsRegistry

__all__ = ["SensingServer", "ServerThread", "serve_blocking"]

_log = logging.getLogger(__name__)

#: Default bound of the admission queue.
DEFAULT_QUEUE_LIMIT = 16

#: Parameters each work operation accepts over the wire (JSON-able
#: subset of the facade keywords; rich objects like ``track=`` or
#: ``config=`` stay in-process).
_ALLOWED_PARAMS: Dict[str, frozenset] = {
    protocol.OP_SIMULATE: frozenset(
        {
            "situation",
            "case",
            "length_m",
            "identifier",
            "faults",
            "mitigate",
            "seed",
            "frame",
            "profile",
            "batch",
            "cache",
        }
    ),
    protocol.OP_CHARACTERIZE: frozenset({"situation", "batch"}),
    protocol.OP_INJECT: frozenset(
        {
            "faults",
            "situation",
            "case",
            "length_m",
            "identifier",
            "mitigate",
            "seed",
            "frame",
        }
    ),
    protocol.OP_PROFILE: frozenset(
        {"situation", "case", "length_m", "identifier", "seed", "frame"}
    ),
}

#: Parameters that must be present for the operation to mean anything;
#: checked at admission so the defect never burns a worker slot.
_REQUIRED_PARAMS: Dict[str, Tuple[str, ...]] = {
    protocol.OP_INJECT: ("faults",),
    protocol.OP_CHARACTERIZE: ("situation",),
}


def _execute_request(op: str, params: Dict[str, object]) -> Dict[str, object]:
    """Run one work operation inside a pool worker.

    Dispatches onto the :mod:`repro.api` facade and returns the
    JSON-ready result payload (serialization happens in the worker, so
    the event loop never touches result arrays).  User-input defects
    surface as :class:`BadRequestError` rather than bare ``ValueError``
    so the wire error code is typed.
    """
    kwargs = dict(params)
    frame = kwargs.get("frame")
    if frame is not None:
        # JSON has no tuples; the facade wants (width, height).
        kwargs["frame"] = tuple(frame)
    cache_delta = None
    try:
        if op == protocol.OP_SIMULATE:
            if kwargs.get("cache") not in (None, "off"):
                # The whole request runs in this worker, so a snapshot
                # delta of the process-wide counters is exactly this
                # request's cache activity; it rides back beside the
                # payload for the event loop to fold into the metrics.
                from repro.cache import global_stats

                before = global_stats().snapshot()
                result = repro.api.simulate(**kwargs)
                cache_delta = global_stats().since(before)
            else:
                result = repro.api.simulate(**kwargs)
        elif op == protocol.OP_INJECT:
            result = repro.api.inject(**kwargs)
        elif op == protocol.OP_PROFILE:
            result = repro.api.profile(**kwargs)
        elif op == protocol.OP_CHARACTERIZE:
            # Served characterization is the single-situation ranked
            # view; jobs is pinned to 1 because this *is* a pool worker.
            result = repro.api.characterize(
                situation=kwargs["situation"],
                jobs=1,
                batch=kwargs.get("batch"),
            )
        else:
            raise UnknownOperationError(f"op {op!r} is not a work operation")
    except ServiceError:
        raise
    except (ValueError, TypeError) as exc:
        raise BadRequestError(f"{op} parameters rejected: {exc}") from None
    payload = protocol.work_result_to_payload(op, result=result)
    if cache_delta is not None:
        # Sidecar for the server's metrics, popped before the response
        # is sent — the wire result payload is unchanged.
        payload["cache_stats"] = cache_delta.as_dict()
    return payload


class _Connection:
    """One client connection; serializes concurrent response writes."""

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self._lock = asyncio.Lock()

    async def send(self, response: Dict[str, object]) -> None:
        """Write one response line (whole lines, never interleaved)."""
        data = protocol.encode_response(response)
        async with self._lock:
            if self.writer.is_closing():
                return
            self.writer.write(data)
            await self.writer.drain()

    def close(self) -> None:
        """Close the transport (idempotent)."""
        if not self.writer.is_closing():
            self.writer.close()


@dataclass
class _Job:
    """One admitted work request waiting for (or holding) a worker."""

    request: protocol.Request
    conn: _Connection
    #: Absolute event-loop deadline, or ``None`` for no deadline.
    deadline: Optional[float]
    cancelled: bool = False
    key: Tuple[int, str] = field(default=(0, ""))


class SensingServer:
    """The asyncio service core (transport, queueing, dispatch, drain).

    Listens on a Unix-domain socket (``socket_path=``) or TCP
    (``host=``/``port=``); exactly one of the two transports must be
    chosen.  ``workers`` resolves like every other worker count
    (explicit > ``$REPRO_JOBS`` > 1, see
    :func:`repro.utils.parallel.resolve_jobs`) and sizes both the pool
    and the dispatcher set.  ``stats_path`` names an optional JSON file
    the metrics snapshot is flushed to on drain.
    """

    def __init__(
        self,
        *,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        workers: Optional[int] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        stats_path: Optional[str] = None,
    ):
        if (socket_path is None) == (host is None):
            raise ValueError(
                "choose one transport: socket_path= (unix) or host=/port= (tcp)"
            )
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.socket_path = None if socket_path is None else str(socket_path)
        self.host = host
        self.port = port
        self.workers = max(1, resolve_jobs(workers))
        self.queue_limit = int(queue_limit)
        self.stats_path = None if stats_path is None else str(stats_path)
        self.metrics = MetricsRegistry()
        self._pool = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: Optional[asyncio.Queue] = None
        self._dispatchers: List[asyncio.Task] = []
        self._pending: Dict[Tuple[int, str], _Job] = {}
        self._connections: Set[_Connection] = set()
        self._in_flight = 0
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the transport and start the dispatcher tasks."""
        loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._queue = asyncio.Queue()
        self._pool = get_executor(self.workers)
        self._dispatchers = [
            loop.create_task(self._dispatch_loop())
            for _ in range(self.workers)
        ]
        if self.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.socket_path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
        _log.info(
            "sensing service listening on %s (%d workers, queue_limit=%d)",
            self.address,
            self.workers,
            self.queue_limit,
        )

    @property
    def address(self) -> Tuple[object, ...]:
        """The bound transport: ``("unix", path)`` or ``("tcp", host, port)``."""
        if self.socket_path is not None:
            return ("unix", self.socket_path)
        if self._server is not None and self._server.sockets:
            name = self._server.sockets[0].getsockname()
            return ("tcp", name[0], name[1])
        return ("tcp", self.host, self.port)

    async def wait_stopped(self) -> None:
        """Block until the server has fully drained and closed."""
        await self._stopped.wait()

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop the server; with ``drain`` finish all admitted work first.

        Idempotent and safe to call concurrently (SIGTERM racing a
        ``shutdown`` operation): the first caller runs the drain, later
        callers wait for it to finish.
        """
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        _log.info("sensing service draining (%d queued)", self._queue.qsize())
        if not drain:
            for task in self._dispatchers:
                task.cancel()
        else:
            # Sentinels queue *behind* every admitted job, so each
            # dispatcher finishes its queued share (and its current
            # in-flight job) before exiting — in-flight results are
            # always delivered.
            for _ in self._dispatchers:
                self._queue.put_nowait(None)
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        self._flush_stats()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except FileNotFoundError:
                pass
        for conn in list(self._connections):
            conn.close()
        self._stopped.set()
        _log.info("sensing service stopped")

    def _flush_stats(self) -> None:
        """Atomically persist the final metrics snapshot, if configured."""
        if self.stats_path is None:
            return
        with atomic_write(self.stats_path, "w") as handle:
            json.dump(self._stats(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                await self._handle_line(conn, line)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(conn)
            conn.close()

    async def _handle_line(self, conn: _Connection, line: bytes) -> None:
        try:
            request = protocol.decode_request(line)
        except ServiceError as exc:
            self.metrics.count("service.rejected.bad_request")
            await self._send_error(conn, exc.request_id, exc)
            return
        try:
            if request.op in protocol.CONTROL_OPS:
                await self._handle_control(conn, request)
            else:
                self._admit(conn, request)
        except ServiceError as exc:
            await self._send_error(conn, request.request_id, exc)

    async def _send_error(
        self,
        conn: _Connection,
        request_id: Optional[str],
        error: ServiceError,
    ) -> None:
        await conn.send(
            protocol.error_response(
                request_id=request_id, code=error.code, message=str(error)
            )
        )

    # -- admission ----------------------------------------------------------

    def _admit(self, conn: _Connection, request: protocol.Request) -> None:
        """Queue one work request, or raise the typed rejection."""
        if self._draining:
            self.metrics.count("service.rejected.shutting_down")
            raise ShuttingDownError(
                "server is draining and no longer admits work"
            )
        allowed = _ALLOWED_PARAMS[request.op]
        unknown = sorted(set(request.params) - allowed)
        if unknown:
            raise BadRequestError(
                f"unknown {request.op} parameters {unknown} "
                f"(allowed: {sorted(allowed)})"
            )
        for name in _REQUIRED_PARAMS.get(request.op, ()):
            if name not in request.params:
                raise BadRequestError(
                    f"{request.op} requires params.{name}"
                )
        if self._queue.qsize() >= self.queue_limit:
            self.metrics.count("service.rejected.queue_full")
            raise QueueFullError(
                f"admission queue is at capacity "
                f"({self.queue_limit} requests queued)"
            )
        loop = asyncio.get_running_loop()
        deadline = None
        if request.deadline_ms is not None:
            deadline = loop.time() + request.deadline_ms / 1000.0
        job = _Job(request=request, conn=conn, deadline=deadline)
        job.key = (id(conn), request.request_id)
        self._pending[job.key] = job
        self._queue.put_nowait(job)
        self.metrics.count("service.admitted")
        self.metrics.count(f"service.op.{request.op}")
        self.metrics.gauge("service.queue_depth", self._queue.qsize())

    # -- control operations -------------------------------------------------

    async def _handle_control(
        self, conn: _Connection, request: protocol.Request
    ) -> None:
        if request.op == protocol.OP_HEALTH:
            result = self._health()
        elif request.op == protocol.OP_STATS:
            result = self._stats()
        elif request.op == protocol.OP_CANCEL:
            result = self._cancel(conn, request.params)
        else:  # protocol.OP_SHUTDOWN
            result = {"draining": True}
            asyncio.get_running_loop().create_task(self.shutdown())
        await conn.send(
            protocol.ok_response(
                request_id=request.request_id, op=request.op, result=result
            )
        )

    def _health(self) -> Dict[str, object]:
        return {
            "status": "draining" if self._draining else "ok",
            "protocol": protocol.PROTOCOL_VERSION,
            "queue_depth": self._queue.qsize(),
            "queue_limit": self.queue_limit,
            "in_flight": self._in_flight,
            "workers": self.workers,
        }

    def _refresh_gauges(self) -> None:
        self.metrics.gauge("service.queue_depth", self._queue.qsize())
        self.metrics.gauge("service.in_flight", self._in_flight)

    def _stats(self) -> Dict[str, object]:
        self._refresh_gauges()
        return {
            "counters": self.metrics.counters(),
            "gauges": self.metrics.gauges(),
            "histograms": self.metrics.histogram_summaries(),
        }

    def _cancel(
        self, conn: _Connection, params: Dict[str, object]
    ) -> Dict[str, object]:
        target = params.get("request_id")
        if not isinstance(target, str) or not target:
            raise BadRequestError("cancel requires params.request_id")
        job = self._pending.pop((id(conn), target), None)
        if job is None or job.cancelled:
            raise RequestNotFoundError(
                f"request {target!r} is not queued on this connection "
                "(already dispatched, finished, or never admitted)"
            )
        job.cancelled = True
        self.metrics.count("service.cancelled")
        return {"cancelled": target}

    # -- dispatch ------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            job = await self._queue.get()
            if job is None:
                break
            self._pending.pop(job.key, None)
            self.metrics.gauge("service.queue_depth", self._queue.qsize())
            await self._run_job(job)

    async def _run_job(self, job: _Job) -> None:
        request = job.request
        loop = asyncio.get_running_loop()
        if job.cancelled:
            await self._send_error(
                job.conn,
                request.request_id,
                RequestCancelledError(
                    f"request {request.request_id!r} was cancelled while queued"
                ),
            )
            return
        if job.deadline is not None and loop.time() >= job.deadline:
            self.metrics.count("service.rejected.deadline")
            await self._send_error(
                job.conn,
                request.request_id,
                DeadlineExceededError(
                    f"deadline expired while request {request.request_id!r} "
                    "was queued; it was never executed"
                ),
            )
            return
        self._in_flight += 1
        self.metrics.gauge("service.in_flight", self._in_flight)
        started = loop.time()
        try:
            # Inside the try: a broken pool raises here, and the request
            # must still get its typed error and its slot back.
            cfut = self._pool.submit(_execute_request, request.op, request.params)
            afut = asyncio.wrap_future(cfut)
            if job.deadline is None:
                payload = await afut
            else:
                remaining = max(0.0, job.deadline - loop.time())
                payload = await asyncio.wait_for(
                    asyncio.shield(afut), remaining
                )
        except asyncio.TimeoutError:
            # The worker task cannot be preempted: cancel is best-effort
            # (only helps if it has not started), the slot is reclaimed
            # when the worker finishes, and the late result is discarded.
            cfut.cancel()
            afut.add_done_callback(self._reap_abandoned)
            self.metrics.count("service.abandoned.deadline")
            await self._send_error(
                job.conn,
                request.request_id,
                DeadlineExceededError(
                    f"deadline expired while request {request.request_id!r} "
                    "was executing; its worker task was abandoned"
                ),
            )
            return
        except ServiceError as exc:
            self._finish_slot()
            self.metrics.count("service.failed")
            await self._send_error(job.conn, request.request_id, exc)
            return
        # The worker funnels every failure here; the client must get a
        # typed internal error, never a dropped request.
        except Exception as exc:  # reprolint: disable=EXC001
            self._finish_slot()
            self.metrics.count("service.failed")
            _log.exception(
                "request %s (%s) failed in the worker",
                request.request_id,
                request.op,
            )
            await self._send_error(
                job.conn,
                request.request_id,
                ServiceError(f"{type(exc).__name__}: {exc}"),
            )
            return
        self._finish_slot()
        cache_stats = payload.pop("cache_stats", None)
        if cache_stats:
            for name in ("hits", "misses", "stores", "evictions"):
                amount = int(cache_stats.get(name, 0))
                if amount:
                    self.metrics.count(f"service.cache.{name}", amount)
        latency_ms = (loop.time() - started) * 1000.0
        self.metrics.count("service.completed")
        self.metrics.observe(f"service.latency_ms.{request.op}", latency_ms)
        await job.conn.send(
            protocol.ok_response(
                request_id=request.request_id, op=request.op, result=payload
            )
        )

    def _finish_slot(self) -> None:
        self._in_flight -= 1
        self.metrics.gauge("service.in_flight", self._in_flight)

    def _reap_abandoned(self, future) -> None:
        """Reclaim the slot of an abandoned worker when it finishes."""
        if not future.cancelled():
            future.exception()  # consume; the result is discarded either way
        self._finish_slot()


def serve_blocking(
    *,
    socket_path: Optional[str] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
    workers: Optional[int] = None,
    queue_limit: int = DEFAULT_QUEUE_LIMIT,
    stats_path: Optional[str] = None,
    install_signal_handlers: bool = True,
    ready_callback: Optional[Callable[[SensingServer], None]] = None,
) -> None:
    """Run a :class:`SensingServer` until drained (the CLI entry point).

    Installs SIGTERM/SIGINT handlers that trigger a graceful drain (when
    the platform's event loop supports it).  ``ready_callback`` fires
    once the transport is bound — the CLI uses it to print the address.
    """

    async def _main() -> None:
        server = SensingServer(
            socket_path=socket_path,
            host=host,
            port=port,
            workers=workers,
            queue_limit=queue_limit,
            stats_path=stats_path,
        )
        await server.start()
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        signum,
                        lambda: loop.create_task(server.shutdown()),
                    )
                except (NotImplementedError, RuntimeError):
                    break
        if ready_callback is not None:
            ready_callback(server)
        await server.wait_stopped()

    asyncio.run(_main())


class ServerThread:
    """A :class:`SensingServer` on a background thread (tests, benchmarks).

    Context manager: ``__enter__`` blocks until the transport is bound,
    ``__exit__`` runs the graceful drain and joins the thread.
    ``connect_kwargs`` are ready-made keywords for
    :func:`repro.api.connect`.
    """

    def __init__(
        self,
        *,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        workers: Optional[int] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        stats_path: Optional[str] = None,
    ):
        self._kwargs = {
            "socket_path": socket_path,
            "host": host,
            "port": port,
            "workers": workers,
            "queue_limit": queue_limit,
            "stats_path": stats_path,
        }
        self.server: Optional[SensingServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def connect_kwargs(self) -> Dict[str, str]:
        """Keywords for :func:`repro.api.connect` to reach this server."""
        address = self.server.address
        if address[0] == "unix":
            return {"socket": address[1]}
        return {"tcp": f"{address[1]}:{address[2]}"}

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("service thread did not become ready")
        if self._error is not None:
            raise RuntimeError(
                f"service thread failed to start: {self._error}"
            ) from self._error
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        loop, server = self._loop, self.server
        if loop is not None and server is not None and loop.is_running():
            future = asyncio.run_coroutine_threadsafe(
                server.shutdown(), loop
            )
            future.result(timeout=120)
        if self._thread is not None:
            self._thread.join(timeout=120)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        # The failure must cross the thread boundary to __enter__'s
        # raise, whatever it is.
        except BaseException as exc:  # reprolint: disable=EXC001
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        server = SensingServer(**self._kwargs)
        await server.start()
        self.server = server
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await server.wait_stopped()
