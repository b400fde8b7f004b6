"""The fleet controller: owns the cell queue, workers stream rows back.

:class:`CampaignController` binds a TCP socket, accepts :mod:`repro.fleet.worker`
connections, and drives one campaign to completion:

* **Queue** — the spec's grid is planned up front
  (:func:`repro.campaign.plan.plan_campaign`): cache hits fill their rows
  immediately and are *never dispatched* — a resumed campaign only ships the
  cells that still need computing, each once: a plan holds one cell per key.
* **Streaming** — each idle worker holds exactly one cell; its row is
  recorded (and cached) the moment it arrives, so progress is continuous
  rather than wait-for-everything.
* **Fault tolerance** — a worker is declared lost on socket EOF/error or
  after :attr:`heartbeat_s` × :attr:`heartbeat_misses` of silence (the
  *worker-silence window*).  Its in-flight cell goes back to the *front* of
  the queue; after :attr:`max_requeues` losses the cell becomes an
  ``error`` row instead (bounded retries — a poisoned cell can never wedge
  the campaign).
* **Determinism** — rows are assembled by cell index, and every stochastic
  input lives in the cell's own derived seed, so the assembled
  :class:`~repro.campaign.result.CampaignResult` is bit-identical to
  ``run_campaign(workers=1)`` no matter how many workers served it, joined
  late, or died mid-cell (``tests/test_fleet.py`` pins this, SIGKILL
  included).

The controller is single-threaded (``selectors`` over blocking sockets);
worker messages are small and strictly request/response, so readiness-driven
framing needs no async machinery.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .. import telemetry
from ..campaign.cache import ResultCache, payload_hash
from ..campaign.execute import cell_row
from ..campaign.plan import CampaignPlan, plan_campaign
from ..campaign.result import CampaignResult
from ..campaign.spec import CampaignCell, CampaignSpec
from ..exceptions import FleetError, ParameterError
from ..fields import to_spec
from .progress import FleetProgress, WorkerView
from .wire import PROTOCOL_VERSION, FrameDecoder, send_message

__all__ = ["CampaignController", "WorkUnit"]


@dataclass
class WorkUnit:
    """One dispatchable unit: a cell's payload and index."""

    key: str  # payload content hash
    payload: Dict[str, object]
    index: int  # the cell index its row is filed under
    attempts: int = 0  # dispatches so far (first dispatch makes it 1)


@dataclass
class _Worker:
    """Controller-side view of one connected worker."""

    sock: socket.socket
    decoder: FrameDecoder = field(default_factory=FrameDecoder)
    name: str = ""
    pid: int = 0
    registered: bool = False
    unit: Optional[WorkUnit] = None  # the in-flight work unit, if busy
    last_seen: float = 0.0
    cells_done: int = 0
    #: tracer-epoch time the in-flight unit was dispatched (wall offset for
    #: adopting the worker's cell-relative spans)
    dispatched_at: float = 0.0


class CampaignController:
    """Serve one campaign's cells to fleet workers and assemble the result.

    Parameters
    ----------
    spec:
        The campaign to run.
    cells:
        Pre-expanded (possibly adjusted) cell list, as in
        :func:`~repro.campaign.execute.run_campaign`.
    cache_dir:
        Content-hash result cache: hits are served locally at plan time,
        fresh rows are written back as they stream in.
    host / port:
        Bind address; port ``0`` picks an ephemeral port (see
        :attr:`address` after :meth:`bind`).
    heartbeat_s / heartbeat_misses:
        Workers send a heartbeat every ``heartbeat_s``; one that stays
        silent for ``heartbeat_s * heartbeat_misses`` is declared lost even
        if its TCP link looks alive (half-open connections, network
        partitions).
    max_requeues:
        How many times a cell may be re-dispatched after worker losses
        before it is written off as an error row.
    idle_timeout_s:
        With work pending, no workers connected, and nothing in flight for
        this long, :meth:`serve` raises :class:`~repro.exceptions.FleetError`
        instead of waiting forever (``None`` = wait indefinitely).
    on_progress:
        Callback receiving a :class:`~repro.fleet.progress.FleetProgress`
        snapshot after every state change (dispatch, row, worker join/loss).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        *,
        cells: Optional[List[CampaignCell]] = None,
        cache_dir: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_s: float = 1.0,
        heartbeat_misses: int = 5,
        max_requeues: int = 2,
        idle_timeout_s: Optional[float] = None,
        on_progress: Optional[Callable[[FleetProgress], None]] = None,
    ) -> None:
        if heartbeat_s <= 0:
            raise ParameterError("heartbeat_s must be positive")
        if max_requeues < 0:
            raise ParameterError("max_requeues cannot be negative")
        self.spec = spec
        self.host = host
        self.port = port
        self.heartbeat_s = heartbeat_s
        self.heartbeat_misses = heartbeat_misses
        self.max_requeues = max_requeues
        self.idle_timeout_s = idle_timeout_s
        self.on_progress = on_progress

        self._cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.plan: CampaignPlan = plan_campaign(spec, cells=cells, cache=self._cache)

        self._rows: List[Optional[Dict[str, object]]] = [None] * self.plan.total
        for index, row in self.plan.cached_rows.items():
            self._rows[index] = row

        self._queue: Deque[WorkUnit] = deque(
            WorkUnit(key=payload_hash(cell.payload), payload=dict(cell.payload), index=cell.index)
            for cell in self.plan.pending
        )

        self._workers: Dict[socket.socket, _Worker] = {}
        self._selector: Optional[selectors.BaseSelector] = None
        self._listener: Optional[socket.socket] = None
        self._started = 0.0
        self._done_cells = len(self.plan.cached_rows)
        self._dispatched_units = 0
        self._requeues = 0
        self._worker_losses = 0
        self._workers_seen = 0
        self._peak_workers = 0
        # Resolved from the active telemetry session when serve() starts;
        # None keeps every hook on its zero-overhead path.
        self._tracer = None
        self._metrics = None
        self._worker_metrics: Dict[str, Dict[str, object]] = {}

    # ----------------------------------------------------------------- status
    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — call :meth:`bind` first."""
        if self._listener is None:
            raise FleetError("controller is not bound yet")
        return self._listener.getsockname()[:2]

    @property
    def dispatched_units(self) -> int:
        """Work units actually shipped to workers (cache hits never count)."""
        return self._dispatched_units

    @property
    def requeues(self) -> int:
        """Cells re-queued after a worker loss."""
        return self._requeues

    @property
    def worker_losses(self) -> int:
        """Workers declared lost (EOF, socket error, or heartbeat silence)."""
        return self._worker_losses

    def snapshot(self) -> FleetProgress:
        """The live progress/ETA view."""
        in_flight = sum(1 for w in self._workers.values() if w.unit is not None)
        elapsed = time.perf_counter() - self._started if self._started else 0.0
        computed = self._done_cells - len(self.plan.cached_rows)
        rate = computed / elapsed if elapsed > 0 and computed > 0 else 0.0
        remaining = self.plan.total - self._done_cells
        workers = {}
        for worker in self._workers.values():
            if not worker.registered:
                continue
            workers[worker.name] = WorkerView(
                name=worker.name,
                pid=worker.pid,
                state="busy" if worker.unit is not None else "idle",
                cells_done=worker.cells_done,
                current_cell=(
                    str(worker.unit.payload.get("cell", "")) if worker.unit else ""
                ),
            )
        return FleetProgress(
            campaign=self.spec.name,
            total=self.plan.total,
            done=self._done_cells,
            cached=len(self.plan.cached_rows),
            in_flight=in_flight,
            pending=len(self._queue),
            elapsed_s=elapsed,
            rows_per_s=rate,
            eta_s=remaining / rate if rate > 0 else None,
            workers=workers,
            worker_losses=self._worker_losses,
            requeues=self._requeues,
            metrics=self._metrics.snapshot() if self._metrics is not None else {},
            worker_metrics={
                name: dict(snapshot)
                for name, snapshot in self._worker_metrics.items()
            },
        )

    def _notify(self) -> None:
        if self.on_progress is not None:
            self.on_progress(self.snapshot())

    # ------------------------------------------------------------------ serve
    def bind(self) -> Tuple[str, int]:
        """Open the listening socket; returns the bound (host, port)."""
        if self._listener is not None:
            return self.address
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        self._listener = listener
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, "accept")
        return self.address

    def serve(self) -> CampaignResult:
        """Run to completion and return the assembled result.

        Blocks until every cell has a row (computed, cached, or written off
        as an error after bounded retries), then shuts the registered
        workers down.  The listener stays open until :meth:`close`, so a
        caller can still turn late workers away with
        :meth:`dismiss_late_workers`; if serving fails, everything is closed
        before the error propagates.
        """
        self.bind()
        assert self._selector is not None
        self._tracer = telemetry.active_tracer()
        self._metrics = telemetry.active_metrics()
        self._started = time.perf_counter()
        self._notify()
        idle_since: Optional[float] = None
        try:
            while not self._complete():
                events = self._selector.select(timeout=self.heartbeat_s / 2)
                for key, _ in events:
                    if key.data == "accept":
                        self._accept()
                    else:
                        self._service(key.fileobj)  # type: ignore[arg-type]
                self._reap_silent_workers()
                # Starvation guard: pending work, nobody to do it.
                if self._queue and not self._workers:
                    if idle_since is None:
                        idle_since = time.perf_counter()
                    elif (
                        self.idle_timeout_s is not None
                        and time.perf_counter() - idle_since > self.idle_timeout_s
                    ):
                        raise FleetError(
                            f"no workers for {self.idle_timeout_s:.0f}s with "
                            f"{len(self._queue)} work unit(s) still pending"
                        )
                else:
                    idle_since = None
            result = self._assemble()
        except BaseException:
            self.close()
            raise
        for sock, worker in list(self._workers.items()):
            if worker.registered:
                self._drop(sock, shutdown=True)
        return result

    def dismiss_late_workers(self) -> None:
        """Answer late workers with ``shutdown`` for one worker-silence window.

        Call it after :meth:`serve`.  Every connection still unanswered, or
        accepted within the window, has its ``hello`` read and gets a
        ``shutdown`` (reason ``complete``) in place of ``welcome``.  A worker
        started alongside the others but connecting after the last row then
        exits cleanly instead of retrying a closed port.
        """
        assert self._selector is not None, "call serve() first"
        deadline = time.perf_counter() + self.heartbeat_s * self.heartbeat_misses
        while (remaining := deadline - time.perf_counter()) > 0:
            for key, _ in self._selector.select(timeout=remaining):
                if key.data == "accept":
                    self._accept()
                    continue
                sock = key.fileobj
                try:
                    sock.recv(65536)  # the hello: read, so the close is orderly
                except OSError:
                    pass
                self._drop(sock, shutdown=True)  # type: ignore[arg-type]

    def close(self) -> None:
        """Shut down every worker link and the listener."""
        for sock in list(self._workers):
            self._drop(sock, shutdown=True)
        if self._listener is not None:
            if self._selector is not None:
                try:
                    self._selector.unregister(self._listener)
                except KeyError:
                    pass
            self._listener.close()
            self._listener = None
        if self._selector is not None:
            self._selector.close()
            self._selector = None

    # ------------------------------------------------------------ connections
    def _accept(self) -> None:
        assert self._listener is not None and self._selector is not None
        sock, _ = self._listener.accept()
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        worker = _Worker(sock=sock, last_seen=time.perf_counter())
        self._workers[sock] = worker
        self._selector.register(sock, selectors.EVENT_READ, "worker")

    def _service(self, sock: socket.socket) -> None:
        """Drain one readable worker socket and handle its messages."""
        worker = self._workers.get(sock)
        if worker is None:
            return
        try:
            chunk = sock.recv(65536)
        except OSError:
            self._lose(sock)
            return
        if not chunk:
            self._lose(sock)
            return
        try:
            messages = worker.decoder.feed(chunk)
        except FleetError:
            # A peer speaking garbage is dropped like a dead one; its cell
            # is requeued for a sane worker.
            self._lose(sock)
            return
        worker.last_seen = time.perf_counter()
        for message in messages:
            self._handle(sock, worker, message)
            if sock not in self._workers:
                return  # dropped mid-batch

    def _handle(self, sock: socket.socket, worker: _Worker, message: Dict) -> None:
        kind = message.get("type")
        if kind == "hello":
            if int(message.get("version", 0)) != PROTOCOL_VERSION:
                self._send(sock, worker, {"type": "shutdown", "reason": "version"})
                self._drop(sock)
                return
            self._workers_seen += 1
            worker.registered = True
            worker.name = str(message.get("worker", "")) or f"worker-{self._workers_seen}"
            worker.pid = int(message.get("pid", 0))
            self._peak_workers = max(
                self._peak_workers,
                sum(1 for w in self._workers.values() if w.registered),
            )
            self._send(
                sock,
                worker,
                {
                    "type": "welcome",
                    "version": PROTOCOL_VERSION,
                    "campaign": self.spec.name,
                    "heartbeat_s": self.heartbeat_s,
                    # Advertised telemetry: workers wrap each cell in a
                    # session and ship spans/metrics back on the row frame.
                    "trace": self._tracer is not None,
                    "metrics": self._metrics is not None,
                },
            )
            if self._tracer is not None:
                self._tracer.instant(
                    "fleet.worker_joined",
                    category="fleet",
                    track="workers",
                    args={"worker": worker.name, "pid": worker.pid},
                )
            if self._metrics is not None:
                self._metrics.count("fleet.workers_seen")
            self._dispatch(sock, worker)
            self._notify()
        elif kind == "row":
            unit = worker.unit
            if unit is None or str(message.get("unit", "")) != unit.key:
                return  # stale row from a requeued unit some other worker won
            worker.unit = None
            worker.cells_done += 1
            self._absorb_telemetry(worker, unit, message)
            row = message.get("row")
            if not isinstance(row, dict):
                # A worker that cannot produce a row forfeits the unit.
                self._requeue(unit)
            else:
                self._record(unit, row)
            self._dispatch(sock, worker)
            self._notify()
        elif kind == "heartbeat":
            if self._metrics is not None:
                self._metrics.count("fleet.heartbeats")
        elif kind == "bye":
            self._drop(sock)
            self._notify()

    # --------------------------------------------------------------- dispatch
    def _dispatch(self, sock: socket.socket, worker: _Worker) -> None:
        """Hand the next work unit to an idle worker (or let it idle)."""
        if worker.unit is not None or not worker.registered:
            return
        if not self._queue:
            return
        unit = self._queue.popleft()
        unit.attempts += 1
        worker.unit = unit
        self._dispatched_units += 1
        worker.dispatched_at = (
            self._tracer.now() if self._tracer is not None else time.perf_counter()
        )
        if self._metrics is not None:
            self._metrics.count("fleet.dispatches")
            self._metrics.gauge_max(
                "fleet.in_flight",
                sum(1 for w in self._workers.values() if w.unit is not None),
            )
        self._send(
            sock,
            worker,
            {"type": "cell", "unit": unit.key, "payload": unit.payload},
        )

    def _absorb_telemetry(
        self, worker: _Worker, unit: WorkUnit, message: Dict
    ) -> None:
        """Fold the row frame's sibling telemetry into the controller's view.

        The dispatch span lands on the controller process (one track per
        worker); the worker's own spans are adopted under the worker's name
        as a trace *process*, rebased from cell-relative wall time onto the
        controller tracer's epoch via the dispatch timestamp.
        """
        tracer = self._tracer
        if tracer is not None:
            finished = tracer.now()
            tracer.complete(
                f"dispatch:{unit.payload.get('cell', unit.key[:12])}",
                category="dispatch",
                track=worker.name or "worker",
                wall_start=worker.dispatched_at,
                wall_dur=max(0.0, finished - worker.dispatched_at),
                args={"worker": worker.name, "attempts": unit.attempts},
            )
            spans = message.get("spans")
            if isinstance(spans, list):
                tracer.adopt(
                    spans,
                    process=worker.name or "worker",
                    wall_offset=worker.dispatched_at,
                )
        snapshot = message.get("metrics")
        if isinstance(snapshot, dict):
            if self._metrics is not None:
                self._metrics.merge(snapshot)
                elapsed = (
                    tracer.now() if tracer is not None else time.perf_counter()
                ) - worker.dispatched_at
                self._metrics.observe("fleet.dispatch_wall_s", max(0.0, elapsed))
            name = worker.name or "worker"
            self._worker_metrics[name] = telemetry.merge_snapshots(
                [self._worker_metrics.get(name, {}), snapshot]
            )

    def _record(self, unit: WorkUnit, row: Dict[str, object]) -> None:
        """File one computed row under the unit's cell index."""
        row = dict(row)
        row.setdefault("cached", False)
        if self._cache is not None and not row.get("error"):
            self._cache.put(unit.payload, row)
        if self._rows[unit.index] is None:
            self._done_cells += 1
        self._rows[unit.index] = row

    def _requeue(self, unit: WorkUnit) -> None:
        """Return a lost unit to the queue head, or write it off."""
        if unit.attempts > self.max_requeues:
            message = (
                f"FleetError: worker lost while computing this cell "
                f"{unit.attempts} time(s); retries exhausted"
            )
            self._record(unit, {**cell_row(unit.payload, message), "wall_seconds": 0.0})
            if self._metrics is not None:
                self._metrics.count("fleet.cells_written_off")
            return
        self._requeues += 1
        if self._tracer is not None:
            self._tracer.instant(
                "fleet.requeue",
                category="fleet",
                track="workers",
                args={"cell": str(unit.payload.get("cell", "")),
                      "attempts": unit.attempts},
            )
        if self._metrics is not None:
            self._metrics.count("fleet.requeues")
        self._queue.appendleft(unit)
        # Offer it immediately to any idle worker instead of waiting for the
        # next row to trigger a dispatch.
        for sock, worker in list(self._workers.items()):
            if worker.registered and worker.unit is None:
                self._dispatch(sock, worker)
                break

    # ------------------------------------------------------------ worker loss
    def _reap_silent_workers(self) -> None:
        deadline = time.perf_counter() - self.heartbeat_s * self.heartbeat_misses
        for sock, worker in list(self._workers.items()):
            if worker.registered and worker.last_seen < deadline:
                self._lose(sock)

    def _lose(self, sock: socket.socket) -> None:
        """A worker died (EOF, error, garbage, or heartbeat silence)."""
        worker = self._workers.get(sock)
        if worker is None:
            return
        unit = worker.unit
        if worker.registered:
            self._worker_losses += 1
            if self._tracer is not None:
                self._tracer.instant(
                    "fleet.worker_lost",
                    category="fleet",
                    track="workers",
                    args={"worker": worker.name},
                )
            if self._metrics is not None:
                self._metrics.count("fleet.worker_losses")
        self._drop(sock)
        if unit is not None:
            self._requeue(unit)
        self._notify()

    def _drop(self, sock: socket.socket, *, shutdown: bool = False) -> None:
        worker = self._workers.pop(sock, None)
        if worker is None:
            return
        if shutdown:
            try:
                send_message(sock, {"type": "shutdown", "reason": "complete"})
            except OSError:
                pass
        if self._selector is not None:
            try:
                self._selector.unregister(sock)
            except KeyError:
                pass
        try:
            sock.close()
        except OSError:
            pass

    def _send(self, sock: socket.socket, worker: _Worker, message: Dict) -> None:
        try:
            send_message(sock, message)
        except OSError:
            self._lose(sock)

    # --------------------------------------------------------------- assembly
    def _complete(self) -> bool:
        return self._done_cells >= self.plan.total

    def _assemble(self) -> CampaignResult:
        assert all(row is not None for row in self._rows)
        elapsed = time.perf_counter() - self._started
        if self._cache is not None:
            self._cache.log_summary()
        if self._tracer is not None:
            self._tracer.complete(
                "fleet.campaign",
                category="fleet",
                track="controller",
                wall_start=max(0.0, self._tracer.now() - elapsed),
                wall_dur=elapsed,
                args={
                    "cells": self.plan.total,
                    "cached": len(self.plan.cached_rows),
                    "dispatched_units": self._dispatched_units,
                    "requeues": self._requeues,
                    "worker_losses": self._worker_losses,
                },
            )
        return CampaignResult(
            name=self.spec.name,
            spec=to_spec(self.spec),
            rows=[row for row in self._rows if row is not None],
            workers=max(self._peak_workers, 1),
            wall_seconds=time.perf_counter() - self._started,
            cache_hits=self._cache.hits if self._cache is not None else 0,
            cache_misses=self._cache.misses if self._cache is not None else 0,
        )
