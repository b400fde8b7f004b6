"""The fleet worker: pull one cell at a time, stream the row back.

A :class:`FleetWorker` is the thinnest possible wrapper around the campaign
layer's existing worker contract — :func:`repro.campaign.execute.execute_cell`
is already a pure function from a JSON payload to a JSON row that never
raises, so the distributed worker adds only transport:

* connect (with retries, so workers may start before their controller),
* register with a ``hello``, obey the controller's advertised heartbeat,
* loop: receive a ``cell``, compute it, send the ``row``, repeat,
* exit cleanly on ``shutdown`` (or on EOF — a vanished controller is not an
  error worth a traceback on every node of a fleet), including a
  ``shutdown`` with reason ``complete`` in place of ``welcome``: the
  campaign finished before this worker arrived.

Heartbeats come from a daemon thread so they keep flowing while the main
thread is deep inside a long cell — exactly when the controller most needs
evidence the worker is alive rather than gone.  Socket writes are serialized
by a lock shared with that thread.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from .. import telemetry
from ..exceptions import FleetError
from .wire import PROTOCOL_VERSION, FrameDecoder, send_message

__all__ = ["FleetWorker"]

#: Per-cell span cap: bounds the row frame far below the 64 MiB wire limit.
_CELL_MAX_SPANS = 50_000


class FleetWorker:
    """One fleet worker process' client loop.

    Parameters
    ----------
    connect:
        The controller's ``(host, port)``.
    name:
        Worker name for the controller's health view (default:
        ``<hostname>-<pid>``).
    connect_timeout_s:
        Keep retrying the initial connection for this long (covers workers
        launched before the controller finished binding).
    heartbeat_s:
        Fallback heartbeat interval; the controller's ``welcome`` overrides
        it.
    """

    def __init__(
        self,
        connect: Tuple[str, int],
        *,
        name: Optional[str] = None,
        connect_timeout_s: float = 10.0,
        heartbeat_s: float = 1.0,
    ) -> None:
        self.connect = (str(connect[0]), int(connect[1]))
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.connect_timeout_s = connect_timeout_s
        self.heartbeat_s = heartbeat_s
        self.cells_done = 0
        #: per-cell telemetry, switched on by the controller's welcome
        self.trace_cells = False
        self.metrics_cells = False
        self._sock: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._stop = threading.Event()
        self._decoder = FrameDecoder()
        self._inbox: Deque[Dict[str, object]] = deque()

    # ------------------------------------------------------------------- run
    def run(self) -> int:
        """Serve until the controller shuts us down; returns cells computed."""
        self._sock = self._connect_with_retries()
        heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="fleet-heartbeat", daemon=True
        )
        try:
            self._send({"type": "hello", "version": PROTOCOL_VERSION,
                        "worker": self.name, "pid": os.getpid()})
            welcome = self._next_message()
            if (
                welcome is not None
                and welcome.get("type") == "shutdown"
                and welcome.get("reason") == "complete"
            ):
                return self.cells_done
            if welcome is None or welcome.get("type") != "welcome":
                raise FleetError(
                    f"controller at {self.connect[0]}:{self.connect[1]} did not "
                    f"welcome us (got {welcome!r})"
                )
            self.heartbeat_s = float(welcome.get("heartbeat_s", self.heartbeat_s))
            self.trace_cells = bool(welcome.get("trace", False))
            self.metrics_cells = bool(welcome.get("metrics", False))
            heartbeat_thread.start()
            self._serve_cells()
        finally:
            self._stop.set()
            sock, self._sock = self._sock, None
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        return self.cells_done

    def _serve_cells(self) -> None:
        from ..campaign.execute import execute_cell

        while True:
            message = self._next_message()
            if message is None:  # controller vanished: exit quietly
                return
            kind = message.get("type")
            if kind == "shutdown":
                try:
                    self._send({"type": "bye", "cells_done": self.cells_done})
                except OSError:
                    pass
                return
            if kind != "cell":
                continue  # tolerate unknown-but-well-formed messages
            payload = message.get("payload")
            reply: Dict[str, object] = {"type": "row", "unit": message.get("unit", "")}
            # Telemetry rides the frame as *sibling* keys, never inside the
            # row: rows must stay bit-identical to an untraced workers=1 run.
            with telemetry.telemetry_session(
                trace=self.trace_cells,
                metrics=self.metrics_cells,
                process=self.name,
                max_spans=_CELL_MAX_SPANS,
            ) as session:
                row = execute_cell(dict(payload) if isinstance(payload, dict) else {})
            if session.tracer is not None:
                reply["spans"] = [span.to_dict() for span in session.tracer.spans]
            if session.metrics is not None:
                reply["metrics"] = session.metrics.snapshot()
            self.cells_done += 1
            reply["row"] = row
            self._send(reply)

    # ------------------------------------------------------------- transport
    def _connect_with_retries(self) -> socket.socket:
        deadline = time.monotonic() + self.connect_timeout_s
        delay = 0.05
        while True:
            try:
                sock = socket.create_connection(self.connect, timeout=5.0)
                sock.settimeout(None)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return sock
            except OSError as exc:
                if time.monotonic() >= deadline:
                    raise FleetError(
                        f"could not reach controller at "
                        f"{self.connect[0]}:{self.connect[1]}: {exc}"
                    ) from None
                time.sleep(delay)
                delay = min(delay * 2, 1.0)

    def _send(self, message: Dict[str, object]) -> None:
        assert self._sock is not None
        with self._send_lock:
            send_message(self._sock, message)

    def _next_message(self) -> Optional[Dict[str, object]]:
        """Block for the next controller message (``None`` on EOF)."""
        assert self._sock is not None
        while not self._inbox:
            try:
                chunk = self._sock.recv(65536)
            except OSError:
                return None
            if not chunk:
                return None
            self._inbox.extend(self._decoder.feed(chunk))
        return self._inbox.popleft()

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            try:
                self._send({"type": "heartbeat"})
            except OSError:
                return  # link is gone; the main loop will notice on recv
