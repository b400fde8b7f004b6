"""The fleet subsystem: framing, orchestration, fault tolerance, determinism.

The headline property extends the campaign determinism pin across the
network boundary: a fleet run — any worker count, workers joining late or
**dying mid-cell (SIGKILL)** — must assemble a ``CampaignResult``
bit-identical to ``run_campaign(workers=1)``.  Alongside it this file pins
the failure semantics (worker loss -> requeue; bounded retries -> error
rows, never a dead sweep; heartbeat silence counts as loss even on a live
TCP link), the cache contract (hits never dispatched), and the wire layer's
robustness against fragmentation and garbage.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import List, Tuple

import pytest

from repro.campaign import CampaignSpec, plan_campaign, run_campaign
from repro.exceptions import FleetError, ParameterError
from repro.fleet import (
    CampaignController,
    FleetWorker,
    FrameDecoder,
    PROTOCOL_VERSION,
    encode_frame,
    run_fleet_campaign,
)
from repro.fleet.local import _fork_context, _local_worker_main
from repro.fleet.wire import MAX_FRAME_BYTES, send_message


def small_spec(**overrides) -> CampaignSpec:
    fields = dict(
        name="fleet-unit",
        protocols=("proposed-gka", "bd-unauthenticated"),
        group_sizes=(5,),
        losses=(0.0,),
        schedule={"kind": "poisson", "length": 2},
        seed=17,
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


# ---------------------------------------------------------------------------
# Wire framing
# ---------------------------------------------------------------------------

class TestWire:
    def test_round_trip(self):
        decoder = FrameDecoder()
        messages = [
            {"type": "hello", "worker": "w1", "pid": 42, "version": PROTOCOL_VERSION},
            {"type": "cell", "unit": "abc", "payload": {"protocol": "bd", "axes": {}}},
            {"type": "heartbeat"},
        ]
        stream = b"".join(encode_frame(m) for m in messages)
        assert decoder.feed(stream) == messages
        assert decoder.pending_bytes() == 0

    def test_byte_by_byte_fragmentation(self):
        decoder = FrameDecoder()
        message = {"type": "row", "unit": "x" * 100, "row": {"energy_j": 1.5}}
        received = []
        for byte in encode_frame(message):
            received.extend(decoder.feed(bytes([byte])))
        assert received == [message]

    def test_many_frames_in_one_chunk_and_partial_tail(self):
        decoder = FrameDecoder()
        first = encode_frame({"type": "heartbeat"})
        second = encode_frame({"type": "bye", "cells_done": 3})
        chunk = first + second + second[:5]  # partial third frame
        assert len(decoder.feed(chunk)) == 2
        assert decoder.pending_bytes() == 5
        assert decoder.feed(second[5:]) == [{"type": "bye", "cells_done": 3}]

    def test_oversize_length_prefix_rejected(self):
        import struct

        decoder = FrameDecoder()
        with pytest.raises(FleetError, match="exceeds"):
            decoder.feed(struct.pack("!I", MAX_FRAME_BYTES + 1))

    def test_non_json_body_rejected(self):
        import struct

        decoder = FrameDecoder()
        with pytest.raises(FleetError, match="undecodable"):
            decoder.feed(struct.pack("!I", 4) + b"\xff\xfe\x00\x01")

    def test_unknown_message_type_rejected(self):
        decoder = FrameDecoder()
        body = json.dumps({"type": "exploit"}).encode()
        import struct

        with pytest.raises(FleetError, match="malformed"):
            decoder.feed(struct.pack("!I", len(body)) + body)
        with pytest.raises(FleetError, match="unknown fleet message type"):
            encode_frame({"type": "exploit"})


# ---------------------------------------------------------------------------
# The determinism pin across the socket boundary (tentpole acceptance)
# ---------------------------------------------------------------------------

class TestFleetDeterminism:
    @pytest.fixture(scope="class")
    def grid(self):
        # Lossy medium (retry streams) + an adversary column (verdicts) —
        # the row fields the acceptance criterion names explicitly.
        return CampaignSpec(
            name="fleet-determinism",
            protocols=("proposed-gka", "bd-unauthenticated", "ssn"),
            group_sizes=(5,),
            losses=(0.05,),
            schedule={"kind": "poisson", "length": 2},
            adversaries={"none": None, "inject": "inject"},
            seed="fleet-determinism",
        )

    @pytest.fixture(scope="class")
    def serial(self, grid):
        return run_campaign(grid, workers=1)

    def test_two_socket_workers_bit_identical_to_serial(self, grid, serial):
        fleet = run_fleet_campaign(grid, workers=2)
        assert fleet.deterministic_rows() == serial.deterministic_rows()
        assert fleet.failures() == []
        for row_f, row_s in zip(fleet.rows, serial.rows):
            assert row_f["key_fingerprint"] == row_s["key_fingerprint"]
            assert row_f["energy_j"] == row_s["energy_j"]
            assert row_f["sim_latency_s"] == row_s["sim_latency_s"]
            assert row_f["security_verdict"] == row_s["security_verdict"]

    def test_single_worker_fleet_matches_too(self, grid, serial):
        fleet = run_fleet_campaign(grid, workers=1)
        assert fleet.deterministic_rows() == serial.deterministic_rows()

    def test_progress_snapshots_are_monotone_and_complete(self, grid):
        snapshots = []
        run_fleet_campaign(grid, workers=2, on_progress=snapshots.append)
        assert snapshots, "no progress snapshots emitted"
        done = [s.done for s in snapshots]
        assert done == sorted(done)
        final = snapshots[-1]
        assert final.complete and final.done == final.total == len(grid.cells())
        assert final.rows_per_s > 0
        line = final.render()
        assert f"{final.done}/{final.total} cells" in line and "rows/s" in line


# ---------------------------------------------------------------------------
# Caching: hits never leave the controller
# ---------------------------------------------------------------------------

class TestFleetCache:
    def test_warm_run_dispatches_nothing(self, tmp_path):
        spec = small_spec()
        cold = run_fleet_campaign(spec, workers=2, cache_dir=str(tmp_path))
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)

        controller = CampaignController(spec, cache_dir=str(tmp_path))
        warm = controller.serve()  # completes with zero workers
        controller.close()
        assert controller.dispatched_units == 0
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        assert warm.deterministic_rows() == cold.deterministic_rows()
        assert all(row["cached"] for row in warm.rows)

    def test_partial_cache_ships_only_pending_cells(self, tmp_path):
        run_fleet_campaign(small_spec(), workers=2, cache_dir=str(tmp_path))
        edited = small_spec(losses=(0.0, 0.1))
        controller = CampaignController(edited, cache_dir=str(tmp_path))
        address = controller.bind()
        process = _fork_context().Process(
            target=_local_worker_main, args=(address, "w0"), daemon=True
        )
        process.start()
        try:
            result = controller.serve()
        finally:
            controller.close()
            process.join(timeout=10.0)
        assert controller.dispatched_units == 2  # only the loss=0.1 cells
        assert (result.cache_hits, result.cache_misses) == (2, 2)
        assert [row["cell"] for row in result.rows] == [c.key for c in edited.cells()]

    def test_identical_payloads_deduplicate_to_one_dispatch(self):
        spec = small_spec(protocols=("proposed-gka",))
        cells = spec.cells()
        assert len(cells) == 1
        # Two cells with byte-identical payloads (a duplicated grid point).
        from dataclasses import replace

        doubled = [cells[0], replace(cells[0], index=1)]
        controller = CampaignController(spec, cells=doubled)
        address = controller.bind()
        process = _fork_context().Process(
            target=_local_worker_main, args=(address, "w0"), daemon=True
        )
        process.start()
        try:
            result = controller.serve()
        finally:
            controller.close()
            process.join(timeout=10.0)
        assert controller.dispatched_units == 1
        assert len(result.rows) == 2
        assert result.deterministic_rows()[0] == result.deterministic_rows()[1]


# ---------------------------------------------------------------------------
# Fault tolerance: loss detection, requeues, bounded retries
# ---------------------------------------------------------------------------

def _hello(sock: socket.socket, name: str) -> None:
    send_message(
        sock,
        {"type": "hello", "version": PROTOCOL_VERSION, "worker": name, "pid": os.getpid()},
    )


def _recv_until_cell(sock: socket.socket) -> None:
    decoder = FrameDecoder()
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return
        for message in decoder.feed(chunk):
            if message.get("type") == "cell":
                return


def _suicidal_worker(address: Tuple[str, int]) -> None:
    """Registers, accepts one cell, then dies without a word (hard exit)."""
    sock = socket.create_connection(address)
    _hello(sock, "suicidal")
    _recv_until_cell(sock)
    os._exit(1)


def _hung_worker(address: Tuple[str, int]) -> None:
    """Registers, accepts one cell, then goes silent on a live TCP link."""
    sock = socket.create_connection(address)
    _hello(sock, "hung")
    _recv_until_cell(sock)
    time.sleep(600)


class TestWorkerLossRecovery:
    def test_sigkilled_worker_mid_cell_requeues_and_stays_bit_identical(self):
        # The acceptance criterion: >= 2 socket workers, one forcibly killed
        # mid-campaign, result bit-identical to workers=1.
        spec = CampaignSpec(
            name="fleet-kill",
            protocols=("proposed-gka", "bd-unauthenticated"),
            group_sizes=(8,),
            losses=(0.05,),
            schedule={"kind": "poisson", "length": 3},
            seed="fleet-kill",
        )
        serial = run_campaign(spec, workers=1)

        killed: List[int] = []

        def kill_first_busy_worker(snapshot) -> None:
            if killed:
                return
            for view in snapshot.workers.values():
                if view.state == "busy" and view.pid:
                    killed.append(view.pid)
                    os.kill(view.pid, signal.SIGKILL)
                    return

        controller = CampaignController(
            spec,
            heartbeat_s=0.2,
            idle_timeout_s=60.0,
            on_progress=kill_first_busy_worker,
        )
        address = controller.bind()
        context = _fork_context()
        processes = [
            context.Process(target=_local_worker_main, args=(address, f"w{i}"), daemon=True)
            for i in range(2)
        ]
        for process in processes:
            process.start()
        try:
            result = controller.serve()
        finally:
            controller.close()
            for process in processes:
                process.join(timeout=10.0)
                if process.is_alive():
                    process.terminate()

        assert killed, "no worker was ever busy — the kill never happened"
        assert controller.worker_losses >= 1
        assert controller.requeues >= 1, "the in-flight cell was not requeued"
        assert result.failures() == []
        assert result.deterministic_rows() == serial.deterministic_rows()

    def test_heartbeat_silence_counts_as_loss_even_on_a_live_link(self):
        # The hung worker holds a live TCP connection but never heartbeats:
        # EOF detection alone would wait forever; the heartbeat deadline
        # must reap it and hand its cell to the healthy worker.
        spec = small_spec(protocols=("proposed-gka",))
        serial = run_campaign(spec, workers=1)
        controller = CampaignController(
            spec, heartbeat_s=0.1, heartbeat_misses=3, idle_timeout_s=60.0
        )
        address = controller.bind()
        context = _fork_context()
        hung = context.Process(target=_hung_worker, args=(address,), daemon=True)
        hung.start()
        time.sleep(0.3)  # let the hung worker register and take the cell
        good = context.Process(
            target=_local_worker_main, args=(address, "good"), daemon=True
        )
        good.start()
        try:
            result = controller.serve()
        finally:
            controller.close()
            hung.terminate()
            good.join(timeout=10.0)
            if good.is_alive():
                good.terminate()
        assert controller.worker_losses >= 1
        assert controller.requeues >= 1
        assert result.failures() == []
        assert result.deterministic_rows() == serial.deterministic_rows()

    def test_retries_exhausted_becomes_an_error_row_not_a_dead_sweep(self, tmp_path):
        spec = small_spec(protocols=("proposed-gka",))
        controller = CampaignController(
            spec,
            cache_dir=str(tmp_path),
            heartbeat_s=0.2,
            max_requeues=1,
            idle_timeout_s=30.0,
        )
        address = controller.bind()
        context = _fork_context()
        # Two losses: the first dispatch is requeued (attempts=1 <= 1), the
        # second exhausts the budget (attempts=2 > 1) -> error row.
        first = context.Process(target=_suicidal_worker, args=(address,), daemon=True)
        first.start()
        second = context.Process(target=_suicidal_worker, args=(address,), daemon=True)
        second.start()
        result = controller.serve()
        controller.close()
        first.join(timeout=10.0)
        second.join(timeout=10.0)
        assert len(result.rows) == 1
        failures = result.failures()
        assert len(failures) == 1
        assert "worker lost" in failures[0]["error"]
        assert "retries exhausted" in failures[0]["error"]
        # Error rows keep the cell's identity and are never cached.
        assert failures[0]["cell"] == spec.cells()[0].key
        rerun_plan = plan_campaign(spec, cache_dir=str(tmp_path))
        assert len(rerun_plan.pending) == 1

    def test_no_workers_times_out_instead_of_hanging(self):
        controller = CampaignController(
            small_spec(), heartbeat_s=0.05, idle_timeout_s=0.2
        )
        controller.bind()
        with pytest.raises(FleetError, match="no workers"):
            controller.serve()

    def test_version_mismatch_is_rejected_at_hello(self):
        spec = small_spec(protocols=("proposed-gka",))
        controller = CampaignController(spec, heartbeat_s=0.1, idle_timeout_s=1.5)
        address = controller.bind()
        rejected = threading.Event()

        def ancient_worker():
            sock = socket.create_connection(address)
            send_message(sock, {"type": "hello", "version": 0, "worker": "old"})
            decoder = FrameDecoder()
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                for message in decoder.feed(chunk):
                    if message.get("type") == "shutdown":
                        rejected.set()
                        return

        thread = threading.Thread(target=ancient_worker, daemon=True)
        thread.start()
        with pytest.raises(FleetError, match="no workers"):
            controller.serve()  # the old worker never counts as serving
        thread.join(timeout=5.0)
        assert rejected.is_set()


class TestLateWorker:
    def test_worker_arriving_after_the_last_row_exits_cleanly(self):
        # The CLI's race, made deterministic: the first worker computes every
        # cell and is shut down only once the result is assembled; the second
        # connects after that and is told the campaign is complete.
        controller = CampaignController(small_spec(), heartbeat_s=0.2)
        address = controller.bind()
        outcome = {}

        def serve_then_dismiss():
            outcome["result"] = controller.serve()
            controller.dismiss_late_workers()

        def late_worker():
            outcome["late"] = FleetWorker(address, name="late", connect_timeout_s=2.0).run()

        server = threading.Thread(target=serve_then_dismiss)
        server.start()
        late = threading.Thread(target=late_worker)
        try:
            assert FleetWorker(address, name="early").run() == 2
            late.start()
            server.join(timeout=30.0)
        finally:
            controller.close()  # also ends a late worker nobody answered
        late.join(timeout=10.0)
        assert not server.is_alive() and not late.is_alive()
        assert outcome.get("late") == 0
        assert len(outcome["result"].rows) == 2 and not outcome["result"].failures()


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ParameterError, match="at least one worker"):
            run_fleet_campaign(small_spec(), workers=0)

    def test_bad_controller_knobs_rejected(self):
        with pytest.raises(ParameterError, match="heartbeat"):
            CampaignController(small_spec(), heartbeat_s=0.0)
        with pytest.raises(ParameterError, match="max_requeues"):
            CampaignController(small_spec(), max_requeues=-1)

    def test_non_contiguous_adjusted_cells_rejected(self):
        from dataclasses import replace

        cells = small_spec().cells()
        with pytest.raises(ParameterError, match="contiguous"):
            CampaignController(small_spec(), cells=[replace(cells[0], index=5)])

    def test_address_requires_bind(self):
        controller = CampaignController(small_spec())
        with pytest.raises(FleetError, match="not bound"):
            controller.address

    def test_cell_simulation_failures_stay_error_rows(self):
        # A cell that fails *inside* the worker is an error row (the
        # campaign contract), never a worker loss or a requeue.
        spec = small_spec(protocols=("proposed-gka", "no-such-protocol"))
        result = run_fleet_campaign(spec, workers=2)
        assert len(result.rows) == 2
        failures = result.failures()
        assert len(failures) == 1
        assert "unknown protocol" in failures[0]["error"]


# ---------------------------------------------------------------------------
# The python -m repro.fleet CLI (real subprocesses, real sockets)
# ---------------------------------------------------------------------------

class TestFleetCli:
    @staticmethod
    def _env():
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def test_controller_plus_two_workers_end_to_end(self, tmp_path):
        spec = {
            "name": "cli-fleet",
            "protocols": ["proposed-gka", "bd-unauthenticated"],
            "group_sizes": [5],
            "losses": [0.0],
            "schedule": {"kind": "poisson", "length": 2},
            "seed": 3,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_path = tmp_path / "result.json"

        controller = subprocess.Popen(
            [sys.executable, "-m", "repro.fleet", "controller",
             "--spec", str(spec_path), "--host", "127.0.0.1", "--port", "0",
             "--json", str(out_path), "--progress-every", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=self._env(),
        )
        workers: List[subprocess.Popen] = []
        try:
            port = None
            assert controller.stdout is not None
            for line in controller.stdout:
                if line.startswith("listening on "):
                    port = int(line.rsplit(":", 1)[1])
                    break
            assert port, "controller never announced its port"
            workers = [
                subprocess.Popen(
                    [sys.executable, "-m", "repro.fleet", "worker",
                     "--connect", f"127.0.0.1:{port}", "--name", f"cli-w{i}"],
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                    env=self._env(),
                )
                for i in range(2)
            ]
            assert controller.wait(timeout=120) == 0
            for worker in workers:
                assert worker.wait(timeout=30) == 0
        finally:
            for process in [controller, *workers]:
                if process.poll() is None:
                    process.kill()

        document = json.loads(out_path.read_text())
        assert document["cells"] == 2 and document["failures"] == 0
        # The CLI fleet's rows match an in-process serial run bit-for-bit.
        from repro.campaign import NONDETERMINISTIC_FIELDS

        serial = run_campaign(CampaignSpec.from_dict(spec), workers=1)
        fleet_rows = [
            {k: v for k, v in row.items() if k not in NONDETERMINISTIC_FIELDS}
            for row in document["rows"]
        ]
        assert fleet_rows == serial.deterministic_rows()

    def test_controller_rejects_bad_spec(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        from repro.fleet.__main__ import main as fleet_main

        assert fleet_main(["controller", "--spec", str(bad)]) == 2
        assert fleet_main(["controller", "--spec", "/does/not/exist.json"]) == 2

    def test_worker_rejects_bad_address_and_unreachable_controller(self, capsys):
        from repro.fleet.__main__ import main as fleet_main

        assert fleet_main(["worker", "--connect", "nowhere"]) == 2
        # An unreachable controller is a clean one-line failure, not a hang.
        assert fleet_main(
            ["worker", "--connect", "127.0.0.1:1", "--connect-timeout", "0.2"]
        ) == 1
        assert "error:" in capsys.readouterr().err
