"""The telemetry subsystem: spans, metrics, zero-overhead, bit-identity.

The contract under test is the one ``repro.telemetry`` documents:

* **observation-only** — enabling tracing/metrics changes *nothing* a run
  produces: one golden-fixture workload is re-asserted byte-identical under
  an active session, and a fleet run with telemetry on still matches
  ``run_campaign(workers=1)`` row for row;
* **zero-overhead-when-disabled** — no tracer/registry installed means the
  helpers are no-ops and instrumented hot paths take their historical
  branches;
* **mergeable snapshots** — :func:`repro.telemetry.merge_snapshots` is
  associative and commutative (counters add, gauges max, histogram buckets
  add), which is what lets the fleet controller fold worker snapshots in
  arrival order;
* **exportable** — span JSONL and Chrome trace-event JSON (Perfetto's
  format: metadata events naming processes/threads, ``X`` duration events in
  µs, ``i`` instants), with both the wall and the virtual sim clock.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from typing import List

import pytest

from repro import telemetry
from repro.campaign import CampaignSpec, NONDETERMINISTIC_FIELDS, run_campaign
from repro.campaign.cache import ResultCache
from repro.core.base import SystemSetup
from repro.fleet import run_fleet_campaign
from repro.sim.runner import ScenarioRunner
from repro.sim.scenarios import PoissonChurn, Scenario
from repro.engine.executor import EngineConfig
from repro.engine.latency import FixedLatency
from repro.sim.specio import build
from repro.telemetry import (
    MetricsRegistry,
    Span,
    Tracer,
    histogram_percentile,
    merge_snapshots,
    render_metrics_table,
    summary_fields,
)


@pytest.fixture(scope="module")
def setup_256() -> SystemSetup:
    return SystemSetup.from_param_sets("test-256", "gq-test-256")


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.count("msgs")
        registry.count("msgs", 4)
        registry.set_gauge("depth", 3.0)
        registry.set_gauge("depth", 1.0)  # value drops, peak stays
        registry.gauge_max("depth", 2.0)  # raises the value, not the peak
        for value in (0.5, 1.5, 4.0, 1024.0):
            registry.observe("lat", value)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["msgs"] == 5
        assert snapshot["gauges"]["depth"] == {"value": 2.0, "peak": 3.0}
        hist = snapshot["histograms"]["lat"]
        assert hist["count"] == 4
        assert hist["min"] == 0.5 and hist["max"] == 1024.0
        assert hist["sum"] == pytest.approx(1030.0)

    def test_histogram_percentiles_clamped_to_exact_range(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0, 100.0):
            registry.observe("h", value)
        hist = registry.snapshot()["histograms"]["h"]
        assert histogram_percentile(hist, 0.0) >= 1.0
        assert histogram_percentile(hist, 1.0) == 100.0  # clamped to max
        assert 1.0 <= histogram_percentile(hist, 0.5) <= 100.0
        assert histogram_percentile({"count": 0}, 0.5) == 0.0

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.count("a")
        registry.set_gauge("g", 2.5)
        registry.observe("h", 0.125)
        assert json.loads(json.dumps(registry.snapshot())) == registry.snapshot()

    def test_merge_is_associative_and_commutative(self):
        def make(seed: int):
            registry = MetricsRegistry()
            registry.count("msgs", seed * 3 + 1)
            registry.set_gauge("depth", float(seed))
            for k in range(seed + 1):
                registry.observe("lat", 0.5 * (k + 1) * (seed + 1))
            return registry.snapshot()

        parts = [make(seed) for seed in range(4)]
        reference = merge_snapshots(parts)
        for ordering in itertools.permutations(parts):
            assert merge_snapshots(ordering) == reference
        # Associativity: fold in arbitrary groupings.
        grouped = merge_snapshots(
            [merge_snapshots(parts[:2]), merge_snapshots(parts[2:])]
        )
        assert grouped == reference
        # And the totals are the sums/maxes of the parts.
        assert reference["counters"]["msgs"] == sum(
            part["counters"]["msgs"] for part in parts
        )
        assert reference["gauges"]["depth"]["peak"] == 3.0
        assert reference["histograms"]["lat"]["count"] == sum(
            part["histograms"]["lat"]["count"] for part in parts
        )

    def test_merge_with_empty_is_identity(self):
        registry = MetricsRegistry()
        registry.count("x", 7)
        snapshot = registry.snapshot()
        assert merge_snapshots([snapshot, {}]) == merge_snapshots([snapshot])

    def test_render_table_and_summary_fields(self):
        registry = MetricsRegistry()
        registry.count("engine.tx.messages", 12)
        registry.set_gauge("engine.queue_depth", 9.0)
        registry.observe("scenario.step_wall_s", 0.25)
        table = render_metrics_table(registry.snapshot(), title="t")
        assert "--- t ---" in table
        assert "engine.tx.messages" in table and "12" in table
        fields = summary_fields(registry.snapshot())
        assert fields["engine.tx.messages"] == 12.0
        assert fields["engine.queue_depth.peak"] == 9.0
        assert fields["scenario.step_wall_s.count"] == 1.0
        assert fields["scenario.step_wall_s.p95"] > 0.0
        assert render_metrics_table({}) .endswith("(no metrics recorded)")


# ---------------------------------------------------------------------------
# Tracer and spans
# ---------------------------------------------------------------------------

class TestTracer:
    def test_span_context_records_both_clocks(self):
        tracer = Tracer("main")
        with tracer.span("work", category="c", track="t", sim_start=5.0) as span:
            span.arg("k", 1)
            span.finish_sim(7.5)
        assert len(tracer) == 1
        recorded = tracer.spans[0]
        assert recorded.name == "work" and recorded.args == {"k": 1}
        assert recorded.wall_dur >= 0.0
        assert recorded.sim_start == 5.0 and recorded.sim_dur == 2.5

    def test_span_serialization_round_trip(self):
        span = Span("x", category="c", process="p", track="t",
                    wall_start=1.0, wall_dur=0.5, sim_start=2.0, sim_dur=0.25,
                    phase="span", args={"n": 3})
        clone = Span.from_dict(json.loads(json.dumps(span.to_dict())))
        assert clone.to_dict() == span.to_dict()

    def test_max_spans_cap_counts_drops(self):
        tracer = Tracer("main", max_spans=2)
        for index in range(5):
            tracer.complete(f"s{index}", wall_start=0.0, wall_dur=0.0)
        assert len(tracer) == 2 and tracer.dropped == 3

    def test_adopt_rebases_wall_clock_and_process(self):
        worker = Tracer("cell")
        worker.complete("inner", wall_start=0.25, wall_dur=0.5, sim_start=1.0)
        controller = Tracer("controller")
        adopted = controller.adopt(
            [span.to_dict() for span in worker.spans],
            process="worker-1",
            wall_offset=10.0,
        )
        assert adopted == 1
        span = controller.spans[0]
        assert span.process == "worker-1"
        assert span.wall_start == pytest.approx(10.25)
        assert span.sim_start == 1.0  # the sim clock never shifts
        # Malformed payloads are dropped, never fatal.
        assert controller.adopt([{"wall_start_s": "junk"}]) == 0

    def test_chrome_export_is_valid_trace_event_json(self, tmp_path):
        tracer = Tracer("controller")
        tracer.complete("a", wall_start=0.0, wall_dur=0.001, sim_start=0.0,
                        sim_dur=2.0, track="kernel")
        tracer.complete("b", wall_start=0.001, wall_dur=0.002,
                        track="party-0", process="worker-1")
        tracer.instant("mark", track="kernel", sim_time=1.0)
        path = tmp_path / "trace.json"
        tracer.export(str(path))
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        names = {(e["name"], e["args"]["name"]) for e in metadata}
        assert ("process_name", "controller") in names
        assert ("process_name", "worker-1") in names
        assert ("thread_name", "kernel") in names
        durations = [e for e in events if e["ph"] == "X"]
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in durations)
        assert any(e["args"].get("sim_dur_s") == 2.0 for e in durations)
        instants = [e for e in events if e["ph"] == "i"]
        assert instants and all(e["s"] == "t" for e in instants)
        # Distinct (pid, tid) per (process, track); the instant shares the
        # controller/kernel track with span "a".
        keys = {(e["pid"], e["tid"]) for e in events if e["ph"] != "M"}
        assert len(keys) == 2

    def test_jsonl_export(self, tmp_path):
        tracer = Tracer("main")
        tracer.complete("a", wall_start=0.0, wall_dur=0.5)
        path = tmp_path / "trace.jsonl"
        tracer.export(str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["name"] == "a"
        assert lines[-1] == {"meta": {"spans": 1, "dropped": 0}}


# ---------------------------------------------------------------------------
# Sessions and the zero-overhead contract
# ---------------------------------------------------------------------------

class TestSessions:
    def test_disabled_helpers_are_noops(self):
        assert telemetry.active_tracer() is None
        assert telemetry.active_metrics() is None
        telemetry.count("x")
        telemetry.observe("y", 1.0)
        telemetry.set_gauge("z", 2.0)
        telemetry.gauge_max("z", 3.0)
        with telemetry.span("nothing") as span:
            assert span is None

    def test_session_installs_and_restores(self):
        with telemetry.telemetry_session(trace=True, metrics=True) as outer:
            assert telemetry.active_tracer() is outer.tracer
            assert telemetry.active_metrics() is outer.metrics
            with telemetry.telemetry_session(metrics=True) as inner:
                # Nested: the inner pair wins, tracer side now off.
                assert telemetry.active_tracer() is None
                assert telemetry.active_metrics() is inner.metrics
            assert telemetry.active_tracer() is outer.tracer
            assert telemetry.active_metrics() is outer.metrics
        assert telemetry.active_tracer() is None
        assert telemetry.active_metrics() is None

    def test_both_off_is_a_pure_noop_session(self):
        with telemetry.telemetry_session() as session:
            assert session.tracer is None and session.metrics is None
            assert session.metrics_snapshot() == {}


# ---------------------------------------------------------------------------
# Engine integration: spans, ordering, counters — and bit-identity
# ---------------------------------------------------------------------------

class TestEngineIntegration:
    def test_golden_workload_is_bit_identical_with_telemetry_on(self):
        """One golden-fixture workload re-run under an active session.

        The full suite (``test_engine_equivalence.py``) pins all six flat
        protocols with telemetry *off*; this asserts the observation-only
        contract by re-running the proposed protocol's lossless and lossy
        workloads with tracing and metrics installed and comparing against
        the very same frozen capture.
        """
        from equivalence_workloads import FIXTURE_RELPATH, _lossless_run, _lossy_run

        fixture_path = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), FIXTURE_RELPATH
        )
        with open(fixture_path, encoding="utf-8") as handle:
            golden = json.load(handle)["proposed-gka"]
        with telemetry.telemetry_session(trace=True, metrics=True) as session:
            current = json.loads(json.dumps({
                "lossless": _lossless_run("proposed-gka"),
                "lossy": _lossy_run("proposed-gka"),
            }))
        assert current["lossless"] == golden["lossless"]
        assert current["lossy"] == golden["lossy"]
        # And the session actually observed the runs.
        assert session.tracer.count("engine") >= 2
        assert session.metrics.snapshot()["counters"]["engine.runs"] == 2

    def test_scenario_identical_with_and_without_telemetry(self, setup_256):
        scenario = Scenario(
            name="tele-eq",
            initial_size=5,
            seed=11,
            loss_probability=0.1,
            schedule=PoissonChurn(length=3, join_rate=1.0, leave_rate=1.0),
        )
        runner = ScenarioRunner(
            setup_256, engine=build(EngineConfig, "radio"), check_agreement=False
        )
        plain = runner.run("proposed-gka", scenario)
        with telemetry.telemetry_session(trace=True, metrics=True):
            traced = runner.run("proposed-gka", scenario)
        assert traced.key_fingerprint == plain.key_fingerprint
        assert [r.bits for r in traced.records] == [r.bits for r in plain.records]
        assert [r.energy_j for r in traced.records] == [
            r.energy_j for r in plain.records
        ]

    def test_span_nesting_and_ordering_under_kernel_batches(self, setup_256):
        scenario = Scenario(name="tele-spans", initial_size=4, seed=5)
        runner = ScenarioRunner(
            setup_256, engine=build(EngineConfig, "radio"), check_agreement=False
        )
        with telemetry.telemetry_session(trace=True) as session:
            report = runner.run("proposed-gka", scenario)
        spans = session.tracer.spans
        batches = [s for s in spans if s.name == "kernel.batch"]
        assert batches, "kernel batches were not traced"
        # Batch spans are recorded in execution order: sim time never rewinds
        # within the run, and every batch closes at-or-after it opened.
        sim_starts = [s.sim_start for s in batches]
        assert sim_starts == sorted(sim_starts)
        assert all(s.sim_dur >= 0.0 for s in batches)
        assert all(s.args["size"] >= 1 for s in batches)
        # Party spans land on per-party tracks nested inside the engine run.
        engine_runs = [s for s in spans if s.name == "engine.run"]
        assert len(engine_runs) == 1
        party_tracks = {s.track for s in spans if s.category == "party"}
        assert len(party_tracks) == 4
        run = engine_runs[0]
        for span in spans:
            if span.category == "party":
                assert run.wall_start <= span.wall_start
                assert span.wall_start + span.wall_dur <= (
                    run.wall_start + run.wall_dur + 1e-6
                )
        # The scenario span encloses everything and counted its steps.
        scenario_spans = [s for s in spans if s.category == "scenario"]
        assert len(scenario_spans) == 1
        assert scenario_spans[0].args["steps"] == len(report.records)

    def test_engine_counters_match_report(self, setup_256):
        scenario = Scenario(name="tele-count", initial_size=5, seed=9)
        runner = ScenarioRunner(
            setup_256, engine=build(EngineConfig, "radio"), check_agreement=False
        )
        with telemetry.telemetry_session(metrics=True) as session:
            report = runner.run("proposed-gka", scenario)
        counters = session.metrics.snapshot()["counters"]
        assert counters["engine.tx.messages"] == report.total_messages
        assert counters["engine.tx.bits"] == report.total_bits()
        assert counters["scenario.steps"] == len(report.records)
        assert counters["crypto.modexp"] > 0

    def test_unscheduled_copies_are_counted_in_latency_mode_only(self, setup_256):
        # Timeout waves resend rounds that members already hold; latency
        # mode schedules no kernel event for those copies and counts them.
        scenario = Scenario(name="tele-unscheduled", initial_size=5, seed=11, loss_probability=0.2)
        unscheduled = {}
        for mode, engine in (
            ("instant", None),
            ("latency", EngineConfig(latency=FixedLatency(0.01), round_timeout_s=0.5)),
        ):
            runner = ScenarioRunner(setup_256, engine=engine, check_agreement=False)
            with telemetry.telemetry_session(metrics=True) as session:
                runner.run("bd", scenario)
            unscheduled[mode] = session.metrics.snapshot()["counters"]["engine.copies_unscheduled"]
        assert unscheduled["instant"] == 0
        assert unscheduled["latency"] > 0


# ---------------------------------------------------------------------------
# Cache metrics
# ---------------------------------------------------------------------------

class TestCacheMetrics:
    def test_hits_misses_and_prune_counted(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        payload = {"campaign": "c", "cell": "0", "axes": {}}
        with telemetry.telemetry_session(metrics=True) as session:
            assert cache.get(payload) is None
            cache.put(payload, {"campaign": "c", "cell": "0", "x": 1})
            assert cache.get(payload)["x"] == 1
        counters = session.metrics.snapshot()["counters"]
        assert counters["cache.misses"] == 1
        assert counters["cache.hits"] == 1
        assert counters["cache.puts"] == 1
        line = cache.summary_line()
        assert "1 hits" in line and "1 misses" in line and "50% hit rate" in line

    def test_campaign_rerun_replays_from_cache_under_metrics(self, tmp_path):
        spec = CampaignSpec(
            name="cache-metrics",
            protocols=("proposed-gka",),
            group_sizes=(4,),
            losses=(0.0,),
            seed=23,
        )
        with telemetry.telemetry_session(metrics=True) as session:
            first = run_campaign(spec, cache_dir=str(tmp_path))
            second = run_campaign(spec, cache_dir=str(tmp_path))
        assert first.cache_hits == 0 and second.cache_hits == 1
        counters = session.metrics.snapshot()["counters"]
        assert counters["cache.hits"] == 1
        assert counters["cache.misses"] >= 1
        assert counters["campaign.cells"] == 1  # the second run computed nothing


# ---------------------------------------------------------------------------
# Fleet integration
# ---------------------------------------------------------------------------

class TestFleetTelemetry:
    def test_fleet_run_with_telemetry_is_bit_identical(self):
        spec = CampaignSpec(
            name="fleet-tele",
            protocols=("proposed-gka", "bd-unauthenticated"),
            group_sizes=(4,),
            losses=(0.0,),
            seed=31,
        )
        serial = run_campaign(spec, workers=1)
        snapshots = []
        with telemetry.telemetry_session(
            trace=True, metrics=True, process="controller"
        ) as session:
            fleet = run_fleet_campaign(
                spec, workers=2, on_progress=snapshots.append
            )
        assert fleet.deterministic_rows() == serial.deterministic_rows()

        # Workers appear as trace *processes*; their cell spans were adopted
        # with the engine/party detail intact.
        processes = session.tracer.processes()
        assert "controller" in processes and len(processes) >= 2
        categories = {s.category for s in session.tracer.spans}
        assert {"fleet", "dispatch", "cell", "engine", "party"} <= categories
        dispatch = [s for s in session.tracer.spans if s.category == "dispatch"]
        assert len(dispatch) == 2  # one per work unit
        # Worker cell spans carry the virtual sim clock too.
        assert any(
            s.sim_start is not None
            for s in session.tracer.spans
            if s.process != "controller"
        )

        # Metrics merged fleet-wide and per worker on the final snapshot.
        final = snapshots[-1]
        assert final.complete
        assert final.metrics["counters"]["engine.runs"] == 2
        assert final.worker_metrics
        merged = merge_snapshots(final.worker_metrics.values())
        assert merged["counters"]["campaign.cells"] == 2
        assert json.loads(json.dumps(final.to_dict())) == final.to_dict()

    def test_fleet_without_telemetry_ships_no_extras(self):
        spec = CampaignSpec(
            name="fleet-quiet",
            protocols=("proposed-gka",),
            group_sizes=(4,),
            losses=(0.0,),
            seed=37,
        )
        snapshots = []
        fleet = run_fleet_campaign(spec, workers=1, on_progress=snapshots.append)
        assert len(fleet.rows) == 1
        final = snapshots[-1]
        assert final.metrics == {} and final.worker_metrics == {}


# ---------------------------------------------------------------------------
# The fleet CLI observability surface (real subprocesses, real sockets)
# ---------------------------------------------------------------------------

class TestFleetCliObservability:
    @staticmethod
    def _env():
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def test_trace_metrics_and_progress_stream(self, tmp_path):
        spec = {
            "name": "cli-tele",
            "protocols": ["proposed-gka", "bd-unauthenticated"],
            "group_sizes": [4],
            "losses": [0.0],
            "seed": 41,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_path = tmp_path / "result.json"
        trace_path = tmp_path / "trace.json"
        progress_path = tmp_path / "progress.jsonl"

        # --progress-every is huge so throttled lines never fire: the final
        # 100% line must print anyway, exactly once.
        controller = subprocess.Popen(
            [sys.executable, "-m", "repro.fleet", "controller",
             "--spec", str(spec_path), "--host", "127.0.0.1", "--port", "0",
             "--json", str(out_path), "--quiet",
             "--trace", str(trace_path), "--metrics",
             "--progress-json", str(progress_path), "--progress-every", "3600"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=self._env(),
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
                     "--connect", f"127.0.0.1:{port}", "--name", f"tele-w{i}"],
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                    env=self._env(),
                )
                for i in range(2)
            ]
            assert controller.wait(timeout=120) == 0
            stderr = controller.stderr.read() if controller.stderr else ""
            for worker in workers:
                assert worker.wait(timeout=30) == 0
        finally:
            for process in [controller, *workers]:
                if process.poll() is None:
                    process.kill()

        # The final 100% progress line printed exactly once despite the
        # throttle, and the metrics table followed it.
        final_lines = [
            line for line in stderr.splitlines()
            if line.startswith("fleet: 2/2 cells")
        ]
        assert len(final_lines) == 1
        assert "engine.runs" in stderr and "--- metrics ---" in stderr
        assert "spans" in stderr and str(trace_path) in stderr

        # Every snapshot streamed as JSONL; the last one is complete and
        # carries the fleet-wide plus per-worker metric views.
        snapshots = [
            json.loads(line) for line in progress_path.read_text().splitlines()
        ]
        assert snapshots and snapshots[-1]["complete"] is True
        assert snapshots[-1]["done"] == 2
        assert snapshots[-1]["metrics"]["counters"]["engine.runs"] == 2
        assert snapshots[-1]["worker_metrics"]
        assert all(not s["complete"] for s in snapshots[:-1])

        # The trace is a Perfetto-loadable Chrome trace: controller plus both
        # workers as processes, dual clocks on the worker engine spans.
        document = json.loads(trace_path.read_text())
        events = document["traceEvents"]
        process_names = {
            e["args"]["name"] for e in events if e.get("name") == "process_name"
        }
        assert "controller" in process_names
        assert {"tele-w0", "tele-w1"} & process_names
        assert any(
            e.get("ph") == "X" and "sim_dur_s" in e.get("args", {})
            for e in events
        )
        categories = {e.get("cat") for e in events if e.get("ph") == "X"}
        assert {"dispatch", "cell", "engine"} <= categories

        # And observability never bent the rows: bit-identical to serial.
        from repro.campaign import NONDETERMINISTIC_FIELDS

        document = json.loads(out_path.read_text())
        serial = run_campaign(build(CampaignSpec, spec), workers=1)
        fleet_rows = [
            {k: v for k, v in row.items() if k not in NONDETERMINISTIC_FIELDS}
            for row in document["rows"]
        ]
        assert fleet_rows == serial.deterministic_rows()
