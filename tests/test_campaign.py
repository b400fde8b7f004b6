"""The campaign subsystem: grid expansion, sharded execution, determinism.

The headline property this file pins is the one the whole subsystem is built
around: **a campaign's output is bit-identical no matter how it is executed**
— serially, sharded over the local fleet, or replayed from the result cache.
``TestDeterminismHarness`` asserts it for a grid covering every registry
protocol (keys via the report fingerprint, energy ledgers, virtual latency,
security verdicts); ``TestFuzzedInvariants`` asserts the structural
invariants (key uniqueness, energy non-negativity, row conservation) over
seeded random specs.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import multiprocessing
import os
import random

import pytest

from repro import telemetry
from repro.campaign import (
    AXIS_NAMES,
    CampaignSpec,
    NONDETERMINISTIC_FIELDS,
    execute_cell,
    payload_hash,
    run_campaign,
)
from repro.campaign import execute as execute_mod
from repro.campaign.__main__ import main as campaign_main
from repro.core.registry import available_protocols
from repro.exceptions import ParameterError
from repro.sim.specio import build, to_spec

ALL_PROTOCOLS = tuple(available_protocols())


def small_spec(**overrides) -> CampaignSpec:
    fields = dict(
        name="unit",
        protocols=("proposed-gka", "bd-unauthenticated"),
        group_sizes=(5,),
        losses=(0.0,),
        schedule={"kind": "poisson", "length": 2},
        seed=11,
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


# ---------------------------------------------------------------------------
# Spec expansion
# ---------------------------------------------------------------------------

class TestSpecExpansion:
    def test_cells_are_the_full_cartesian_product_in_grid_order(self):
        spec = small_spec(
            group_sizes=(5, 8),
            losses=(0.0, 0.1),
            adversaries={"none": None, "inject": "inject"},
            replications=2,
        )
        cells = spec.cells()
        assert len(cells) == 2 * 2 * 2 * 2 * 2
        assert [cell.index for cell in cells] == list(range(len(cells)))
        # Grid order: protocol outermost, replication innermost.
        assert cells[0].axes["protocol"] == "proposed-gka"
        assert cells[0].axes["rep"] == 0 and cells[1].axes["rep"] == 1
        assert cells[-1].axes["protocol"] == "bd-unauthenticated"

    def test_cell_keys_are_unique_and_name_every_axis(self):
        spec = small_spec(losses=(0.0, 0.1, 0.2), replications=2)
        keys = [cell.key for cell in spec.cells()]
        assert len(set(keys)) == len(keys)
        for key in keys:
            for axis in AXIS_NAMES:
                assert f"{axis}=" in key

    def test_cell_seeds_depend_only_on_master_seed_and_workload(self):
        spec = small_spec(losses=(0.0, 0.1))
        wider = small_spec(losses=(0.0, 0.05, 0.1), protocols=ALL_PROTOCOLS)
        seeds = {cell.key: cell.payload["scenario"]["seed"] for cell in spec.cells()}
        wider_seeds = {
            cell.key: cell.payload["scenario"]["seed"] for cell in wider.cells()
        }
        # Shared grid points keep their seeds when the grid grows...
        for key, seed in seeds.items():
            assert wider_seeds[key] == seed
        # ...and a different master seed reseeds every cell.
        reseeded = {
            cell.key: cell.payload["scenario"]["seed"]
            for cell in small_spec(losses=(0.0, 0.1), seed=12).cells()
        }
        for key, seed in seeds.items():
            assert reseeded[key] != seed

    def test_treatment_axes_share_the_workload_seed_and_scenario_name(self):
        # Protocols, losses, engines and adversaries are *treatments* over
        # one workload: they must replay identical churn/trajectory streams,
        # which requires an identical scenario seed AND name (the RNG label).
        spec = small_spec(
            losses=(0.0, 0.1),
            adversaries={"none": None, "inject": "inject"},
            replications=2,
        )
        by_workload = {}
        for cell in spec.cells():
            workload = CampaignSpec.workload_key(cell.axes)
            scenario = cell.payload["scenario"]
            by_workload.setdefault(workload, set()).add(
                (scenario["seed"], scenario["name"])
            )
        assert len(by_workload) == 2  # rep=0 and rep=1
        for streams in by_workload.values():
            assert len(streams) == 1  # every treatment shares seed + name
        # Different replications are genuinely different workloads.
        assert len({next(iter(s)) for s in by_workload.values()}) == 2

    def test_payloads_are_json_round_trippable(self):
        spec = small_spec(
            mobilities={
                "rwp": {
                    "model": "random-waypoint",
                    "tx_range": 150.0,
                    "duration": 10.0,
                    "edge_loss": 0.1,
                }
            },
            schedule=None,
            losses=(0.05,),
        )
        for cell in spec.cells():
            assert json.loads(json.dumps(cell.payload)) == cell.payload

    def test_loss_axis_becomes_base_loss_floor_on_mobility_cells(self):
        spec = small_spec(
            schedule=None,
            mobilities={
                "rwp": {
                    "model": "random-waypoint",
                    "tx_range": 150.0,
                    "duration": 10.0,
                    "base_loss": 0.02,
                    "edge_loss": 0.1,
                }
            },
            losses=(0.0, 0.05, 0.2),
        )
        by_loss = {
            cell.axes["loss"]: cell.payload["scenario"]["mobility"]
            for cell in spec.cells()
            if cell.axes["protocol"] == "proposed-gka"
        }
        assert by_loss[0.0]["base_loss"] == 0.02 and by_loss[0.0]["edge_loss"] == 0.1
        assert by_loss[0.05]["base_loss"] == 0.05 and by_loss[0.05]["edge_loss"] == 0.1
        assert by_loss[0.2]["base_loss"] == 0.2 and by_loss[0.2]["edge_loss"] == 0.2

    def test_dict_round_trip(self):
        spec = small_spec(adversaries={"none": None, "mitm": "mitm"}, replications=3)
        rebuilt = build(CampaignSpec, json.loads(json.dumps(to_spec(spec))))
        assert rebuilt.cells() == spec.cells()

    def test_dict_round_trip_preserves_bytes_seeds(self):
        # A bytes seed must survive to_spec -> JSON -> build losslessly
        # (a bare hex string would derive entirely different cell seeds).
        spec = small_spec(seed=b"\xab\xcd")
        rebuilt = build(CampaignSpec, json.loads(json.dumps(to_spec(spec))))
        assert rebuilt.seed == spec.seed
        assert rebuilt.cells() == spec.cells()

    def test_validation(self):
        with pytest.raises(ParameterError, match="at least one protocol"):
            small_spec(protocols=())
        with pytest.raises(ParameterError, match="not both"):
            small_spec(
                mobilities={
                    "rwp": {"model": "random-waypoint", "tx_range": 100.0, "duration": 5.0}
                }
            )
        with pytest.raises(ParameterError, match="params"):
            small_spec(params="huge")
        with pytest.raises(ParameterError, match="replications"):
            small_spec(replications=0)
        with pytest.raises(ParameterError, match="unknown campaign spec keys"):
            build(CampaignSpec, {"name": "x", "protocols": ["bd"], "typo": 1})
        with pytest.raises(ParameterError, match="names must be unique"):
            small_spec(adversaries=[("a", None), ("a", "inject")])
        # Bare-name shorthand is an adversary-preset convenience only; a
        # mobility axis entry must be a (name, spec) pair.
        with pytest.raises(ParameterError, match=r"\(name, spec\) pairs"):
            small_spec(schedule=None, mobilities=("random-waypoint",))

    @pytest.mark.parametrize(
        "axes",
        [
            {"engines": ("instant", {"latency": "wlan", "crypto_backend": "pure"})},
            {"engines": ("instant", {"latency": "wlan", "adversary": "inject"})},
            {"engines": ("instant", "warp-drive")},
            {"engines": ("instant", {"latency": "radio", "round_timeout_s": 0})},
            {"engines": ("instant", "fixed:nan")},
            {"schedule": {"kind": "poisson", "rat": 1.0}},
            {
                "schedule": None,
                "mobilities": {
                    "rwp": {"model": "random-waypoint", "tx_rang": 150.0, "duration": 10.0}
                },
            },
            {"tiers": {"lan": {"tiers": [["lan", {"name": "lan", "bitrate_bps": float("nan")}]]}}},
            {"adversaries": {"none": None, "mitm": {"mitmm": True}}},
            {"losses": (0.0, float("nan"))},
            {"protocols": ("bd", "bd")},
            {"group_sizes": (5, 5)},
            {"losses": [0, 0.0]},
            {"engines": ("radio", {"latency": "radio"})},
            {
                "engines": (
                    {"latency": "radio", "round_timeout_s": 1},
                    {"latency": "radio", "round_timeout_s": 1.0},
                )
            },
            {"engines": ("wlan", {"latency": "wlan", "max_timeout_waves": 25})},
        ],
        ids=[
            "old-backend-key",
            "adversary-key",
            "unknown-profile",
            "bad-timeout",
            "nan-delay",
            "schedule-typo",
            "mobility-typo",
            "tiers-nan-bitrate",
            "adversary-typo",
            "nan-loss",
            "repeated-protocol",
            "repeated-group-size",
            "repeated-settled-loss",
            "repeated-engine-label",
            "repeated-settled-engine-int-float",
            "repeated-settled-engine-default",
        ],
    )
    def test_bad_engine_entry_fails_the_spec_not_its_cells(self, axes):
        # Every axis entry (engines, schedule, mobilities, tiers, adversaries,
        # losses) is built when the spec is, before any cell or worker runs;
        # a repeated value, which would give two cells one key, fails too,
        # and so do two engine entries that settle to one engine.
        with pytest.raises(ParameterError):
            small_spec(**axes)
        with pytest.raises(ParameterError):
            build(CampaignSpec, {"name": "x", "protocols": ["bd"], **axes})


# ---------------------------------------------------------------------------
# The determinism harness (tentpole acceptance)
# ---------------------------------------------------------------------------

class TestDeterminismHarness:
    """workers=N output must be bit-identical to workers=1, protocol by protocol."""

    @pytest.fixture(scope="class")
    def grid(self):
        # Every registry protocol, a lossy medium (retry streams exercised)
        # and an adversary column (security verdicts exercised).
        return CampaignSpec(
            name="determinism",
            protocols=ALL_PROTOCOLS,
            group_sizes=(5,),
            losses=(0.05,),
            schedule={"kind": "poisson", "length": 2},
            adversaries={"none": None, "inject": "inject"},
            seed="determinism-harness",
        )

    @pytest.fixture(scope="class")
    def serial(self, grid):
        return run_campaign(grid, workers=1)

    @pytest.fixture(scope="class")
    def parallel(self, grid):
        return run_campaign(grid, workers=2)

    def test_grid_covers_every_registry_protocol(self, serial):
        assert sorted({row["protocol"] for row in serial.rows}) == sorted(ALL_PROTOCOLS)
        assert len(serial.rows) == len(ALL_PROTOCOLS) * 2

    def test_parallel_rows_bit_identical_to_serial(self, serial, parallel):
        assert serial.deterministic_rows() == parallel.deterministic_rows()

    def test_key_chains_pinned(self, serial, parallel):
        # The fingerprint digests the ordered chain of agreed keys; honest
        # cells must have agreed on at least one.
        for row_s, row_p in zip(serial.rows, parallel.rows):
            assert row_s["key_fingerprint"] == row_p["key_fingerprint"]
            if row_s["adversary"] == "none":
                assert row_s["agreed"] and row_s["key_fingerprint"]

    def test_energy_ledgers_pinned_and_non_negative(self, serial, parallel):
        for row_s, row_p in zip(serial.rows, parallel.rows):
            assert row_s["energy_j"] == row_p["energy_j"]
            # An abort at the establishment step leaves no surviving member
            # ledger (zero); every completed step must have cost something.
            if row_s["aborted"]:
                assert row_s["energy_j"] >= 0.0
            else:
                assert row_s["energy_j"] > 0.0

    def test_security_verdicts_pinned(self, serial):
        verdicts = {
            (row["protocol"], row["adversary"]): row["security_verdict"]
            for row in serial.rows
        }
        for protocol in ALL_PROTOCOLS:
            assert verdicts[(protocol, "none")] == "clean"
        # The repository's headline claims, now via the campaign path.
        assert verdicts[("bd-unauthenticated", "inject")] == "broken"
        assert verdicts[("proposed-gka", "inject")] == "detected"

    def test_no_failures_and_every_cell_reported(self, grid, serial):
        assert serial.failures() == []
        assert [row["cell"] for row in serial.rows] == [c.key for c in grid.cells()]

    def test_virtual_latency_pinned_under_engine_models(self):
        # A separate latency-mode grid: sim_latency_s must match bit-for-bit
        # between serial and sharded execution too.
        spec = CampaignSpec(
            name="determinism-latency",
            protocols=("proposed-gka", "bd-unauthenticated", "ssn"),
            group_sizes=(5,),
            losses=(0.1,),
            schedule={"kind": "poisson", "length": 2},
            engines=("fixed:0.01",),
            seed="latency-harness",
        )
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(spec, workers=2)
        assert serial.deterministic_rows() == parallel.deterministic_rows()
        assert all(row["sim_latency_s"] > 0.0 for row in serial.rows)

    def test_rerunning_the_same_spec_is_reproducible(self, grid, serial):
        again = run_campaign(grid, workers=1)
        assert again.deterministic_rows() == serial.deterministic_rows()


# ---------------------------------------------------------------------------
# Randomized invariants (fuzz)
# ---------------------------------------------------------------------------

def _random_spec(fuzz: random.Random, tag: int) -> CampaignSpec:
    schedule_kind = fuzz.choice(["poisson", "bursts", "merges", None])
    if schedule_kind == "poisson":
        schedule = {"kind": "poisson", "length": fuzz.randint(1, 3)}
    elif schedule_kind == "bursts":
        schedule = {"kind": "bursts", "bursts": fuzz.randint(1, 2), "burst_size": 1}
    elif schedule_kind == "merges":
        schedule = {"kind": "merges", "merges": 1, "merge_size": 2}
    else:
        schedule = None
    return CampaignSpec(
        name=f"fuzz-{tag}",
        protocols=tuple(
            fuzz.sample(ALL_PROTOCOLS, fuzz.randint(1, 3)),
        ),
        group_sizes=tuple(fuzz.sample([4, 5, 6, 8], fuzz.randint(1, 2))),
        losses=tuple(fuzz.sample([0.0, 0.05, 0.1], fuzz.randint(1, 2))),
        schedule=schedule,
        adversaries=fuzz.choice([None, ["eavesdrop"], ["inject"]]),
        replications=fuzz.randint(1, 2),
        seed=fuzz.randint(0, 2**32),
    )


class TestFuzzedInvariants:
    @pytest.mark.parametrize("tag", [0, 1, 2])
    def test_invariants_hold_for_seeded_random_specs(self, tag):
        fuzz = random.Random(2026_07_00 + tag)
        spec = _random_spec(fuzz, tag)
        cells = spec.cells()

        # Per-cell key consistency: unique keys, axes reconstructible from
        # them, expansion idempotent.
        keys = [cell.key for cell in cells]
        assert len(set(keys)) == len(keys)
        assert spec.cells() == cells
        for cell in cells:
            parsed = dict(part.split("=", 1) for part in cell.key.split("/"))
            assert parsed["protocol"] == cell.axes["protocol"]
            assert parsed["loss"] == str(cell.axes["loss"])
            workload = CampaignSpec.workload_key(cell.axes)
            assert cell.payload["scenario"]["seed"] == spec.cell_seed(workload)

        result = run_campaign(spec, workers=2 if tag == 0 else 1)

        # Report-row <-> cell-count conservation.
        assert len(result.rows) == len(cells)
        assert [row["cell"] for row in result.rows] == keys
        assert result.failures() == []

        # Non-negative energy ledgers (strictly positive unless an attacked
        # establishment aborted before any member ledger survived).
        for row in result.rows:
            assert row["energy_j"] >= 0.0
            if not row["aborted"]:
                assert row["energy_j"] > 0.0
            assert row["relay_energy_j"] >= 0.0
            assert row["bits"] >= 0 and row["bits_with_retries"] >= row["bits"]


# ---------------------------------------------------------------------------
# Caching
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_second_run_replays_everything(self, tmp_path):
        spec = small_spec()
        cold = run_campaign(spec, cache_dir=str(tmp_path))
        warm = run_campaign(spec, cache_dir=str(tmp_path))
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        assert warm.deterministic_rows() == cold.deterministic_rows()
        assert all(row["cached"] for row in warm.rows)

    def test_editing_the_spec_recomputes_only_changed_cells(self, tmp_path):
        run_campaign(small_spec(), cache_dir=str(tmp_path))
        edited = small_spec(losses=(0.0, 0.1))  # one new loss level
        rerun = run_campaign(edited, cache_dir=str(tmp_path))
        assert rerun.cache_hits == 2  # the loss=0.0 cells replay
        assert rerun.cache_misses == 2  # only the loss=0.1 cells compute
        # Replayed and fresh rows interleave back into grid order.
        assert [row["cell"] for row in rerun.rows] == [c.key for c in edited.cells()]

    def test_payload_hash_is_key_order_independent(self):
        a = {"x": 1, "nested": {"b": 2, "a": 3}}
        b = {"nested": {"a": 3, "b": 2}, "x": 1}
        assert payload_hash(a) == payload_hash(b)
        assert payload_hash(a) != payload_hash({"x": 2, "nested": {"b": 2, "a": 3}})

    def test_corrupt_cache_entries_recompute(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, cache_dir=str(tmp_path))
        for name in os.listdir(tmp_path):
            (tmp_path / name).write_text("{not json")
        rerun = run_campaign(spec, cache_dir=str(tmp_path))
        assert rerun.cache_misses == 2 and rerun.failures() == []

    def test_error_rows_are_not_cached(self, tmp_path):
        spec = small_spec(protocols=("no-such-protocol",))
        first = run_campaign(spec, cache_dir=str(tmp_path))
        assert len(first.failures()) == 1
        rerun = run_campaign(spec, cache_dir=str(tmp_path))
        assert rerun.cache_hits == 0  # the failure was recomputed, not replayed

    def test_every_corruption_shape_is_a_logged_miss_never_a_crash(self, tmp_path, caplog):
        # The robustness contract: truncated writes, binary garbage, empty
        # files, JSON of the wrong shape and rows missing their identity keys
        # all log a warning and count as a miss — none can crash a campaign.
        from repro.campaign import ResultCache

        cache = ResultCache(str(tmp_path))
        payload = {"campaign": "unit", "cell": "k", "axes": {}}
        cache.put(payload, {"campaign": "unit", "cell": "k", "energy_j": 1.0})
        (entry,) = [name for name in os.listdir(tmp_path) if name.endswith(".json")]
        corruptions = [
            b'{"campaign": "unit", "cell": "tr',  # truncated mid-write
            b"\x00\xff\xfe garbage \x80",  # not UTF-8
            b"",  # empty file
            b"[1, 2, 3]",  # JSON, wrong shape
            b'{"some": "dict", "without": "identity"}',  # dict, missing keys
        ]
        for garbage in corruptions:
            (tmp_path / entry).write_bytes(garbage)
            with caplog.at_level("WARNING", logger="repro.campaign.cache"):
                caplog.clear()
                assert cache.get(payload) is None
            assert any("recomputing" in r.message for r in caplog.records)
        assert cache.hits == 0 and cache.misses == len(corruptions)

        # And end to end: a campaign over a fully corrupted cache recomputes
        # bit-identically, then overwrites the bad entries.
        spec = small_spec()
        baseline = run_campaign(spec, cache_dir=str(tmp_path))
        for name in os.listdir(tmp_path):
            if name.endswith(".json"):
                (tmp_path / name).write_bytes(b"\x00 not a row")
        rerun = run_campaign(spec, cache_dir=str(tmp_path))
        assert rerun.cache_hits == 0 and rerun.failures() == []
        assert rerun.deterministic_rows() == baseline.deterministic_rows()
        healed = run_campaign(spec, cache_dir=str(tmp_path))
        assert healed.cache_hits == 2


# ---------------------------------------------------------------------------
# Crash isolation and aggregation
# ---------------------------------------------------------------------------

class TestExecution:
    def test_bad_cells_fail_in_isolation(self):
        spec = small_spec(protocols=("proposed-gka", "no-such-protocol", "ssn"))
        result = run_campaign(spec, workers=2)
        assert len(result.rows) == 3
        failures = result.failures()
        assert len(failures) == 1
        assert failures[0]["protocol"] == "no-such-protocol"
        assert "unknown protocol" in failures[0]["error"]
        assert {row["protocol"] for row in result.ok_rows()} == {"proposed-gka", "ssn"}

    def test_execute_cell_never_raises(self):
        row = execute_cell({"campaign": "x", "cell": "k", "axes": {}, "scenario": {}})
        assert row["error"]

    @pytest.mark.parametrize("payload", [{"scenario": "x"}, {"axes": "x"}], ids=["scenario", "axes"])
    def test_malformed_payload_becomes_an_error_row(self, payload):
        # A fleet worker handed such a cell must send an error row, not die.
        row = execute_cell(payload)
        assert row["error"] and row["seed"] == "" and "wall_seconds" in row

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ParameterError, match="workers"):
            run_campaign(small_spec(), workers=0)

    def test_groupby_and_pivot(self):
        spec = small_spec(losses=(0.0, 0.1))
        result = run_campaign(spec)
        by_protocol = result.groupby(("protocol",), "energy_j")
        assert set(by_protocol) == {("proposed-gka",), ("bd-unauthenticated",)}
        table = result.pivot("protocol", "loss", "energy_j")
        assert set(table["proposed-gka"]) == {0.0, 0.1}
        rendered = result.pivot_table("protocol", "loss", "energy_j")
        assert "proposed-gka" in rendered and "0.1" in rendered
        with pytest.raises(ParameterError, match="sequence"):
            result.groupby("protocol", "energy_j")

    def test_exports(self, tmp_path):
        result = run_campaign(small_spec())
        csv_path = tmp_path / "rows.csv"
        rows = list(csv.DictReader(io.StringIO(result.to_csv(str(csv_path)))))
        assert [row["protocol"] for row in rows] == ["proposed-gka", "bd-unauthenticated"]
        assert csv_path.exists()
        payload = json.loads(result.to_json(str(tmp_path / "result.json")))
        assert payload["cells"] == 2 and payload["failures"] == 0
        assert payload["spec"]["name"] == "unit"


def _exit_once_then_execute(marker: str, cell: str, parent: int, payload):
    """``execute_cell`` whose worker process dies the first time it meets ``cell``."""
    if payload.get("cell") == cell and os.getpid() != parent and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return execute_cell(payload)


class TestParallelWorkers:
    """``workers > 1`` runs on the local fleet: dead workers requeue, metrics merge."""

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="patching execute_cell inside the workers needs fork",
    )
    def test_dying_worker_does_not_abort_the_campaign(self, tmp_path, monkeypatch):
        spec = small_spec(losses=(0.0, 0.1))
        serial = run_campaign(spec, workers=1)
        marker = tmp_path / "worker-died"
        doomed = spec.cells()[1].key
        monkeypatch.setattr(
            execute_mod,
            "execute_cell",
            functools.partial(_exit_once_then_execute, str(marker), doomed, os.getpid()),
        )
        result = run_campaign(spec, workers=2)
        assert marker.exists(), "no worker ever met the doomed cell"
        assert result.failures() == []
        assert len(result.rows) == len(serial.rows)
        assert result.deterministic_rows() == serial.deterministic_rows()

    def test_metrics_session_counts_the_workers_cells(self):
        # One engine run per cell: no churn schedule, establishment only.
        spec = small_spec(losses=(0.0, 0.1), schedule=None)
        with telemetry.telemetry_session(metrics=True) as session:
            result = run_campaign(spec, workers=2)
        counters = session.metrics.snapshot()["counters"]
        assert len(result.rows) == 4
        assert counters["campaign.cells"] == 4
        assert counters["engine.runs"] == 4


# ---------------------------------------------------------------------------
# The attack matrix rides the campaign runner
# ---------------------------------------------------------------------------

class TestAttackMatrixParity:
    def test_matrix_matches_a_direct_runner_loop_exactly(self, small_setup):
        # A scenario exercising the fields the campaign cells must pin
        # verbatim (non-default member_prefix, trace schedule, string seed).
        from repro.adversary import AdversaryConfig, classify_report, run_attack_matrix
        from repro.network.events import LeaveEvent
        from repro.pki import Identity
        from repro.sim import Scenario, ScenarioRunner, TraceReplay

        scenario = Scenario(
            name="parity",
            initial_size=5,
            member_prefix="node",
            schedule=TraceReplay(events=(LeaveEvent(leaving=Identity("node-001")),)),
            seed="parity",
        )
        attackers = {"baseline": None, "inject": AdversaryConfig.preset("inject")}
        protocols = ["proposed-gka", "bd-unauthenticated"]
        matrix = run_attack_matrix(
            small_setup, protocols=protocols, attackers=attackers, scenario=scenario, workers=2
        )
        # The reference: each (protocol, attacker) pair run and classified
        # in process, one at a time.
        runner = ScenarioRunner(small_setup, check_agreement=False)
        direct = []
        for protocol in protocols:
            for attacker, config in attackers.items():
                report = runner.run(protocol, scenario.with_adversary(config))
                verdict, detail = classify_report(report)
                direct.append((protocol, attacker, verdict, report.total_attacks, detail))
        assert [
            (o.protocol, o.attacker, o.verdict, o.attacks, o.detail) for o in matrix.outcomes
        ] == direct

    def test_non_canonical_setup_is_rejected(self):
        # Workers rebuild the setup by name, so a setup that is not one of
        # the named parameter sets must never be silently substituted.
        from repro.adversary import run_attack_matrix
        from repro.core import SystemSetup

        custom = SystemSetup.from_param_sets("test-256", "gq-test-256", hash_bits=128)
        with pytest.raises(ParameterError, match="named parameter sets"):
            run_attack_matrix(
                custom, protocols=["bd-unauthenticated"], attackers={"baseline": None}
            )

    def test_engine_without_a_profile_is_rejected(self, small_setup):
        import dataclasses

        from repro.adversary import run_attack_matrix
        from repro.energy import RADIO_100KBPS
        from repro.engine import EngineConfig, TransceiverLatency

        radio = dataclasses.replace(RADIO_100KBPS, name="custom", bitrate_bps=5e4)
        engine = EngineConfig(latency=TransceiverLatency(radio))
        with pytest.raises(ParameterError, match="has no engine profile"):
            run_attack_matrix(
                small_setup,
                protocols=["bd-unauthenticated"],
                attackers={"baseline": None},
                engine=engine,
            )


# ---------------------------------------------------------------------------
# The python -m repro.campaign CLI
# ---------------------------------------------------------------------------

class TestCampaignCli:
    @staticmethod
    def _spec_file(tmp_path, **overrides):
        spec = {
            "name": "cli",
            "protocols": ["proposed-gka", "bd-unauthenticated"],
            "group_sizes": [5],
            "schedule": {"kind": "poisson", "length": 2},
            "seed": 3,
        }
        spec.update(overrides)
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_runs_with_exports_and_pivot(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        code = campaign_main(
            [
                self._spec_file(tmp_path),
                "--workers",
                "2",
                "--csv",
                str(csv_path),
                "--json",
                str(tmp_path / "result.json"),
                "--pivot",
                "protocol:loss:energy_j",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign : cli" in out and "energy_j (mean)" in out
        assert csv_path.exists()

    def test_cell_failures_exit_nonzero(self, tmp_path, capsys):
        code = campaign_main(
            [self._spec_file(tmp_path, protocols=["proposed-gka", "nope"]), "--quiet"]
        )
        assert code == 1

    def test_missing_spec_file_exits_2(self, capsys):
        assert campaign_main(["/does/not/exist.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert campaign_main([str(bad)]) == 2
        bad.write_text(json.dumps({"name": "x"}))
        assert campaign_main([str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_pivot_and_workers_exit_2(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path)
        assert campaign_main([spec, "--pivot", "protocol-loss"]) == 2
        assert campaign_main([spec, "--workers", "0"]) == 2

    def test_dry_run_prints_the_grid_without_running(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path, losses=[0.0, 0.1])
        assert campaign_main([spec, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "campaign : cli — 4 cells" in out
        assert "protocol" in out and "proposed-gka, bd-unauthenticated" in out
        assert "loss" in out and "0.0, 0.1" in out
        assert "pending  : 4 (no cache dir)" in out

    def test_dry_run_reports_the_cached_vs_pending_split(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        spec = self._spec_file(tmp_path)
        assert campaign_main([spec, "--cache-dir", str(cache_dir)]) == 0
        spec = self._spec_file(tmp_path, losses=[0.0, 0.1])
        capsys.readouterr()
        assert campaign_main([spec, "--dry-run", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "campaign : cli — 4 cells" in out
        assert f"cache    : 2 cached, 2 pending ({cache_dir})" in out
        # Nothing ran: the new loss level is still pending afterwards.
        assert len(list(cache_dir.glob("*.json"))) == 2


# ---------------------------------------------------------------------------
# Pre-flight planning (shared by --dry-run and the fleet controller)
# ---------------------------------------------------------------------------

class TestCampaignPlan:
    def test_plan_expands_without_executing(self):
        from repro.campaign import plan_campaign

        spec = small_spec(losses=(0.0, 0.1))
        plan = plan_campaign(spec)
        assert plan.total == 4
        assert plan.axes["protocol"] == ("proposed-gka", "bd-unauthenticated")
        assert plan.axes["loss"] == (0.0, 0.1)
        assert [cell.index for cell in plan.pending] == [0, 1, 2, 3]
        assert plan.cached_rows == {}

    def test_plan_splits_by_cache_state_in_grid_order(self, tmp_path):
        from repro.campaign import plan_campaign

        run_campaign(small_spec(), cache_dir=str(tmp_path))
        edited = small_spec(losses=(0.0, 0.1))
        plan = plan_campaign(edited, cache_dir=str(tmp_path))
        assert set(plan.cached_rows) == {
            cell.index for cell in edited.cells() if cell.axes["loss"] == 0.0
        }
        assert all(cell.axes["loss"] == 0.1 for cell in plan.pending)
        assert all(row["cached"] for row in plan.cached_rows.values())
        description = plan.describe()
        assert "2 cached, 2 pending" in description
