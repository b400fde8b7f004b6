"""The adversary subsystem: attacker actors, oracles, runner wiring, matrix.

Covers the headline security results mechanically:

* the eavesdropper never derives the group key for any registry protocol;
* active injection silently breaks unauthenticated BD (key consistency fails
  with no detection) while the proposed GKA and the signed-BD baselines
  detect the attack or abort;
* a passive adversary attached to a run leaves it bit-identical (ledgers,
  traffic, keys) — overhearing is charged to the attacker's own node only;
* leave/partition machines recover under lossy media (the loss-path coverage
  the join/merge/rekey tests already had);
* randomized event chains keep the key-consistency oracle green for all eight
  protocols in the table when nobody is attacking.
"""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.adversary import (
    ATTACKER_PRESETS,
    AdversaryConfig,
    AdversarySuite,
    Compromiser,
    Eavesdropper,
    Injector,
    ManInTheMiddle,
    OracleContext,
    Replayer,
    classify_report,
    evaluate_oracles,
    run_attack_matrix,
)
from repro.core.registry import available_protocols
from repro.engine import EngineConfig, FixedLatency
from repro.exceptions import ParameterError
from repro.mathutils.rand import DeterministicRNG
from repro.network.events import JoinEvent, LeaveEvent, PartitionEvent
from repro.network.medium import BroadcastMedium, DeliveryReceipt
from repro.network.message import Message, group_element_part, identity_part
from repro.pki import Identity
from repro.sim import (
    PoissonChurn,
    Scenario,
    ScenarioRunner,
    TraceReplay,
    comparison_csv,
    comparison_json,
    comparison_table,
)
from repro.sim.__main__ import main as sim_main

ALL_PROTOCOLS = available_protocols()


def _rng(label: str = "test") -> DeterministicRNG:
    return DeterministicRNG("adversary-tests", label=label)


def _message(sender: str = "member-000", label: str = "bd-round2", x: int = 12345) -> Message:
    return Message.broadcast(
        Identity(sender),
        label,
        [identity_part(Identity(sender)), group_element_part("X", x, 256)],
    )


def _receipt(message: Message) -> DeliveryReceipt:
    return DeliveryReceipt(message=message, attempts=1, delivered_to=[])


def _leave_join_scenario(adversary=None, *, loss: float = 0.0, seed: object = 3) -> Scenario:
    return Scenario(
        name="attack-lab",
        initial_size=6,
        schedule=TraceReplay(
            events=(
                LeaveEvent(leaving=Identity("member-003")),
                LeaveEvent(leaving=Identity("member-004")),
                JoinEvent(joining=Identity("member-new")),
            )
        ),
        seed=seed,
        loss_probability=loss,
        adversary=adversary,
    )


# ---------------------------------------------------------------------------
# Configuration and presets
# ---------------------------------------------------------------------------

class TestAdversaryConfig:
    def test_every_preset_builds_a_suite(self):
        for name in ATTACKER_PRESETS:
            suite = AdversaryConfig.preset(name).build(_rng(name))
            assert isinstance(suite, AdversarySuite)
            assert suite.actors

    def test_unknown_preset_rejected(self):
        with pytest.raises(ParameterError):
            AdversaryConfig.preset("quantum")

    def test_invalid_mitm_mode_rejected(self):
        with pytest.raises(ParameterError):
            AdversaryConfig(mitm=True, mitm_mode="teleport")

    def test_no_actors_rejected(self):
        with pytest.raises(ParameterError):
            AdversaryConfig(eavesdropper=False).build(_rng())

    def test_describe_names_the_models(self):
        config = AdversaryConfig(injector=True, mitm=True, attack_from=2)
        text = config.describe()
        assert "inject" in text and "mitm" in text and "from step 2" in text

    def test_scenario_description_carries_the_adversary(self):
        scenario = _leave_join_scenario(AdversaryConfig.preset("inject"))
        assert "adversary[" in scenario.describe()
        assert "adversary" not in _leave_join_scenario().describe()


# ---------------------------------------------------------------------------
# Actors in isolation
# ---------------------------------------------------------------------------

class TestActors:
    def test_eavesdropper_records_values_and_charges_itself_only(self):
        actor = Eavesdropper("eve", _rng())
        message = _message(x=777)
        actor.observe(message, _receipt(message))
        assert 777 in actor.seen_values
        assert actor.node.recorder.rx_bits == message.wire_bits
        assert actor.knows_key(777)
        assert not actor.knows_key(778)

    def test_injector_queues_one_forgery_per_round_label(self):
        actor = Injector("mallory", _rng())
        message = _message()
        actor.observe(message, _receipt(message))
        actor.observe(message, _receipt(message))
        forged = actor.drain()
        assert len(forged) == 1
        assert forged[0].sender == message.sender
        assert forged[0].round_label == message.round_label
        assert forged[0].wire_bits == message.wire_bits
        assert forged[0].value("X") != message.value("X")
        assert actor.stats.injected == 1

    def test_injector_ignores_untargeted_messages(self):
        actor = Injector("mallory", _rng())
        plain = Message.broadcast(
            Identity("member-001"), "hello", [identity_part(Identity("member-001"))]
        )
        actor.observe(plain, _receipt(plain))
        assert actor.drain() == []

    def test_replayer_only_fires_across_steps(self):
        actor = Replayer("rita", _rng())
        first = _message(x=111)
        actor.begin_step(0, "establish", True)
        actor.observe(first, _receipt(first))
        assert actor.drain() == []  # nothing older to replay yet
        actor.begin_step(1, "leave", True)
        fresh = _message(x=222)
        actor.observe(fresh, _receipt(fresh))
        replayed = actor.drain()
        assert len(replayed) == 1 and replayed[0].value("X") == 111
        assert actor.stats.replayed == 1

    def test_mitm_modes(self):
        message = _message()
        modify = ManInTheMiddle("m1", _rng("m1"), mode="modify")
        decision = modify.intercept(message)
        assert decision.replacement is not None
        assert decision.replacement.value("X") != message.value("X")
        assert modify.intercept(message) is None  # one hit per label per step

        drop = ManInTheMiddle("m2", _rng("m2"), mode="drop")
        assert drop.intercept(message).drop is True

        delay = ManInTheMiddle("m3", _rng("m3"), mode="delay", delay_s=1.5)
        assert delay.intercept(message).delay_s == 1.5

    def test_inactive_actors_do_nothing(self):
        actor = Injector("mallory", _rng())
        actor.begin_step(0, "establish", active=False)
        message = _message()
        actor.observe(message, _receipt(message))
        assert actor.drain() == []
        mitm = ManInTheMiddle("m", _rng("m"))
        mitm.begin_step(0, "establish", active=False)
        assert mitm.intercept(message) is None

    def test_suite_shares_one_stats_ledger(self):
        a, b = Injector("a", _rng("a")), Replayer("b", _rng("b"))
        suite = AdversarySuite([a, b])
        assert a.stats is suite.stats and b.stats is suite.stats

    def test_suite_tap_is_idempotent_per_medium(self):
        suite = AdversarySuite([Eavesdropper("eve", _rng())])
        medium = BroadcastMedium()
        suite.attach(medium)
        suite.attach(medium)
        assert len(medium.taps) == 1


# ---------------------------------------------------------------------------
# Oracles in isolation
# ---------------------------------------------------------------------------

class TestOracles:
    @staticmethod
    def _ctx(**overrides):
        base = dict(
            kind="establish",
            index=0,
            state=None,
            agreed=True,
            key=42,
            previous_keys=(),
            departed_keys=frozenset(),
            added_members=False,
            removed_members=False,
            adversary=None,
            attacks=0,
            aborted=False,
        )
        base.update(overrides)
        return OracleContext(**base)

    def test_key_consistency(self):
        assert evaluate_oracles(self._ctx())["key-consistency"] is True
        assert evaluate_oracles(self._ctx(agreed=False, key=None))["key-consistency"] is False
        assert evaluate_oracles(self._ctx(aborted=True, key=None))["key-consistency"] is None

    def test_forward_secrecy(self):
        assert evaluate_oracles(self._ctx())["forward-secrecy"] is None  # nobody left yet
        held = evaluate_oracles(self._ctx(departed_keys=frozenset({7}), key=42))
        assert held["forward-secrecy"] is True
        violated = evaluate_oracles(self._ctx(departed_keys=frozenset({42}), key=42))
        assert violated["forward-secrecy"] is False

    def test_backward_secrecy(self):
        joined = self._ctx(added_members=True, previous_keys=(7, 9), key=42)
        assert evaluate_oracles(joined)["backward-secrecy"] is True
        reused = self._ctx(added_members=True, previous_keys=(42,), key=42)
        assert evaluate_oracles(reused)["backward-secrecy"] is False
        assert evaluate_oracles(self._ctx())["backward-secrecy"] is None

    def test_implicit_key_auth_consults_the_adversary(self):
        eve = Eavesdropper("eve", _rng())
        suite = AdversarySuite([eve])
        assert evaluate_oracles(self._ctx(adversary=suite))["implicit-key-auth"] is True
        # A protocol that broadcast its key in the clear would be caught:
        leak = _message(x=42)
        eve.observe(leak, _receipt(leak))
        assert evaluate_oracles(self._ctx(adversary=suite))["implicit-key-auth"] is False

    def test_attack_detected(self):
        assert evaluate_oracles(self._ctx())["attack-detected"] is None
        absorbed = self._ctx(attacks=2, agreed=True)
        assert evaluate_oracles(absorbed)["attack-detected"] is True
        aborted = self._ctx(attacks=2, aborted=True, agreed=False, key=None)
        assert evaluate_oracles(aborted)["attack-detected"] is True
        silent = self._ctx(attacks=2, agreed=False, key=None)
        assert evaluate_oracles(silent)["attack-detected"] is False


# ---------------------------------------------------------------------------
# The passive adversary perturbs nothing (satellite: zero-energy taps)
# ---------------------------------------------------------------------------

class TestPassiveEquivalence:
    @pytest.mark.parametrize("protocol", ["proposed-gka", "bd-unauthenticated", "bd-ecdsa"])
    def test_lossy_scenario_bit_identical_under_passive_tap(self, small_setup, protocol):
        base = Scenario(
            name="tapped",
            initial_size=6,
            schedule=PoissonChurn(length=5),
            seed=11,
            loss_probability=0.15,
        )
        runner = ScenarioRunner(small_setup)
        honest = runner.run(protocol, base)
        tapped = runner.run(protocol, base.with_adversary(AdversaryConfig()))
        assert honest.per_member_energy_j() == tapped.per_member_energy_j()
        for a, b in zip(honest.records, tapped.records):
            assert (a.messages, a.bits, a.bits_with_retries, a.transmissions) == (
                b.messages,
                b.bits,
                b.bits_with_retries,
                b.transmissions,
            )
            assert a.agreed and b.agreed
        assert tapped.total_attacks == 0
        assert tapped.security_verdict == "clean"

    def test_overhearing_is_charged_to_the_attacker_node_only(self, small_setup):
        scenario = Scenario(name="audit", initial_size=5, seed=2)
        suite = AdversaryConfig().build(_rng("audit"))
        staged = scenario.with_adversary(AdversaryConfig())
        # Run through the runner but grab the suite the scenario builds by
        # running the actors directly instead: attach our own suite too.
        runner = ScenarioRunner(small_setup)
        report = runner.run("bd", staged)
        assert report.agreed_throughout
        # Direct check on a fresh medium: the tap charges only the attacker.
        medium = BroadcastMedium()
        suite.attach(medium)
        from repro.network.node import Node

        a, b = Node(Identity("a")), Node(Identity("b"))
        medium.attach(a)
        medium.attach(b)
        message = Message.broadcast(
            Identity("a"), "r", [group_element_part("X", 5, 256)]
        )
        medium.send(message)
        eve = suite.actors[0]
        assert eve.node.recorder.rx_bits == message.wire_bits
        assert a.recorder.rx_bits == 0  # sender pays tx only
        assert b.recorder.rx_bits == message.wire_bits  # the honest reception


# ---------------------------------------------------------------------------
# Headline results: who falls to what
# ---------------------------------------------------------------------------

class TestAttackOutcomes:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_eavesdropper_never_derives_the_key(self, small_setup, protocol):
        scenario = _leave_join_scenario(AdversaryConfig.preset("eavesdrop"))
        report = ScenarioRunner(small_setup, check_agreement=False).run(protocol, scenario)
        assert report.agreed_throughout
        outcomes = report.oracle_outcomes()
        assert outcomes["implicit-key-auth"] is True
        assert outcomes["key-consistency"] is True
        assert report.security_verdict == "clean"

    def test_injection_breaks_unauthenticated_bd_silently(self, small_setup):
        scenario = _leave_join_scenario(AdversaryConfig.preset("inject"))
        report = ScenarioRunner(small_setup, check_agreement=False).run("bd", scenario)
        assert report.security_verdict == "broken"
        assert report.total_attacks > 0
        assert not report.attacks_detected
        first = report.records[0]
        assert first.oracles["key-consistency"] is False
        assert first.oracles["attack-detected"] is False
        assert not first.detected

    @pytest.mark.parametrize("protocol", ["proposed-gka", "bd-sok", "bd-ecdsa", "bd-dsa"])
    def test_authenticated_protocols_detect_injection(self, small_setup, protocol):
        scenario = _leave_join_scenario(AdversaryConfig.preset("inject"))
        report = ScenarioRunner(small_setup, check_agreement=False).run(protocol, scenario)
        assert report.security_verdict == "detected"
        assert report.attacks_detected
        assert report.aborted
        assert report.records[-1].abort_reason

    def test_proposed_recovers_from_a_single_shot_injection(self, small_setup):
        # Budget 1: only the first Round-2 attempt is forged; the batch check
        # fails, the coordinator triggers "all members retransmit", and the
        # clean second attempt agrees — the paper's recovery path, survived.
        scenario = Scenario(
            name="recover",
            initial_size=5,
            seed=4,
            adversary=AdversaryConfig(injector=True, max_actions_per_step=1),
        )
        report = ScenarioRunner(small_setup, check_agreement=False).run(
            "proposed-gka", scenario
        )
        assert report.security_verdict == "resisted"
        assert report.agreed_throughout
        assert report.total_attacks == 1
        assert report.records[0].oracles["attack-detected"] is True

    def test_replay_breaks_rerun_bd_but_not_signed_rerun(self, small_setup):
        scenario = _leave_join_scenario(AdversaryConfig.preset("replay"))
        runner = ScenarioRunner(small_setup, check_agreement=False)
        assert runner.run("bd", scenario).security_verdict == "broken"
        assert runner.run("bd-ecdsa", scenario).security_verdict == "detected"
        assert runner.run("proposed-gka", scenario).security_verdict == "detected"

    def test_mitm_drop_is_detected_as_a_stall(self, small_setup):
        scenario = _leave_join_scenario(AdversaryConfig.preset("drop"))
        report = ScenarioRunner(small_setup, check_agreement=False).run("bd", scenario)
        assert report.security_verdict == "detected"
        assert report.records[-1].aborted

    def test_mitm_delay_is_absorbed(self, small_setup):
        scenario = _leave_join_scenario(AdversaryConfig.preset("delay"))
        report = ScenarioRunner(small_setup, check_agreement=False).run("bd", scenario)
        assert report.security_verdict == "resisted"
        assert report.agreed_throughout

    def test_compromised_long_term_key_reveals_no_group_key(self, small_setup):
        scenario = _leave_join_scenario(
            AdversaryConfig(compromiser=True, compromise_at=0)
        )
        report = ScenarioRunner(small_setup, check_agreement=False).run(
            "proposed-gka", scenario
        )
        assert report.total_attacks == 1  # the theft itself
        assert report.oracle_outcomes()["implicit-key-auth"] is True
        assert report.security_verdict == "resisted"

    def test_compromiser_steals_the_named_target(self, small_setup):
        config = AdversaryConfig(
            compromiser=True, compromise_target="member-002", compromise_at=0
        )
        suite = config.build(_rng("steal"))
        scenario = Scenario(name="steal", initial_size=5, seed=6)
        engine = EngineConfig(adversary=suite)
        runner = ScenarioRunner(small_setup, engine=engine)
        # Bypass scenario.build_adversary by driving the protocol directly so
        # we can inspect the suite afterwards.
        from repro.core.registry import create_protocol

        protocol = create_protocol("proposed-gka", small_setup)
        suite.begin_step(0, "establish")
        result = protocol.run(
            scenario.initial_members(), seed=scenario.child_seed("protocol/establish"),
            engine=engine,
        )
        suite.end_step(result.state)
        assert suite.compromised_parties == {"member-002"}
        assert not suite.knows_key(result.group_key)

    def test_attack_window_delays_active_attacks(self, small_setup):
        scenario = _leave_join_scenario(
            AdversaryConfig(injector=True, attack_from=2)
        )
        report = ScenarioRunner(small_setup, check_agreement=False).run("bd", scenario)
        assert report.records[0].attacks == 0  # establishment untouched
        assert report.records[1].attacks == 0  # first leave untouched
        assert any(r.attacks for r in report.records[2:])


# ---------------------------------------------------------------------------
# Reports, exports and the comparison views
# ---------------------------------------------------------------------------

class TestSecurityReporting:
    @pytest.fixture(scope="class")
    def attacked_reports(self, small_setup):
        scenario = _leave_join_scenario(AdversaryConfig.preset("inject"))
        runner = ScenarioRunner(small_setup, check_agreement=False)
        return runner.run_all(["bd", "proposed-gka"], scenario)

    def test_csv_carries_attack_and_oracle_columns(self, attacked_reports):
        rows = list(csv.DictReader(io.StringIO(attacked_reports[0].to_csv())))
        assert {"attacks", "detected", "aborted", "oracle_key_consistency"} <= set(rows[0])
        assert rows[0]["oracle_key_consistency"] == "FAIL"

    def test_json_carries_the_security_story(self, attacked_reports):
        payload = json.loads(attacked_reports[0].to_json())
        assert payload["totals"]["security_verdict"] == "broken"
        assert payload["totals"]["attacks"] > 0
        assert payload["oracles"]["key-consistency"] is False
        assert "oracles" in payload["records"][0]

    def test_comparison_views_show_verdicts(self, attacked_reports):
        table = comparison_table(attacked_reports)
        assert "verdict" in table and "broken" in table and "detected" in table
        rows = list(csv.DictReader(io.StringIO(comparison_csv(attacked_reports))))
        verdicts = {row["protocol"]: row["security_verdict"] for row in rows}
        assert verdicts["bd-unauthenticated"] == "broken"
        assert verdicts["proposed-gka"] == "detected"
        payload = json.loads(comparison_json(attacked_reports))
        assert payload["protocols"][0]["attacks"] > 0

    def test_honest_comparison_table_unchanged(self, small_setup):
        scenario = Scenario(name="honest", initial_size=5, seed=2)
        reports = ScenarioRunner(small_setup).run_all(["bd"], scenario)
        assert "verdict" not in comparison_table(reports)

    def test_abort_ends_the_scenario_early(self, small_setup):
        scenario = _leave_join_scenario(AdversaryConfig.preset("inject"))
        report = ScenarioRunner(small_setup, check_agreement=False).run(
            "bd-ecdsa", scenario
        )
        assert report.records[-1].aborted
        assert len(report.records) < 4  # establishment + 3 events, cut short
        assert report.final_size == 0


# ---------------------------------------------------------------------------
# The attack matrix
# ---------------------------------------------------------------------------

class TestAttackMatrix:
    @pytest.fixture(scope="class")
    def matrix(self, small_setup):
        return run_attack_matrix(
            small_setup,
            protocols=["proposed-gka", "bd-unauthenticated", "bd-ecdsa"],
            attackers={
                "baseline": None,
                "inject": AdversaryConfig.preset("inject"),
                "mitm": AdversaryConfig.preset("mitm"),
            },
        )

    def test_headline_verdicts(self, matrix):
        assert matrix.verdict("bd-unauthenticated", "inject") == "broken"
        assert matrix.verdict("bd-unauthenticated", "mitm") == "broken"
        assert matrix.verdict("proposed-gka", "inject") == "detected"
        assert matrix.verdict("bd-ecdsa", "inject") == "detected"
        for protocol in matrix.protocols:
            assert matrix.verdict(protocol, "baseline") == "clean"

    def test_fallen_lists_only_broken_cells(self, matrix):
        fallen = {(o.protocol, o.attacker) for o in matrix.fallen()}
        assert fallen == {
            ("bd-unauthenticated", "inject"),
            ("bd-unauthenticated", "mitm"),
        }

    def test_matrix_renders_and_exports(self, matrix, tmp_path):
        table = matrix.matrix_table()
        assert "proposed-gka" in table and "inject" in table
        csv_text = matrix.to_csv(str(tmp_path / "matrix.csv"))
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        assert len(rows) == 9  # 3 protocols x 3 attackers
        payload = json.loads(matrix.to_json(str(tmp_path / "matrix.json")))
        assert payload["protocols"]["bd-unauthenticated"]["inject"]["verdict"] == "broken"
        assert (tmp_path / "matrix.csv").exists() and (tmp_path / "matrix.json").exists()

    def test_classify_clean_report(self, small_setup):
        scenario = Scenario(name="plain", initial_size=5, seed=2)
        report = ScenarioRunner(small_setup).run("bd", scenario)
        assert classify_report(report) == ("clean", "")


# ---------------------------------------------------------------------------
# Satellite: leave/partition machines under lossy media
# ---------------------------------------------------------------------------

class TestDeparturesUnderLoss:
    @pytest.fixture(scope="class")
    def departure_scenario(self):
        return Scenario(
            name="lossy-departures",
            initial_size=8,
            schedule=TraceReplay(
                events=(
                    LeaveEvent(leaving=Identity("member-005")),
                    PartitionEvent(
                        leaving=(Identity("member-002"), Identity("member-006"))
                    ),
                    LeaveEvent(leaving=Identity("member-001")),
                )
            ),
            seed=13,
            loss_probability=0.25,
        )

    def test_instant_mode_retries_through_the_loss(self, small_setup, departure_scenario):
        report = ScenarioRunner(small_setup).run("proposed-gka", departure_scenario)
        assert report.agreed_throughout
        assert report.final_size == 4
        # The lossy medium made at least one retransmission happen somewhere.
        assert report.total_bits(include_retries=True) > report.total_bits()
        kinds = [r.kind for r in report.records]
        assert kinds == ["establish", "leave", "partition", "leave"]

    def test_latency_mode_recovers_via_timeout_waves(self, small_setup, departure_scenario):
        engine = EngineConfig(latency=FixedLatency(0.01), round_timeout_s=0.5)
        report = ScenarioRunner(small_setup, engine=engine).run(
            "proposed-gka", departure_scenario
        )
        assert report.agreed_throughout
        assert report.total_sim_latency_s > 0
        # Departure records carry their own virtual-time story.
        for record in report.records:
            assert record.sim_latency_s >= 0

    def test_departure_keys_rotate_under_loss(self, small_setup, departure_scenario):
        report = ScenarioRunner(small_setup).run("proposed-gka", departure_scenario)
        outcomes = report.oracle_outcomes()
        assert outcomes["key-consistency"] is True
        assert outcomes["forward-secrecy"] is True


# ---------------------------------------------------------------------------
# Satellite: randomized event chains keep KeyConsistency green (no adversary)
# ---------------------------------------------------------------------------

class TestRandomizedChains:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_key_consistency_oracle_holds_for_every_protocol(self, small_setup, protocol):
        scenario = Scenario(
            name="chain",
            initial_size=6,
            schedule=PoissonChurn(
                length=6, join_rate=2.0, leave_rate=2.0, merge_rate=0.5, partition_rate=0.5
            ),
            seed=f"chain-{protocol}",
            loss_probability=0.1,
        )
        report = ScenarioRunner(small_setup).run(protocol, scenario)
        for record in report.records:
            assert record.oracles["key-consistency"] is True, (
                f"{protocol} broke key consistency at step {record.index} ({record.kind})"
            )
        outcomes = report.oracle_outcomes()
        assert outcomes["key-consistency"] is True
        assert outcomes["forward-secrecy"] in (True, None)
        assert outcomes["backward-secrecy"] in (True, None)


# ---------------------------------------------------------------------------
# Satellite: the python -m repro.sim CLI
# ---------------------------------------------------------------------------

class TestSimCli:
    @staticmethod
    def _spec(tmp_path, **overrides):
        spec = {
            "name": "cli-test",
            "initial_size": 5,
            "seed": 7,
            "schedule": {"kind": "poisson", "length": 3},
        }
        spec.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_runs_and_writes_exports(self, tmp_path, capsys):
        csv_path = tmp_path / "cmp.csv"
        json_path = tmp_path / "cmp.json"
        code = sim_main(
            [
                self._spec(tmp_path),
                "--protocols",
                "proposed-gka,bd-unauthenticated",
                "--csv",
                str(csv_path),
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "proposed-gka" in out and "bd-unauthenticated" in out
        rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
        assert [row["protocol"] for row in rows] == ["proposed-gka", "bd-unauthenticated"]
        payload = json.loads(json_path.read_text())
        assert len(payload["protocols"]) == 2

    def test_adversary_flag_overrides_the_spec(self, tmp_path, capsys):
        code = sim_main(
            [
                self._spec(tmp_path),
                "--protocols",
                "bd-unauthenticated",
                "--adversary",
                "inject",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "broken" in out

    def test_adversary_spec_inside_the_file(self, tmp_path, capsys):
        spec = self._spec(tmp_path, adversary={"mitm": True})
        code = sim_main([spec, "--protocols", "bd-unauthenticated", "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_bad_spec_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"initial_size": 1}')
        assert sim_main([str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_engine_fails_cleanly(self, tmp_path, capsys):
        assert sim_main([self._spec(tmp_path), "--engine", "warp"]) == 2
        assert "error:" in capsys.readouterr().err
