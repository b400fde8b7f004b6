"""The virtual-time engine: kernel ordering, latency models, loss recovery,
and kernel determinism (same seed ⇒ identical virtual-time traces)."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core import SystemSetup
from repro.core.registry import available_protocols, create_protocol
from repro.energy import RADIO_100KBPS, WLAN_SPECTRUM24
from repro.engine import (
    Early,
    EngineConfig,
    EventKernel,
    FixedLatency,
    MachineExecutor,
    Outbound,
    PartyMachine,
    TransceiverLatency,
    run_machines,
)
from repro.exceptions import ParameterError, ProtocolError
from repro.mathutils.rand import DeterministicRNG
from repro.mobility import Area, MobilityConfig, RandomWaypoint
from repro.network.events import JoinEvent, LeaveEvent
from repro.network.medium import BroadcastMedium
from repro.network.message import Message, MessagePart
from repro.network.node import Node
from repro.pki import Identity
from repro.sim import PoissonChurn, Scenario, ScenarioRunner, comparison_table
from repro.sim.specio import build


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------

class TestEventKernel:
    def test_time_rank_order_seq_ordering(self):
        kernel = EventKernel()
        log = []
        kernel.schedule(lambda: log.append("late"), delay=1.0)
        kernel.schedule(lambda: log.append("hook-b"), rank=EventKernel.RANK_HOOK, order=2)
        kernel.schedule(lambda: log.append("hook-a"), rank=EventKernel.RANK_HOOK, order=1)
        kernel.schedule(lambda: log.append("delivery"), rank=EventKernel.RANK_DELIVERY)
        kernel.run()
        assert log == ["delivery", "hook-a", "hook-b", "late"]
        assert kernel.now == 1.0
        assert kernel.events_processed == 4

    def test_batch_barrier_within_instant(self):
        # Events scheduled *during* a batch run in the next batch, even at the
        # same virtual time — the synchronized-round barrier.
        kernel = EventKernel()
        log = []
        def first():
            log.append("first")
            kernel.schedule(lambda: log.append("reaction"))
        kernel.schedule(first)
        kernel.schedule(lambda: log.append("second"))
        kernel.run()
        assert log == ["first", "second", "reaction"]

    def test_cannot_schedule_in_past(self):
        with pytest.raises(ParameterError):
            EventKernel().schedule(lambda: None, delay=-0.1)

    def test_advance_moves_clock_forward_only(self):
        kernel = EventKernel()
        kernel.advance(2.5)
        assert kernel.now == 2.5
        with pytest.raises(ParameterError):
            kernel.advance(-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_steps_rejected(self, value):
        # A NaN instant never equals itself, so `run` would loop on it forever.
        kernel = EventKernel()
        with pytest.raises(ParameterError):
            kernel.schedule(lambda: None, delay=value)
        with pytest.raises(ParameterError):
            kernel.advance(value)
        assert kernel.pending() == 0 and kernel.now == 0.0


# ---------------------------------------------------------------------------
# Latency models
# ---------------------------------------------------------------------------

class TestLatencyModels:
    def test_fixed_latency_scales_with_hops(self):
        model = FixedLatency(0.02)
        assert model.tx_time(10_000, "a") == 0.0
        assert model.delivery_delay(10_000, 1, 0.0, "a", "b") == pytest.approx(0.02)
        assert model.delivery_delay(10_000, 3, 0.0, "a", "b") == pytest.approx(0.06)

    def test_transceiver_latency_serialization(self):
        model = TransceiverLatency(RADIO_100KBPS)
        # 100 kbps: 1000 bits take 10 ms on air.
        assert model.tx_time(1000, "a") == pytest.approx(0.010)
        # 3 hops: two relay re-serializations plus their 1 ms overhead.
        assert model.delivery_delay(1000, 3, 0.0, "a", "b") == pytest.approx(0.022)

    def test_wlan_is_faster_than_sensor_radio(self):
        sensor = TransceiverLatency(RADIO_100KBPS)
        wlan = TransceiverLatency(WLAN_SPECTRUM24)
        assert wlan.tx_time(10_000, "a") < sensor.tx_time(10_000, "a")

    def test_negative_parameters_rejected(self):
        with pytest.raises(ParameterError):
            FixedLatency(-0.1)

    def test_non_finite_profiles_fail_when_built(self):
        for profile in ("fixed:nan", "fixed:inf"):
            with pytest.raises(ParameterError):
                build(EngineConfig, profile)
        with pytest.raises(ParameterError):
            EngineConfig(round_timeout_s=float("nan"))
        with pytest.raises(ParameterError):
            EngineConfig(round_timeout_s=float("inf"))


# ---------------------------------------------------------------------------
# Single-attempt medium transmit
# ---------------------------------------------------------------------------

class TestMediumTransmit:
    def _message(self, sender, bits=800):
        return Message.broadcast(sender, "r1", [MessagePart("payload", b"x", bits)])

    def test_lossless_transmit_delivers_everyone(self):
        medium = BroadcastMedium()
        alice, bob, carol = Identity("alice"), Identity("bob"), Identity("carol")
        for identity in (alice, bob, carol):
            medium.attach(Node(identity))
        receipt = medium.transmit(self._message(alice))
        assert {i.name for i in receipt.delivered_to} == {"bob", "carol"}
        assert receipt.attempts == 1 and receipt.transmissions == 1

    def test_lossy_transmit_never_retries(self):
        medium = BroadcastMedium(
            loss_probability=0.99, rng=DeterministicRNG("drop", label="loss")
        )
        alice, bob = Identity("alice"), Identity("bob")
        medium.attach(Node(alice))
        receiver = medium.attach(Node(bob))
        receipt = medium.transmit(self._message(alice))
        # One physical attempt, no NetworkError, loss shows as non-delivery.
        assert receipt.attempts == 1
        assert receipt.delivered_to == []
        # The receiver was listening and is charged the reception anyway.
        assert receiver.recorder.rx_bits == 800


# ---------------------------------------------------------------------------
# Holding early messages
# ---------------------------------------------------------------------------

def _toy_message(sender, label, payload=b"x"):
    return Message.broadcast(sender, label, [MessagePart("payload", payload, 8)])


class _Script(PartyMachine):
    """Broadcasts its scripted (label, payload) pairs from ``start``, in order."""

    def __init__(self, identity, script):
        super().__init__(identity, Node(identity))
        self.script = script

    def start(self, now):
        self.finished = True
        return [Outbound(_toy_message(self.identity, *step)) for step in self.script]


class _NeedsR1(PartyMachine):
    """Takes ``r2`` only once it has ``r1``; answers every message it takes."""

    def __init__(self, identity):
        super().__init__(identity, Node(identity))
        self.taken = []
        self.early = 0

    def start(self, now):
        self.waiting_for = "r1"
        return []

    def on_message(self, message, now):
        label = message.round_label
        if label == "r2" and self.waiting_for == "r1":
            self.early += 1
            raise Early
        self.taken.append((label, message.value("payload")))
        if label == "r1":
            self.waiting_for = "r2"
        elif label == "r2":
            self.finished = True
            self.waiting_for = None
        return [Outbound(_toy_message(self.identity, f"ack-{label}"))]


class TestEarlyMessages:
    """Instant mode on a lossless medium: ``alice`` sends, ``bob`` may hold."""

    def _run(self, script):
        alice, bob = Identity("alice"), Identity("bob")
        sender, receiver = _Script(alice, script), _NeedsR1(bob)
        medium = BroadcastMedium()
        for machine in (sender, receiver):
            medium.attach(machine.node)
        executor = MachineExecutor([sender, receiver], medium)
        batches = []
        emit = executor._emit

        def recording(machine, outbounds):
            batches.append((machine.identity.name, [o.message.round_label for o in outbounds]))
            emit(machine, outbounds)

        executor._emit = recording
        return receiver, batches, executor

    def test_replay_follows_the_hook_that_makes_it_acceptable(self):
        receiver, batches, executor = self._run([("r2", b"2"), ("r1", b"1")])
        stats = executor.run()
        assert receiver.finished
        assert receiver.taken == [("r1", b"1"), ("r2", b"2")]
        # The held r2 is taken inside r1's hook: its answer rides r1's batch.
        assert ("bob", ["ack-r1", "ack-r2"]) in batches
        assert receiver.early == 1
        # r2 and r1 at bob, then bob's two answers at alice: a held message
        # counts as one delivery.
        assert stats.deliveries == 4

    def test_still_early_message_stays_held_across_hooks(self):
        receiver, _, executor = self._run([("r2", b"2"), ("r0", b"0"), ("r1", b"1")])
        executor.run()
        assert receiver.taken == [("r0", b"0"), ("r1", b"1"), ("r2", b"2")]
        # Raised at delivery, then again when retried after r0's hook.
        assert receiver.early == 2

    def test_second_copy_of_a_held_message_is_dropped(self):
        receiver, _, executor = self._run([("r2", b"first"), ("r2", b"second"), ("r1", b"1")])
        stats = executor.run()
        assert receiver.taken == [("r1", b"1"), ("r2", b"first")]
        assert receiver.early == 1
        assert stats.deliveries == 4

    def test_message_that_never_becomes_acceptable_stalls_the_run(self):
        receiver, _, executor = self._run([("r2", b"2")])
        with pytest.raises(ProtocolError, match=r"bob \(waiting on 'r1'\)"):
            executor.run()
        assert not receiver.finished
        assert receiver.taken == []


# ---------------------------------------------------------------------------
# Delivery events and executor lifetime
# ---------------------------------------------------------------------------

class _Listener(PartyMachine):
    """Finishes on its first message, logging its name in ``arrivals``."""

    def __init__(self, identity, arrivals):
        super().__init__(identity, Node(identity))
        self.arrivals = arrivals

    def start(self, now):
        self.waiting_for = "r1"
        return []

    def on_message(self, message, now):
        self.arrivals.append(self.identity.name)
        self.finished = True
        self.waiting_for = None
        return []


class _Resender(PartyMachine):
    """Sends ``r1``, then sends it again once ``bob`` acknowledges it."""

    def __init__(self, identity):
        super().__init__(identity, Node(identity))

    def start(self, now):
        self.waiting_for = "ack"
        return [Outbound(_toy_message(self.identity, "r1"))]

    def on_message(self, message, now):
        self.finished = True
        self.waiting_for = None
        return [Outbound(_toy_message(self.identity, "r1"))]


class _Acker(PartyMachine):
    """Acknowledges the first ``r1`` it takes, then finishes."""

    def __init__(self, identity):
        super().__init__(identity, Node(identity))

    def start(self, now):
        self.waiting_for = "r1"
        return []

    def on_message(self, message, now):
        self.finished = True
        self.waiting_for = None
        return [Outbound(_toy_message(self.identity, "ack"))]


class TestDeliveryEvents:
    RECEIVERS = 4

    def _broadcast(self, engine):
        """``alice`` broadcasts once to listeners attached out of ring order."""
        arrivals = []
        sender = _Script(Identity("alice"), [("r1", b"1")])
        listeners = [_Listener(Identity(f"m{i}"), arrivals) for i in range(self.RECEIVERS)]
        medium = BroadcastMedium()
        medium.attach(sender.node)
        for index in (2, 0, 3, 1):
            medium.attach(listeners[index].node)
        stats = run_machines([sender, *listeners], medium, engine=engine)
        receipt_order = [identity.name for identity in medium.receipts[-1].delivered_to]
        return stats, arrivals, receipt_order

    def test_instant_broadcast_is_one_kernel_event_in_receipt_order(self):
        stats, arrivals, receipt_order = self._broadcast(None)
        assert receipt_order == ["m2", "m0", "m3", "m1"]
        assert arrivals == receipt_order
        assert stats.deliveries == self.RECEIVERS
        # One start hook per machine, alice's emit, then one delivery event.
        assert stats.events == (self.RECEIVERS + 1) + 1 + 1

    def test_latency_broadcast_is_one_kernel_event_per_receiver(self):
        stats, arrivals, receipt_order = self._broadcast(
            EngineConfig(latency=FixedLatency(0.01))
        )
        assert arrivals == receipt_order
        assert stats.deliveries == self.RECEIVERS
        assert stats.events == (self.RECEIVERS + 1) + 1 + self.RECEIVERS

    def test_a_run_ends_at_the_arrival_of_its_last_unscheduled_copy(self):
        # alice sends r1, bob consumes it and acks, and alice's answer sends
        # r1 again: that copy lands on a receiver that already holds it, so
        # it gets no kernel event, yet the clock still ends at its arrival.
        alice, bob = _Resender(Identity("alice")), _Acker(Identity("bob"))
        medium = BroadcastMedium()
        for machine in (alice, bob):
            medium.attach(machine.node)
        stats = run_machines([alice, bob], medium, engine=EngineConfig(latency=FixedLatency(0.25)))
        assert alice.finished and bob.finished
        assert stats.copies_unscheduled == 1
        assert stats.deliveries == 2
        # Two starts, three emits and the two consumed copies.
        assert stats.events == 7
        assert stats.sim_time_s == 0.75

    def test_executor_is_freed_when_the_run_returns(self):
        # Without the cyclic collector, only a cycle-free executor goes with
        # its last reference (the one run_machines holds).
        refs = []

        class _Recorder(_Script):
            def start(self, now):
                refs.append(weakref.ref(self.context))
                return super().start(now)

        alice, bob = Identity("alice"), Identity("bob")
        machines = [_Recorder(alice, [("r1", b"1")]), _Listener(bob, [])]
        medium = BroadcastMedium()
        for machine in machines:
            medium.attach(machine.node)
        gc.collect()
        gc.disable()
        try:
            run_machines(machines, medium)
            assert refs[0]() is None
        finally:
            gc.enable()
        assert all(machine.context is None for machine in machines)


# ---------------------------------------------------------------------------
# Protocol runs under latency
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def engine_setup():
    return SystemSetup.from_param_sets("test-256", "gq-test-256")


class TestLatencyExecution:
    def test_lossless_run_accumulates_virtual_time(self, engine_setup):
        members = [Identity(f"lat-{i}") for i in range(5)]
        config = EngineConfig(latency=TransceiverLatency(RADIO_100KBPS))
        result = create_protocol("proposed-gka", engine_setup).run(
            members, seed=1, engine=config
        )
        assert result.all_agree()
        assert result.sim_latency_s > 0.0
        assert result.timeouts == 0
        # 2n messages of ~2.1 kbit on a 100 kbps channel: tens of milliseconds.
        assert 0.01 < result.sim_latency_s < 1.0

    def test_instant_mode_reports_zero_latency(self, engine_setup):
        members = [Identity(f"ins-{i}") for i in range(4)]
        result = create_protocol("proposed-gka", engine_setup).run(members, seed=2)
        assert result.sim_latency_s == 0.0 and result.timeouts == 0

    @pytest.mark.parametrize("protocol_name", sorted(available_protocols()))
    def test_every_protocol_agrees_under_latency(self, engine_setup, protocol_name):
        members = [Identity(f"all-{protocol_name}-{i}") for i in range(4)]
        config = EngineConfig(latency=FixedLatency(0.01))
        result = create_protocol(protocol_name, engine_setup).run(
            members, seed=3, engine=config
        )
        assert result.all_agree()
        assert result.sim_latency_s > 0.0

    def test_losses_surface_as_timeouts_and_retransmissions(self, engine_setup):
        members = [Identity(f"loss-{i}") for i in range(5)]
        medium = BroadcastMedium(
            loss_probability=0.3, rng=DeterministicRNG("engine-loss", label="medium")
        )
        config = EngineConfig(latency=FixedLatency(0.01), round_timeout_s=0.5)
        result = create_protocol("proposed-gka", engine_setup).run(
            members, medium=medium, seed=4, engine=config
        )
        assert result.all_agree()
        assert result.timeouts > 0
        # Timeout waves advanced the virtual clock past the pure link delay...
        assert result.sim_latency_s > 0.5
        # ...and the recovery retransmissions are visible on the transcript.
        assert medium.total_messages() > 2 * len(members)

    def test_timeout_budget_exhaustion_raises(self, engine_setup):
        members = [Identity(f"dead-{i}") for i in range(4)]
        medium = BroadcastMedium(
            loss_probability=0.97, rng=DeterministicRNG("dead", label="medium"), max_retries=1
        )
        config = EngineConfig(
            latency=FixedLatency(0.01), round_timeout_s=0.5, max_timeout_waves=3
        )
        with pytest.raises(ProtocolError, match="timeout retransmission waves"):
            create_protocol("bd", engine_setup).run(members, medium=medium, seed=5, engine=config)

    def test_dynamic_events_run_on_the_kernel_clock(self, engine_setup):
        members = [Identity(f"dyn-{i}") for i in range(5)]
        config = EngineConfig(latency=TransceiverLatency(WLAN_SPECTRUM24))
        protocol = create_protocol("proposed-gka", engine_setup)
        state = protocol.run(members, seed=6, engine=config).state
        joined = protocol.apply_event(
            state, JoinEvent(joining=Identity("dyn-new")), seed=7, engine=config
        )
        assert joined.all_agree() and joined.sim_latency_s > 0.0
        left = protocol.apply_event(
            joined.state, LeaveEvent(leaving=members[2]), seed=8, engine=config
        )
        assert left.all_agree() and left.sim_latency_s > 0.0
        # Join touches three nodes' radios; the full GKA serializes 2n
        # broadcasts — the dedicated protocols must be faster in virtual time.
        establishment = protocol.run(
            [Identity(f"dyn2-{i}") for i in range(6)], seed=9, engine=config
        )
        assert joined.sim_latency_s < establishment.sim_latency_s

    # Each round of a flat protocol waits on a wave of broadcasts, so no step
    # can finish sooner than its rounds times the link delay.  The cluster
    # protocols are left out: their ``rounds`` is a nominal count
    # (sub-protocol rounds plus tree depth) that can exceed the critical path.
    @pytest.mark.parametrize(
        "protocol_name",
        ["bd-dsa", "bd-ecdsa", "bd-sok", "bd-unauthenticated", "proposed-gka", "ssn"],
    )
    @pytest.mark.parametrize("loss, delays", [(0.0, (0.01, 0.05)), (0.2, (0.01,))])
    def test_sim_latency_is_at_least_rounds_times_the_link_delay(
        self, engine_setup, protocol_name, loss, delays
    ):
        schedule = PoissonChurn(length=6, merge_rate=1.0, partition_rate=1.0)
        for delay in delays:
            runner = ScenarioRunner(engine_setup, engine=EngineConfig(latency=FixedLatency(delay)))
            for seed in range(3):
                scenario = Scenario(
                    name="latency-floor",
                    initial_size=7,
                    schedule=schedule,
                    seed=seed,
                    loss_probability=loss,
                )
                kinds = set()
                for record in runner.run(protocol_name, scenario).records:
                    kinds.add(record.kind)
                    # The clock sums per-hop delays, so allow float rounding.
                    floor = record.rounds * delay - 1e-12
                    assert record.sim_latency_s >= floor, (delay, seed, record)
                assert {"merge", "partition"} & kinds


    def test_no_copy_reaches_a_receiver_that_consumed_it_before_the_send(
        self, engine_setup, monkeypatch
    ):
        # Each copy a send schedules is tagged with whether its receiver had
        # already consumed the copy's (sender, round_label); timeout waves
        # resend to members holding the round, and none of those may arrive.
        arrivals = []
        transmit = MachineExecutor._transmit

        def tagging_transmit(executor, machine, message):
            key = (message.sender.name, message.round_label)
            consumed = {name for name, seen in executor._seen.items() if key in seen}
            schedule = executor.kernel.schedule

            def tagged(callback, **kwargs):
                receiver = callback.args[0].identity.name

                def deliver():
                    arrivals.append(receiver in consumed)
                    callback()

                schedule(deliver, **kwargs)

            executor.kernel.schedule = tagged
            try:
                transmit(executor, machine, message)
            finally:
                del executor.kernel.schedule

        monkeypatch.setattr(MachineExecutor, "_transmit", tagging_transmit)
        medium = BroadcastMedium(
            loss_probability=0.3, rng=DeterministicRNG("consumed", label="medium")
        )
        config = EngineConfig(latency=FixedLatency(0.01), round_timeout_s=0.5)
        result = create_protocol("bd", engine_setup).run(
            [Identity(f"held-{i}") for i in range(5)], medium=medium, seed=4, engine=config
        )
        assert result.all_agree() and result.timeouts > 0
        assert arrivals and not any(arrivals)
        assert medium.total_messages() > 2 * 5

    @pytest.mark.parametrize(
        "protocol_name",
        ["bd-dsa", "bd-ecdsa", "bd-sok", "bd-unauthenticated", "proposed-gka", "ssn"],
    )
    def test_added_loss_never_makes_a_single_hop_run_cheaper_or_faster(
        self, engine_setup, protocol_name
    ):
        # Compared seed by seed, not on average: every lost broadcast is
        # retried (instant mode) or waits for a timeout wave (latency mode).
        schedule = PoissonChurn(length=6, merge_rate=1.0, partition_rate=1.0)
        for engine in (None, EngineConfig(latency=FixedLatency(0.01))):
            runner = ScenarioRunner(engine_setup, engine=engine)
            for seed in range(3):
                lossless, lossy = (
                    runner.run(
                        protocol_name,
                        Scenario(
                            name="loss-monotone",
                            initial_size=7,
                            schedule=schedule,
                            seed=seed,
                            loss_probability=loss,
                        ),
                    )
                    for loss in (0.0, 0.2)
                )
                assert lossy.total_bits(include_retries=True) >= lossless.total_bits(
                    include_retries=True
                ), (engine, seed)
                assert lossy.total_sim_latency_s >= lossless.total_sim_latency_s, (engine, seed)


# ---------------------------------------------------------------------------
# Determinism (acceptance criterion)
# ---------------------------------------------------------------------------

class TestKernelDeterminism:
    def _lossy_run(self, setup, seed):
        medium = BroadcastMedium(
            loss_probability=0.25, rng=DeterministicRNG(seed, label="medium")
        )
        config = EngineConfig(latency=FixedLatency(0.02), round_timeout_s=0.5)
        return create_protocol("proposed-gka", setup).run(
            [Identity(f"det-{i}") for i in range(5)], medium=medium, seed=seed, engine=config
        )

    def test_same_seed_identical_trace(self, engine_setup):
        a = self._lossy_run(engine_setup, "trace")
        b = self._lossy_run(engine_setup, "trace")
        assert a.group_key == b.group_key
        assert a.sim_latency_s == b.sim_latency_s
        assert a.timeouts == b.timeouts
        assert [(m.sender.name, m.round_label) for m in a.medium.transcript] == [
            (m.sender.name, m.round_label) for m in b.medium.transcript
        ]
        assert {
            name: rec.snapshot() for name, rec in a.state.recorders().items()
        } == {name: rec.snapshot() for name, rec in b.state.recorders().items()}

    def test_different_seed_different_trace(self, engine_setup):
        a = self._lossy_run(engine_setup, "trace-a")
        b = self._lossy_run(engine_setup, "trace-b")
        assert a.group_key != b.group_key

    def test_scenario_runner_determinism_with_engine(self, engine_setup):
        scenario = Scenario(
            name="engine-det",
            initial_size=8,
            mobility=MobilityConfig(
                model=RandomWaypoint(min_speed=3.0, max_speed=12.0),
                area=Area(400.0, 400.0),
                tx_range=220.0,
                duration=40.0,
                tick=2.0,
                edge_loss=0.1,
                settle_ticks=2,
            ),
            seed="det-run",
        )
        def run():
            runner = ScenarioRunner(
                engine_setup,
                engine=EngineConfig(
                    latency=TransceiverLatency(WLAN_SPECTRUM24), round_timeout_s=0.5
                ),
            )
            return runner.run("proposed", scenario.with_seed("det-run"))

        first, second = run(), run()
        assert [r.sim_latency_s for r in first.records] == [
            r.sim_latency_s for r in second.records
        ]
        assert [r.timeouts for r in first.records] == [r.timeouts for r in second.records]
        assert first.per_member_energy_j() == second.per_member_energy_j()


# ---------------------------------------------------------------------------
# Reporting integration
# ---------------------------------------------------------------------------

class TestVirtualTimeReporting:
    @pytest.fixture(scope="class")
    def engine_reports(self, engine_setup):
        scenario = Scenario(name="vt", initial_size=6, seed=21, loss_probability=0.05)
        runner = ScenarioRunner(
            engine_setup,
            engine=EngineConfig(latency=TransceiverLatency(RADIO_100KBPS), round_timeout_s=1.0),
        )
        return [runner.run(name, scenario) for name in ("proposed", "bd")]

    def test_records_carry_sim_latency(self, engine_reports):
        for report in engine_reports:
            assert report.total_sim_latency_s > 0.0
            assert all(r.sim_latency_s > 0.0 for r in report.records)

    def test_comparison_table_gains_virtual_time_columns(self, engine_reports):
        table = comparison_table(engine_reports)
        assert "sim s" in table and "t/o" in table

    def test_instant_reports_hide_virtual_time_columns(self, engine_setup):
        scenario = Scenario(name="vt0", initial_size=4, seed=22)
        runner = ScenarioRunner(engine_setup)
        table = comparison_table([runner.run("bd", scenario)])
        assert "sim s" not in table

    def test_csv_and_json_carry_the_columns(self, engine_reports):
        report = engine_reports[0]
        header = report.to_csv().splitlines()[0]
        assert "sim_latency_s" in header and "timeouts" in header
        import json as _json

        payload = _json.loads(report.to_json())
        assert payload["totals"]["sim_latency_s"] == pytest.approx(
            report.total_sim_latency_s
        )
        assert payload["totals"]["timeouts"] == report.total_timeouts
