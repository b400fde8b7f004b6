"""Drive a protocol through a scenario's event stream.

:class:`ScenarioRunner` is the execution half of the scenario engine: it
resolves a protocol by registry name (or accepts a
:class:`~repro.core.base.Protocol` instance), establishes the initial group
on a shared medium, then applies every scheduled event through the protocol's
:meth:`~repro.core.base.Protocol.apply_event`.  The proposed protocol serves
events with its native Join/Leave/Merge/Partition sub-protocols; every
baseline re-executes its full GKA — the exact comparison the paper's Tables 4
and 5 make, but over arbitrary multi-event workloads.

Schedule-driven scenarios run on a single-hop — optionally lossy —
:class:`~repro.network.medium.BroadcastMedium`.  Mobility-driven scenarios
run on a :class:`~repro.mobility.relay.MultiHopMedium` over the scenario's
:class:`~repro.mobility.field.MobilityField`: the runner advances the field
to each event's timestamp, so per-link losses, relay paths and the emergent
partition/merge stream all see the same positions.

Every stochastic input is a *named* child of the scenario's master seed
(medium losses, mobility trajectories, the establishment seed, one seed per
event, the adversary's streams), so streams never cross-contaminate and two
runs with the same seed are identical down to the per-node energy ledgers.

After every step the runner records an :class:`~repro.sim.report.EventRecord`
with the step's energy (per member, priced on the configured
:class:`~repro.energy.accounting.DeviceProfile`), medium traffic, host
wall-time, and — new with the adversary subsystem — the step's security
story: how many attack actions fired, whether the protocol detected them (by
aborting the step), and a verdict from every security oracle
(:mod:`repro.adversary.oracles`) over the chain of keys agreed so far.  A
scenario with an adversary never raises out of an attacked step: a protocol
abort is itself a measurement (*detection*), recorded and reported, and the
scenario ends there.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from .. import telemetry
from ..adversary.actors import AdversarySuite
from ..adversary.oracles import OracleContext, evaluate_oracles
from ..core.base import GroupState, Protocol, ProtocolResult, SystemSetup
from ..core.registry import create_protocol
from ..energy.accounting import DeviceProfile
from ..engine.executor import EngineConfig
from ..exceptions import ProtocolError, ReproError
from ..mobility.field import MobilityField
from ..mobility.relay import MultiHopMedium
from ..mobility.tiered import TieredMedium
from ..network.medium import BroadcastMedium
from .report import EventRecord, ScenarioReport
from .scenarios import Scenario

__all__ = ["ScenarioRunner"]

#: (messages, bits, bits w/ retries, transmissions, relay bits, hops)
_Traffic = Tuple[int, int, int, int, int, int]

#: Event kinds that admit / remove members (drives the secrecy oracles).
_ADDING_KINDS = frozenset({"join", "merge"})
_REMOVING_KINDS = frozenset({"leave", "partition"})


class ScenarioRunner:
    """Runs registry-selected protocols through declarative scenarios.

    Parameters
    ----------
    setup:
        The shared :class:`~repro.core.base.SystemSetup` (PKG, group, hash).
    device:
        Hardware profile used to price recorded costs into Joules.
    check_agreement:
        When true (the default), raise :class:`~repro.exceptions.ProtocolError`
        the moment any step leaves the members disagreeing on the key;
        when false, the disagreement is only recorded in the report.  With an
        adversary configured the runner never raises — disagreement under
        attack *is* the result being measured.
    engine:
        Optional :class:`~repro.engine.executor.EngineConfig` driving every
        protocol step through the virtual-time kernel with a latency model —
        the per-event records then carry real ``sim_latency_s``/``timeouts``
        columns.  ``None`` (the default) runs in instant mode, which is
        bit-identical to the pre-kernel synchronous execution.  When the
        scenario carries an adversary, the runner threads the built attacker
        suite through this profile so the executor consults it on every
        transmission.
    """

    def __init__(
        self,
        setup: SystemSetup,
        *,
        device: Optional[DeviceProfile] = None,
        check_agreement: bool = True,
        engine: Optional[EngineConfig] = None,
    ) -> None:
        self.setup = setup
        # `is None`, not truthiness: a caller-supplied profile must never be
        # silently swapped for the default just because it tests falsy (the
        # PR-1 `medium or BroadcastMedium()` bug class).
        self.device = device if device is not None else DeviceProfile()
        self.check_agreement = check_agreement
        self.engine = engine

    # --------------------------------------------------------------- medium
    def _build_medium(self, scenario: Scenario) -> Tuple[BroadcastMedium, Optional[MobilityField]]:
        """The scenario's shared medium (and its field, when mobile)."""
        medium_rng = scenario.master_rng().fork("medium")
        if scenario.tiers is not None:
            tier_map = scenario.tiers.build_map(
                [identity.name for identity in scenario.universe()]
            )
            degenerate = scenario.tiers.degenerate_loss
            if degenerate is not None:
                # A single gateway-free tier with i.i.d. loss *is* the
                # classic flat domain: build the historic medium (identical
                # draw streams, bit-identical runs) and keep the tier map
                # around for topology-aware latency models.
                medium = BroadcastMedium(
                    loss_probability=degenerate,
                    max_retries=scenario.max_retries,
                    rng=medium_rng,
                )
                medium.tier_map = tier_map
                return medium, None
            return (
                TieredMedium(
                    tier_map,
                    max_hops=scenario.tiers.max_hops,
                    max_retries=scenario.max_retries,
                    rng=medium_rng,
                ),
                None,
            )
        if scenario.mobility is None:
            return (
                BroadcastMedium(
                    loss_probability=scenario.loss_probability,
                    max_retries=scenario.max_retries,
                    rng=medium_rng,
                ),
                None,
            )
        field = scenario.build_mobility_field()
        return (
            MultiHopMedium(
                field,
                scenario.mobility.build_link(field),
                max_hops=scenario.mobility.max_hops,
                max_retries=scenario.max_retries,
                rng=medium_rng,
            ),
            field,
        )

    # ------------------------------------------------------------------- run
    def run(self, protocol: Union[str, Protocol], scenario: Scenario) -> ScenarioReport:
        """Execute ``scenario`` under ``protocol`` and return the report."""
        if isinstance(protocol, str):
            protocol = create_protocol(protocol, self.setup)
        with telemetry.span(
            f"scenario:{scenario.name}",
            category="scenario",
            track="scenario",
            args={"protocol": protocol.name},
        ) as scenario_span:
            report = self._run(protocol, scenario)
            if scenario_span is not None:
                scenario_span.arg("steps", len(report.records))
        return report

    def _run(self, protocol: Protocol, scenario: Scenario) -> ScenarioReport:
        # Expanded first, so an event that does not fit the group fails
        # before any protocol work.
        events = scenario.build_events()
        medium, field = self._build_medium(scenario)
        suite = scenario.build_adversary()
        engine = self.engine
        if suite is not None:
            suite.attach(medium)
            engine = replace(
                self.engine if self.engine is not None else EngineConfig(),
                adversary=suite,
            )
        records: List[EventRecord] = []
        #: distinct keys the group has agreed on so far, oldest first
        key_history: List[int] = []
        #: keys known to members who have departed at any point so far
        departed_keys: Set[int] = set()

        # ------------------------------------------------------ establishment
        members = scenario.initial_members()
        record, state = self._step(
            protocol=protocol,
            suite=suite,
            medium=medium,
            index=0,
            kind="establish",
            event_time=0.0,
            state=None,
            group_size_on_abort=len(members),
            key_history=key_history,
            departed_keys=departed_keys,
            action=lambda: protocol.run(
                members,
                medium=medium,
                seed=scenario.child_seed("protocol/establish"),
                engine=engine,
            ),
        )
        records.append(record)
        self._check(record, protocol.name, scenario, suite)

        # ------------------------------------------------------- churn events
        if state is not None:
            for position, scheduled in enumerate(events, start=1):
                if field is not None:
                    field.advance_to(scheduled.time)
                if scheduled.kind in _REMOVING_KINDS:
                    # The members about to depart know every key agreed while
                    # they were inside; from here on, no later key may ever
                    # match one of these (forward secrecy).
                    departed_keys.update(key_history)
                current = state
                record, state = self._step(
                    protocol=protocol,
                    suite=suite,
                    medium=medium,
                    index=position,
                    kind=scheduled.kind,
                    event_time=scheduled.time,
                    state=current,
                    group_size_on_abort=current.size,
                    key_history=key_history,
                    departed_keys=departed_keys,
                    action=lambda: protocol.apply_event(
                        current,
                        scheduled.event,
                        medium=medium,
                        seed=scenario.child_seed(f"protocol/event/{position:04d}"),
                        engine=engine,
                    ),
                )
                records.append(record)
                self._check(record, protocol.name, scenario, suite)
                if state is None:
                    # The protocol aborted under attack: detection recorded,
                    # nothing left to run the remaining events against.
                    break

        return ScenarioReport(
            scenario_name=scenario.name,
            scenario_description=scenario.describe(),
            protocol=protocol.name,
            records=records,
            final_size=state.size if state is not None else 0,
            device=f"{self.device.cpu.name} + {self.device.transceiver.name}",
            adversary=suite.describe() if suite is not None else "",
            key_fingerprint=self._key_fingerprint(key_history),
        )

    def run_all(
        self, protocols: List[Union[str, Protocol]], scenario: Scenario
    ) -> List[ScenarioReport]:
        """Run the same scenario under each protocol (comparison sweeps)."""
        return [self.run(protocol, scenario) for protocol in protocols]

    # ----------------------------------------------------------------- steps
    def _step(
        self,
        *,
        protocol: Protocol,
        suite: Optional[AdversarySuite],
        medium: BroadcastMedium,
        index: int,
        kind: str,
        event_time: float,
        state: Optional[GroupState],
        group_size_on_abort: int,
        key_history: List[int],
        departed_keys: Set[int],
        action: Callable[[], ProtocolResult],
    ) -> Tuple[EventRecord, Optional[GroupState]]:
        """Run one protocol step under the adversary and judge the outcome.

        Returns the step's record and the post-step state (``None`` when the
        step aborted — with an adversary an abort is *detection*, without one
        the error propagates exactly as before).  ``key_history`` is updated
        in place with any newly agreed key.
        """
        before_energy = self._energy_snapshot(state) if state is not None else {}
        before_traffic = self._traffic_snapshot(medium)
        attacks_before = suite.stats.active_actions if suite is not None else 0
        tampering_before = suite.stats.tampering_actions if suite is not None else 0
        if suite is not None:
            suite.begin_step(index, kind)
        error: Optional[ReproError] = None
        result: Optional[ProtocolResult] = None
        started = time.perf_counter()
        try:
            result = action()
        except ReproError as exc:
            if suite is None:
                raise
            error = exc
        wall = time.perf_counter() - started
        tracer = telemetry.active_tracer()
        if tracer is not None:
            tracer.complete(
                f"step:{kind}",
                category="step",
                track="scenario",
                wall_start=tracer.now() - wall,
                wall_dur=wall,
                sim_start=event_time,
                sim_dur=result.sim_latency_s if result is not None else 0.0,
                args={
                    "index": index,
                    "aborted": result is None,
                },
            )
        telemetry.count("scenario.steps")
        telemetry.observe("scenario.step_wall_s", wall)
        if result is not None:
            telemetry.observe("scenario.sim_latency_s", result.sim_latency_s)
        else:
            telemetry.count("scenario.aborted_steps")
        new_state = result.state if result is not None else None
        if suite is not None:
            suite.end_step(new_state)
        attacks = (suite.stats.active_actions - attacks_before) if suite is not None else 0
        tampering = (
            (suite.stats.tampering_actions - tampering_before) if suite is not None else 0
        )

        previous_keys = tuple(key_history)
        key = new_state.agreed_key() if new_state is not None and new_state.all_agree() else None
        if key is not None and key not in key_history:
            key_history.append(key)
        oracles = evaluate_oracles(
            OracleContext(
                kind=kind,
                index=index,
                state=new_state if new_state is not None else state,
                agreed=new_state.all_agree() if new_state is not None else False,
                key=key,
                previous_keys=previous_keys,
                departed_keys=frozenset(departed_keys),
                added_members=kind in _ADDING_KINDS,
                removed_members=kind in _REMOVING_KINDS,
                adversary=suite,
                attacks=tampering,
                aborted=result is None,
                error=str(error) if error is not None else "",
            )
        )

        if result is not None:
            record = self._record(
                index=index,
                kind=kind,
                event_time=event_time,
                result=result,
                medium=medium,
                before_energy=before_energy,
                before_traffic=before_traffic,
                wall=wall,
                attacks=attacks,
                oracles=oracles,
            )
            return record, result.state
        # Abort: the traffic spent before the protocol refused still counts;
        # energy deltas are computed for the surviving pre-step members.
        energy = self._energy_delta(state, before_energy) if state is not None else {}
        traffic = self._traffic_delta(medium, before_traffic)
        record = EventRecord(
            index=index,
            kind=kind,
            time=event_time,
            group_size=group_size_on_abort,
            rounds=0,
            messages=traffic[0],
            bits=traffic[1],
            bits_with_retries=traffic[2],
            wall_seconds=wall,
            agreed=False,
            energy_j=energy,
            transmissions=traffic[3],
            relay_bits=traffic[4],
            relay_energy_j=self.device.transceiver.tx_energy_mj(traffic[4]) / 1000.0,
            mean_hops=1.0,
            attacks=attacks,
            # An abort only counts as *detection* when the adversary actually
            # tampered with the step — an environmental failure (exhausted
            # timeout waves on a terrible link, say) under a passive
            # eavesdropper is just a failure, not a caught attack.
            detected=tampering > 0,
            aborted=True,
            abort_reason=f"{type(error).__name__}: {error}",
            oracles=oracles,
        )
        return record, None

    # --------------------------------------------------------------- helpers
    @staticmethod
    def _key_fingerprint(key_history: List[int]) -> str:
        """A short digest of the ordered chain of keys the group agreed on.

        Two runs agreed on the *same keys in the same order* iff their
        fingerprints match — which is how the campaign determinism harness
        pins serial and parallel executions bit-identical without ever
        exporting an actual group key.
        """
        digest = hashlib.sha256(
            b"|".join(str(key).encode("ascii") for key in key_history)
        )
        return digest.hexdigest()[:16]

    def _energy_snapshot(self, state: GroupState) -> Dict[str, Tuple[int, float]]:
        """Per-member (recorder identity, Joules so far) before an event."""
        return {
            name: (id(recorder), self.device.total_j(recorder))
            for name, recorder in state.recorders().items()
        }

    def _energy_delta(
        self, state: GroupState, before_energy: Dict[str, Tuple[int, float]]
    ) -> Dict[str, float]:
        """Per-member Joules spent on one step.

        The proposed protocol's recorders persist across events, so the step
        cost is a delta; a re-executing baseline creates fresh recorders
        (different identity) whose totals *are* the step cost.
        """
        energy: Dict[str, float] = {}
        for name, recorder in state.recorders().items():
            total = self.device.total_j(recorder)
            previous_id, previous_total = before_energy.get(name, (None, 0.0))
            if previous_id is not None and previous_id == id(recorder):
                energy[name] = total - previous_total
            else:
                energy[name] = total
        return energy

    @staticmethod
    def _traffic_snapshot(medium: BroadcastMedium) -> _Traffic:
        return (
            medium.total_messages(),
            medium.total_bits(),
            medium.total_bits(include_retries=True),
            medium.total_transmissions(),
            medium.total_relay_bits(),
            medium.total_hops(),
        )

    @staticmethod
    def _traffic_delta(medium: BroadcastMedium, before: _Traffic) -> _Traffic:
        current = ScenarioRunner._traffic_snapshot(medium)
        return tuple(now - then for now, then in zip(current, before))  # type: ignore[return-value]

    def _record(
        self,
        *,
        index: int,
        kind: str,
        event_time: float,
        result: ProtocolResult,
        medium: BroadcastMedium,
        before_energy: Dict[str, Tuple[int, float]],
        before_traffic: _Traffic,
        wall: float,
        attacks: int = 0,
        oracles: Optional[Dict[str, Optional[bool]]] = None,
    ) -> EventRecord:
        state = result.state
        energy = self._energy_delta(state, before_energy)
        messages0, bits0, retry_bits0, transmissions0, relay_bits0, hops0 = before_traffic
        relay_bits = medium.total_relay_bits() - relay_bits0
        messages = medium.total_messages() - messages0
        hops = medium.total_hops() - hops0
        return EventRecord(
            index=index,
            kind=kind,
            time=event_time,
            group_size=state.size,
            rounds=result.rounds,
            messages=messages,
            bits=medium.total_bits() - bits0,
            bits_with_retries=medium.total_bits(include_retries=True) - retry_bits0,
            wall_seconds=wall,
            agreed=state.all_agree(),
            energy_j=energy,
            transmissions=medium.total_transmissions() - transmissions0,
            relay_bits=relay_bits,
            relay_energy_j=self.device.transceiver.tx_energy_mj(relay_bits) / 1000.0,
            mean_hops=hops / messages if messages else 1.0,
            sim_latency_s=result.sim_latency_s,
            timeouts=result.timeouts,
            attacks=attacks,
            oracles=oracles or {},
        )

    def _check(
        self,
        record: EventRecord,
        protocol_name: str,
        scenario: Scenario,
        suite: Optional[AdversarySuite],
    ) -> None:
        # Under an adversary a broken agreement is the measurement itself —
        # the oracles have already recorded it — so the runner never raises.
        if suite is None and self.check_agreement and not record.agreed:
            raise ProtocolError(
                f"{protocol_name} left the group disagreeing on the key after "
                f"step {record.index} ({record.kind}) of scenario {scenario.name!r}"
            )
