"""Wiring between executions and the telemetry bus, plus pause/step control.

World taps
----------
:func:`attach_world_bus` reuses the PR 6 tracer tap sites: it installs a
:class:`~repro.replay.trace.Tracer` subclass whose sparse taps (poll,
window, fault) publish one bus event per record and whose dense taps
(admission, damage) aggregate into periodic summary events (see
:data:`DENSE_FLUSH`).  Because the tracer draws no randomness and
mutates no simulation state, a bus-observed run is digest-identical to
an unobserved one — the property ``bench --compare telemetry`` asserts
for all committed artifacts.

The **network send tap is deliberately left unattached**: ``send`` fires
for every message in the busiest experiments and has no bus topic, so the
hottest emit site keeps its bare ``None`` attribute load even while the
bus is observing everything else.

Run control
-----------
:class:`RunControl` gates a world's execution into bounded event slices
(:meth:`~repro.sim.engine.Simulator.run_slice`), so a live run can be
paused, single-stepped, and resumed from the dashboard without touching
the uncontrolled hot loop.  The slice boundary is deterministic only in
the sense that it never changes the *order* of processed events — metrics
from a controlled run are bit-identical to a plain one.

:data:`RUN_CONTROLS` maps run digests of in-flight points to their
controls; sessions register while executing so in-process callers (and
tests) can reach a live run.  Fleet workers get their controls relayed by
the broker inside heartbeat responses instead (see docs/SERVICE.md).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from .bus import EventBus

#: Trace record kind -> bus topic.  ``send`` is intentionally absent.
RECORD_TOPICS: Dict[str, str] = {
    "poll": "poll",
    "adm": "admission",
    "dmg": "damage",
    "win": "adversary_window",
    "fault": "fault",
}

#: Records folded per summary event on the dense topics (``admission``,
#: ``damage``).  An admission flood emits hundreds of thousands of
#: records per run; publishing (or even buffering) each one costs
#: ~1-2us in simulation context — allocation churn plus megabytes of
#: retained record objects — which blows the <5% overhead budget.  The
#: bus tracer therefore *aggregates at the tap*: dense records fold into
#: per-topic counters (a dict increment, nothing retained) and publish
#: as one summary event per ``DENSE_FLUSH`` records plus a final partial
#: on :meth:`flush`.  Per-record fidelity at flood density is the replay
#: subsystem's job; live telemetry ships bounded-cost aggregates.
DENSE_FLUSH = 4096


class _BusTracer:
    """A :class:`~repro.replay.trace.Tracer` whose taps fan out to the bus.

    Built lazily (the class closes over the Tracer import) so importing
    telemetry never drags in the replay subsystem.
    """

    _class = None

    def __new__(cls, simulator, bus: EventBus, run: Optional[str]):
        if cls._class is None:
            cls._class = _build_bus_tracer_class()
        return cls._class(simulator, bus, run)


def _build_bus_tracer_class():
    from ..replay.trace import Tracer

    class BusTracer(Tracer):
        """Tap methods that publish straight into subscriber rings.

        Each bridged sparse tap is ONE frame: topic lookup, event tuple,
        ring appends — no sink indirection, no locks (rings are
        lock-free deques, the sequence source is atomic).  Sparse record
        layouts MUST stay positionally in sync with :class:`Tracer`'s —
        the aggregator and dashboard index into them.

        The ``sink`` attribute stays live because the ``network.send``
        tap site builds its record in place and calls ``tracer.sink``
        directly; the sink translates via :data:`RECORD_TOPICS`, which
        drops "send" — the deliberately unbridged topic.

        Dense topics aggregate: "adm" and "dmg" fold into per-topic
        counters and publish as one summary event per
        :data:`DENSE_FLUSH` records (see its docstring for why).
        Admission summaries carry decision counts, damage summaries
        per-(peer, AU) cell counts — exactly what the metrics
        aggregator and the dashboard heatmap compute anyway.  Call
        :meth:`flush` when the run finishes so partial aggregates reach
        subscribers — :func:`~repro.api.session.execute_point` does this
        for session runs; direct :func:`attach_world_bus` users must
        flush themselves.
        """

        __slots__ = (
            "_subscribers",
            "_next_seq",
            "_run",
            "_adm_counts",
            "_adm_n",
            "_adm_t0",
            "_adm_t1",
            "_dmg_cells",
            "_dmg_n",
            "_dmg_t0",
            "_dmg_t1",
        )

        def __init__(self, simulator, bus: EventBus, run: Optional[str]) -> None:
            Tracer.__init__(self, simulator, sink=self._sink_record)
            self._subscribers = bus._subscribers
            self._next_seq = bus._counter.__next__
            self._run = run
            self._adm_counts: Dict[str, int] = {}
            self._adm_n = 0
            self._adm_t0 = 0.0
            self._adm_t1 = 0.0
            self._dmg_cells: Dict[tuple, int] = {}
            self._dmg_n = 0
            self._dmg_t0 = 0.0
            self._dmg_t1 = 0.0

        def _sink_record(self, record: List[object]) -> None:
            kind = record[0]
            # Robustness for direct-sink callers: dense kinds fold into
            # the aggregates like their tap methods would.
            if kind == "adm":
                self.admission(record[1], record[2], record[3], record[4])
                return
            if kind == "dmg":
                self.damage(record[2], record[3], record[4])
                return
            topic = RECORD_TOPICS.get(kind)
            if topic is None:
                return
            subscribers = self._subscribers.get(topic)
            if not subscribers:
                return
            event = (self._next_seq(), topic, self._run, record)
            for subscription in subscribers:
                subscription._ring.append(event)
                subscription.delivered += 1

        def _publish(self, topic: str, data: tuple) -> None:
            subscribers = self._subscribers.get(topic)
            if not subscribers:
                return
            event = (self._next_seq(), topic, self._run, data)
            for subscription in subscribers:
                subscription._ring.append(event)
                subscription.delivered += 1

        def _flush_adm(self) -> None:
            if self._adm_n:
                self._publish(
                    "admission",
                    (
                        "admsum",
                        self._adm_t0,
                        self._adm_t1,
                        self._adm_n,
                        dict(self._adm_counts),
                    ),
                )
                self._adm_counts.clear()
                self._adm_n = 0

        def _flush_dmg(self) -> None:
            if self._dmg_n:
                cells = tuple(
                    (peer, au, count)
                    for (peer, au), count in self._dmg_cells.items()
                )
                self._publish(
                    "damage",
                    ("dmgsum", self._dmg_t0, self._dmg_t1, self._dmg_n, cells),
                )
                self._dmg_cells.clear()
                self._dmg_n = 0

        def flush(self) -> None:
            """Publish any partial dense-topic aggregates (end of run)."""
            self._flush_adm()
            self._flush_dmg()

        # Bus-only records are tuples of atomics: CPython's GC untracks
        # such tuples, so a dense run leaves fewer gen0 survivors than the
        # list records the replay writer needs.  Consumers index into them
        # either way, and JSON serializes both as arrays.

        def poll(self, record) -> None:
            self._publish(
                "poll",
                (
                    "poll",
                    record.concluded_at,
                    record.peer_id,
                    record.au_id,
                    record.reason,
                    1 if record.success else 0,
                    1 if record.alarm else 0,
                    record.inner_votes,
                    record.agreeing,
                    record.disagreeing,
                    record.repairs,
                ),
            )

        # admission and damage are the dense taps (an admission flood
        # emits hundreds of thousands of records per run) — they fold
        # into counters, so the per-record hot path is a method call and
        # a dict increment, with zero allocation retained.  Voter/poller
        # identities are deliberately dropped from admission summaries;
        # the heatmap-relevant (peer, AU) cells survive in damage ones.

        def admission(self, now, voter, poller, decision) -> None:
            n = self._adm_n
            if n == 0:
                self._adm_t0 = now
            self._adm_n = n = n + 1
            self._adm_t1 = now
            counts = self._adm_counts
            try:
                counts[decision] += 1
            except KeyError:
                counts[decision] = 1
            if n >= DENSE_FLUSH:
                self._flush_adm()

        def damage(self, peer_id, au_id, block_index) -> None:
            now = self.simulator._now
            n = self._dmg_n
            if n == 0:
                self._dmg_t0 = now
            self._dmg_n = n = n + 1
            self._dmg_t1 = now
            cells = self._dmg_cells
            key = (peer_id, au_id)
            try:
                cells[key] += 1
            except KeyError:
                cells[key] = 1
            if n >= DENSE_FLUSH:
                self._flush_dmg()

        def window(self, now, node_id, index, active, victims) -> None:
            self._publish(
                "adversary_window",
                ("win", now, node_id, index, list(active), list(victims)),
            )

        def fault(self, now, subject, event) -> None:
            self._publish("fault", ("fault", now, subject, event))

    return BusTracer


def attach_world_bus(world, bus: EventBus, run: Optional[str] = None):
    """Attach bus-publishing taps to ``world``'s emit sites; returns the tracer.

    Mirrors :func:`~repro.replay.trace.attach_tracer` minus the network
    send tap (see the module docstring).  ``run`` scopes every published
    event to a run digest so multi-run consumers can demultiplex.
    """
    tracer = _BusTracer(world.simulator, bus, run)
    world.tracer = tracer
    world.collector.tracer = tracer
    for peer in world.peers:
        peer.tracer = tracer
    if world.adversary is not None and hasattr(world.adversary, "tracer"):
        world.adversary.tracer = tracer
    if getattr(world, "fault_engine", None) is not None:
        world.fault_engine.tracer = tracer
    world.failure_model.set_damage_hook(tracer.damage)
    return tracer


class RunControl:
    """Pause/step/resume gate for a sliced simulation run.

    A running world calls :meth:`gate` between event slices; while the
    control is live (not paused) the gate grants ``slice_events`` at a
    time.  :meth:`pause` makes the next gate block; :meth:`step` grants a
    bounded batch of events *while paused*; :meth:`resume` unblocks.  All
    methods are thread-safe — HTTP handlers and heartbeat threads drive
    them against a world running on another thread.
    """

    def __init__(self, slice_events: int = 4096) -> None:
        self.slice_events = max(1, int(slice_events))
        self._resume = threading.Event()
        self._resume.set()
        self._lock = threading.Lock()
        self._step_grant = 0
        #: Total events granted through step() — observability only.
        self.stepped = 0

    @property
    def paused(self) -> bool:
        return not self._resume.is_set()

    def pause(self) -> None:
        self._resume.clear()

    def resume(self) -> None:
        with self._lock:
            self._step_grant = 0
        self._resume.set()

    def step(self, events: int = 1) -> int:
        """Grant ``events`` more events to a paused run; returns the grant."""
        grant = max(1, int(events))
        with self._lock:
            self._step_grant += grant
            self.stepped += grant
        return grant

    def gate(self) -> int:
        """Block while paused (honoring step grants); return the next slice size."""
        while True:
            if self._resume.is_set():
                return self.slice_events
            with self._lock:
                if self._step_grant > 0:
                    grant = self._step_grant
                    self._step_grant = 0
                    return grant
            self._resume.wait(0.05)

    def to_dict(self) -> Dict[str, object]:
        return {
            "paused": self.paused,
            "slice_events": self.slice_events,
            "stepped": self.stepped,
        }


class RunRegistry:
    """Live run-control index: run digest -> :class:`RunControl`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._controls: Dict[str, RunControl] = {}

    def register(self, digest: str, control: RunControl) -> None:
        with self._lock:
            self._controls[digest] = control

    def unregister(self, digest: str) -> None:
        with self._lock:
            self._controls.pop(digest, None)

    def get(self, digest: str) -> Optional[RunControl]:
        with self._lock:
            return self._controls.get(digest)

    def active(self) -> Dict[str, RunControl]:
        with self._lock:
            return dict(self._controls)


#: Process-wide registry of in-flight runs (see the module docstring).
RUN_CONTROLS = RunRegistry()


def publish_run_event(
    bus: Optional[EventBus],
    state: str,
    digest: str,
    scenario: str,
    seed: int,
    baseline: bool,
    wall_s: Optional[float] = None,
    events: Optional[float] = None,
    error: Optional[str] = None,
) -> None:
    """Publish one ``run_lifecycle`` event (no-op without a bus)."""
    if bus is None:
        return
    data: Dict[str, object] = {
        "state": state,
        "digest": digest,
        "scenario": scenario,
        "seed": int(seed),
        "baseline": bool(baseline),
    }
    if wall_s is not None:
        data["wall_s"] = round(float(wall_s), 6)
    if events is not None:
        data["events"] = int(events)
    if error is not None:
        data["error"] = str(error)
    bus.publish("run_lifecycle", data, run=digest)


def publish_campaign_progress(
    bus: Optional[EventBus], status: Dict[str, object]
) -> None:
    """Publish one ``campaign_progress`` event from a status payload."""
    if bus is None:
        return
    data = {
        "name": status.get("name"),
        "digest": status.get("digest"),
        "total": status.get("total"),
        "counts": status.get("counts"),
        "complete": status.get("complete"),
    }
    bus.publish("campaign_progress", data)
