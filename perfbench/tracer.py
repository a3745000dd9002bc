"""Layer tracer: wraps the public functions of each ``repro`` layer from outside.

Nothing under ``src/`` is edited.  :func:`install` replaces class and module
attributes with thin wrappers before any world is built, so every bound
method a simulation schedules is already the wrapped one (and pickles by
name, so checkpoints restore into wrapped methods too).

Accounting is by *transition*: whenever a wrapped call starts or ends, the
host time since the previous transition is charged to the function (and
layer) that was on top of the stack.  Time with no wrapped function on the
stack is charged to ``unattributed``; a garbage collection is pushed as its
own ``python.gc`` frame through ``gc.callbacks``.  The per-layer self times
of a window therefore partition the window exactly, which is what the
benchmark checks.

Hot boundaries (``Network.send``, ``AdmissionControl.consider``, ...) are
aggregated in place as count, inclusive and self time.  Coarse boundaries
(world build, campaign point, checkpoint restore, store operation, run
loop) additionally keep a full span in memory: name, start, end, parent
span and run id.
"""

from __future__ import annotations

import functools
import gc
import importlib
import threading
import time
import types
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (layer, module, targets).  A target is ``"Class"`` (every function the
# class body defines, minus dunders), ``"Class.method"`` (one method, dunders
# allowed), ``"func"`` (a module-level function, for callers that look it up
# on the module at call time) or ``"*"`` (every class the module defines).
LAYER_TARGETS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("sim.engine", "repro.sim.engine", ("Simulator.run", "Simulator.run_slice")),
    ("sim.network", "repro.sim.network", ("Network",)),
    ("core.peer", "repro.core.peer", ("Peer",)),
    ("core.poller", "repro.core.poller", ("PollerPoll",)),
    ("core.voter", "repro.core.voter", ("VoterSession", "VoterSession.__init__")),
    ("core.admission", "repro.core.admission", ("AdmissionControl",)),
    ("core.reputation", "repro.core.reputation", ("KnownPeers", "RefractoryState", "IntroductionTable")),
    ("core.reputation", "repro.core.reference_list", ("ReferenceList",)),
    ("core.scheduler", "repro.core.scheduler", ("TaskSchedule",)),
    ("crypto.effort", "repro.crypto.effort", ("EffortScheme", "EffortAccount")),
    ("crypto.effort", "repro.core.effort_policy", ("EffortPolicy",)),
    ("crypto.effort", "repro.crypto.hashing", ("HashCostModel",)),
    ("metrics", "repro.metrics.access", ("AccessFailureSampler",)),
    ("metrics", "repro.metrics.polls", ("PollStatistics",)),
    ("storage", "repro.storage.failure", ("StorageFailureModel",)),
    ("storage", "repro.storage.replica", ("Replica", "ReplicaSet")),
    ("adversary", "repro.adversary.base", ("*",)),
    ("adversary", "repro.adversary.components", ("*",)),
    ("adversary", "repro.adversary.composed", ("*",)),
    ("adversary", "repro.adversary.schedule", ("*",)),
    ("adversary", "repro.adversary.targeting", ("*",)),
    ("adversary", "repro.adversary.vectors", ("*",)),
    ("adversary", "repro.adversary.admission_flood", ("*",)),
    ("adversary", "repro.adversary.pipe_stoppage", ("*",)),
    ("experiments.world", "repro.experiments.world", ("World", "build_world")),
    ("api.scenario", "repro.api.scenario", ("Scenario",)),
    ("api.campaign", "repro.api.campaign", ("Campaign", "CampaignRunner")),
    ("api.session", "repro.api.session", ("Session", "execute_point", "execute_fork_group")),
    ("api.store", "repro.api.store", ("ResultStore",)),
    ("api.resultset", "repro.api.resultset", ("ResultSet", "export_rows")),
    ("service.broker", "repro.service.broker", ("Broker",)),
    ("service.worker", "repro.service.worker", ("Worker", "LocalBrokerClient")),
    ("service.sqlite_store", "repro.service.sqlite_store", ("SQLiteResultStore",)),
    ("replay.checkpoint", "repro.replay.checkpoint", ("Checkpoint",)),
)

#: Every layer whose self time partitions a window, in report order.
PARTITION_LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys([layer for layer, _, _ in LAYER_TARGETS] + ["python.gc"])
)

#: Coarse boundaries: these also record a full span.
SPAN_FUNCTIONS = frozenset(
    {
        "Simulator.run",
        "Simulator.run_slice",
        "build_world",
        "World.run",
        "Session.run",
        "Worker.run_point",
        "Campaign.expand",
        "CampaignRunner.run",
        "CampaignRunner.result_set",
        "Broker.submit",
        "Broker.lease",
        "Broker.complete",
        "SQLiteResultStore.save_json",
        "SQLiteResultStore.load_json",
        "Checkpoint.capture",
        "Checkpoint.capture_at",
        "Checkpoint.restore",
        "Checkpoint.fork",
        "Checkpoint.save",
        "Checkpoint.load",
        "export_rows",
    }
)

#: Layers the campaign worker's heartbeat thread calls into; their wrappers
#: pass other threads' calls straight through.
THREADED_PREFIXES = ("service.", "api.store")

#: Coarse boundaries that start a new run id (one campaign point each).
POINT_FUNCTIONS = frozenset({"Session.run", "Worker.run_point"})

_CALLS, _INCL, _SELF = 0, 1, 2  # per-function stat cells
_LSELF, _LCALLS, _LENTRIES, _LENTRY_S = 0, 1, 2, 3  # per-layer cells (4: depth)


class Tracer:
    """Transition-charged stack of wrapped calls, plus spans and counters."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.main = threading.get_ident()
        #: qualname -> [calls, inclusive_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: layer -> [self_s, calls, entries, entry_s, depth]
        self.layers: Dict[str, List[float]] = {
            name: [0.0, 0, 0, 0.0, 0] for name in PARTITION_LAYERS + ("unattributed",)
        }
        self._root = (self._stat("<unattributed>"), self.layers["unattributed"])
        self._gc_frame = (self._stat("<gc>"), self.layers["python.gc"])
        self.stack: List[tuple] = [self._root]
        self.last = [time.perf_counter()]
        #: spans as [name, start, end, parent index or None, run id]
        self.spans: List[list] = []
        self._open_spans: List[int] = []
        self._run = [run_id]
        self._points = 0
        #: free-form counters filled by observers
        self.counters: Dict[str, float] = {}
        self.gc_collections = [0, 0, 0]
        self.gc_pause_s = 0.0
        self._gc_started = 0.0
        self._windows: Dict[str, Dict[str, float]] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # -- stats ---------------------------------------------------------------------------

    def _stat(self, qualname: str) -> List[float]:
        stat = self.stats.get(qualname)
        if stat is None:
            stat = self.stats[qualname] = [0, 0.0, 0.0]
        return stat

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- windows ---------------------------------------------------------------------------

    def mark(self, label: str) -> float:
        """A transition with no push: charge the top, snapshot layer self times."""
        now = time.perf_counter()
        stat, layer = self.stack[-1]
        elapsed = now - self.last[0]
        stat[_SELF] += elapsed
        layer[_LSELF] += elapsed
        self.last[0] = now
        self._windows[label] = {name: cells[_LSELF] for name, cells in self.layers.items()}
        return now

    def window(self, start: str, end: str) -> Dict[str, float]:
        """Per-layer self time between two marks; the values sum to its length."""
        first, second = self._windows[start], self._windows[end]
        return {name: second[name] - first[name] for name in second}

    # -- spans -----------------------------------------------------------------------------

    def open_span(
        self, name: str, new_run: bool = False, start: Optional[float] = None
    ) -> Tuple[int, str]:
        index = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else None
        previous_run = self._run[0]
        # A point nested in a point (Session.run inside Worker.run_point)
        # keeps the outer point's run id.
        if new_run and previous_run == self.run_id:
            self._points += 1
            self._run[0] = "%s/point-%d" % (self.run_id, self._points)
        if start is None:
            start = time.perf_counter()
        self.spans.append([name, start, None, parent, self._run[0]])
        self._open_spans.append(index)
        return index, previous_run

    def close_span(self, token: Tuple[int, str]) -> None:
        index, previous_run = token
        self.spans[index][2] = time.perf_counter()
        self._open_spans.pop()
        self._run[0] = previous_run

    def check_spans(self) -> Tuple[bool, int]:
        """Every span closed and inside its parent; returns (ok, violations)."""
        bad = 0
        for name, start, end, parent, _ in self.spans:
            if end is None or end < start:
                bad += 1
            elif parent is not None:
                _, p_start, p_end, _, _ = self.spans[parent]
                if p_end is None or start < p_start or end > p_end:
                    bad += 1
        return bad == 0, bad

    def span_records(self) -> List[Dict[str, object]]:
        return [
            {"id": index, "name": name, "start": start, "end": end,
             "parent": parent, "run": run}
            for index, (name, start, end, parent, run) in enumerate(self.spans)
        ]

    # -- garbage collection ------------------------------------------------------------------

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if threading.get_ident() != self.main:
            return
        now = time.perf_counter()
        stack = self.stack
        stat, layer = stack[-1]
        elapsed = now - self.last[0]
        stat[_SELF] += elapsed
        layer[_LSELF] += elapsed
        self.last[0] = now
        if phase == "start":
            self.gc_collections[info["generation"]] += 1
            self._gc_started = now
            stack.append(self._gc_frame)
        else:
            self.gc_pause_s += now - self._gc_started
            stack.pop()

    # -- wrapping ----------------------------------------------------------------------------

    def wrap(
        self,
        func: Callable,
        qualname: str,
        layer_name: str,
        observe: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        """The traced stand-in for ``func``.

        ``observe(result, args, token)`` runs after the call with whatever
        ``before(args)`` returned; spans are kept for :data:`SPAN_FUNCTIONS`.
        """
        stat = self._stat(qualname)
        layer = self.layers[layer_name]
        frame = (stat, layer)
        stack = self.stack
        last = self.last
        clock = time.perf_counter
        get_ident = threading.get_ident
        main = self.main
        span_name = qualname if qualname in SPAN_FUNCTIONS else None
        new_run = qualname in POINT_FUNCTIONS
        tracer = self

        def hot(*args, **kwargs):
            # Cells are indexed by literal (see _CALLS/_LSELF...): this runs
            # millions of times per iteration.  Nothing between the clock
            # read and ``last[0] = t0`` allocates a tracked object, so no
            # collection (and its gc frame) can interleave with a transition.
            t0 = clock()
            top_stat, top_layer = stack[-1]
            elapsed = t0 - last[0]
            top_stat[2] += elapsed
            top_layer[0] += elapsed
            stack.append(frame)
            last[0] = t0
            stat[0] += 1
            layer[1] += 1
            depth = layer[4]
            layer[4] = depth + 1
            try:
                return func(*args, **kwargs)
            finally:
                t1 = clock()
                elapsed = t1 - last[0]
                stat[2] += elapsed
                layer[0] += elapsed
                stat[1] += t1 - t0
                layer[4] = depth
                if depth == 0:
                    layer[2] += 1
                    layer[3] += t1 - t0
                stack.pop()
                last[0] = t1

        if (
            before is None
            and observe is None
            and span_name is None
            and not layer_name.startswith(THREADED_PREFIXES)
        ):
            # Simulation layers only ever run on the main thread.
            functools.update_wrapper(hot, func)
            return hot

        def traced(*args, **kwargs):
            if get_ident() != main:
                return func(*args, **kwargs)
            token = before(args) if before is not None else None
            span = tracer.open_span(span_name, new_run) if span_name else None
            try:
                result = hot(*args, **kwargs)
            finally:
                if span is not None:
                    tracer.close_span(span)
            if observe is not None:
                observe(result, args, token)
            return result

        functools.update_wrapper(traced, func)
        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_member(self, cls: type, name: str, layer: str, hooks: Dict[str, tuple]) -> None:
        raw = cls.__dict__[name]
        qualname = "%s.%s" % (cls.__name__, name)
        before, observe = hooks.get(qualname, (None, None))
        if isinstance(raw, staticmethod):
            self._patch(cls, name, staticmethod(self.wrap(raw.__func__, qualname, layer, observe, before)))
        elif isinstance(raw, classmethod):
            self._patch(cls, name, classmethod(self.wrap(raw.__func__, qualname, layer, observe, before)))
        elif isinstance(raw, types.FunctionType):
            self._patch(cls, name, self.wrap(raw, qualname, layer, observe, before))

    def _wrap_class(self, cls: type, layer: str, hooks: Dict[str, tuple]) -> None:
        for name, raw in list(cls.__dict__.items()):
            if name.startswith("__") or isinstance(raw, property):
                continue
            self._wrap_member(cls, name, layer, hooks)

    def install(self, hooks: Dict[str, tuple]) -> None:
        """Wrap every target of :data:`LAYER_TARGETS` and hook the collector.

        ``hooks`` maps a qualname to ``(before, observe)`` callables.
        """
        for layer, module_name, targets in LAYER_TARGETS:
            module = importlib.import_module(module_name)
            for target in targets:
                if target == "*":
                    for value in list(vars(module).values()):
                        if (
                            isinstance(value, type)
                            and value.__module__ == module_name
                            and not issubclass(value, BaseException)
                        ):
                            self._wrap_class(value, layer, hooks)
                elif "." in target:
                    class_name, member = target.split(".", 1)
                    self._wrap_member(getattr(module, class_name), member, layer, hooks)
                else:
                    value = getattr(module, target)
                    if isinstance(value, type):
                        self._wrap_class(value, layer, hooks)
                    else:
                        before, observe = hooks.get(target, (None, None))
                        self._patch(module, target, self.wrap(value, target, layer, observe, before))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every patched attribute and detach the collector hook."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------------------------

    def calls(self, qualname: str) -> float:
        return self.stats.get(qualname, (0, 0.0, 0.0))[_CALLS]

    def inclusive(self, *qualnames: str) -> float:
        return sum(self.stats.get(name, (0, 0.0, 0.0))[_INCL] for name in qualnames)

    def self_time(self, qualname: str) -> float:
        return self.stats.get(qualname, (0, 0.0, 0.0))[_SELF]

    def layer(self, name: str) -> Dict[str, float]:
        cells = self.layers[name]
        return {
            "calls": cells[_LCALLS],
            "entries": cells[_LENTRIES],
            "entry_s": cells[_LENTRY_S],
        }


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty sequence)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail_percentile(count: int, choices: Sequence[float] = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)) -> float:
    """Highest percentile in ``choices`` with at least ten samples beyond it."""
    for pct in choices:
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0
