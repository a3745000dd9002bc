"""One benchmark iteration in a fresh process; prints a JSON record as its last line.

``run.py`` starts this script once per iteration, so every iteration pays
the imports and world build a user pays and has its own peak RSS.  With
``--trace 1`` the layer tracer is installed before the workload starts and
the record carries the per-layer metrics; the spans are written to
``<out-dir>/spans/``.

    python3 perfbench/iteration.py --workload paper_quiet --seed 1 --trace 0
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def layer_metrics(tracer, window, store_bytes: int, objects_after_run: int):
    """The per-layer metrics of one traced iteration (trace.* are added by run.py)."""
    from tracer import PARTITION_LAYERS, percentile, tail_percentile

    counters = tracer.counters
    calls, incl, self_time = tracer.calls, tracer.inclusive, tracer.self_time
    consider = calls("AdmissionControl.consider")
    verify = calls("EffortScheme.verify")
    polls = calls("PollStatistics.record_poll")
    find_slot = calls("TaskSchedule.find_slot")
    points = [end - start for name, start, end, _, _ in tracer.spans if name == "Worker.run_point"]
    tail = tail_percentile(len(points))
    metrics = {
        "sim.engine.events": counters.get("engine.events", 0),
        "sim.engine.loop_s": incl("Simulator.run", "Simulator.run_slice"),
        "sim.network.send_calls": calls("Network.send"),
        "sim.network.send_s": incl("Network.send"),
        "sim.network.delivered": counters.get("network.delivered", 0),
        "sim.network.dropped": counters.get("network.dropped", 0),
        "sim.network.bytes_sent": counters.get("network.bytes_sent", 0),
        "core.peer.receive_calls": calls("Peer.receive_message"),
        "core.peer.receive_self_s": self_time("Peer.receive_message"),
        "core.poller.polls_called": calls("PollerPoll.start"),
        "core.poller.success_ratio": counters.get("polls.success", 0) / polls if polls else 0.0,
        "core.voter.sessions": calls("VoterSession.__init__"),
        "core.admission.consider_calls": consider,
        "core.admission.admit_ratio": counters.get("admission.admitted", 0) / consider if consider else 0.0,
        "core.admission.consider_s": incl("AdmissionControl.consider"),
        "core.reputation.calls": tracer.layer("core.reputation")["calls"],
        "core.reputation.s": tracer.layer("core.reputation")["entry_s"],
        "core.scheduler.find_slot_calls": find_slot,
        "core.scheduler.find_slot_s": incl("TaskSchedule.find_slot"),
        "core.scheduler.scan_len_mean": counters.get("scheduler.scan", 0) / find_slot if find_slot else 0.0,
        "crypto.effort.proofs": calls("EffortScheme.generate") + calls("EffortScheme.forge"),
        "crypto.effort.verify_calls": verify,
        "crypto.effort.verify_fail_ratio": counters.get("effort.verify_failed", 0) / verify if verify else 0.0,
        "crypto.effort.s": tracer.layer("crypto.effort")["entry_s"],
        "metrics.access.samples": calls("AccessFailureSampler.sample_now"),
        "metrics.access.sample_s": incl("AccessFailureSampler.sample_now"),
        "adversary.callbacks": tracer.layer("adversary")["entries"],
        "adversary.s": tracer.layer("adversary")["entry_s"],
        "storage.failure.damage_events": calls("StorageFailureModel._inject"),
        "storage.replica.repairs": calls("Replica.repair_block"),
        "experiments.world.builds": calls("build_world"),
        "experiments.world.build_s": incl("build_world"),
        "experiments.world.metrics_s": incl("World.metrics"),
        "api.campaign.expand_s": incl("Campaign.expand"),
        "api.session.runs": calls("Session._remember"),
        "api.session.cache_hits": counters.get("session.cache_hits", 0),
        "api.resultset.export_s": incl("export_rows"),
        "service.broker.lease_s": incl("Broker.lease"),
        "service.broker.complete_s": incl("Broker.complete"),
        "service.worker.points": len(points),
        "service.worker.point_s_p50": percentile(points, 50.0),
        "service.worker.point_s_tail": percentile(points, tail),
        "service.worker.point_s_tail_pct": tail if points else 0.0,
        "service.sqlite_store.writes": calls("SQLiteResultStore.save_json"),
        "service.sqlite_store.write_s": incl("SQLiteResultStore.save_json"),
        "service.sqlite_store.bytes_written": store_bytes,
        "service.sqlite_store.read_s": incl("SQLiteResultStore.load_json"),
        "replay.checkpoint.captures": calls("Checkpoint.capture"),
        "replay.checkpoint.restores": calls("Checkpoint.restore"),
        "replay.checkpoint.restore_s": incl("Checkpoint.restore"),
        "replay.checkpoint.bytes": counters.get("checkpoint.bytes", 0),
        "python.gc.collections_gen0": tracer.gc_collections[0],
        "python.gc.collections_gen1": tracer.gc_collections[1],
        "python.gc.collections_gen2": tracer.gc_collections[2],
        "python.gc.pause_s": tracer.gc_pause_s,
        "python.heap.objects_after_run": objects_after_run,
        "unattributed_s": window["unattributed"],
        "trace.spans": len(tracer.spans),
    }
    for layer in PARTITION_LAYERS:
        metrics[layer + ".self_s"] = window[layer]
    return metrics


def tracer_hooks(tracer):
    """``(before, observe)`` pairs that turn call results into counters."""
    count = tracer.count

    def events_before(args):
        return args[0].events_processed

    def events_after(result, args, before):
        count("engine.events", args[0].events_processed - before)

    def network_state(world):
        stats = world.network.stats
        return (
            stats.messages_delivered,
            stats.messages_dropped_blocked
            + stats.messages_dropped_unknown
            + stats.messages_dropped_partition,
            stats.bytes_sent,
        )

    def network_delta(world, before):
        delivered, dropped, sent = network_state(world)
        count("network.delivered", delivered - before[0])
        count("network.dropped", dropped - before[1])
        count("network.bytes_sent", sent - before[2])

    def admitted(result, args, _):
        if result.admitted:
            count("admission.admitted")

    def verified(result, args, _):
        if not result:
            count("effort.verify_failed")

    def poll_recorded(result, args, _):
        if args[1].success:
            count("polls.success")

    def slot_scanned(result, args, _):
        count("scheduler.scan", len(args[0]))

    def looked_up(result, args, _):
        if result is not None:
            count("session.cache_hits")

    def captured(result, args, _):
        count("checkpoint.bytes", len(result._blob))

    engine = (events_before, events_after)
    return {
        "Simulator.run": engine,
        "Simulator.run_slice": engine,
        "World.run": (
            lambda args: network_state(args[0]),
            lambda result, args, before: network_delta(args[0], before),
        ),
        # classmethod: args are (cls, world, time)
        "Checkpoint.capture_at": (
            lambda args: network_state(args[1]),
            lambda result, args, before: network_delta(args[1], before),
        ),
        "AdmissionControl.consider": (None, admitted),
        "EffortScheme.verify": (None, verified),
        "PollStatistics.record_poll": (None, poll_recorded),
        "TaskSchedule.find_slot": (None, slot_scanned),
        "Session._lookup": (None, looked_up),
        "Checkpoint.capture": (None, captured),
    }


class Marks:
    """Boundary clock: plain ``perf_counter``, or tracer transitions when tracing."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer

    def first_event(self) -> float:
        self.first_cpu = time.process_time()
        return self.tracer.mark("first_event") if self.tracer else time.perf_counter()

    def verified(self) -> float:
        self.verified_cpu = time.process_time()
        return self.tracer.mark("verified") if self.tracer else time.perf_counter()


def host_facts(load_at_start: float):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1m": load_at_start,
        "gc_collections": [entry["collections"] for entry in gc.get_stats()],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", default=str(ROOT / ".perfbench-out"))
    args = parser.parse_args()
    load_at_start = os.getloadavg()[0]
    out_dir = Path(args.out_dir)
    run_id = "%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid())
    workdir = out_dir / "work" / run_id

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id)
        tracer.install(tracer_hooks(tracer))
        workload_span = tracer.open_span("workload", start=STARTED)
    expected = None
    if args.seed == workloads.DEFAULT_SEED:
        expected = workloads.load_pinned(ROOT)[args.workload]

    marks = Marks(tracer)
    result = workloads.RUNNERS[args.workload](args.seed, marks, workdir, expected)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        # Per-layer figures cover set-up and run; the read-backs below are
        # timed untraced.
        tracer.close_span(workload_span)
        tracer.uninstall()
        objects_after_run = len(gc.get_objects())
    report_s, store_bytes = None, 0
    if "report" in result:
        # The run's world can be cyclic garbage; collect it now so that every
        # read-back sees the same heap instead of one a collection frees
        # part-way through.
        gc.collect()
        try:
            report_s = result["report"]()
            store_bytes = result["store_bytes"]()
        finally:
            result["close"]()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(tracer),
        "setup_s": result["first_event"] - STARTED,
        "run_s": result["verified"] - result["first_event"],
        "run_cpu_s": marks.verified_cpu - marks.first_cpu,
        "report_s": report_s,
        "events": result["events"],
        "digest": result["digest"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "checks": result["checks"],
        "detail": result["detail"],
        "peak_rss_mb": peak_rss_mb,
        "host": host_facts(load_at_start),
    }
    if tracer:
        window = tracer.window("first_event", "verified")
        partition_sum = sum(window.values())
        spans_ok, bad_spans = tracer.check_spans()
        record["layers"] = layer_metrics(tracer, window, store_bytes, objects_after_run)
        record["checks"]["partition"] = abs(partition_sum - record["run_s"]) <= 1e-6 * max(1.0, record["run_s"])
        record["checks"]["spans_nested"] = spans_ok
        record["partition_error_s"] = partition_sum - record["run_s"]
        record["bad_spans"] = bad_spans
        spans_dir = out_dir / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_path = spans_dir / (run_id + ".json")
        spans_path.write_text(json.dumps(tracer.span_records()))
        record["spans_file"] = str(spans_path)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    status = main()
    # Skip interpreter teardown: freeing paper_quiet's heap object by object
    # takes about a second per iteration, which run.py would wait through
    # instead of measuring.  Nothing is left to close by now.
    sys.stdout.flush()
    os._exit(status)
