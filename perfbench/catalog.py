"""Every metric the benchmark reports: name, unit, definition, what it should move.

This table is the single source of the metric definitions.  ``run.py
--describe`` prints it as the Markdown in ``README.md``, and every run
checks that it agrees with the metric names and units in ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Tuple

from tracer import PARTITION_LAYERS

#: (name, unit, definition).  Reported by an untraced run (``--trace 0``).
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s",
     "Host seconds from the first statement of the workload process to the "
     "first simulated event: imports, config, world build, and (campaign_sweep) "
     "store, broker and submit. Median over the run's iterations."),
    ("run_s", "s",
     "Host seconds from the first simulated event to the verified result "
     "(rows exported, digest computed and checked). Median over iterations."),
    ("events_per_s", "1/s",
     "Simulated events of the result (sum of events_processed over the distinct "
     "runs) divided by run_s, per iteration; median over iterations."),
    ("peak_rss_mb", "MiB",
     "Peak resident memory (ru_maxrss) of the fresh process running one "
     "iteration, read once the result is verified; median over iterations."),
)

#: (name, unit, definition).  Printed by an untraced run but not gated in
#: BENCHMARK.json, whose metrics must be non-zero on every workload.
PRINTED: Tuple[Tuple[str, str, str], ...] = (
    ("failed_frac", "ratio",
     "Runs (paper_quiet) or points (the campaigns) that raised, failed, or "
     "mismatched their pinned digest or the run's first iteration, divided by "
     "those attempted. Reaches the result line as failed/attempted."),
    ("report_s", "s",
     "campaign_sweep only: host seconds of one warm read-back of the whole "
     "campaign from the SQLite store through CampaignRunner, exported and "
     "digest-checked. An iteration repeats it for 1.5 s after the run and takes "
     "the mean; the run reports the median over iterations."),
)

#: (name, unit, definition, end-to-end metric and workload it should move).
#: Reported by a traced run (``--trace 1``).  Counts and inclusive times cover
#: set-up and run (the read-backs behind ``report_s`` are untraced);
#: ``*.self_s`` and ``unattributed_s`` cover only the run window, so together
#: they add up to ``trace.run_s_traced``.
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim.engine.events", "count", "Events dispatched by Simulator.run/run_slice (fork bookkeeping credits excluded).", "run_s, events_per_s on paper_quiet and admission_flood"),
    ("sim.engine.loop_s", "s", "Inclusive time of Simulator.run/run_slice.", "run_s on paper_quiet and admission_flood"),
    ("sim.network.send_calls", "count", "Network.send calls.", "run_s on admission_flood"),
    ("sim.network.send_s", "s", "Inclusive time of Network.send.", "run_s on admission_flood"),
    ("sim.network.delivered", "count", "Messages delivered (NetworkStats delta over World.run and Checkpoint.capture_at).", "run_s on admission_flood"),
    ("sim.network.dropped", "count", "Messages dropped as blocked, partitioned or unknown (same deltas).", "run_s on admission_flood"),
    ("sim.network.bytes_sent", "B", "Bytes put on the wire (same deltas).", "run_s on paper_quiet"),
    ("core.peer.receive_calls", "count", "Peer.receive_message calls.", "run_s on paper_quiet and admission_flood"),
    ("core.peer.receive_self_s", "s", "Self time of Peer.receive_message.", "run_s on paper_quiet and admission_flood"),
    ("core.poller.polls_called", "count", "PollerPoll.start calls.", "run_s on paper_quiet"),
    ("core.poller.success_ratio", "ratio", "Successful polls / polls recorded by PollStatistics.record_poll.", "run_s on paper_quiet"),
    ("core.voter.sessions", "count", "VoterSession objects constructed.", "run_s on paper_quiet"),
    ("core.admission.consider_calls", "count", "AdmissionControl.consider calls.", "run_s on admission_flood"),
    ("core.admission.admit_ratio", "ratio", "Admitted results / consider calls.", "run_s on admission_flood"),
    ("core.admission.consider_s", "s", "Inclusive time of AdmissionControl.consider.", "run_s on admission_flood"),
    ("core.reputation.calls", "count", "Calls into KnownPeers, RefractoryState, IntroductionTable and ReferenceList.", "run_s on admission_flood"),
    ("core.reputation.s", "s", "Inclusive time of calls entering the reputation layer from another layer.", "run_s on admission_flood"),
    ("core.scheduler.find_slot_calls", "count", "TaskSchedule.find_slot calls.", "run_s on paper_quiet (about zero on admission_flood)"),
    ("core.scheduler.find_slot_s", "s", "Inclusive time of TaskSchedule.find_slot.", "run_s on paper_quiet"),
    ("core.scheduler.scan_len_mean", "count", "Mean reservations in the schedule at a find_slot call (the linear scan's upper bound).", "run_s on paper_quiet"),
    ("crypto.effort.proofs", "count", "EffortScheme.generate plus forge calls.", "run_s on paper_quiet and admission_flood"),
    ("crypto.effort.verify_calls", "count", "EffortScheme.verify calls.", "run_s on paper_quiet and admission_flood"),
    ("crypto.effort.verify_fail_ratio", "ratio", "Failed verifications / verify calls.", "run_s on admission_flood"),
    ("crypto.effort.s", "s", "Inclusive time of calls entering the effort layer (EffortScheme, EffortAccount, EffortPolicy, HashCostModel) from another layer.", "run_s on paper_quiet and admission_flood"),
    ("metrics.access.samples", "count", "AccessFailureSampler.sample_now calls.", "run_s on paper_quiet"),
    ("metrics.access.sample_s", "s", "Inclusive time of AccessFailureSampler.sample_now.", "run_s on paper_quiet"),
    ("adversary.callbacks", "count", "Calls entering the adversary layer from another layer (scheduled callbacks and hooks).", "run_s on admission_flood"),
    ("adversary.s", "s", "Inclusive time of those entries.", "run_s on admission_flood"),
    ("storage.failure.damage_events", "count", "StorageFailureModel._inject calls (exact; must not move).", "none: confirms behaviour"),
    ("storage.replica.repairs", "count", "Replica.repair_block calls (exact; must not move).", "none: confirms behaviour"),
    ("experiments.world.builds", "count", "build_world calls.", "setup_s on paper_quiet, run_s on campaign_sweep"),
    ("experiments.world.build_s", "s", "Inclusive time of build_world.", "setup_s on paper_quiet, run_s on campaign_sweep"),
    ("experiments.world.metrics_s", "s", "Inclusive time of World.metrics.", "run_s on campaign_sweep"),
    ("api.campaign.expand_s", "s", "Inclusive time of Campaign.expand.", "setup_s and run_s on campaign_sweep"),
    ("api.session.runs", "count", "Runs computed and remembered by a Session (Session._remember calls).", "run_s on campaign_sweep"),
    ("api.session.cache_hits", "count", "Session._lookup calls answered from the cache or store.", "run_s and report_s on campaign_sweep"),
    ("api.resultset.export_s", "s", "Inclusive time of export_rows.", "run_s and report_s on campaign_sweep"),
    ("service.broker.lease_s", "s", "Inclusive time of Broker.lease.", "run_s on campaign_sweep"),
    ("service.broker.complete_s", "s", "Inclusive time of Broker.complete.", "run_s on campaign_sweep"),
    ("service.worker.points", "count", "Worker.run_point calls: the sample count of the two percentiles below.", "run_s on campaign_sweep"),
    ("service.worker.point_s_p50", "s", "Median Worker.run_point span.", "run_s on campaign_sweep"),
    ("service.worker.point_s_tail", "s", "Worker.run_point span at service.worker.point_s_tail_pct.", "run_s on campaign_sweep"),
    ("service.worker.point_s_tail_pct", "%", "Highest percentile of 99.9/99/95/90/75/50 with at least ten points beyond it.", "none: states the tail's base"),
    ("service.sqlite_store.writes", "count", "SQLiteResultStore.save_json calls.", "run_s on campaign_sweep"),
    ("service.sqlite_store.write_s", "s", "Inclusive time of SQLiteResultStore.save_json.", "run_s on campaign_sweep"),
    ("service.sqlite_store.bytes_written", "B", "Bytes of JSON artifact rows in the store when the iteration ends.", "run_s on campaign_sweep"),
    ("service.sqlite_store.read_s", "s", "Inclusive time of SQLiteResultStore.load_json.", "run_s and report_s on campaign_sweep"),
    ("replay.checkpoint.captures", "count", "Checkpoint.capture calls.", "run_s on campaign_sweep"),
    ("replay.checkpoint.restores", "count", "Checkpoint.restore calls (each fork restores once).", "run_s on campaign_sweep"),
    ("replay.checkpoint.restore_s", "s", "Inclusive time of Checkpoint.restore.", "run_s on campaign_sweep"),
    ("replay.checkpoint.bytes", "B", "Pickled world bytes captured.", "run_s and peak_rss_mb on campaign_sweep"),
    ("python.gc.collections_gen0", "count", "Generation-0 collections (gc.callbacks).", "run_s on paper_quiet"),
    ("python.gc.collections_gen1", "count", "Generation-1 collections.", "run_s on paper_quiet"),
    ("python.gc.collections_gen2", "count", "Generation-2 collections.", "run_s on paper_quiet"),
    ("python.gc.pause_s", "s", "Host seconds inside collections.", "run_s on paper_quiet"),
    ("python.heap.objects_after_run", "count", "len(gc.get_objects()) once the result is verified.", "peak_rss_mb on paper_quiet"),
) + tuple(
    (layer + ".self_s", "s",
     "Self time of the %s layer inside the run window (time with one of its "
     "functions on top of the traced stack)." % layer,
     "run_s of every workload the layer runs in")
    for layer in PARTITION_LAYERS
) + (
    ("unattributed_s", "s", "Run-window time with no traced function on the stack: benchmark code and untraced modules.", "none: closes the partition"),
    ("trace.spans", "count", "Coarse spans recorded and written out.", "none: trace bookkeeping"),
    ("trace.run_s_traced", "s", "run_s of the traced iterations (median).", "none: overhead base"),
    ("trace.run_s_untraced", "s", "run_s of the untraced iterations of the same run (median).", "none: overhead base"),
    ("trace.overhead_ratio", "ratio", "trace.run_s_traced / trace.run_s_untraced.", "none: tracing cost"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def describe() -> str:
    """The catalog as Markdown tables: gated end-to-end, printed only, per-layer."""
    lines = []
    for table in (END_TO_END, PRINTED):
        lines += ["| metric | unit | definition |", "| --- | --- | --- |"]
        lines += ["| `%s` | %s | %s |" % (name, unit, text) for name, unit, text in table]
        lines.append("")
    lines += ["| metric | unit | definition | should move |", "| --- | --- | --- | --- |"]
    lines += [
        "| `%s` | %s | %s | %s |" % (name, unit, text, moves)
        for name, unit, text, moves in PER_LAYER
    ]
    return "\n".join(lines)
