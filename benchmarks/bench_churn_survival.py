"""Experiment E11 (extension) -- data survival under churn.

The paper evaluates DHARMA on a static overlay, but its premise is a
folksonomy living on a Kademlia/Likir DHT where peers come and go.  This
benchmark puts the churn-safety work under a gate: a cluster replays a
tagging workload, every stored block is snapshotted, and the overlay then
runs a **pre-scheduled churn trace** (Poisson joins, exponential sessions,
``crash_probability=0.5`` -- half of all departures are abrupt crashes that
republish nothing) twice: once with the replica-maintenance subsystem
(:mod:`repro.dht.maintenance`) on, once off.  Both runs face the *identical*
fault schedule, so the deltas measure maintenance, not luck.

While churn runs, availability of a key sample is probed periodically and a
few counter blocks keep receiving APPENDs -- republished snapshots must
merge-on-store around those concurrent writes, never erase them.

Gates (full mode; stated once, over the written point, by
``repro.analysis.audit.audit_churn`` -- the script ends by auditing its own
file, and ``dharma audit --churn BENCH_churn.json`` re-checks it offline):

* both runs faced the identical fault trace, which crashed nodes and
  exercised concurrent APPENDs;
* with maintenance on, >= 99% of the pre-churn blocks remain readable and
  **every** surviving counter entry reads at or above its pre-churn floor
  (no counter ever goes backwards);
* with maintenance off, the same fault trace demonstrates measurable loss.

The gates read seed 0 only.  As a record, not a gate, the maintenance-on arm
also runs at every seed of :data:`SWEEP_SEEDS` (the same config, another
churn trace and overlay): the point's ``seed_sweep`` holds messages, lost
blocks, violations and final availability per seed, and the script prints
them as a table.

Each run writes a trajectory point to ``BENCH_churn.json`` (CI uploads it
with the other ``BENCH_*.json`` artifacts), and the seed-0 maintenance-on run
streams live metrics to ``BENCH_churn_metrics.jsonl`` /
``BENCH_churn_metrics.prom`` -- the sample source for ``dharma dashboard
--metrics`` and ``dharma audit``.  ``BENCH_SMOKE=1`` shrinks the cluster, the
churn phase and the sweep (two seeds) so the script stays in CI-smoke time;
the availability gate is relaxed there (tiny inventories quantise coarsely).
"""

from __future__ import annotations

import time
from pathlib import Path

from benchmarks.conftest import BENCH_PRESET, BENCH_SMOKE, print_banner, smoke_scaled
from repro.analysis.audit import run_audit
from repro.analysis.report import write_json
from repro.analysis.survival import churn_point, render_seed_sweep, render_survival_comparison
from repro.metrics import MetricsStream
from repro.perf import PERF
from repro.simulation.cluster import churn_cluster_config
from repro.simulation.experiment import run_survival_benchmark
from repro.simulation.workload import TaggingWorkload

NUM_NODES = smoke_scaled(500, 48)
OPS = smoke_scaled(150, 40)
DURATION_S = smoke_scaled(480.0, 120.0)
MEAN_SESSION_S = smoke_scaled(300.0, 90.0)
REPUBLISH_S = smoke_scaled(15.0, 6.0)
REFRESH_S = smoke_scaled(60.0, 24.0)
SAMPLE_EVERY_S = smoke_scaled(30.0, 20.0)
CRASH_PROBABILITY = 0.5
#: Churn-trace seeds of the maintenance-on sweep (seed 0 is the gated run).
SWEEP_SEEDS = range(smoke_scaled(8, 2))

#: Availability floor with maintenance on.
MIN_AVAILABILITY = 0.95 if BENCH_SMOKE else 0.99

OUTPUT_PATH = Path("BENCH_churn.json")
METRICS_PATH = Path("BENCH_churn_metrics.jsonl")
PROM_PATH = Path("BENCH_churn_metrics.prom")


def _run(workload: TaggingWorkload, maintenance: bool, seed: int = 0, streamed: bool = False):
    config = churn_cluster_config(
        num_nodes=NUM_NODES,
        maintenance=maintenance,
        mean_session_s=MEAN_SESSION_S,
        crash_probability=CRASH_PROBABILITY,
        republish_interval_ms=REPUBLISH_S * 1000.0,
        refresh_interval_ms=REFRESH_S * 1000.0,
        seed=seed,
    )
    stream = None
    if streamed:
        # PERF is process-global and the stream exports its counters: without
        # the reset, a single-process `pytest benchmarks/` run records whatever
        # the benches collected before this one left behind.
        PERF.reset()
        METRICS_PATH.unlink(missing_ok=True)
        stream = MetricsStream(path=str(METRICS_PATH), prom_path=str(PROM_PATH))
    try:
        return run_survival_benchmark(
            config, workload, ops=OPS, duration_s=DURATION_S,
            sample_every_s=SAMPLE_EVERY_S, metrics_stream=stream,
        )
    finally:
        if stream is not None:
            stream.close()


class TestChurnSurvival:
    def test_maintenance_keeps_blocks_alive_and_counters_monotone(
        self, benchmark, bench_dataset
    ):
        workload = TaggingWorkload.from_triples(bench_dataset.triples())

        def run():
            on = _run(workload, maintenance=True, streamed=True)
            off = _run(workload, maintenance=False)
            rest = [_run(workload, maintenance=True, seed=seed) for seed in SWEEP_SEEDS[1:]]
            return {"on": on, "off": off, "sweep": [on, *rest]}

        reports = benchmark.pedantic(run, rounds=1, iterations=1)
        on, off = reports["on"], reports["off"]

        print_banner(
            f"E11 -- churn survival: {NUM_NODES} nodes, {OPS} ops, "
            f"{DURATION_S:.0f}s churn (mean session {MEAN_SESSION_S:.0f}s, "
            f"crash probability {CRASH_PROBABILITY})"
        )
        print(render_survival_comparison([on, off]))

        point = churn_point(
            [on, off],
            sweep=reports["sweep"],
            preset=BENCH_PRESET,
            smoke=BENCH_SMOKE,
            timestamp=time.time(),
            ops=OPS,
            mean_session_s=MEAN_SESSION_S,
            crash_probability=CRASH_PROBABILITY,
            republish_interval_s=REPUBLISH_S,
            availability_floor=MIN_AVAILABILITY,
        )
        print(render_seed_sweep(point["seed_sweep"]))
        write_json(OUTPUT_PATH, point)
        print(f"\ntrajectory point written to {OUTPUT_PATH.resolve()}")
        if METRICS_PATH.exists():
            print(f"maintenance-on metrics streamed to {METRICS_PATH.resolve()}")
            assert METRICS_PATH.stat().st_size > 0
            assert PROM_PATH.exists()

        report = run_audit(churn=OUTPUT_PATH)
        assert report.ok, report.render()
