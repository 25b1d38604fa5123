"""Experiment E12 (extension) -- integrity under attack: Likir load-bearing.

The paper's DHT layer is Likir (Aiello et al.), chosen for its certified
identities and content credentials.  This benchmark makes that choice
load-bearing: a cluster replays a tagging workload, every stored block is
snapshotted, and a **pre-scheduled adversary campaign** (Sybil joins crowding
a victim key, eclipse lies from compromised responders, forged STOREs under
four credential postures, forged APPENDs and stale republish storms) runs
twice -- once with the full Likir enforcement posture on (credential
verification, certified-contact admission, hardened unsigned writes), once
with it off.  Every adversarial draw happens at trace-scheduling time, so
both arms face the byte-identical campaign; the measured delta is
enforcement, not luck.

Gates (both modes; stated once, over the written point, by
``repro.analysis.audit.audit_attack`` -- the script ends by auditing its own
file, exactly as ``dharma audit --attack BENCH_attack.json`` does offline):

* both arms faced the identical campaign, which joined Sybils, forged
  writes and ran beside honest APPENDs;
* with verification on, **zero** integrity violations and availability of
  the probe sample stays at or above the floor -- forged values never
  reach a reader and honest data survives the campaign;
* with verification off, the same campaign demonstrates measurable
  corruption (accepted forgeries and integrity violations);
* verification costs honest traffic at most 15% in messages and virtual
  time, measured on an adversary-free A/B of the same workload.

Each run writes a trajectory point to ``BENCH_attack.json`` (consumed by
``dharma dashboard --attack`` and ``dharma audit --attack``; CI uploads it
with the other ``BENCH_*.json`` artifacts), and the verification-on arm
streams live metrics to ``BENCH_attack_metrics.jsonl`` /
``BENCH_attack_metrics.prom``.  ``BENCH_SMOKE=1`` shrinks the cluster and
the campaign so the script stays in CI-smoke time; the availability floor
is relaxed there (tiny probe samples quantise coarsely).
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

from benchmarks.conftest import BENCH_PRESET, BENCH_SMOKE, print_banner, smoke_scaled
from repro.analysis.audit import run_audit
from repro.analysis.report import write_json
from repro.analysis.survival import attack_point
from repro.metrics import MetricsStream
from repro.perf import PERF
from repro.simulation.cluster import SimulatedCluster, attack_cluster_config
from repro.simulation.experiment import run_attack_benchmark
from repro.simulation.workload import TaggingWorkload

NUM_NODES = smoke_scaled(300, 48)
OPS = smoke_scaled(150, 60)
DURATION_S = smoke_scaled(120.0, 40.0)
SAMPLE_EVERY_S = smoke_scaled(10.0, 10.0)
SYBIL_COUNT = smoke_scaled(32, 12)
FORGE_RATE = smoke_scaled(2.0, 0.7)
APPEND_FORGE_RATE = smoke_scaled(1.0, 1.0)
STALE_REPUBLISH_RATE = smoke_scaled(1.0, 1.0)
TARGET_KEYS = smoke_scaled(4, 3)
OVERHEAD_OPS = smoke_scaled(120, 40)

#: Availability floor with verification on.
MIN_AVAILABILITY = 0.95 if BENCH_SMOKE else 0.99
#: Honest-traffic cost ceiling for the enforcement posture (ratio on/off).
OVERHEAD_BUDGET = 1.15

OUTPUT_PATH = Path("BENCH_attack.json")
METRICS_PATH = Path("BENCH_attack_metrics.jsonl")
PROM_PATH = Path("BENCH_attack_metrics.prom")


def _run(workload: TaggingWorkload, verification: bool, seed: int = 0):
    config = attack_cluster_config(
        num_nodes=NUM_NODES,
        verification=verification,
        sybil_count=SYBIL_COUNT,
        forge_rate=FORGE_RATE,
        append_forge_rate=APPEND_FORGE_RATE,
        stale_republish_rate=STALE_REPUBLISH_RATE,
        seed=seed,
    )
    stream = None
    if verification:
        # PERF is process-global and the stream exports its counters: without
        # the reset, a single-process `pytest benchmarks/` run records whatever
        # the benches collected before this one left behind.
        PERF.reset()
        METRICS_PATH.unlink(missing_ok=True)
        stream = MetricsStream(path=str(METRICS_PATH), prom_path=str(PROM_PATH))
    try:
        return run_attack_benchmark(
            config, workload, ops=OPS, duration_s=DURATION_S,
            sample_every_s=SAMPLE_EVERY_S, target_keys=TARGET_KEYS,
            metrics_stream=stream,
        )
    finally:
        if stream is not None:
            stream.close()


def _honest_overhead(workload: TaggingWorkload, seed: int = 0) -> dict[str, float]:
    """Cost of the enforcement posture on honest traffic (no adversary).

    The same workload runs on two quiet clusters that differ only in the
    verification flags; the ratios bound what honest users pay for the
    protection the attack arms measure.  Every ``add_tag`` reads the signed
    r̄ block first, so the verified GET path is priced along with the writes.
    """
    messages, virtual_s = {}, {}
    for verification in (True, False):
        config = dataclasses.replace(
            attack_cluster_config(num_nodes=NUM_NODES, verification=verification, seed=seed),
            adversary=False,
            sybil_count=0,
            compromised_fraction=0.0,
            forge_rate=0.0,
            append_forge_rate=0.0,
            stale_republish_rate=0.0,
        )
        cluster = SimulatedCluster(config)
        cluster.run_workload(workload, limit=OVERHEAD_OPS)
        messages[verification] = cluster.overlay.network.stats.messages_sent
        virtual_s[verification] = cluster.overlay.clock.now / 1000.0
    return {
        "messages_on": messages[True],
        "messages_off": messages[False],
        "messages_ratio": messages[True] / messages[False] if messages[False] else 1.0,
        "virtual_time_on_s": virtual_s[True],
        "virtual_time_off_s": virtual_s[False],
        "virtual_time_ratio": virtual_s[True] / virtual_s[False] if virtual_s[False] else 1.0,
    }


class TestAttackResilience:
    def test_verification_preserves_integrity_under_identical_campaign(
        self, benchmark, bench_dataset
    ):
        workload = TaggingWorkload.from_triples(bench_dataset.triples())

        def run():
            return {
                "on": _run(workload, verification=True),
                "off": _run(workload, verification=False),
                "overhead": _honest_overhead(workload),
            }

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        on, off, overhead = results["on"], results["off"], results["overhead"]

        print_banner(
            f"E12 -- attack resilience: {NUM_NODES} nodes, {OPS} ops, "
            f"{DURATION_S:.0f}s campaign ({SYBIL_COUNT} sybils, "
            f"forge rate {FORGE_RATE}/s, {TARGET_KEYS} victim blocks)"
        )
        for label, report in (("verification on", on), ("verification off", off)):
            s = report.summary()
            print(
                f"{label:>16}: availability {s['final_availability']:.4f}, "
                f"{s['integrity_violations']:.0f} violations, "
                f"{s['likir_rejected']:.0f} likir rejections, "
                f"eclipse progress {s['eclipse_progress']:.3f}"
            )
        print(
            f" honest overhead: messages x{overhead['messages_ratio']:.3f}, "
            f"virtual time x{overhead['virtual_time_ratio']:.3f} "
            f"(budget x{OVERHEAD_BUDGET:.2f})"
        )

        point = attack_point(
            [on, off],
            preset=BENCH_PRESET,
            smoke=BENCH_SMOKE,
            timestamp=time.time(),
            ops=OPS,
            sybil_count=SYBIL_COUNT,
            forge_rate=FORGE_RATE,
            append_forge_rate=APPEND_FORGE_RATE,
            stale_republish_rate=STALE_REPUBLISH_RATE,
            targets=TARGET_KEYS,
            availability_floor=MIN_AVAILABILITY,
            overhead_budget=OVERHEAD_BUDGET,
            honest_overhead=overhead,
        )
        write_json(OUTPUT_PATH, point)
        print(f"\ntrajectory point written to {OUTPUT_PATH.resolve()}")
        if METRICS_PATH.exists():
            print(f"verification-on metrics streamed to {METRICS_PATH.resolve()}")
            assert METRICS_PATH.stat().st_size > 0
            assert PROM_PATH.exists()

        report = run_audit(attack=OUTPUT_PATH)
        assert report.ok, report.render()
