"""Fault experiments on a simulated cluster: block survival under churn and
the Likir on/off attack A/B.

The paper evaluates DHARMA on a static overlay; these two extension
experiments back its premise that an approximated folksonomy can live on a
DHT whose peers fail and lie.  Both are one procedure with three phases:
(1) replay a tagging workload on a quiet overlay and snapshot every stored
block -- the *floor* (:func:`_expected_blocks`); (2) pre-schedule a seeded
fault trace (a membership schedule, or an adversary's campaign) and run it
for a fixed span of virtual time, probing the availability of a key sample
and APPENDing to a few counter blocks, so republished or replayed snapshots
have concurrent writes to not lose; (3) audit every floor key through the
surviving overlay: a block is *lost* when no access node can retrieve it, and
a surviving counter entry *violates integrity* when it reads below its floor
(pre-fault value plus the fully replicated deltas applied since).

:class:`FaultExperiment` is that procedure: the read path, the probe/APPEND
ticks and their schedule, the metrics recorder and the audit.
:class:`SurvivalRun` and :class:`AttackRun` hold what differs -- the fault
source, how an APPEND is booked, the foreign-entry check and each report's
own fields.  Because every fault is drawn from ``config.seed`` before the run
starts, two arms of one seed (maintenance on/off, verification on/off) face
the identical trace, and the measured delta is the mechanism, not luck.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Collection
from dataclasses import dataclass, field
from typing import Any, ClassVar

from repro.core.blocks import BlockType
from repro.dht.bootstrap import Overlay
from repro.dht.likir import LikirAuthError
from repro.dht.node_id import NodeID
from repro.dht.storage import is_counter_payload, merge_counter_entries
from repro.metrics.stream import ClusterMetricsRecorder, MetricsStream
from repro.perf import PERF
from repro.simulation.adversary import AdversaryProcess, AttackTarget
from repro.simulation.cluster import ClusterConfig, SimulatedCluster
from repro.simulation.workload import TaggingWorkload

__all__ = [
    "ExperimentReport",
    "SurvivalReport",
    "AttackReport",
    "FaultExperiment",
    "SurvivalRun",
    "AttackRun",
    "run_survival_benchmark",
    "run_attack_benchmark",
]

#: Block key -> floor payload (``None`` for opaque, presence-checked blocks).
Floor = dict[NodeID, dict[str, Any] | None]


@dataclass(kw_only=True)
class ExperimentReport:
    """What every fault experiment reports (the module docstring's audit)."""

    config: ClusterConfig
    #: Distinct block keys stored before the faults started, and how many of
    #: those are counter blocks (integrity-checked).
    blocks_written: int = 0
    counter_blocks: int = 0
    duration_s: float = 0.0
    #: ``(seconds since fault start, availability of the probe sample)``.
    samples: list[tuple[float, float]] = field(default_factory=list)
    #: End-of-run availability: the audited fraction of the floor (survival)
    #: or one last probe of the sample (attack).
    final_availability: float = 0.0
    lost_blocks: int = 0
    #: Surviving counter entries found *below* their expected floor (zero
    #: unless someone lies: counters are monotone and merges keep the
    #: per-entry max).
    integrity_violations: int = 0
    entries_checked: int = 0
    messages_total: int = 0
    virtual_time_s: float = 0.0
    wall_time_s: float = 0.0

    def summary(self) -> dict[str, float]:
        """Flat mapping for tables and JSON reports."""
        return {
            "nodes": self.config.num_nodes,
            "blocks_written": self.blocks_written,
            "counter_blocks": self.counter_blocks,
            "duration_s": self.duration_s,
            "final_availability": self.final_availability,
            "lost_blocks": self.lost_blocks,
            "integrity_violations": self.integrity_violations,
            "entries_checked": self.entries_checked,
            "messages_total": self.messages_total,
            "virtual_time_s": self.virtual_time_s,
            "wall_time_s": self.wall_time_s,
        }


@dataclass(kw_only=True)
class SurvivalReport(ExperimentReport):
    """Outcome of one churn-survival run (see :func:`run_survival_benchmark`)."""

    maintenance_on: bool
    #: Mid-churn APPENDs applied (their deltas are part of the floor).
    churn_appends: int = 0
    joins: int = 0
    graceful_leaves: int = 0
    crashes: int = 0
    live_nodes_end: int = 0
    maintenance_stats: dict[str, int] = field(default_factory=dict)

    def summary(self) -> dict[str, float]:
        return {
            **super().summary(),
            "maintenance": int(self.maintenance_on),
            "churn_appends": self.churn_appends,
            "joins": self.joins,
            "graceful_leaves": self.graceful_leaves,
            "crashes": self.crashes,
            "live_nodes_end": self.live_nodes_end,
            **{f"maint_{k}": v for k, v in self.maintenance_stats.items()},
        }


@dataclass(kw_only=True)
class AttackReport(ExperimentReport):
    """Outcome of one attack run (see :func:`run_attack_benchmark`).

    ``integrity_violations`` also counts the ``foreign_entries``: ``attack-*``
    entries an adversary smuggled into a counter block (both must be zero
    with verification on).
    """

    verification_on: bool
    #: Victim blocks the campaign aims forged writes at.
    targets: int = 0
    foreign_entries: int = 0
    #: Reads that raised ``LikirAuthError`` on a forged value (the client
    #: retried another access node -- enforcement working, not data loss).
    forged_reads_rejected: int = 0
    #: Honest APPENDs issued at the victim counters during the attack, and
    #: how many blew up on a corrupted replica (verification-off damage).
    honest_appends: int = 0
    honest_append_failures: int = 0
    #: Final adversary share of honest k-closest views of the victim key.
    eclipse_progress: float = 0.0
    #: Raw adversary counters (sybil joins, per-kind forge outcomes, ...).
    attack: dict[str, int] = field(default_factory=dict)
    #: ``likir.*`` enforcement counter deltas over the whole run.
    likir_verified: int = 0
    likir_rejected: int = 0
    sybil_contacts_rejected: int = 0

    def summary(self) -> dict[str, float]:
        return {
            **super().summary(),
            "verification": int(self.verification_on),
            "targets": self.targets,
            "foreign_entries": self.foreign_entries,
            "forged_reads_rejected": self.forged_reads_rejected,
            "honest_appends": self.honest_appends,
            "honest_append_failures": self.honest_append_failures,
            "eclipse_progress": self.eclipse_progress,
            "likir_verified": self.likir_verified,
            "likir_rejected": self.likir_rejected,
            "sybil_contacts_rejected": self.sybil_contacts_rejected,
            **{f"attack_{name}": count for name, count in self.attack.items()},
        }

    def fingerprint(self) -> dict[str, Any]:
        """Everything deterministic under a fixed seed (determinism pin).

        The full summary minus wall time, plus the availability timeline --
        two runs of the same seeded config must agree on this exactly.
        """
        out: dict[str, Any] = {
            key: value for key, value in self.summary().items() if key != "wall_time_s"
        }
        out["samples"] = tuple(self.samples)
        return out


def _expected_blocks(overlay: Overlay) -> Floor:
    """Snapshot every stored block across live replicas.

    Counter blocks map to their *floor* payload -- the entry-wise **minimum**
    over the replicas holding the block, i.e. what every replica already
    agreed on.  Replicas can legitimately diverge by the last not-yet-
    republished APPEND (a write's third target sometimes misses the true
    closest set), and no ``replicate``-way scheme can promise to survive the
    crash of the single copy carrying such an increment; the durable promise
    under test is that nothing ever drops *below* the replicated state.
    Opaque blocks map to ``None`` (presence-checked only).
    """
    replicas: dict[NodeID, list[dict[str, Any]]] = {}
    expected: Floor = {}
    for node in overlay.live_nodes():
        for key, value in node.storage.items_snapshot().items():
            if is_counter_payload(value):
                replicas.setdefault(key, []).append(value)
            else:
                expected.setdefault(key, None)
    for key, payloads in replicas.items():
        floor = dict(payloads[0]["entries"])
        for payload in payloads[1:]:
            entries = payload["entries"]
            for entry in list(floor):
                count = entries.get(entry, 0)
                if count < floor[entry]:
                    floor[entry] = count
        expected[key] = {
            **payloads[0],
            "entries": {entry: count for entry, count in floor.items() if count},
        }
    return expected


@dataclass(eq=False)
class FaultExperiment:
    """Mid-flight state and procedure of one fault experiment.

    Everything the probe/APPEND ticks and the final audit touch lives here,
    which makes a run *checkpointable*: the snapshot layer
    (:mod:`repro.simulation.snapshot`) serialises this state alongside the
    cluster, and a resumed run re-creates its pending tick events against a
    restored instance.
    """

    #: Access nodes a probe read tries before it calls a key unreadable.
    READ_ATTEMPTS: ClassVar[int]
    #: Answers an audit read joins.
    AUDIT_READS: ClassVar[int] = 3
    #: The APPEND tick increments the entry ``<prefix><block owner>``.
    ENTRY_PREFIX: ClassVar[str]
    #: Tick events are labelled ``<label><tick number>``.
    PROBE_LABEL: ClassVar[str]
    APPEND_LABEL: ClassVar[str]

    cluster: SimulatedCluster
    report: ExperimentReport
    expected: Floor
    #: Keys whose availability is probed, and counter keys that are appended to.
    probe: list[NodeID]
    appended: list[NodeID]
    #: Virtual time the fault phase started at.
    start_ms: float
    sample_every_s: float
    #: Wall seconds consumed before the last checkpoint (resumed runs report
    #: the sum, so wall_time_s stays a total across restarts).
    prior_wall_s: float = 0.0
    forged_reads_rejected: int = 0
    recorder: ClusterMetricsRecorder | None = None

    # -- the read path ------------------------------------------------------ #

    def read(self, key: NodeID, merge: bool = False) -> Any | None:
        """Read *key* through random live access nodes, as a defensive client.

        A forged value that fails verification is not data loss: the
        rejection is counted and the next access node tried.  A probe read
        returns the first answer.  With *merge* -- the audit read --
        ``AUDIT_READS`` answers are joined: a FIND_VALUE returns the first
        replica on the lookup path, which under faults may be a stale old
        holder or a thin block freshly created by a concurrent APPEND at a
        new responsible node, so a client that cares about counter integrity
        reads through several access points and keeps the entry-wise maximum
        (the same monotone join the replicas apply on STORE).  An opaque
        block has no join; its first answer stands.
        """
        overlay = self.cluster.overlay
        merged: Any | None = None
        for _ in range(self.AUDIT_READS if merge else self.READ_ATTEMPTS):
            try:
                value, _ = overlay.random_node().retrieve(key)
            except LikirAuthError:
                self.forged_reads_rejected += 1
                continue
            if value is None:
                continue
            if not merge or not is_counter_payload(value):
                return value
            if merged is None:
                merged = {**value, "entries": dict(value["entries"])}
            else:
                merge_counter_entries(merged["entries"], value["entries"])
        return merged

    # -- periodic ticks ------------------------------------------------------ #

    def probe_tick(self) -> None:
        readable = sum(1 for key in self.probe if self.read(key) is not None)
        availability = readable / len(self.probe) if self.probe else 1.0
        since_start_ms = self.cluster.overlay.clock.now - self.start_ms
        self.report.samples.append((since_start_ms / 1000.0, availability))

    def append_tick(self) -> None:
        """Honest writers keep working while republished (or forged) snapshots
        fly around: merge-on-store is what keeps these from being erased."""
        for key in self.appended:
            payload = self.expected[key]
            entry = f"{self.ENTRY_PREFIX}{payload['owner']}"
            # Like the pre-fault floor, the audit only promises durability
            # for fully replicated state: the floor must not rise on a write
            # (some store candidates were dead) a single crash could kill.
            if self.append(key, payload, entry) >= self.cluster.config.replicate:
                payload["entries"][entry] = payload["entries"].get(entry, 0) + 1

    def append(self, key: NodeID, payload: dict[str, Any], entry: str) -> int:
        """APPEND ``{entry: 1}`` through a random access node; returns the
        number of replicas that accepted it.  Subclasses book the outcome."""
        outcome = self.cluster.overlay.random_node().append(
            key, payload["owner"], BlockType(payload["type"]), {entry: 1}
        )
        return outcome.accepted_replicas

    def append_cutoff_ms(self) -> float:
        """Milliseconds into the run after which no APPEND tick is scheduled."""
        return math.inf

    def schedule_ticks(self) -> None:
        """Pre-schedule every probe/APPEND tick of the run (fresh runs only;
        a resumed run gets its remaining ticks back from the snapshot)."""
        queue = self.cluster.queue
        sample_every_s = self.sample_every_s
        ticks = int(self.report.duration_s // sample_every_s) if sample_every_s > 0 else 0
        cutoff_ms = self.append_cutoff_ms()
        for tick in range(1, ticks + 1):
            at = self.start_ms + tick * sample_every_s * 1000.0
            queue.schedule_at(at, self.probe_tick, label=f"{self.PROBE_LABEL}{tick}")
            if at - self.start_ms <= cutoff_ms:
                queue.schedule_at(at, self.append_tick, label=f"{self.APPEND_LABEL}{tick}")

    # -- lifecycle ------------------------------------------------------------ #

    def begin(
        self, metrics_stream: MetricsStream | None, metrics_interval_s: float | None
    ) -> None:
        """Arm a fresh run: ticks, then the metrics recorder, then the fault
        trace (same-time events execute in scheduling order).

        The recorder samples every *metrics_interval_s* virtual seconds
        (default: the probe cadence); sampling is read-only and draws no
        randomness, so metrics do not perturb the run.
        """
        self.schedule_ticks()
        if metrics_stream is not None:
            self.recorder = ClusterMetricsRecorder(
                self.cluster,
                metrics_stream,
                interval_ms=(metrics_interval_s or self.sample_every_s) * 1000.0,
                extra_gauges=self.metrics_gauges,
            )
            self.recorder.start()
        self.start_faults(self.report.duration_s * 1000.0)

    def start_faults(self, horizon_ms: float) -> None:
        """Pre-schedule the whole fault trace up to *horizon_ms* from now."""
        raise NotImplementedError

    @property
    def end_ms(self) -> float:
        """Virtual time the fault phase ends at (often the last tick's time)."""
        return self.start_ms + self.report.duration_s * 1000.0

    @property
    def availability(self) -> float:
        """The latest probe sample (1.0 before the first)."""
        samples = self.report.samples
        return samples[-1][1] if samples else 1.0

    def metrics_gauges(self) -> dict[str, float]:
        """Per-interval experiment gauges exported on the metrics stream."""
        raise NotImplementedError

    def finish(self, wall_started: float) -> ExperimentReport:
        """Audit every floor key and fill in the report's end-state."""
        report = self.report
        overlay = self.cluster.overlay
        for key, payload in self.expected.items():
            value = self.read(key, merge=True)
            if value is None:
                report.lost_blocks += 1
                continue
            if payload is None or not is_counter_payload(value):
                continue
            entries = value["entries"]
            for entry, floor in payload["entries"].items():
                report.entries_checked += 1
                if entries.get(entry, 0) < floor:
                    report.integrity_violations += 1
            self.check_foreign(entries)
        self.fill_report()
        report.messages_total = overlay.network.stats.messages_sent
        report.virtual_time_s = overlay.clock.now / 1000.0
        report.wall_time_s = self.prior_wall_s + (time.perf_counter() - wall_started)
        if self.recorder is not None:
            self.recorder.stop()
        return report

    def check_foreign(self, entries: dict[str, int]) -> None:
        """Book entries of an audited counter block no honest writer made."""

    def fill_report(self) -> None:
        """After the audit: final availability and the report's own fields."""
        raise NotImplementedError


class SurvivalRun(FaultExperiment):
    """Block survival under a pre-scheduled churn trace."""

    READ_ATTEMPTS = 2
    ENTRY_PREFIX = "churn-probe-"
    PROBE_LABEL = "survival-probe-"
    APPEND_LABEL = "survival-append-"

    report: SurvivalReport

    def start_faults(self, horizon_ms: float) -> None:
        self.cluster.start_churn(trace_horizon_ms=horizon_ms)

    def append(self, key: NodeID, payload: dict[str, Any], entry: str) -> int:
        accepted = super().append(key, payload, entry)
        if accepted >= self.cluster.config.replicate:
            self.report.churn_appends += 1
        return accepted

    def append_cutoff_ms(self) -> float:
        # The last APPENDs land at least two republish intervals before the
        # end of the run, so the final maintenance pass has merged them into
        # the currently responsible replicas by audit time.
        republish_ms = self.cluster.config.republish_interval_ms
        return self.report.duration_s * 1000.0 - 2.0 * republish_ms

    def metrics_gauges(self) -> dict[str, float]:
        return {
            "survival.availability": self.availability,
            "survival.blocks_written": float(self.report.blocks_written),
            "survival.churn_appends": float(self.report.churn_appends),
        }

    def fill_report(self) -> None:
        cluster, report = self.cluster, self.report
        report.final_availability = (
            1.0 - report.lost_blocks / report.blocks_written if report.blocks_written else 1.0
        )
        report.joins = cluster.churn.joins
        report.graceful_leaves = cluster.churn.graceful_leaves
        report.crashes = cluster.churn.crashes
        if cluster.maintenance is not None:
            report.maintenance_stats = cluster.maintenance.stats.snapshot()
        report.live_nodes_end = len(cluster.overlay.live_nodes())


class AttackRun(FaultExperiment):
    """Availability and integrity under a pre-scheduled adversary campaign
    aimed at the ``appended`` (victim) counter blocks."""

    READ_ATTEMPTS = 3
    ENTRY_PREFIX = "probe-"
    PROBE_LABEL = "attack-probe-"
    APPEND_LABEL = "attack-honest-append-"

    report: AttackReport
    adversary: AdversaryProcess

    def start_faults(self, horizon_ms: float) -> None:
        # The target payload is frozen at attack start: it is the stale
        # snapshot the republish storm replays, while the live floor keeps
        # rising below.
        targets = [
            AttackTarget(
                key=key,
                payload={**self.expected[key], "entries": dict(self.expected[key]["entries"])},
            )
            for key in self.appended
        ]
        self.report.targets = len(targets)
        self.adversary = self.cluster.start_attack(targets, trace_horizon_ms=horizon_ms)

    def append(self, key: NodeID, payload: dict[str, Any], entry: str) -> int:
        self.report.honest_appends += 1
        try:
            return super().append(key, payload, entry)
        except Exception:
            # On a wholesale-corrupted replica (verification off) the APPEND
            # blows up on block metadata: collateral damage, counted.
            self.report.honest_append_failures += 1
            return 0

    def metrics_gauges(self) -> dict[str, float]:
        return {
            "attack.availability": self.availability,
            "attack.eclipse_progress": self.adversary.eclipse_progress(),
            "attack.forged_writes_sent": float(self.adversary.forged_writes_sent()),
        }

    def finish(self, wall_started: float) -> AttackReport:
        # Final availability is one more probe of the sample, before the audit.
        self.probe_tick()
        return super().finish(wall_started)

    def check_foreign(self, entries: dict[str, int]) -> None:
        foreign = sum(1 for entry in entries if entry.startswith("attack-"))
        self.report.foreign_entries += foreign
        self.report.integrity_violations += foreign

    def fill_report(self) -> None:
        report = self.report
        report.final_availability = self.availability
        report.forged_reads_rejected = self.forged_reads_rejected
        report.eclipse_progress = self.adversary.eclipse_progress()
        report.attack = self.adversary.counters()


def _populate(
    config: ClusterConfig, workload: TaggingWorkload, ops: int | None
) -> tuple[SimulatedCluster, Floor, list[NodeID]]:
    """Phase 1: build the cluster, replay *ops* events, take the floor.
    Returns ``(cluster, floor, counter-block keys)``."""
    cluster = SimulatedCluster(config)
    cluster.run_workload(workload, limit=ops)
    expected = _expected_blocks(cluster.overlay)
    return cluster, expected, [key for key, payload in expected.items() if payload is not None]


def _sample_keys(rng: random.Random, keys: Collection[NodeID], count: int) -> list[NodeID]:
    """Up to *count* of *keys*, drawn from their sorted order (so the draw
    depends on the seed, not on dict insertion order)."""
    return rng.sample(sorted(keys, key=lambda k: k.value), min(count, len(keys)))


def run_survival_benchmark(
    config: ClusterConfig,
    workload: TaggingWorkload,
    ops: int | None = None,
    duration_s: float = 480.0,
    sample_every_s: float = 30.0,
    probe_keys: int = 100,
    append_keys: int = 10,
    metrics_stream: MetricsStream | None = None,
    metrics_interval_s: float | None = None,
    checkpoint_path: str | None = None,
    checkpoint_at_s: float | None = None,
    halt_at_checkpoint: bool = False,
) -> SurvivalReport | None:
    """Measure block survival and counter integrity under churn.

    The three phases of the module docstring with a membership trace as the
    fault source (requires ``config.churn``): *probe_keys* blocks are probed
    every *sample_every_s*, *append_keys* counter blocks appended to.  With
    *metrics_stream* the run is sampled onto it (:meth:`FaultExperiment.begin`).
    With *checkpoint_path* and *checkpoint_at_s* (both or neither) the cluster
    is snapshotted that many virtual seconds into the churn phase;
    *halt_at_checkpoint* then returns ``None`` instead of finishing (a killed
    run -- :func:`repro.simulation.snapshot.resume_survival_benchmark`
    resumes it).
    """
    if (checkpoint_at_s is None) != (checkpoint_path is None):
        raise ValueError("checkpoint_at_s and checkpoint_path must be given together")
    if halt_at_checkpoint and checkpoint_at_s is None:
        raise ValueError("halt_at_checkpoint requires checkpoint_at_s and checkpoint_path")
    started = time.perf_counter()
    cluster, expected, counter_keys = _populate(config, workload, ops)
    report = SurvivalReport(
        config=config,
        maintenance_on=config.maintenance,
        blocks_written=len(expected),
        counter_blocks=len(counter_keys),
        duration_s=duration_s,
    )
    rng = random.Random(config.seed)
    probe = _sample_keys(rng, expected, probe_keys)
    appended = _sample_keys(rng, counter_keys, append_keys)
    run = SurvivalRun(
        cluster, report, expected, probe, appended,
        start_ms=cluster.overlay.clock.now, sample_every_s=sample_every_s,
    )
    run.begin(metrics_stream, metrics_interval_s)

    # Both legs run to absolute times: the last tick falls exactly on the end
    # of the run, and "now + what is left" can round to just before it.
    end_ms = run.end_ms
    if checkpoint_at_s is not None:
        cluster.queue.run_until(min(run.start_ms + max(checkpoint_at_s, 0.0) * 1000.0, end_ms))
        run.prior_wall_s = time.perf_counter() - started
        from repro.simulation.snapshot import save_snapshot

        save_snapshot(checkpoint_path, cluster, benchmark=run, recorder=run.recorder)
        if halt_at_checkpoint:
            if run.recorder is not None:
                run.recorder.stop()
            return None
    cluster.queue.run_until(end_ms)
    return run.finish(started)


def run_attack_benchmark(
    config: ClusterConfig,
    workload: TaggingWorkload,
    ops: int | None = None,
    duration_s: float = 120.0,
    sample_every_s: float = 10.0,
    probe_keys: int = 60,
    target_keys: int = 4,
    metrics_stream: MetricsStream | None = None,
    metrics_interval_s: float | None = None,
) -> AttackReport:
    """Measure availability and integrity under a scripted attack campaign.

    The three phases of the module docstring with the adversary's campaign
    against *target_keys* victim counter blocks as the fault source (requires
    ``config.adversary``).  The honest APPENDs go to the victims, so stale
    republishes are truly stale and a rollback is detectable, and the audit
    also counts foreign ``attack-*`` entries as integrity violations.
    """
    if not config.adversary:
        raise ValueError("run_attack_benchmark requires ClusterConfig.adversary")
    started = time.perf_counter()
    verified_before = PERF.counter("likir.verified")
    rejected_before = PERF.counter("likir.rejected")
    sybil_before = PERF.counter("likir.sybil_rejected")
    cluster, expected, counter_keys = _populate(config, workload, ops)
    if not counter_keys:
        raise ValueError("the attack benchmark needs counter blocks to target")
    report = AttackReport(
        config=config,
        verification_on=config.verify_credentials,
        blocks_written=len(expected),
        counter_blocks=len(counter_keys),
        duration_s=duration_s,
    )
    rng = random.Random(config.seed)
    victims = _sample_keys(rng, counter_keys, target_keys)
    probe = _sample_keys(rng, expected, probe_keys)
    # The victims must be in the probe sample, or availability would not see
    # the keys under fire.
    probe.extend(key for key in victims if key not in probe)
    run = AttackRun(
        cluster, report, expected, probe, victims,
        start_ms=cluster.overlay.clock.now, sample_every_s=sample_every_s,
    )
    run.begin(metrics_stream, metrics_interval_s)
    cluster.queue.run_until(run.end_ms)
    run.finish(started)
    # Enforcement counters span the whole run, workload phase included.
    report.likir_verified = PERF.counter("likir.verified") - verified_before
    report.likir_rejected = PERF.counter("likir.rejected") - rejected_before
    report.sybil_contacts_rejected = PERF.counter("likir.sybil_rejected") - sybil_before
    return report
