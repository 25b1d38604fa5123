"""Invariant audits over cluster snapshots, metrics logs and benchmark points.

``dharma audit`` is the offline counterpart of the live metrics stream: given
a cluster snapshot (written by :mod:`repro.simulation.snapshot`), a
JSON-lines metrics log (written by :class:`repro.metrics.MetricsStream`)
and/or the root ``BENCH_*.json`` records, it checks the invariants the system
promises and reports every violation.

Snapshot checks
---------------

* **replica-count decay** -- every block key should be held by
  ``min(replicate, live nodes)`` replicas.  Fewer holders is a *warning*
  (under-replication between two republish passes is exactly what
  maintenance repairs); zero holders is an *error* (the block is gone).
* **counter-merge regression** -- when the snapshot carries a survival
  benchmark context, the entry-wise maximum over every replica of a counter
  block must be at or above the recorded pre-churn floor for each entry.
  Any entry below its floor means a republish snapshot erased a concurrent
  APPEND, which the merge-on-store rule forbids.
* **orphaned holders** -- the holder set of a key should stay within the
  key's ``k`` closest live nodes (holders outside it hand the block off on
  their next republish pass).  A holder beyond that ring is a *warning*:
  legitimate transiently, a leak if it persists across snapshots.

Metrics-log checks
------------------

* samples must be contiguously sequenced (``seq``) with non-decreasing
  virtual time;
* every counter is cumulative and must never decrease;
* each sample's recorded ``deltas`` must equal the counter difference
  against the previous sample;
* gauges with a known range (availability, eclipse progress, cache hit
  rate) must stay in ``[0, 1]``.

Benchmark-point checks
----------------------

Every gate on a root ``BENCH_<kind>.json`` record is stated here, once, as a
check over the written point (:data:`POINT_AUDITS`).  The bench script that
writes a record ends by auditing its own file and ``dharma audit --<kind>``
re-checks the same file offline, so the two cannot disagree.  A gate applies
when the record carries the fields it reads: a one-arm ``churn-bench --json``
file, or a record from before a field existed, is checked for what it states.

* ``core`` -- on a full-mode point (the only kind that states a
  ``speedup_target``) the frozen core is at least that many times faster than
  the dict/set engine.
* ``churn`` -- both arms faced the identical fault trace; with maintenance on
  the run crashed nodes, exercised concurrent APPENDs, kept every counter at
  or above its pre-churn floor and availability at or above the recorded
  floor; with it off, the same trace lost measurably more.
* ``scale`` -- the ladder climbs, carries every promised node size and a
  positive wall-clock and peak-RSS figure per rung, and each rung passes the
  maintenance-on gates of ``churn`` (it is that run at another size).
* ``attack`` -- both arms faced the byte-identical campaign (every
  ``attack_*_sent`` counter matches), which joined Sybils and forged writes;
  the enforced arm rejected some, shows zero integrity violations and
  availability at or above the recorded floor; the unprotected arm accepted
  forgeries and shows corruption; honest overhead is within the budget.
* ``wire`` -- sanity-checked rather than perf-gated: every operation carries
  a full, ordered percentile summary with the declared sample count, the
  wall-clock side covers the promised direct-RPC and iterative operations,
  and no direct RPC took a whole timeout.  The one behavioural gate is the
  dead-peer arm (``wall_clock_degraded``; a record from before it existed
  draws a warning): the first strike costs at least the RPC timeout, and
  after it each iterative operation's p99 stays within the record's stated
  multiple of the healthy p99 -- a dead peer costs its timeout once, not
  once per lookup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.survival import forged_write_totals
from repro.dht.likir import SignedValue
from repro.dht.node_id import NodeID

__all__ = [
    "AuditFinding",
    "AuditReport",
    "POINT_AUDITS",
    "audit_snapshot",
    "audit_metrics",
    "audit_core",
    "audit_churn",
    "audit_attack",
    "audit_scale",
    "audit_wire",
    "run_audit",
]

#: Gauges whose value must stay within ``[0, 1]``.
_UNIT_GAUGES = (
    "cache.hit_rate", "survival.availability", "attack.availability", "attack.eclipse_progress",
)

#: Operations ``bench_wire_latency.py`` promises on the wall-clock side.
_WIRE_RPC_OPS = ("rpc_ping", "rpc_find_node", "rpc_find_value", "rpc_store")
_WIRE_ITERATIVE_OPS = ("store", "append", "retrieve")


@dataclass(frozen=True, slots=True)
class AuditFinding:
    """One invariant violation (or suspicious observation)."""

    severity: str  # "error" | "warning": written by AuditReport.error() / .warning()
    code: str
    message: str


@dataclass(slots=True)
class AuditReport:
    """All findings of one audit run; every ``audit_*`` check writes into one."""

    findings: list[AuditFinding] = field(default_factory=list)
    #: What was actually inspected (for the report header).
    checked: dict[str, int] = field(default_factory=dict)

    def error(self, code: str, message: str) -> None:
        self.findings.append(AuditFinding("error", code, message))

    def warning(self, code: str, message: str) -> None:
        self.findings.append(AuditFinding("warning", code, message))

    def count(self, label: str, readings: int = 1) -> None:
        """Add *readings* to what was inspected under *label*."""
        self.checked[label] = self.checked.get(label, 0) + readings

    @property
    def errors(self) -> list[AuditFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[AuditFinding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_json(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "checked": dict(self.checked),
            "errors": [
                {"code": f.code, "message": f.message} for f in self.errors
            ],
            "warnings": [
                {"code": f.code, "message": f.message} for f in self.warnings
            ],
        }

    def render(self) -> str:
        lines = [
            "audit: "
            + ", ".join(f"{count} {name}" for name, count in self.checked.items())
        ]
        for finding in self.findings:
            lines.append(f"  [{finding.severity}] {finding.code}: {finding.message}")
        lines.append(
            f"result: {'OK' if self.ok else 'FAILED'} "
            f"({len(self.errors)} errors, {len(self.warnings)} warnings)"
        )
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# snapshot audit
# --------------------------------------------------------------------------- #


def _payload_of(value: Any) -> dict | None:
    """The counter payload inside a stored value, unwrapping signatures."""
    if isinstance(value, SignedValue):
        value = value.value
    if isinstance(value, dict) and isinstance(value.get("entries"), dict):
        return value
    return None


def _decode_stored(record: dict) -> Any:
    # Local import: repro.analysis must stay importable without pulling the
    # whole simulation stack in (the decode helper lives beside the writer).
    from repro.simulation.snapshot import _decode_value

    return _decode_value(record)


def audit_snapshot(snapshot: dict[str, Any], report: AuditReport) -> None:
    """Check the replication and counter invariants of one snapshot."""
    # Local import, as in _decode_stored: the bucket size every cluster node
    # ran with.
    from repro.simulation.cluster import NODE_K as bucket_k

    replicate = int(snapshot["config"]["replicate"])
    nodes = snapshot["nodes"]

    node_ids: dict[str, NodeID] = {}
    holders: dict[str, list[str]] = {}
    payloads: dict[str, dict[str, dict]] = {}  # key_hex -> address -> counter payload
    for record in nodes:
        address = record["address"]
        node_ids[address] = NodeID.from_hex(record["node_id"])
        for item in record["storage"]:
            key_hex = item["key"]
            holders.setdefault(key_hex, []).append(address)
            payload = _payload_of(_decode_stored(item["value"]))
            if payload is not None:
                payloads.setdefault(key_hex, {})[address] = payload

    live = len(node_ids)
    expected_replicas = min(replicate, live) if live else 0
    decayed = 0
    orphaned = 0
    for key_hex, addresses in holders.items():
        if len(addresses) < expected_replicas:
            decayed += 1
            report.warning(
                "replica-decay",
                f"key {key_hex[:12]}… has {len(addresses)}/{expected_replicas} "
                "replicas (repairable by the next republish pass)",
            )
        key = NodeID.from_hex(key_hex)
        ring = sorted(node_ids.values(), key=lambda nid: nid.distance_to(key))[:bucket_k]
        closest = set(ring)
        for address in addresses:
            if node_ids[address] not in closest:
                orphaned += 1
                report.warning(
                    "orphaned-holder",
                    f"{address} holds key {key_hex[:12]}… but is outside its "
                    f"{bucket_k} closest live nodes (hand-off pending)",
                )

    benchmark = snapshot.get("benchmark")
    floors_checked = 0
    if benchmark is not None:
        for item in benchmark["expected"]:
            if item["payload"] is None:
                continue
            floor_payload = _payload_of(_decode_stored(item["payload"]))
            if floor_payload is None:
                continue
            key_hex = item["key"]
            replicas = payloads.get(key_hex, {})
            merged: dict[str, int] = {}
            for payload in replicas.values():
                for entry, count in payload["entries"].items():
                    if count > merged.get(entry, 0):
                        merged[entry] = count
            if not replicas:
                report.error(
                    "counter-lost", f"counter block {key_hex[:12]}… has no surviving replica"
                )
                continue
            for entry, floor in floor_payload["entries"].items():
                floors_checked += 1
                if merged.get(entry, 0) < floor:
                    report.error(
                        "counter-regression",
                        f"entry {entry!r} of block {key_hex[:12]}… reads "
                        f"{merged.get(entry, 0)} < floor {floor} "
                        "(a republish erased a concurrent APPEND)",
                    )

    report.checked.update({
        "nodes": live,
        "block keys": len(holders),
        "counter floors": floors_checked,
        "decayed keys": decayed,
        "orphaned holders": orphaned,
    })


# --------------------------------------------------------------------------- #
# metrics-log audit
# --------------------------------------------------------------------------- #


def audit_metrics(samples: list[dict[str, Any]], report: AuditReport) -> None:
    """Check sequencing, monotonicity and delta consistency of a metrics log."""
    prev: dict[str, float] = {}
    prev_seq: int | None = None
    prev_t = float("-inf")
    counters_checked = 0
    for index, sample in enumerate(samples):
        seq = sample.get("seq")
        if prev_seq is not None and seq != prev_seq + 1:
            report.error(
                "broken-sequence",
                f"sample {index} has seq {seq}, expected {prev_seq + 1} "
                "(lost or reordered samples)",
            )
        prev_seq = seq if isinstance(seq, int) else prev_seq
        t_ms = float(sample.get("t_ms", 0.0))
        if t_ms < prev_t:
            report.error(
                "time-regression",
                f"sample {index} at t={t_ms} precedes the previous sample (t={prev_t})",
            )
        prev_t = t_ms
        counters = sample.get("counters", {})
        deltas = sample.get("deltas", {})
        for name, value in counters.items():
            counters_checked += 1
            before = prev.get(name, 0.0)
            if value < before:
                report.error(
                    "counter-rollback",
                    f"counter {name} fell from {before} to {value} at sample {index}",
                )
            recorded = deltas.get(name)
            if recorded is not None and abs(recorded - (value - before)) > 1e-9:
                report.warning(
                    "delta-mismatch",
                    f"sample {index} records delta {recorded} for {name}, "
                    f"but the counters imply {value - before}",
                )
        prev = {name: float(value) for name, value in counters.items()}
        for name in _UNIT_GAUGES:
            value = sample.get("gauges", {}).get(name)
            if value is not None and not (0.0 <= value <= 1.0):
                report.error(
                    "gauge-out-of-range",
                    f"gauge {name} is {value} at sample {index}, outside [0, 1]",
                )
    report.checked.update({"samples": len(samples), "counter readings": counters_checked})


# --------------------------------------------------------------------------- #
# benchmark-point audits
# --------------------------------------------------------------------------- #


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_positive(
    report: AuditReport, kind: str, where: str, record: dict, gates: dict[str, tuple[str, str]]
) -> None:
    """Gate ``record[name] > 0`` for each ``name: (code, message)`` whose field
    the record carries."""
    for name, (code, message) in gates.items():
        if name in record:
            report.count(f"{kind} readings")
            if not (_is_number(record[name]) and record[name] > 0):
                report.error(f"{kind}-{code}", f"{where}: {message} ({name}={record[name]!r})")


def _check_availability(
    report: AuditReport, kind: str, where: str, run: dict, floor: float | None = None
) -> None:
    """``final_availability``, when recorded, is a ratio at or above *floor*."""
    availability = run.get("final_availability")
    if availability is None:
        return
    report.count(f"{kind} readings")
    if not _is_number(availability) or not (0.0 <= availability <= 1.0):
        report.error(
            f"{kind}-availability-range",
            f"{where} records availability {availability!r}, outside [0, 1]",
        )
    elif floor is not None and availability < floor:
        report.error(
            f"{kind}-availability",
            f"{where} records availability {availability:.4f}, below the "
            f"{floor:.2f} floor ({run.get('lost_blocks')} blocks lost)",
        )


def _check_protected_run(
    report: AuditReport, kind: str, where: str, run: dict, floor: float | None
) -> None:
    """What a protected run must show -- the maintenance-on arm of
    ``BENCH_churn.json``, a rung of ``BENCH_scale.json``, the verification-on
    arm of ``BENCH_attack.json``: zero integrity violations and availability
    at or above the record's floor."""
    if "integrity_violations" in run:
        report.count(f"{kind} readings")
        if run["integrity_violations"] != 0:
            report.error(
                f"{kind}-integrity",
                f"{where} records {run['integrity_violations']!r} integrity violations; "
                "the protection is not load-bearing",
            )
    _check_availability(report, kind, where, run, floor)


#: A churn run that tested something: the trace crashed nodes while APPENDs ran.
_LIVE_CHURN = {
    "crashes": ("no-faults", "the churn trace injected no crashes"),
    "churn_appends": ("no-appends", "no concurrent APPENDs were exercised"),
}


def audit_core(point: dict[str, Any], report: AuditReport) -> None:
    """Gate one ``BENCH_core.json`` point (module docstring, ``core``)."""
    report.count("core readings")
    speedup, target = point.get("speedup"), point.get("speedup_target")
    # A smoke point states no target: its dataset is too small for the array
    # layout to pay off, so only the measured ratio is recorded.
    if target is not None and not (_is_number(speedup) and speedup >= target):
        report.error(
            "core-speedup", f"frozen core speedup {speedup!r}x is below the {target}x gate"
        )


def audit_churn(point: dict[str, Any], report: AuditReport) -> None:
    """Gate one ``BENCH_churn.json`` point (module docstring, ``churn``); a
    one-arm ``churn-bench --json`` file is checked for the arm it has."""
    on, off = point.get("maintenance_on"), point.get("maintenance_off")
    arms = [arm for arm in (on, off) if isinstance(arm, dict)]
    report.count("churn arms", len(arms))
    if not arms:
        report.error("churn-missing-arm", "record has no maintenance_on / maintenance_off section")
    if isinstance(on, dict):
        floor = point.get("availability_floor")
        _check_positive(report, "churn", "maintenance_on", on, _LIVE_CHURN)
        _check_protected_run(report, "churn", "maintenance_on", on, floor)
    if len(arms) == 2:
        report.count("churn readings", 2)
        fault_counts = ("joins", "graceful_leaves", "crashes")
        trace = [[arm.get(name) for name in fault_counts] for arm in arms]
        if trace[0] != trace[1]:
            report.error(
                "churn-trace-divergence",
                f"(joins, graceful_leaves, crashes) differ across arms ({trace[0]} vs "
                f"{trace[1]}): the A/B did not face the identical fault trace",
            )
        if not (
            off.get("lost_blocks", 0) > on.get("lost_blocks", 0)
            and off.get("final_availability", 0.0) < on.get("final_availability", 0.0)
        ):
            report.error(
                "churn-no-loss",
                "maintenance-off arm shows no measurable loss under the same fault "
                "trace; the benchmark cannot demonstrate what maintenance buys",
            )


def audit_scale(point: dict[str, Any], report: AuditReport) -> None:
    """Gate one ``BENCH_scale.json`` trajectory (module docstring, ``scale``)."""
    ladder = point.get("ladder")
    if not isinstance(ladder, list) or not ladder:
        report.error("scale-empty", "no ladder points in the record")
        ladder = []
    report.count("ladder points", len(ladder))

    previous_nodes: int | None = None
    seen_nodes: set[int] = set()
    for index, entry in enumerate(ladder):
        if not isinstance(entry, dict):
            report.error("scale-bad-record", f"ladder point {index} is not a dict")
            continue
        nodes = entry.get("nodes")
        if not isinstance(nodes, int) or nodes < 1:
            report.error(
                "scale-bad-record", f"ladder point {index} has no positive node count ({nodes!r})"
            )
            continue
        rung = f"ladder point {index} ({nodes} nodes)"
        seen_nodes.add(nodes)
        if previous_nodes is not None and nodes <= previous_nodes:
            report.error(
                "scale-not-monotone",
                f"ladder point {index} has {nodes} nodes, not above the "
                f"previous point's {previous_nodes}",
            )
        previous_nodes = nodes
        for name in ("wall_s", "peak_rss_bytes"):
            value = entry.get(name)
            report.count("scale readings")
            if not _is_number(value) or value <= 0:
                report.error(
                    "scale-bad-measurement",
                    f"{rung} has {name}={value!r}, expected a positive number",
                )
        _check_positive(report, "scale", rung, entry, _LIVE_CHURN)
        _check_protected_run(report, "scale", rung, entry, point.get("availability_floor"))

    promised = point.get("promised_nodes")
    for nodes in promised if isinstance(promised, list) else ():
        if nodes not in seen_nodes:
            report.error(
                "scale-missing-point", f"promised ladder point at {nodes} nodes is missing"
            )


def audit_attack(point: dict[str, Any], report: AuditReport) -> None:
    """Gate one ``BENCH_attack.json`` point (module docstring, ``attack``)."""
    on, off = point.get("verification_on"), point.get("verification_off")
    arms = [arm for arm in (on, off) if isinstance(arm, dict)]
    report.count("attack arms", len(arms))
    if len(arms) < 2:
        report.error("attack-missing-arm", "record needs verification_on and verification_off arms")
        return

    if not forged_write_totals(on)["sent"]:
        report.error(
            "attack-no-campaign",
            "no forged write recorded under attack_*_sent: the adversary never fired",
        )
    for key in sorted({**on, **off}):
        if key.startswith("attack_") and key.endswith("_sent"):
            report.count("attack readings")
            if on.get(key) != off.get(key):
                report.error(
                    "attack-trace-divergence",
                    f"{key} differs across arms ({on.get(key)} vs {off.get(key)}): "
                    "the A/B did not face the identical campaign",
                )
    _check_positive(
        report, "attack", "verification_on", on,
        {
            "attack_sybil_joins": ("no-sybils", "the campaign joined no sybils"),
            "honest_appends": ("no-appends", "no honest APPENDs were exercised"),
            "likir_rejected": ("nothing-rejected", "enforcement rejected nothing"),
        },
    )
    _check_protected_run(
        report, "attack", "verification_on", on, float(point.get("availability_floor", 0.99))
    )
    _check_availability(report, "attack", "verification_off", off)

    report.count("attack readings", 2)
    if not forged_write_totals(off)["accepted"]:
        report.error(
            "attack-no-forgery-accepted",
            "verification-off arm accepted no forgery; the benchmark cannot "
            "demonstrate what enforcement buys",
        )
    if not off.get("integrity_violations"):
        report.error(
            "attack-no-damage",
            "verification-off arm shows no corruption under the same "
            "campaign; the benchmark proves nothing about enforcement",
        )

    overhead = point.get("honest_overhead")
    budget = float(point.get("overhead_budget", 1.15))
    if not isinstance(overhead, dict):
        report.warning("attack-missing-overhead", "no honest_overhead section in the record")
        return
    for metric in ("messages_ratio", "virtual_time_ratio"):
        value = overhead.get(metric)
        if not _is_number(value):
            report.warning("attack-missing-overhead", f"honest_overhead has no {metric} reading")
            continue
        report.count("attack readings")
        if value > budget:
            report.error(
                "attack-overhead",
                f"honest-workload {metric} {value:.3f} exceeds the {budget:.2f} budget",
            )


def _check_wire_summary(
    report: AuditReport, op: str, stats: Any, expected_samples: int | None
) -> bool:
    """Validate one operation's percentile record; ``False`` if it is unusable."""
    report.count("wire operations")
    if not isinstance(stats, dict):
        report.error("wire-bad-record", f"operation {op!r} is not a summary dict")
        return False
    fields = ("min_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms")
    values = []
    for name in fields:
        value = stats.get(name)
        if not _is_number(value):
            report.error("wire-bad-record", f"operation {op!r} is missing {name}")
            return False
        values.append(float(value))
    report.count("wire readings", len(fields))
    if values[0] < 0:
        report.error("wire-negative-latency", f"operation {op!r} records min {values[0]} ms < 0")
    if values != sorted(values):
        report.error(
            "wire-unordered-percentiles",
            f"operation {op!r} violates min <= p50 <= p90 <= p99 <= max: {values}",
        )
    samples = stats.get("samples")
    if expected_samples is not None and samples != expected_samples:
        report.error(
            "wire-sample-count",
            f"operation {op!r} has {samples} samples, expected {expected_samples}",
        )
    return True


def audit_wire(point: dict[str, Any], report: AuditReport) -> None:
    """Sanity-check one ``BENCH_wire.json`` point (module docstring, ``wire``)."""
    wall_clock = point.get("wall_clock")
    if not isinstance(wall_clock, dict) or not wall_clock:
        report.error("wire-missing-side", "no wall_clock section in the record")
        wall_clock = {}
    virtual = point.get("virtual_time")
    if not isinstance(virtual, dict):
        virtual = {}
    rpc_samples = point.get("rpc_samples")
    op_samples = point.get("op_samples")
    transport = point.get("transport")
    timeout_ms = transport.get("timeout_ms") if isinstance(transport, dict) else None
    for op in _WIRE_RPC_OPS + _WIRE_ITERATIVE_OPS:
        if op not in wall_clock:
            report.error("wire-missing-op", f"wall_clock has no record for operation {op!r}")
    for op, stats in wall_clock.items():
        is_rpc = op.startswith("rpc_")
        complete = _check_wire_summary(report, op, stats, rpc_samples if is_rpc else op_samples)
        if complete and is_rpc and _is_number(timeout_ms) and stats["p50_ms"] >= timeout_ms:
            report.error(
                "wire-slow-rpc",
                f"operation {op!r} p50 is {stats['p50_ms']:.1f} ms, a whole "
                f"{timeout_ms:.0f} ms RPC timeout: the loopback overlay is not answering",
            )
    for op, stats in virtual.items():
        _check_wire_summary(report, f"virtual:{op}", stats, op_samples)
    degraded = point.get("wall_clock_degraded")
    if not isinstance(degraded, dict):
        report.warning(
            "wire-no-degraded-arm",
            "no wall_clock_degraded section (record predates the dead-peer arm)",
        )
        return

    # The dead-peer arm: each p99 within the record's own ``p99_factor`` of the
    # healthy p99, which counts as at least ``p99_floor_ms``.
    limits = point.get("degraded")
    factor = limits.get("p99_factor") if isinstance(limits, dict) else None
    floor = limits.get("p99_floor_ms") if isinstance(limits, dict) else None
    if not _is_number(factor) or not _is_number(floor):
        report.error(
            "wire-bad-record", "degraded section does not state its p99_factor / p99_floor_ms"
        )
        return
    strike = limits.get("first_strike_ms")
    if _is_number(strike) and _is_number(timeout_ms):
        report.count("wire readings")
        if strike < timeout_ms:
            report.error(
                "wire-cheap-strike",
                f"the first strike on the dead peer cost {strike:.0f} ms, under the "
                f"{timeout_ms:.0f} ms RPC timeout: the peer was not dead",
            )
    for op in _WIRE_ITERATIVE_OPS:
        stats = degraded.get(op)
        if stats is None:
            report.error(
                "wire-missing-op", f"wall_clock_degraded has no record for operation {op!r}"
            )
            continue
        complete = _check_wire_summary(report, f"degraded:{op}", stats, op_samples)
        healthy_p99 = (wall_clock.get(op) or {}).get("p99_ms")
        if not complete or not _is_number(healthy_p99):
            continue
        limit = factor * max(float(healthy_p99), float(floor))
        if stats["p99_ms"] > limit:
            report.error(
                "wire-degraded-stall",
                f"operation {op!r} p99 is {stats['p99_ms']:.1f} ms with one peer dead, "
                f"over {factor:g}x the healthy {healthy_p99:.1f} ms (limit {limit:.1f} ms)",
            )


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #

#: The five root benchmark records: ``BENCH_<kind>.json`` -> the check that
#: states its gates.
POINT_AUDITS = {
    "core": audit_core,
    "churn": audit_churn,
    "attack": audit_attack,
    "scale": audit_scale,
    "wire": audit_wire,
}


def run_audit(
    snapshot: str | Path | None = None,
    metrics: str | Path | None = None,
    **points: str | Path | None,
) -> AuditReport:
    """Audit the files given: a cluster snapshot, a metrics log and/or one
    ``BENCH_<kind>.json`` path per :data:`POINT_AUDITS` kind (``core=...``)."""
    report = AuditReport()
    if snapshot is not None:
        from repro.simulation.snapshot import load_snapshot

        audit_snapshot(load_snapshot(snapshot), report)
    if metrics is not None:
        from repro.metrics import read_metrics_log

        audit_metrics(read_metrics_log(metrics), report)
    for kind, path in points.items():
        if path is not None:
            POINT_AUDITS[kind](json.loads(Path(path).read_text(encoding="utf-8")), report)
    return report
