"""Invariant audits over cluster snapshots and metrics logs.

``dharma audit`` is the offline counterpart of the live metrics stream: given
a cluster snapshot (written by :mod:`repro.simulation.snapshot`) and/or a
JSON-lines metrics log (written by :class:`repro.metrics.MetricsStream`), it
checks the invariants the system promises and reports every violation.

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
* gauges with a known range (availability, cache hit rate) must stay in
  ``[0, 1]``.

Wire-benchmark checks
---------------------

``BENCH_wire.json`` (written by ``benchmarks/bench_wire_latency.py``) is
sanity-checked rather than perf-gated: every recorded operation must carry a
full, internally consistent percentile summary (sample counts match the
declared counts, ``min <= p50 <= p90 <= p99 <= max``, nothing negative), and
the wall-clock side must cover the direct-RPC and iterative operation sets
the benchmark promises.  The one behavioural gate is the dead-peer arm
(``wall_clock_degraded``): with one of the peers killed, each iterative
operation's p99 must stay within the record's stated multiple of the healthy
p99 -- a dead peer costs its timeout once, not once per lookup.  Records
written before that arm existed only draw a warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.codec import decode_membership
from repro.dht.likir import SignedValue
from repro.dht.node_id import NodeID

__all__ = [
    "AuditFinding",
    "AuditReport",
    "audit_snapshot",
    "audit_metrics",
    "audit_wire",
    "audit_scale",
    "audit_attack",
    "run_audit",
]

#: Gauges whose value must stay within ``[0, 1]``.
_UNIT_GAUGES = ("cache.hit_rate", "survival.availability")

#: Operations ``bench_wire_latency.py`` promises on the wall-clock side.
_WIRE_RPC_OPS = ("rpc_ping", "rpc_find_node", "rpc_find_value", "rpc_store")
_WIRE_ITERATIVE_OPS = ("store", "append", "retrieve")


@dataclass(frozen=True, slots=True)
class AuditFinding:
    """One invariant violation (or suspicious observation)."""

    severity: str  # "error" | "warning"
    code: str
    message: str

    def __post_init__(self) -> None:
        if self.severity not in ("error", "warning"):
            raise ValueError(f"unknown severity {self.severity!r}")


@dataclass(slots=True)
class AuditReport:
    """All findings of one audit run."""

    findings: list[AuditFinding] = field(default_factory=list)
    #: What was actually inspected (for the report header).
    checked: dict[str, int] = field(default_factory=dict)

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


def audit_snapshot(snapshot: dict[str, Any]) -> tuple[list[AuditFinding], dict[str, int]]:
    """Check the replication and counter invariants of one snapshot."""
    findings: list[AuditFinding] = []
    replicate = int(snapshot["config"]["replicate"])
    node_k = int(snapshot["config"]["node_k"])

    node_ids: dict[str, NodeID] = {}
    holders: dict[str, list[str]] = {}
    payloads: dict[str, dict[str, dict]] = {}  # key_hex -> address -> counter payload
    for record in snapshot["nodes"]:
        _user, node_id_bytes, address, _joined = decode_membership(
            bytes.fromhex(record["membership"])
        )
        node_ids[address] = NodeID.from_bytes(node_id_bytes)
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
            findings.append(
                AuditFinding(
                    "warning",
                    "replica-decay",
                    f"key {key_hex[:12]}… has {len(addresses)}/{expected_replicas} "
                    "replicas (repairable by the next republish pass)",
                )
            )
        key = NodeID.from_hex(key_hex)
        ring = sorted(node_ids.values(), key=lambda nid: nid.distance_to(key))[:node_k]
        closest = set(ring)
        for address in addresses:
            if node_ids[address] not in closest:
                orphaned += 1
                findings.append(
                    AuditFinding(
                        "warning",
                        "orphaned-holder",
                        f"{address} holds key {key_hex[:12]}… but is outside its "
                        f"{node_k} closest live nodes (hand-off pending)",
                    )
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
                findings.append(
                    AuditFinding(
                        "error",
                        "counter-lost",
                        f"counter block {key_hex[:12]}… has no surviving replica",
                    )
                )
                continue
            for entry, floor in floor_payload["entries"].items():
                floors_checked += 1
                if merged.get(entry, 0) < floor:
                    findings.append(
                        AuditFinding(
                            "error",
                            "counter-regression",
                            f"entry {entry!r} of block {key_hex[:12]}… reads "
                            f"{merged.get(entry, 0)} < floor {floor} "
                            "(a republish erased a concurrent APPEND)",
                        )
                    )

    checked = {
        "nodes": live,
        "block keys": len(holders),
        "counter floors": floors_checked,
        "decayed keys": decayed,
        "orphaned holders": orphaned,
    }
    return findings, checked


# --------------------------------------------------------------------------- #
# metrics-log audit
# --------------------------------------------------------------------------- #


def audit_metrics(samples: list[dict[str, Any]]) -> tuple[list[AuditFinding], dict[str, int]]:
    """Check sequencing, monotonicity and delta consistency of a metrics log."""
    findings: list[AuditFinding] = []
    prev: dict[str, float] = {}
    prev_seq: int | None = None
    prev_t = float("-inf")
    counters_checked = 0
    for index, sample in enumerate(samples):
        seq = sample.get("seq")
        if prev_seq is not None and seq != prev_seq + 1:
            findings.append(
                AuditFinding(
                    "error",
                    "broken-sequence",
                    f"sample {index} has seq {seq}, expected {prev_seq + 1} "
                    "(lost or reordered samples)",
                )
            )
        prev_seq = seq if isinstance(seq, int) else prev_seq
        t_ms = float(sample.get("t_ms", 0.0))
        if t_ms < prev_t:
            findings.append(
                AuditFinding(
                    "error",
                    "time-regression",
                    f"sample {index} at t={t_ms} precedes the previous sample (t={prev_t})",
                )
            )
        prev_t = t_ms
        counters = sample.get("counters", {})
        deltas = sample.get("deltas", {})
        for name, value in counters.items():
            counters_checked += 1
            before = prev.get(name, 0.0)
            if value < before:
                findings.append(
                    AuditFinding(
                        "error",
                        "counter-rollback",
                        f"counter {name} fell from {before} to {value} at sample {index}",
                    )
                )
            recorded = deltas.get(name)
            if recorded is not None and abs(recorded - (value - before)) > 1e-9:
                findings.append(
                    AuditFinding(
                        "warning",
                        "delta-mismatch",
                        f"sample {index} records delta {recorded} for {name}, "
                        f"but the counters imply {value - before}",
                    )
                )
        prev = {name: float(value) for name, value in counters.items()}
        for name in _UNIT_GAUGES:
            value = sample.get("gauges", {}).get(name)
            if value is not None and not (0.0 <= value <= 1.0):
                findings.append(
                    AuditFinding(
                        "error",
                        "gauge-out-of-range",
                        f"gauge {name} is {value} at sample {index}, outside [0, 1]",
                    )
                )
    checked = {"samples": len(samples), "counter readings": counters_checked}
    return findings, checked


# --------------------------------------------------------------------------- #
# wire-benchmark audit
# --------------------------------------------------------------------------- #


def _check_wire_summary(
    op: str, stats: Any, expected_samples: int | None, findings: list[AuditFinding]
) -> int:
    """Validate one operation's percentile record; returns readings checked."""
    if not isinstance(stats, dict):
        findings.append(
            AuditFinding("error", "wire-bad-record", f"operation {op!r} is not a summary dict")
        )
        return 0
    fields = ("min_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms")
    values = []
    for name in fields:
        value = stats.get(name)
        if not isinstance(value, (int, float)):
            findings.append(
                AuditFinding(
                    "error", "wire-bad-record", f"operation {op!r} is missing {name}"
                )
            )
            return 0
        values.append(float(value))
    if values[0] < 0:
        findings.append(
            AuditFinding(
                "error", "wire-negative-latency",
                f"operation {op!r} records min {values[0]} ms < 0",
            )
        )
    if values != sorted(values):
        findings.append(
            AuditFinding(
                "error", "wire-unordered-percentiles",
                f"operation {op!r} violates min <= p50 <= p90 <= p99 <= max: {values}",
            )
        )
    samples = stats.get("samples")
    if expected_samples is not None and samples != expected_samples:
        findings.append(
            AuditFinding(
                "warning", "wire-sample-count",
                f"operation {op!r} has {samples} samples, expected {expected_samples}",
            )
        )
    return len(fields)


def audit_wire(point: dict[str, Any]) -> tuple[list[AuditFinding], dict[str, int]]:
    """Sanity-check one ``BENCH_wire.json`` trajectory point."""
    findings: list[AuditFinding] = []
    readings = 0
    wall_clock = point.get("wall_clock")
    if not isinstance(wall_clock, dict) or not wall_clock:
        findings.append(
            AuditFinding("error", "wire-missing-side", "no wall_clock section in the record")
        )
        wall_clock = {}
    virtual = point.get("virtual_time")
    if not isinstance(virtual, dict):
        virtual = {}
    rpc_samples = point.get("rpc_samples")
    op_samples = point.get("op_samples")
    for op in _WIRE_RPC_OPS + _WIRE_ITERATIVE_OPS:
        if op not in wall_clock:
            findings.append(
                AuditFinding(
                    "error", "wire-missing-op",
                    f"wall_clock has no record for operation {op!r}",
                )
            )
    for op, stats in wall_clock.items():
        expected = rpc_samples if op.startswith("rpc_") else op_samples
        readings += _check_wire_summary(op, stats, expected, findings)
    for op, stats in virtual.items():
        readings += _check_wire_summary(f"virtual:{op}", stats, op_samples, findings)
    degraded = point.get("wall_clock_degraded")
    if not isinstance(degraded, dict):
        findings.append(
            AuditFinding(
                "warning", "wire-no-degraded-arm",
                "no wall_clock_degraded section (record predates the dead-peer arm)",
            )
        )
        degraded = {}
    else:
        readings += _check_wire_degraded(point, wall_clock, degraded, op_samples, findings)
    checked = {
        "wire operations": len(wall_clock) + len(virtual) + len(degraded),
        "wire readings": readings,
    }
    return findings, checked


def _check_wire_degraded(
    point: dict[str, Any],
    healthy: dict[str, Any],
    degraded: dict[str, Any],
    op_samples: int | None,
    findings: list[AuditFinding],
) -> int:
    """The dead-peer arm: every iterative operation recorded, and its p99
    within the record's own ``p99_factor`` of the healthy p99 (floored at
    ``p99_floor_ms``) -- a dead peer costs its timeout once, not per lookup."""
    limits = point.get("degraded")
    factor = limits.get("p99_factor") if isinstance(limits, dict) else None
    floor = limits.get("p99_floor_ms") if isinstance(limits, dict) else None
    if not isinstance(factor, (int, float)) or not isinstance(floor, (int, float)):
        findings.append(
            AuditFinding(
                "error", "wire-bad-record",
                "degraded section does not state its p99_factor / p99_floor_ms",
            )
        )
        return 0
    readings = 0
    for op in _WIRE_ITERATIVE_OPS:
        stats = degraded.get(op)
        if stats is None:
            findings.append(
                AuditFinding(
                    "error", "wire-missing-op",
                    f"wall_clock_degraded has no record for operation {op!r}",
                )
            )
            continue
        checked = _check_wire_summary(f"degraded:{op}", stats, op_samples, findings)
        readings += checked
        healthy_p99 = (healthy.get(op) or {}).get("p99_ms")
        if not checked or not isinstance(healthy_p99, (int, float)):
            continue
        limit = factor * max(float(healthy_p99), float(floor))
        if stats["p99_ms"] > limit:
            findings.append(
                AuditFinding(
                    "error", "wire-degraded-stall",
                    f"operation {op!r} p99 is {stats['p99_ms']:.1f} ms with one peer dead, "
                    f"over {factor:g}x the healthy {healthy_p99:.1f} ms (limit {limit:.1f} ms)",
                )
            )
    return readings


# --------------------------------------------------------------------------- #
# scale-ladder audit
# --------------------------------------------------------------------------- #


def audit_scale(point: dict[str, Any]) -> tuple[list[AuditFinding], dict[str, int]]:
    """Sanity-check one ``BENCH_scale.json`` trajectory point.

    The ladder must climb (strictly increasing node counts), every point must
    carry positive wall-clock and peak-RSS figures, availability (when
    recorded) must stay in ``[0, 1]``, and every node size promised by the
    record's ``promised_nodes`` list must actually appear in the ladder.
    """
    findings: list[AuditFinding] = []
    ladder = point.get("ladder")
    if not isinstance(ladder, list) or not ladder:
        findings.append(
            AuditFinding("error", "scale-empty", "no ladder points in the record")
        )
        return findings, {"ladder points": 0}

    readings = 0
    previous_nodes: float | None = None
    seen_nodes: set[int] = set()
    for index, entry in enumerate(ladder):
        if not isinstance(entry, dict):
            findings.append(
                AuditFinding(
                    "error", "scale-bad-record", f"ladder point {index} is not a dict"
                )
            )
            continue
        nodes = entry.get("nodes")
        if not isinstance(nodes, int) or nodes < 1:
            findings.append(
                AuditFinding(
                    "error", "scale-bad-record",
                    f"ladder point {index} has no positive node count ({nodes!r})",
                )
            )
            continue
        seen_nodes.add(nodes)
        if previous_nodes is not None and nodes <= previous_nodes:
            findings.append(
                AuditFinding(
                    "error", "scale-not-monotone",
                    f"ladder point {index} has {nodes} nodes, not above the "
                    f"previous point's {int(previous_nodes)}",
                )
            )
        previous_nodes = float(nodes)
        for name in ("wall_s", "peak_rss_bytes"):
            value = entry.get(name)
            readings += 1
            if not isinstance(value, (int, float)) or value <= 0:
                findings.append(
                    AuditFinding(
                        "error", "scale-bad-measurement",
                        f"ladder point {index} ({nodes} nodes) has "
                        f"{name}={value!r}, expected a positive number",
                    )
                )
        availability = entry.get("final_availability")
        if availability is not None:
            readings += 1
            if not (0.0 <= availability <= 1.0):
                findings.append(
                    AuditFinding(
                        "error", "scale-availability-range",
                        f"ladder point {index} ({nodes} nodes) records "
                        f"availability {availability}, outside [0, 1]",
                    )
                )

    promised = point.get("promised_nodes")
    if isinstance(promised, list):
        for nodes in promised:
            if nodes not in seen_nodes:
                findings.append(
                    AuditFinding(
                        "error", "scale-missing-point",
                        f"promised ladder point at {nodes} nodes is missing",
                    )
                )
    checked = {"ladder points": len(ladder), "scale readings": readings}
    return findings, checked


# --------------------------------------------------------------------------- #
# attack-benchmark audit
# --------------------------------------------------------------------------- #


def audit_attack(point: dict[str, Any]) -> tuple[list[AuditFinding], dict[str, int]]:
    """Check one ``BENCH_attack.json`` trajectory point.

    The record carries the same seeded attack campaign run twice --
    ``verification_on`` and ``verification_off`` -- plus an honest-workload
    overhead measurement.  The audit re-checks the load-bearing claim: the
    two arms faced the byte-identical campaign (every ``attack_*_sent``
    counter matches), the enforced arm shows zero integrity violations and
    availability at or above the recorded floor, the unprotected arm shows
    measurable corruption, and verification's honest overhead stays within
    the recorded budget.
    """
    findings: list[AuditFinding] = []
    readings = 0
    on = point.get("verification_on")
    off = point.get("verification_off")
    if not isinstance(on, dict) or not isinstance(off, dict):
        findings.append(
            AuditFinding(
                "error",
                "attack-missing-arm",
                "record needs verification_on and verification_off sections",
            )
        )
        return findings, {"attack arms": 0}

    sent_keys = sorted(
        key for key in on if key.startswith("attack_") and key.endswith("_sent")
    )
    if not sent_keys:
        findings.append(
            AuditFinding(
                "error",
                "attack-no-campaign",
                "no attack_*_sent counters recorded: the adversary never fired",
            )
        )
    for key in sent_keys:
        readings += 1
        if on.get(key) != off.get(key):
            findings.append(
                AuditFinding(
                    "error",
                    "attack-trace-divergence",
                    f"{key} differs across arms ({on.get(key)} vs {off.get(key)}): "
                    "the A/B did not face the identical campaign",
                )
            )

    for arm_name, arm in (("verification_on", on), ("verification_off", off)):
        readings += 1
        availability = arm.get("final_availability")
        if not isinstance(availability, (int, float)) or not (0.0 <= availability <= 1.0):
            findings.append(
                AuditFinding(
                    "error",
                    "attack-availability-range",
                    f"{arm_name} records availability {availability!r}, outside [0, 1]",
                )
            )

    floor = float(point.get("availability_floor", 0.99))
    readings += 2
    violations_on = on.get("integrity_violations")
    if violations_on != 0:
        findings.append(
            AuditFinding(
                "error",
                "attack-integrity",
                f"verification-on arm records {violations_on!r} integrity "
                "violations; enforcement is not load-bearing",
            )
        )
    availability_on = on.get("final_availability")
    if isinstance(availability_on, (int, float)) and availability_on < floor:
        findings.append(
            AuditFinding(
                "error",
                "attack-availability",
                f"verification-on availability {availability_on:.4f} is below "
                f"the {floor:.2f} floor",
            )
        )

    readings += 1
    corrupted = bool(off.get("integrity_violations", 0)) or (
        isinstance(availability_on, (int, float))
        and isinstance(off.get("final_availability"), (int, float))
        and off["final_availability"] < availability_on
    )
    if not corrupted:
        findings.append(
            AuditFinding(
                "error",
                "attack-no-damage",
                "verification-off arm shows no corruption under the same "
                "campaign; the benchmark proves nothing about enforcement",
            )
        )

    overhead = point.get("honest_overhead")
    budget = float(point.get("overhead_budget", 1.15))
    if not isinstance(overhead, dict):
        findings.append(
            AuditFinding(
                "warning",
                "attack-missing-overhead",
                "no honest_overhead section in the record",
            )
        )
    else:
        for metric in ("messages_ratio", "virtual_time_ratio"):
            value = overhead.get(metric)
            if not isinstance(value, (int, float)):
                findings.append(
                    AuditFinding(
                        "warning",
                        "attack-missing-overhead",
                        f"honest_overhead has no {metric} reading",
                    )
                )
                continue
            readings += 1
            if value > budget:
                findings.append(
                    AuditFinding(
                        "error",
                        "attack-overhead",
                        f"honest-workload {metric} {value:.3f} exceeds the "
                        f"{budget:.2f} budget",
                    )
                )

    checked = {"attack arms": 2, "attack readings": readings}
    return findings, checked


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #


def run_audit(
    snapshot_path: str | Path | None = None,
    metrics_path: str | Path | None = None,
    wire_path: str | Path | None = None,
    scale_path: str | Path | None = None,
    attack_path: str | Path | None = None,
) -> AuditReport:
    """Audit a snapshot, a metrics log, a wire benchmark, a scale ladder
    and/or an attack benchmark; any may be omitted (but not all)."""
    report = AuditReport()
    if snapshot_path is not None:
        from repro.simulation.snapshot import load_snapshot

        snapshot = load_snapshot(snapshot_path)
        findings, checked = audit_snapshot(snapshot)
        report.findings.extend(findings)
        report.checked.update(checked)
    if metrics_path is not None:
        from repro.metrics import read_metrics_log

        findings, checked = audit_metrics(read_metrics_log(metrics_path))
        report.findings.extend(findings)
        report.checked.update(checked)
    if wire_path is not None:
        import json

        point = json.loads(Path(wire_path).read_text(encoding="utf-8"))
        findings, checked = audit_wire(point)
        report.findings.extend(findings)
        report.checked.update(checked)
    if scale_path is not None:
        import json

        point = json.loads(Path(scale_path).read_text(encoding="utf-8"))
        findings, checked = audit_scale(point)
        report.findings.extend(findings)
        report.checked.update(checked)
    if attack_path is not None:
        import json

        point = json.loads(Path(attack_path).read_text(encoding="utf-8"))
        findings, checked = audit_attack(point)
        report.findings.extend(findings)
        report.checked.update(checked)
    if (
        snapshot_path is None
        and metrics_path is None
        and wire_path is None
        and scale_path is None
        and attack_path is None
    ):
        raise ValueError(
            "nothing to audit: pass a snapshot, a metrics log, a wire benchmark, "
            "a scale ladder and/or an attack benchmark"
        )
    return report
