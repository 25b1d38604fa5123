"""Terminal dashboard over benchmark records and live metrics logs.

``dharma dashboard`` renders, in one screen, the current health of the
reproduction from the five root ``BENCH_<kind>.json`` records: ``core``
(frozen-core speedup against its gate), ``churn`` (availability timelines
for the maintenance-on and -off runs, loss and integrity counts, the on/off
deltas), ``attack`` (the verification-on/off A/B), ``scale`` (the node-count
ladder), ``wire`` (wall-clock RPC percentiles measured over the real UDP
transport, next to the virtual-time cost model for the same operations),
and -- when a metrics log from a live run is supplied -- per-interval
statistics derived from the JSON-lines stream of :mod:`repro.metrics`:
message/byte cost percentiles, cache hit rate, live-node and availability
trajectories, maintenance progress.

Each renderer reads the point as its writer wrote it (the bench script or
``dharma {churn,attack}-bench --json``; both go through the builders in
:mod:`repro.analysis.survival`) -- there is no intermediate shape to keep in
step.  Rendering never touches the simulator, so the dashboard can be
pointed at artifacts from CI or at the (still growing) log of a run in
progress.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from repro.analysis.report import format_mapping
from repro.analysis.survival import forged_write_totals, render_seed_sweep

__all__ = [
    "percentile",
    "sparkline",
    "load_benchmark",
    "dashboard_data",
    "render_dashboard",
]

#: Eight-level bar glyphs used by :func:`sparkline`.
_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def percentile(values: list[float], p: float) -> float:
    """The *p*-th percentile of *values* (linear interpolation, p in [0, 100])."""
    if not values:
        return 0.0
    if not (0.0 <= p <= 100.0):
        raise ValueError("p must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def sparkline(values: list[float], lo: float | None = None, hi: float | None = None) -> str:
    """One-line bar chart of *values* (empty string for no data).

    *lo*/*hi* pin the scale (defaults: min/max of the data), so two
    timelines rendered with the same bounds are visually comparable.
    """
    if not values:
        return ""
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    span = hi - lo
    chars = []
    for value in values:
        if span <= 0:
            level = len(_SPARK_LEVELS) - 1
        else:
            scaled = (value - lo) / span
            level = min(len(_SPARK_LEVELS) - 1, max(0, int(scaled * (len(_SPARK_LEVELS) - 1))))
        chars.append(_SPARK_LEVELS[level])
    return "".join(chars)


def load_benchmark(path: str | Path) -> dict[str, Any] | None:
    """Read one ``BENCH_*.json`` record; ``None`` if absent."""
    path = Path(path)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _metrics_summary(samples: list[dict[str, Any]]) -> dict[str, Any] | None:
    if not samples:
        return None
    last = samples[-1]

    def deltas_of(name: str) -> list[float]:
        return [float(s["deltas"][name]) for s in samples if name in s.get("deltas", {})]

    def gauge_series(name: str) -> list[float]:
        return [float(s["gauges"][name]) for s in samples if name in s.get("gauges", {})]

    messages = deltas_of("net.messages_sent")
    wire = deltas_of("net.bytes_transferred")
    live = gauge_series("nodes.live")
    # A churn run exports its probe as ``survival.availability``, an attack
    # run as ``attack.availability``; a log carries one of the two.
    availability = gauge_series("survival.availability") or gauge_series("attack.availability")
    hit_rate = gauge_series("cache.hit_rate")
    out: dict[str, Any] = {
        "samples": len(samples),
        "virtual_time_s": last["t_ms"] / 1000.0,
        "messages_per_interval": {
            "p50": percentile(messages, 50.0),
            "p99": percentile(messages, 99.0),
        },
        "wire_bytes_per_interval": {
            "p50": percentile(wire, 50.0),
            "p99": percentile(wire, 99.0),
        },
        "live_nodes": {
            "min": min(live) if live else 0.0,
            "last": live[-1] if live else 0.0,
            "timeline": live,
        },
    }
    if availability:
        out["availability"] = {
            "min": min(availability),
            "last": availability[-1],
            "timeline": availability,
        }
    if hit_rate:
        out["cache_hit_rate"] = hit_rate[-1]
    maint = {
        name[len("maint."):]: value
        for name, value in last.get("counters", {}).items()
        if name.startswith("maint.")
    }
    if maint:
        out["maintenance"] = maint
    return out


def dashboard_data(
    points: dict[str, dict[str, Any] | None], metrics_samples: list[dict[str, Any]] | None
) -> dict[str, Any]:
    """The dashboard as one JSON-serialisable dict: every ``BENCH_<kind>.json``
    point exactly as written under its kind (``None`` when the file is
    absent), plus a ``metrics`` summary of the log."""
    return {**points, "metrics": _metrics_summary(metrics_samples or [])}


def _render_core(core: dict[str, Any]) -> str:
    row: dict[str, Any] = {
        "preset": core.get("preset") or "?",
        "legacy search (s)": round(core["legacy_s"], 4) if core.get("legacy_s") else "?",
        "frozen search (s)": round(core["frozen_s"], 4) if core.get("frozen_s") else "?",
        "frozen speedup": round(core["speedup"], 2) if core.get("speedup") else "?",
    }
    target = core.get("speedup_target")
    if target is not None:
        gate = "PASS" if (core.get("speedup") or 0.0) >= target else "FAIL"
        row["speedup gate"] = f">= {target:.1f}x: {gate}"
    return format_mapping(row, title="core speed (BENCH_core.json)")


def _availability_line(arm: dict[str, Any], floor: float | None) -> str:
    """The probe timeline of one churn or attack arm, its final value and --
    for the protected arm -- the verdict against the record's floor."""
    timeline = [float(availability) for _, availability in arm.get("samples") or []]
    line = (
        f"    availability  {sparkline(timeline, lo=0.0, hi=1.0)}  "
        f"final {arm['final_availability']:.3f} (min {min(timeline, default=0.0):.3f})"
    )
    if floor is not None:
        verdict = "PASS" if arm["final_availability"] >= floor else "FAIL"
        line += f"  [floor {floor:.2f}: {verdict}]"
    return line


def _render_survival_arm(label: str, arm: dict[str, Any], floor: float | None) -> list[str]:
    return [
        f"  {label}:",
        _availability_line(arm, floor),
        f"    lost {arm['lost_blocks']}/{arm['blocks_written']} blocks, "
        f"{arm['integrity_violations']} integrity violations "
        f"({arm['entries_checked']} entries checked)",
        f"    churn: {arm['joins']} joins, {arm['graceful_leaves']} leaves, "
        f"{arm['crashes']} crashes; {arm['live_nodes_end']} nodes live at end; "
        f"{arm['messages_total']:,} messages",
    ]


def _render_churn(churn: dict[str, Any]) -> str:
    lines = [
        f"churn survival (BENCH_churn.json) -- {churn.get('nodes', '?')} nodes, "
        f"{churn.get('duration_s', 0.0):.0f}s churn"
    ]
    if churn.get("maintenance_on") is not None:
        lines.extend(_render_survival_arm(
            "maintenance on", churn["maintenance_on"], churn.get("availability_floor")
        ))
    if churn.get("maintenance_off") is not None:
        lines.extend(_render_survival_arm("maintenance off", churn["maintenance_off"], None))
    deltas = churn.get("deltas")
    if deltas:
        parts = ", ".join(f"{name} {value:+.4g}" for name, value in sorted(deltas.items()))
        lines.append(f"  on-vs-off deltas: {parts}")
    if churn.get("seed_sweep"):
        lines.extend(f"  {line}" for line in render_seed_sweep(churn["seed_sweep"]).splitlines())
    return "\n".join(lines)


def _render_metrics(metrics: dict[str, Any]) -> str:
    lines = [
        f"live metrics -- {metrics['samples']} samples over "
        f"{metrics['virtual_time_s']:.1f} virtual seconds"
    ]
    msg = metrics["messages_per_interval"]
    wire = metrics["wire_bytes_per_interval"]
    lines.append(
        f"  per-interval cost: p50 {msg['p50']:,.0f} / p99 {msg['p99']:,.0f} messages, "
        f"p50 {wire['p50']:,.0f} / p99 {wire['p99']:,.0f} wire bytes"
    )
    live = metrics["live_nodes"]
    lines.append(
        f"  live nodes     {sparkline(live['timeline'])}  "
        f"last {live['last']:.0f} (min {live['min']:.0f})"
    )
    availability = metrics.get("availability")
    if availability is not None:
        lines.append(
            f"  availability   {sparkline(availability['timeline'], lo=0.0, hi=1.0)}  "
            f"last {availability['last']:.3f} (min {availability['min']:.3f})"
        )
    if "cache_hit_rate" in metrics:
        lines.append(f"  cache hit rate {metrics['cache_hit_rate']:.3f}")
    maint = metrics.get("maintenance")
    if maint:
        parts = ", ".join(f"{name} {value:,.0f}" for name, value in sorted(maint.items()))
        lines.append(f"  maintenance: {parts}")
    return "\n".join(lines)


def _render_wire_side(label: str, side: dict[str, Any] | None) -> list[str]:
    lines = [f"  {label}:"]
    for op, stats in sorted((side or {}).items()):
        p50 = stats.get("p50_ms")
        p90 = stats.get("p90_ms")
        p99 = stats.get("p99_ms")
        if p50 is None or p90 is None or p99 is None:
            lines.append(f"    {op:<16} (incomplete record)")
            continue
        lines.append(
            f"    {op:<16} p50 {p50:>9.3f} ms   p90 {p90:>9.3f} ms   "
            f"p99 {p99:>9.3f} ms   ({stats.get('samples', '?')} samples)"
        )
    if len(lines) == 1:
        lines.append("    (no operations recorded)")
    return lines


def _render_wire(wire: dict[str, Any]) -> str:
    lines = [
        f"wire latency (BENCH_wire.json) -- {wire.get('nodes', '?')}-node UDP overlay, "
        f"{wire.get('rpc_samples', '?')} direct RPCs / "
        f"{wire.get('op_samples', '?')} iterative ops per type"
        + ("  [smoke]" if wire.get("smoke") else "")
    ]
    lines.extend(_render_wire_side("wall clock (real sockets)", wire.get("wall_clock")))
    if wire.get("wall_clock_degraded"):
        lines.extend(
            _render_wire_side("wall clock, one peer dead", wire["wall_clock_degraded"])
        )
    if wire.get("virtual_time"):
        lines.extend(
            _render_wire_side("virtual time (SimulatedNetwork model)", wire["virtual_time"])
        )
    return "\n".join(lines)


def _render_scale(scale: dict[str, Any]) -> str:
    ladder = scale.get("ladder") or []
    lines = [
        "scale ladder (BENCH_scale.json) -- "
        f"{len(ladder)} points"
        + ("  [smoke]" if scale.get("smoke") else "")
    ]
    if not ladder:
        lines.append("  (no ladder points recorded)")
        return "\n".join(lines)
    nodes = [float(p.get("nodes") or 0) for p in ladder]
    wall = [float(p.get("wall_s") or 0.0) for p in ladder]
    rss = [float(p.get("peak_rss_bytes") or 0) for p in ladder]
    lines.append(
        f"  nodes          {sparkline(nodes)}  "
        + " -> ".join(f"{int(n):,}" for n in nodes)
    )
    lines.append(
        f"  wall clock     {sparkline(wall)}  "
        + " -> ".join(f"{w:.1f}s" for w in wall)
    )
    lines.append(
        f"  peak RSS       {sparkline(rss)}  "
        + " -> ".join(f"{r / (1024 * 1024):.0f} MiB" for r in rss)
    )
    for point in ladder:
        extras = []
        if point.get("final_availability") is not None:
            extras.append(f"availability {point['final_availability']:.3f}")
        if point.get("messages_total") is not None:
            extras.append(f"{point['messages_total']:,} messages")
        if point.get("queue_compactions") is not None:
            extras.append(f"{point['queue_compactions']} queue compactions")
        if point.get("queue_heap_peak") is not None:
            extras.append(f"heap peak {point['queue_heap_peak']:,.0f}")
        lines.append(
            f"    {int(point.get('nodes') or 0):>7,} nodes: " + ", ".join(extras)
            if extras
            else f"    {int(point.get('nodes') or 0):>7,} nodes"
        )
    return "\n".join(lines)


def _render_attack_arm(label: str, arm: dict[str, Any], floor: float | None) -> list[str]:
    forged = forged_write_totals(arm)
    return [
        f"  {label}:",
        _availability_line(arm, floor),
        f"    integrity: {arm['integrity_violations']} violations "
        f"({arm['foreign_entries']} foreign entries, "
        f"{arm['entries_checked']} entries checked), "
        f"lost {arm['lost_blocks']}/{arm['blocks_written']} blocks",
        f"    forged writes: {forged['accepted']}/{forged['sent']} accepted; "
        f"{arm['forged_reads_rejected']} forged reads rejected, "
        f"{arm['honest_append_failures']} honest APPENDs broken",
        f"    sybil/eclipse: {arm['attack_sybil_joins']} sybil joins, "
        f"eclipse progress {arm['eclipse_progress']:.3f}, "
        f"{arm['sybil_contacts_rejected']:,} uncertified contacts refused",
        f"    likir: {arm['likir_verified']:,} verified / "
        f"{arm['likir_rejected']:,} rejected; "
        f"{arm['messages_total']:,} messages",
    ]


def _render_attack(attack: dict[str, Any]) -> str:
    lines = [
        f"attack A/B (BENCH_attack.json) -- {attack.get('nodes', '?')} nodes, "
        f"{attack.get('duration_s', 0.0):.0f}s campaign"
        + ("  [smoke]" if attack.get("smoke") else "")
    ]
    floor = attack.get("availability_floor")
    if attack.get("verification_on") is not None:
        lines.extend(
            _render_attack_arm("verification on", attack["verification_on"], floor)
        )
    if attack.get("verification_off") is not None:
        lines.extend(
            _render_attack_arm("verification off", attack["verification_off"], None)
        )
    overhead = attack.get("honest_overhead")
    if overhead:
        budget = attack.get("overhead_budget")
        parts = ", ".join(
            f"{name} {value:.3f}" for name, value in sorted(overhead.items())
        )
        lines.append(
            f"  honest overhead of verification: {parts}"
            + (f"  [budget {budget:.2f}]" if budget is not None else "")
        )
    return "\n".join(lines)


#: The screen, top to bottom: the five ``BENCH_<kind>.json`` records, then the
#: metrics log -- key of :func:`dashboard_data` -> renderer of that section.
_SECTIONS = {
    "core": _render_core,
    "churn": _render_churn,
    "attack": _render_attack,
    "scale": _render_scale,
    "wire": _render_wire,
    "metrics": _render_metrics,
}


def render_dashboard(data: dict[str, Any]) -> str:
    """Render :func:`dashboard_data` output for the terminal."""
    sections = [
        render(data[kind]) for kind, render in _SECTIONS.items() if data.get(kind) is not None
    ]
    if not sections:
        return "nothing to show: no benchmark trajectory or metrics log found"
    return "\n\n".join(sections)
