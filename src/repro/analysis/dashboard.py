"""Terminal dashboard over benchmark trajectories and live metrics logs.

``dharma dashboard`` renders, in one screen, the current health of the
reproduction: the latest ``BENCH_core.json`` trajectory point (frozen-core
speedup against its gate), the latest ``BENCH_churn.json`` point
(availability timelines for the maintenance-on and -off runs, loss and
integrity counts, the on/off deltas), the latest ``BENCH_wire.json`` point
(wall-clock RPC percentiles measured over the real UDP transport, next to
the virtual-time cost model for the same operations), and -- when a metrics
log from a live run is supplied -- per-interval statistics derived from the
JSON-lines stream of :mod:`repro.metrics`: message/byte cost percentiles,
cache hit rate, live-node and availability trajectories, maintenance
progress.

Everything here is pure data shaping over already-written files; rendering
never touches the simulator, so the dashboard can be pointed at artifacts
from CI or at the (still growing) log of a run in progress.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from repro.analysis.report import format_mapping

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
    """Read one ``BENCH_*.json`` trajectory point; ``None`` if absent."""
    path = Path(path)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _survival_side(data: dict[str, Any] | None) -> dict[str, Any] | None:
    if data is None:
        return None
    samples = data.get("samples") or []
    availability = [float(a) for _, a in samples]
    return {
        "final_availability": data.get("final_availability", 0.0),
        "lost_blocks": data.get("lost_blocks", 0),
        "blocks_written": data.get("blocks_written", 0),
        "integrity_violations": data.get("integrity_violations", 0),
        "entries_checked": data.get("entries_checked", 0),
        "min_availability": min(availability) if availability else 0.0,
        "availability_timeline": availability,
        "joins": data.get("joins", 0),
        "graceful_leaves": data.get("graceful_leaves", 0),
        "crashes": data.get("crashes", 0),
        "live_nodes_end": data.get("live_nodes_end", 0),
        "messages_total": data.get("messages_total", 0),
    }


def _churn_sides(churn: dict[str, Any]) -> tuple[dict | None, dict | None]:
    """Accept both the benchmark shape (``maintenance_on``/``maintenance_off``)
    and the ``churn-bench --json`` shape (``maintenance on``/``maintenance off``)."""
    on = churn.get("maintenance_on") or churn.get("maintenance on")
    off = churn.get("maintenance_off") or churn.get("maintenance off")
    return _survival_side(on), _survival_side(off)


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
    availability = gauge_series("survival.availability")
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


def _wire_section(wire: dict[str, Any]) -> dict[str, Any]:
    def side(summaries: dict[str, Any] | None) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for op, stats in sorted((summaries or {}).items()):
            out[op] = {
                "samples": stats.get("samples"),
                "p50_ms": stats.get("p50_ms"),
                "p90_ms": stats.get("p90_ms"),
                "p99_ms": stats.get("p99_ms"),
            }
        return out

    return {
        "nodes": wire.get("nodes"),
        "smoke": wire.get("smoke"),
        "rpc_samples": wire.get("rpc_samples"),
        "op_samples": wire.get("op_samples"),
        "wall_clock": side(wire.get("wall_clock")),
        "wall_clock_degraded": side(wire.get("wall_clock_degraded")),
        "virtual_time": side(wire.get("virtual_time")),
    }


def _scale_section(scale: dict[str, Any]) -> dict[str, Any]:
    ladder = []
    for point in scale.get("ladder") or []:
        ladder.append(
            {
                "nodes": point.get("nodes"),
                "wall_s": point.get("wall_s"),
                "peak_rss_bytes": point.get("peak_rss_bytes"),
                "virtual_time_s": point.get("virtual_time_s"),
                "messages_total": point.get("messages_total"),
                "final_availability": point.get("final_availability"),
                "queue_compactions": point.get("queue_compactions"),
                "queue_heap_peak": point.get("queue_heap_peak"),
            }
        )
    return {
        "smoke": scale.get("smoke"),
        "promised_nodes": scale.get("promised_nodes"),
        "ladder": ladder,
    }


def _attack_side(data: dict[str, Any] | None) -> dict[str, Any] | None:
    if data is None:
        return None
    samples = data.get("samples") or []
    availability = [float(a) for _, a in samples]
    return {
        "final_availability": data.get("final_availability", 0.0),
        "min_availability": min(availability) if availability else 0.0,
        "availability_timeline": availability,
        "integrity_violations": data.get("integrity_violations", 0),
        "foreign_entries": data.get("foreign_entries", 0),
        "entries_checked": data.get("entries_checked", 0),
        "lost_blocks": data.get("lost_blocks", 0),
        "blocks_written": data.get("blocks_written", 0),
        "forged_reads_rejected": data.get("forged_reads_rejected", 0),
        "honest_append_failures": data.get("honest_append_failures", 0),
        "eclipse_progress": data.get("eclipse_progress", 0.0),
        "likir_verified": data.get("likir_verified", 0),
        "likir_rejected": data.get("likir_rejected", 0),
        "sybil_contacts_rejected": data.get("sybil_contacts_rejected", 0),
        "forged_writes_sent": sum(
            value
            for name, value in data.items()
            if name.startswith("attack_") and name.endswith("_sent")
        ),
        "forged_writes_accepted": sum(
            value
            for name, value in data.items()
            if name.startswith("attack_") and name.endswith("_accepted")
        ),
        "sybil_joins": data.get("attack_sybil_joins", 0),
        "messages_total": data.get("messages_total", 0),
    }


def _attack_section(attack: dict[str, Any]) -> dict[str, Any]:
    return {
        "nodes": attack.get("nodes"),
        "duration_s": attack.get("duration_s"),
        "smoke": attack.get("smoke"),
        "availability_floor": attack.get("availability_floor"),
        "overhead_budget": attack.get("overhead_budget"),
        "honest_overhead": attack.get("honest_overhead"),
        "verification_on": _attack_side(attack.get("verification_on")),
        "verification_off": _attack_side(attack.get("verification_off")),
    }


def dashboard_data(
    core: dict[str, Any] | None,
    churn: dict[str, Any] | None,
    metrics_samples: list[dict[str, Any]] | None,
    wire: dict[str, Any] | None = None,
    scale: dict[str, Any] | None = None,
    attack: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Shape the six sources into one JSON-serialisable dashboard dict."""
    data: dict[str, Any] = {
        "core": None,
        "churn": None,
        "metrics": None,
        "wire": None,
        "scale": None,
        "attack": None,
    }
    if core is not None:
        data["core"] = {
            "preset": core.get("preset"),
            "smoke": core.get("smoke"),
            "legacy_s": core.get("legacy_s"),
            "frozen_s": core.get("frozen_s"),
            "speedup": core.get("speedup"),
            "speedup_target": core.get("speedup_target"),
            "table1_ok": core.get("table1_ok"),
        }
    if churn is not None:
        on, off = _churn_sides(churn)
        data["churn"] = {
            "nodes": churn.get("nodes"),
            "duration_s": churn.get("duration_s"),
            "availability_floor": churn.get("availability_floor"),
            "maintenance_on": on,
            "maintenance_off": off,
            "deltas": churn.get("deltas"),
        }
    if metrics_samples:
        data["metrics"] = _metrics_summary(metrics_samples)
    if wire is not None:
        data["wire"] = _wire_section(wire)
    if scale is not None:
        data["scale"] = _scale_section(scale)
    if attack is not None:
        data["attack"] = _attack_section(attack)
    return data


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
    if core.get("table1_ok") is not None:
        row["Table I costs"] = "ok" if core["table1_ok"] else "VIOLATED"
    return format_mapping(row, title="core speed (BENCH_core.json)")


def _render_survival_side(label: str, side: dict[str, Any], floor: float | None) -> list[str]:
    timeline = side["availability_timeline"]
    lines = [
        f"  {label}:",
        f"    availability  {sparkline(timeline, lo=0.0, hi=1.0)}  "
        f"final {side['final_availability']:.3f} (min {side['min_availability']:.3f})",
        f"    lost {side['lost_blocks']}/{side['blocks_written']} blocks, "
        f"{side['integrity_violations']} integrity violations "
        f"({side['entries_checked']} entries checked)",
        f"    churn: {side['joins']} joins, {side['graceful_leaves']} leaves, "
        f"{side['crashes']} crashes; {side['live_nodes_end']} nodes live at end; "
        f"{side['messages_total']:,} messages",
    ]
    if floor is not None:
        verdict = "PASS" if side["final_availability"] >= floor else "FAIL"
        lines[1] += f"  [floor {floor:.2f}: {verdict}]"
    return lines


def _render_churn(churn: dict[str, Any]) -> str:
    lines = [
        f"churn survival (BENCH_churn.json) -- {churn.get('nodes', '?')} nodes, "
        f"{churn.get('duration_s', 0.0):.0f}s churn"
    ]
    floor = churn.get("availability_floor")
    if churn["maintenance_on"] is not None:
        lines.extend(_render_survival_side("maintenance on", churn["maintenance_on"], floor))
    if churn["maintenance_off"] is not None:
        lines.extend(_render_survival_side("maintenance off", churn["maintenance_off"], None))
    deltas = churn.get("deltas")
    if deltas:
        parts = ", ".join(f"{name} {value:+.4g}" for name, value in sorted(deltas.items()))
        lines.append(f"  on-vs-off deltas: {parts}")
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


def _render_wire_side(label: str, side: dict[str, Any]) -> list[str]:
    lines = [f"  {label}:"]
    for op, stats in side.items():
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
    lines.extend(_render_wire_side("wall clock (real sockets)", wire["wall_clock"]))
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


def _render_attack_side(label: str, side: dict[str, Any], floor: float | None) -> list[str]:
    timeline = side["availability_timeline"]
    availability_line = (
        f"    availability  {sparkline(timeline, lo=0.0, hi=1.0)}  "
        f"final {side['final_availability']:.3f} (min {side['min_availability']:.3f})"
    )
    if floor is not None:
        verdict = "PASS" if side["final_availability"] >= floor else "FAIL"
        availability_line += f"  [floor {floor:.2f}: {verdict}]"
    return [
        f"  {label}:",
        availability_line,
        f"    integrity: {side['integrity_violations']} violations "
        f"({side['foreign_entries']} foreign entries, "
        f"{side['entries_checked']} entries checked), "
        f"lost {side['lost_blocks']}/{side['blocks_written']} blocks",
        f"    forged writes: {side['forged_writes_accepted']}/"
        f"{side['forged_writes_sent']} accepted; "
        f"{side['forged_reads_rejected']} forged reads rejected, "
        f"{side['honest_append_failures']} honest APPENDs broken",
        f"    sybil/eclipse: {side['sybil_joins']} sybil joins, "
        f"eclipse progress {side['eclipse_progress']:.3f}, "
        f"{side['sybil_contacts_rejected']:,} uncertified contacts refused",
        f"    likir: {side['likir_verified']:,} verified / "
        f"{side['likir_rejected']:,} rejected; "
        f"{side['messages_total']:,} messages",
    ]


def _render_attack(attack: dict[str, Any]) -> str:
    lines = [
        f"attack A/B (BENCH_attack.json) -- {attack.get('nodes', '?')} nodes, "
        f"{attack.get('duration_s', 0.0):.0f}s campaign"
        + ("  [smoke]" if attack.get("smoke") else "")
    ]
    floor = attack.get("availability_floor")
    if attack["verification_on"] is not None:
        lines.extend(
            _render_attack_side("verification on", attack["verification_on"], floor)
        )
    if attack["verification_off"] is not None:
        lines.extend(
            _render_attack_side("verification off", attack["verification_off"], None)
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


def render_dashboard(data: dict[str, Any]) -> str:
    """Render :func:`dashboard_data` output for the terminal."""
    sections: list[str] = []
    if data.get("core") is not None:
        sections.append(_render_core(data["core"]))
    if data.get("churn") is not None:
        sections.append(_render_churn(data["churn"]))
    if data.get("attack") is not None:
        sections.append(_render_attack(data["attack"]))
    if data.get("scale") is not None:
        sections.append(_render_scale(data["scale"]))
    if data.get("wire") is not None:
        sections.append(_render_wire(data["wire"]))
    if data.get("metrics") is not None:
        sections.append(_render_metrics(data["metrics"]))
    if not sections:
        return "nothing to show: no benchmark trajectory or metrics log found"
    return "\n\n".join(sections)
