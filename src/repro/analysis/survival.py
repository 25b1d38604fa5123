"""Survival analysis of churn runs (extension of the Section V evaluation).

The churn-survival benchmark (:func:`repro.simulation.experiment.run_survival_benchmark`)
produces an availability trajectory plus a final audit per configuration.
This module turns those raw reports into the distributions the ``churn-bench``
CLI and ``bench_churn_survival.py`` print, and into the record both write:

* the **availability timeline** -- fraction of pre-churn blocks readable at
  each probe instant;
* the **availability CDF** -- empirical distribution of the probe samples
  (via :mod:`repro.analysis.cdf`), answering "for what fraction of the run
  was availability at least x?";
* the **maintenance-on vs -off deltas** that quantify what replica
  maintenance buys;
* the ``BENCH_churn.json`` / ``BENCH_attack.json`` **points**
  (:func:`churn_point`, :func:`attack_point`): one builder each for the bench
  script and for ``dharma {churn,attack}-bench --json``, so
  :mod:`repro.analysis.audit` and :mod:`repro.analysis.dashboard` read one
  shape whoever wrote the file;
* the **seed sweep** of the maintenance-on arm (:func:`render_seed_sweep`):
  messages, lost blocks and violations per churn-trace seed, since one seed's
  durability says little about the next one's.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.analysis.cdf import cdf_series
from repro.analysis.report import format_mapping, format_table

if TYPE_CHECKING:  # avoid importing the cluster harness at module load
    from repro.simulation.experiment import AttackReport, ExperimentReport, SurvivalReport

__all__ = [
    "SURVIVAL_METRICS",
    "SurvivalSummary",
    "summarise_survival",
    "survival_deltas",
    "render_survival_comparison",
    "render_seed_sweep",
    "churn_point",
    "attack_point",
    "forged_write_totals",
]

#: The :meth:`~repro.simulation.experiment.SurvivalReport.summary` fields the
#: CLI table and the benchmark report print, in display order (one list so
#: the two cannot drift apart).
SURVIVAL_METRICS = [
    "blocks_written", "counter_blocks", "final_availability", "lost_blocks",
    "integrity_violations", "entries_checked", "churn_appends",
    "joins", "graceful_leaves", "crashes", "live_nodes_end",
    "messages_total", "maint_blocks_republished", "maint_blocks_skipped",
    "maint_buckets_refreshed", "maint_buckets_pinged", "maint_buckets_skipped",
    "wall_time_s",
]


@dataclass(slots=True)
class SurvivalSummary:
    """Distilled view of one :class:`~repro.simulation.experiment.SurvivalReport`."""

    maintenance_on: bool
    final_availability: float
    min_availability: float
    mean_availability: float
    lost_blocks: int
    blocks_written: int
    integrity_violations: int
    entries_checked: int
    #: ``(availability level, fraction of probes at or below it)`` rows.
    availability_cdf: list[tuple[float, float]]
    #: ``(seconds since churn start, availability)`` rows.
    timeline: list[tuple[float, float]]


def summarise_survival(report: "SurvivalReport", max_points: int = 24) -> SurvivalSummary:
    """Summarise *report* into the distributions worth printing.

    The min/mean/CDF cover the periodic probe samples only; the final audit
    uses a different (merged multi-read) methodology and is reported
    separately as :attr:`SurvivalSummary.final_availability`.
    """
    samples = [availability for _, availability in report.samples]
    if not samples:
        samples = [report.final_availability]
    return SurvivalSummary(
        maintenance_on=report.maintenance_on,
        final_availability=report.final_availability,
        min_availability=min(samples),
        mean_availability=sum(samples) / len(samples),
        lost_blocks=report.lost_blocks,
        blocks_written=report.blocks_written,
        integrity_violations=report.integrity_violations,
        entries_checked=report.entries_checked,
        availability_cdf=cdf_series(samples, max_points=max_points),
        timeline=[(round(t, 1), availability) for t, availability in report.samples],
    )


def survival_deltas(on: "SurvivalReport", off: "SurvivalReport") -> dict[str, float]:
    """What maintenance buys: the on-vs-off availability/integrity deltas."""
    return {
        "availability_delta": on.final_availability - off.final_availability,
        "lost_blocks_delta": float(off.lost_blocks - on.lost_blocks),
        "violations_delta": float(off.integrity_violations - on.integrity_violations),
    }


def render_survival_comparison(
    reports: Sequence["SurvivalReport"], title: str | None = None
) -> str:
    """Render survival reports for humans: metrics table, per-mode summary
    and availability CDF, and -- when both modes are present -- the
    on-vs-off deltas.  The one renderer shared by ``dharma churn-bench`` and
    ``bench_churn_survival.py``, so their outputs cannot drift apart.
    """
    labels = [
        f"maintenance {'on' if report.maintenance_on else 'off'}" for report in reports
    ]
    parts = []
    headers = ["metric", *labels]
    rows = [
        [metric, *[report.summary().get(metric, 0) for report in reports]]
        for metric in SURVIVAL_METRICS
    ]
    parts.append(format_table(headers, rows, title=title, precision=4))
    for label, report in zip(labels, reports):
        summary = summarise_survival(report)
        parts.append(format_mapping(
            {
                "final availability": round(summary.final_availability, 4),
                "min availability": round(summary.min_availability, 4),
                "mean availability": round(summary.mean_availability, 4),
                "integrity violations": summary.integrity_violations,
            },
            title=f"survival ({label})",
        ))
        cdf_rows = [[f"{x:.4f}", f"{p:.3f}"] for x, p in summary.availability_cdf]
        parts.append(format_table(
            ["availability", "P(sample <= x)"], cdf_rows,
            title=f"availability CDF over probes ({label})",
        ))
    on = next((r for r in reports if r.maintenance_on), None)
    off = next((r for r in reports if not r.maintenance_on), None)
    if on is not None and off is not None:
        parts.append(format_mapping(
            {k: round(v, 4) for k, v in survival_deltas(on, off).items()},
            title="what maintenance buys (identical fault trace)",
        ))
    return "\n".join(parts)


#: The per-seed fields of a ``BENCH_churn.json`` ``seed_sweep`` row.
SWEEP_FIELDS = ["messages_total", "lost_blocks", "integrity_violations", "final_availability"]


def render_seed_sweep(rows: Sequence[Mapping[str, Any]]) -> str:
    """The ``seed_sweep`` rows of a churn record as a table, with totals;
    shared by ``bench_churn_survival.py`` and ``dharma dashboard``."""
    body = [[row["seed"], *[row[name] for name in SWEEP_FIELDS]] for row in rows]
    totals = [sum(row[name] for row in rows) for name in SWEEP_FIELDS[:-1]]
    body.append(["total", *totals, ""])
    return format_table(
        ["seed", *SWEEP_FIELDS], body,
        title="seed sweep (maintenance on, same config)", precision=4,
    )


def _arm(report: "ExperimentReport") -> dict[str, Any]:
    """One run as an arm of a record: its flat summary plus the
    ``(seconds, availability)`` probe samples."""
    return {**report.summary(), "samples": report.samples}


def _point(bench: str, reports: Sequence["ExperimentReport"], run: dict[str, Any]) -> dict:
    """The head of a record: ``nodes`` / ``duration_s`` come from the runs,
    *run* adds what the reports do not know -- preset, gates, timestamp."""
    first = reports[0]
    return {"bench": bench, "nodes": first.config.num_nodes, "duration_s": first.duration_s, **run}


def churn_point(
    reports: Sequence["SurvivalReport"], sweep: Sequence["SurvivalReport"] = (), **run: Any
) -> dict[str, Any]:
    """The ``BENCH_churn.json`` record of one or both maintenance arms (the
    on-vs-off ``deltas`` only when both ran) and, given *sweep* runs, one
    ``seed_sweep`` row of :data:`SWEEP_FIELDS` per run, keyed by its seed."""
    point = _point("churn_survival", reports, run)
    arms = {report.maintenance_on: report for report in reports}
    for maintenance_on, report in arms.items():
        point["maintenance_on" if maintenance_on else "maintenance_off"] = _arm(report)
    if len(arms) == 2:
        point["deltas"] = survival_deltas(arms[True], arms[False])
    if sweep:
        point["seed_sweep"] = [
            {"seed": report.config.seed, **{name: getattr(report, name) for name in SWEEP_FIELDS}}
            for report in sweep
        ]
    return point


def attack_point(reports: Sequence["AttackReport"], **run: Any) -> dict[str, Any]:
    """The ``BENCH_attack.json`` record of one or both verification arms."""
    point = _point("attack_resilience", reports, run)
    for report in reports:
        point["verification_on" if report.verification_on else "verification_off"] = _arm(report)
    return point


def forged_write_totals(arm: Mapping[str, Any]) -> dict[str, int]:
    """Forged writes ``sent`` / ``accepted`` / ``rejected`` by one attack arm,
    summed over every ``attack_<kind>_<outcome>`` counter of its summary
    (outcomes are counted per replica, so accepted can exceed sent)."""
    totals = {"sent": 0, "accepted": 0, "rejected": 0}
    for name, value in arm.items():
        outcome = name.rpartition("_")[2]
        if name.startswith("attack_") and outcome in totals:
            totals[outcome] += int(value)
    return totals
