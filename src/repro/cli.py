"""Command-line front-end.

The ``dharma`` console script wraps the most common workflows so the library
can be exercised without writing Python:

* ``dharma generate`` -- produce a synthetic Last.fm-like dataset (TSV);
* ``dharma stats`` -- print the Table II census of a dataset;
* ``dharma evolve`` -- run the approximated evolution replay and print the
  Table III approximation-quality row for one or more values of ``k``;
* ``dharma converge`` -- run the search-convergence experiment (Table IV);
* ``dharma overlay`` -- replay a (small) dataset against an in-process
  overlay and report lookup costs and hotspot statistics;
* ``dharma churn-bench`` -- run a cluster under churn (crashes and graceful
  leaves on a pre-scheduled fault trace) with replica maintenance on and/or
  off, and report block availability, survival CDFs and counter integrity;
* ``dharma attack-bench`` -- run the same seeded adversary campaign (Sybil
  joins, eclipse lies, forged writes, stale republish storms) with Likir
  verification on and/or off, and report availability, integrity violations
  and enforcement counters for each posture;
* ``dharma profile`` -- drive the interned core (build, freeze, legacy vs
  frozen faceted search, value-codec pass over every block) under the
  :mod:`repro.perf` counters/timers and print or export the snapshot;
* ``dharma dashboard`` -- one-screen health view over the five root
  ``BENCH_*.json`` records and (optionally) a live metrics log: availability
  timelines, per-interval message/byte cost percentiles, node health;
* ``dharma audit`` -- scan a cluster snapshot and/or a metrics log for
  invariant violations (replica-count decay, counter-merge regressions,
  orphaned holders, counter rollbacks in the stream), and re-check any of
  the ``BENCH_*.json`` records against the gates its bench script applies;
* ``dharma serve`` -- run one DHARMA node on a real UDP socket.

Every simulation command accepts ``--seed`` for reproducibility.  The
commands are documented in ``docs/CLI.md``; a CI drift check keeps that
file in sync with this parser.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Sequence

# Only what every command needs is imported here; each ``_cmd_*`` imports its
# own layers, so a ``dharma serve`` child loads neither numpy nor the simulator
# harness (``tests/test_cli.py`` holds the line).
from repro.analysis.report import format_mapping, format_table, write_json

__all__ = ["main", "build_parser"]

#: The five root benchmark records, ``BENCH_<kind>.json`` each: ``dashboard``
#: renders them (``--<kind>`` points elsewhere) and ``audit --<kind> FILE``
#: gates one with ``repro.analysis.audit.POINT_AUDITS[kind]``.
_BENCH_POINTS = {
    "core": "frozen-core speed gate",
    "churn": "churn survival, maintenance on/off",
    "attack": "attack A/B, Likir verification on/off",
    "scale": "1k-10k node scale ladder",
    "wire": "wall-clock RPC latency over UDP",
}

#: ``sorted(repro.datasets.lastfm_synthetic.PRESETS)``, spelled out so that
#: building the parser does not import the generator (and numpy with it).
_PRESET_NAMES = ("medium", "small", "tiny")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dharma",
        description="DHARMA reproduction: distributed tagging over a simulated DHT.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic Last.fm-like dataset")
    gen.add_argument("output", help="destination TSV file")
    gen.add_argument("--preset", choices=_PRESET_NAMES, default="small")
    gen.add_argument("--seed", type=int, default=0)

    stats = sub.add_parser("stats", help="print the Table II census of a dataset")
    stats.add_argument("dataset", help="TSV file of <user, resource, tag> triples")
    stats.add_argument("--limit", type=int, default=None, help="read at most N triples")

    evolve = sub.add_parser("evolve", help="approximated evolution replay (Table III)")
    evolve.add_argument("dataset", help="TSV file of triples")
    evolve.add_argument("--k", type=int, nargs="+", default=[1, 5, 10])
    evolve.add_argument("--limit", type=int, default=None)
    evolve.add_argument("--seed", type=int, default=0)

    conv = sub.add_parser("converge", help="faceted-search convergence (Table IV)")
    conv.add_argument("dataset", help="TSV file of triples")
    conv.add_argument("--k", type=int, default=1)
    conv.add_argument("--start-tags", type=int, default=20)
    conv.add_argument("--random-runs", type=int, default=20)
    conv.add_argument("--limit", type=int, default=None)
    conv.add_argument("--seed", type=int, default=0)

    overlay = sub.add_parser("overlay", help="replay a dataset against a simulated overlay")
    overlay.add_argument("dataset", help="TSV file of triples")
    overlay.add_argument("--nodes", type=int, default=32)
    overlay.add_argument("--k", type=int, default=1)
    overlay.add_argument("--protocol", choices=["approximated", "naive"], default="approximated")
    overlay.add_argument("--limit", type=int, default=2000)
    overlay.add_argument("--seed", type=int, default=0)

    churn = sub.add_parser(
        "churn-bench",
        help="data survival under churn with replica maintenance on/off",
    )
    churn.add_argument("--dataset", default=None, help="TSV file of triples (default: synthetic)")
    churn.add_argument("--preset", choices=_PRESET_NAMES, default="tiny",
                       help="synthetic dataset preset used when no --dataset is given")
    churn.add_argument("--nodes", type=int, default=500)
    churn.add_argument("--ops", type=int, default=150,
                       help="tagging operations written before churn starts")
    churn.add_argument("--duration", type=float, default=480.0,
                       help="churn phase length in virtual seconds")
    churn.add_argument("--mean-session", type=float, default=300.0,
                       help="mean node session length in virtual seconds")
    churn.add_argument("--crash-probability", type=float, default=0.5,
                       help="probability that a departure is an abrupt crash")
    churn.add_argument("--join-rate", type=float, default=None,
                       help="node arrivals per virtual second (default: replacement rate)")
    churn.add_argument("--replicate", type=int, default=3)
    churn.add_argument("--republish-interval", type=float, default=15.0,
                       help="republish period per node in virtual seconds")
    churn.add_argument("--refresh-interval", type=float, default=60.0,
                       help="bucket-refresh period per node in virtual seconds")
    churn.add_argument("--sample-every", type=float, default=30.0,
                       help="availability probe period in virtual seconds")
    churn.add_argument("--maintenance", choices=["on", "off", "both"], default="both")
    churn.add_argument("--seed", type=int, default=0)
    churn.add_argument("--json", dest="json_path", default=None,
                       help="also write the survival report(s) to this JSON file")
    churn.add_argument("--metrics-out", default=None,
                       help="stream per-interval metrics to this JSON-lines file "
                            "(with --maintenance both, '.on'/'.off' is inserted "
                            "before the suffix)")
    churn.add_argument("--prom-out", default=None,
                       help="rewrite this file with the latest Prometheus text exposition")
    churn.add_argument("--checkpoint-out", default=None,
                       help="write a cluster snapshot at --checkpoint-at virtual seconds")
    churn.add_argument("--checkpoint-at", type=float, default=None,
                       help="checkpoint time in virtual seconds into the churn phase")
    churn.add_argument("--halt-at-checkpoint", action="store_true",
                       help="stop at the checkpoint instead of finishing (resume later)")
    churn.add_argument("--resume-from", default=None,
                       help="resume a halted run from this snapshot instead of starting fresh")
    churn.set_defaults(usage_error=churn.error)

    attack = sub.add_parser(
        "attack-bench",
        help="availability and integrity under attack with Likir verification on/off",
    )
    attack.add_argument("--dataset", default=None, help="TSV file of triples (default: synthetic)")
    attack.add_argument("--preset", choices=_PRESET_NAMES, default="tiny",
                        help="synthetic dataset preset used when no --dataset is given")
    attack.add_argument("--nodes", type=int, default=200)
    attack.add_argument("--ops", type=int, default=150,
                        help="tagging operations written before the attack starts")
    attack.add_argument("--duration", type=float, default=120.0,
                        help="attack phase length in virtual seconds")
    attack.add_argument("--sample-every", type=float, default=10.0,
                        help="availability probe period in virtual seconds")
    attack.add_argument("--sybil-count", type=int, default=32,
                        help="Sybil identities joined around the victim key")
    attack.add_argument("--compromised-fraction", type=float, default=0.02,
                        help="fraction of honest nodes whose RPC answers are rewritten")
    attack.add_argument("--forge-rate", type=float, default=2.0,
                        help="forged STOREs per virtual second")
    attack.add_argument("--append-forge-rate", type=float, default=1.0,
                        help="forged APPENDs per virtual second")
    attack.add_argument("--stale-republish-rate", type=float, default=1.0,
                        help="stale republish storms per virtual second")
    attack.add_argument("--no-eclipse", action="store_true",
                        help="disable the eclipse arm of the campaign")
    attack.add_argument("--replicate", type=int, default=3)
    attack.add_argument("--targets", type=int, default=4,
                        help="victim counter blocks the campaign aims at")
    attack.add_argument("--verification", choices=["on", "off", "both"], default="both")
    attack.add_argument("--seed", type=int, default=0)
    attack.add_argument("--json", dest="json_path", default=None,
                        help="also write the attack report(s) to this JSON file")
    attack.add_argument("--metrics-out", default=None,
                        help="stream per-interval metrics to this JSON-lines file "
                             "(with --verification both, '.on'/'.off' is inserted "
                             "before the suffix)")
    attack.add_argument("--prom-out", default=None,
                        help="rewrite this file with the latest Prometheus text exposition")

    profile = sub.add_parser(
        "profile",
        help="profile the interned core: build, freeze, legacy vs frozen search, codec",
    )
    profile.add_argument("--dataset", default=None, help="TSV file of triples (default: synthetic)")
    profile.add_argument("--preset", choices=_PRESET_NAMES, default="small",
                         help="synthetic dataset preset used when no --dataset is given")
    profile.add_argument("--searches", type=int, default=200,
                         help="faceted searches per engine (legacy and frozen)")
    profile.add_argument("--strategy", choices=["first", "last", "random"], default="random")
    profile.add_argument("--limit", type=int, default=None, help="read at most N triples")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--json", dest="json_path", default=None,
                         help="also write the perf snapshot to this JSON file")

    dash = sub.add_parser(
        "dashboard",
        help="one-screen health view over BENCH_*.json trajectories and metrics logs",
    )
    for kind, what in _BENCH_POINTS.items():
        dash.add_argument(f"--{kind}", default=f"BENCH_{kind}.json",
                          help=f"{what} record (skipped when missing)")
    dash.add_argument("--metrics", default=None,
                      help="JSON-lines metrics log from a live run")
    dash.add_argument("--json", dest="json_output", action="store_true",
                      help="print the dashboard data as JSON instead of rendering")

    audit = sub.add_parser(
        "audit",
        help="scan a cluster snapshot, metrics log and/or BENCH_*.json records for violations",
    )
    audit.add_argument("--snapshot", default=None,
                       help="cluster snapshot written by churn-bench --checkpoint-out")
    audit.add_argument("--metrics", default=None,
                       help="JSON-lines metrics log to check for rollbacks/gaps")
    for kind, what in _BENCH_POINTS.items():
        audit.add_argument(f"--{kind}", default=None,
                           help=f"BENCH_{kind}.json ({what}) to hold to its bench script's gates")
    audit.add_argument("--json", dest="json_output", action="store_true",
                       help="print the findings as JSON instead of rendering")

    serve = sub.add_parser(
        "serve",
        help="run one DHARMA node on a real UDP socket",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="UDP port to bind (0 = OS-assigned, printed at startup)")
    serve.add_argument("--join", default=None, metavar="HOST:PORT",
                       help="bootstrap through the node at HOST:PORT "
                            "(omit to found a new overlay)")
    serve.add_argument("--node-name", default=None,
                       help="derive the node id from SHA-1 of this name "
                            "(default: derived from the bound endpoint)")
    serve.add_argument("--verify", action="store_true",
                       help="enforce Likir credentials on writes (requires --cert-seed; "
                            "the node id is then issued by the certification service)")
    serve.add_argument("--cert-seed", type=int, default=None,
                       help="shared seed for the stateless certification service -- "
                            "every node of one overlay must use the same value")
    serve.add_argument("--k", type=int, default=20, help="bucket size / replication parameter")
    serve.add_argument("--alpha", type=int, default=3, help="lookup concurrency")
    serve.add_argument("--replicate", type=int, default=3,
                       help="number of closest nodes a value is written to")
    serve.add_argument("--timeout-ms", type=float, default=2000.0,
                       help="first-attempt RPC timeout in milliseconds")
    serve.add_argument("--retries", type=int, default=2,
                       help="retransmissions per RPC after the first attempt")
    serve.add_argument("--max-datagram", type=int, default=8192,
                       help="refuse frames larger than this many bytes")
    serve.add_argument("--refresh-seconds", type=float, default=60.0,
                       help="bucket-refresh period (0 disables)")
    serve.add_argument("--run-seconds", type=float, default=None,
                       help="exit after this many seconds (default: run until Ctrl-C)")
    serve.add_argument("--stats-out", default=None,
                       help="write a final ServeNodeStats JSON snapshot to this file on exit")

    return parser


# --------------------------------------------------------------------- #
# commands
# --------------------------------------------------------------------- #


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets.lastfm_synthetic import PRESETS, generate_lastfm_like
    from repro.datasets.loader import save_triples_tsv

    config = PRESETS[args.preset]
    if args.seed != config.seed:
        from dataclasses import replace

        config = replace(config, seed=args.seed)
    dataset = generate_lastfm_like(config)
    save_triples_tsv(dataset, args.output)
    print(format_mapping(dataset.describe(), title=f"generated dataset ({args.preset})"))
    print(f"written to {args.output}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.core.tagging_model import derive_folksonomy_graph
    from repro.datasets.loader import load_triples_tsv
    from repro.datasets.stats import compute_folksonomy_stats

    dataset = load_triples_tsv(args.dataset, limit=args.limit)
    trg = dataset.to_tag_resource_graph()
    fg = derive_folksonomy_graph(trg)
    stats = compute_folksonomy_stats(trg, fg)
    print(format_mapping(dataset.describe(), title="dataset census"))
    table = stats.table_ii()
    rows = [[row] + [table[row][col] for col in ("Tags(r)", "Res(t)", "NFG(t)")] for row in table]
    print(format_table(["", "Tags(r)", "Res(t)", "NFG(t)"], rows, title="Table II -- degree statistics"))
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    from repro.analysis.comparison import compare_graphs
    from repro.analysis.evolution import EvolutionConfig, simulate_approximated_evolution
    from repro.core.approximation import default_approximation
    from repro.core.tagging_model import derive_folksonomy_graph
    from repro.datasets.loader import load_triples_tsv

    dataset = load_triples_tsv(args.dataset, limit=args.limit)
    trg = dataset.to_tag_resource_graph()
    original_fg = derive_folksonomy_graph(trg)
    headers = ["k", "Recall", "Ktau", "theta", "sim1%", "global recall"]
    rows = []
    for k in args.k:
        result = simulate_approximated_evolution(
            trg,
            EvolutionConfig(approximation=default_approximation(k=k), seed=args.seed),
        )
        comparison = compare_graphs(original_fg, result.approximated_fg)
        quality = comparison.quality
        rows.append(
            [
                k,
                quality.recall_mean,
                quality.kendall_tau_mean,
                quality.cosine_mean,
                quality.sim1_mean,
                comparison.global_recall,
            ]
        )
    print(format_table(headers, rows, title="Table III -- approximation quality"))
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    from repro.analysis.convergence import ConvergenceConfig, run_convergence_experiment
    from repro.analysis.evolution import EvolutionConfig, simulate_approximated_evolution
    from repro.core.approximation import default_approximation
    from repro.core.tagging_model import derive_folksonomy_graph
    from repro.datasets.loader import load_triples_tsv

    dataset = load_triples_tsv(args.dataset, limit=args.limit)
    trg = dataset.to_tag_resource_graph()
    original_fg = derive_folksonomy_graph(trg)
    evolution = simulate_approximated_evolution(
        trg, EvolutionConfig(approximation=default_approximation(k=args.k), seed=args.seed)
    )
    config = ConvergenceConfig(
        num_start_tags=args.start_tags,
        random_runs_per_tag=args.random_runs,
        seed=args.seed,
    )
    # frozen=True: searches run on the frozen array-backed index (same
    # outcomes as the mutable engine, several times faster).
    results = run_convergence_experiment(
        trg, original_fg, evolution.approximated_fg, config, frozen=True
    )
    headers = ["graph", "strategy", "mean", "std", "median", "searches"]
    rows = []
    for graph_label, by_strategy in results.items():
        for strategy, outcome in by_strategy.items():
            stats = outcome.stats
            rows.append([graph_label, strategy, stats.mean, stats.std, stats.median, stats.count])
    print(format_table(headers, rows, title="Table IV -- search path statistics"))
    return 0


def _cmd_overlay(args: argparse.Namespace) -> int:
    from repro.core.approximation import default_approximation
    from repro.datasets.loader import load_triples_tsv
    from repro.dht.bootstrap import build_overlay
    from repro.distributed.tagging_service import DharmaService, ServiceConfig
    from repro.simulation.workload import TaggingWorkload

    dataset = load_triples_tsv(args.dataset, limit=args.limit)
    overlay = build_overlay(args.nodes, seed=args.seed)
    service = DharmaService(
        overlay,
        user="cli-user",
        config=ServiceConfig(
            protocol=args.protocol,
            approximation=default_approximation(k=args.k),
            seed=args.seed,
        ),
    )
    workload = TaggingWorkload.from_triples(dataset.triples())
    stats = workload.replay(service, limit=args.limit)
    print(format_mapping(
        {
            "nodes": len(overlay),
            "insert ops": stats.insert_ops,
            "tag ops": stats.tag_ops,
            "total overlay lookups": service.total_lookups,
            "overlay messages": overlay.network.stats.messages_sent,
            "virtual time (ms)": overlay.clock.now,
        },
        title=f"overlay replay ({args.protocol}, k={args.k})",
    ))
    print(format_mapping(dict(overlay.network.stats.hotspots(5)), title="top-5 hotspot nodes (messages received)"))
    summary = service.cost_summary()
    rows = [
        [op, values["count"], values["mean_lookups"], values["max_lookups"]]
        for op, values in summary.items()
    ]
    print(format_table(["operation", "count", "mean lookups", "max lookups"], rows, title="measured primitive costs"))
    return 0


def _load_dataset(args: argparse.Namespace, limit: int | None = None):
    """The ``--dataset`` TSV, or the synthetic ``--preset`` when none is given."""
    if args.dataset is not None:
        from repro.datasets.loader import load_triples_tsv

        return load_triples_tsv(args.dataset, limit=limit)
    from repro.datasets.lastfm_synthetic import generate_lastfm_like

    dataset = generate_lastfm_like(args.preset)
    return dataset if limit is None else dataset.head(limit)


def _labelled_path(path: str | None, label: str, use_label: bool) -> str | None:
    """Insert ``.<label>`` before the suffix when several runs share a path."""
    if path is None or not use_label:
        return path
    from pathlib import Path

    p = Path(path)
    return str(p.with_name(f"{p.stem}.{label}{p.suffix}"))


def _cmd_churn_bench(args: argparse.Namespace) -> int:
    from repro.analysis.survival import churn_point, render_survival_comparison
    from repro.metrics import MetricsStream
    from repro.simulation.cluster import churn_cluster_config
    from repro.simulation.experiment import run_survival_benchmark
    from repro.simulation.workload import TaggingWorkload

    if (args.checkpoint_at is None) != (args.checkpoint_out is None):
        args.usage_error("--checkpoint-at and --checkpoint-out must be given together")
    if args.halt_at_checkpoint and args.checkpoint_at is None:
        args.usage_error("--halt-at-checkpoint requires --checkpoint-at and --checkpoint-out")
    if args.resume_from is not None:
        from repro.simulation.snapshot import resume_survival_benchmark

        stream = None
        if args.metrics_out is not None:
            stream = MetricsStream(path=args.metrics_out, prom_path=args.prom_out)
        report = resume_survival_benchmark(args.resume_from, metrics_stream=stream)
        if stream is not None:
            stream.close()
        print(render_survival_comparison(
            [report],
            title=f"churn-bench -- resumed from {args.resume_from}",
        ))
        if args.json_path:
            write_json(args.json_path, churn_point([report]))
            print(f"\nsurvival report written to {args.json_path}")
        return 0

    workload = TaggingWorkload.from_triples(_load_dataset(args).triples())

    modes = [True, False] if args.maintenance == "both" else [args.maintenance == "on"]
    reports = []
    for maintenance in modes:
        config = churn_cluster_config(
            num_nodes=args.nodes,
            maintenance=maintenance,
            mean_session_s=args.mean_session,
            crash_probability=args.crash_probability,
            join_rate=args.join_rate,
            replicate=args.replicate,
            republish_interval_ms=args.republish_interval * 1000.0,
            refresh_interval_ms=args.refresh_interval * 1000.0,
            seed=args.seed,
        )
        suffix = "on" if maintenance else "off"
        stream = None
        if args.metrics_out is not None:
            stream = MetricsStream(
                path=_labelled_path(args.metrics_out, suffix, len(modes) > 1),
                prom_path=_labelled_path(args.prom_out, suffix, len(modes) > 1),
            )
        checkpoint_path = _labelled_path(args.checkpoint_out, suffix, len(modes) > 1)
        report = run_survival_benchmark(
            config,
            workload,
            ops=args.ops,
            duration_s=args.duration,
            sample_every_s=args.sample_every,
            metrics_stream=stream,
            checkpoint_path=checkpoint_path,
            checkpoint_at_s=args.checkpoint_at,
            halt_at_checkpoint=args.halt_at_checkpoint,
        )
        if stream is not None:
            stream.close()
        if report is None:
            print(
                f"halted at checkpoint ({args.checkpoint_at:.0f}s of virtual churn); "
                f"snapshot written to {checkpoint_path} -- resume with "
                f"'dharma churn-bench --resume-from {checkpoint_path}'"
            )
            continue
        reports.append(report)

    if not reports:
        return 0

    print(render_survival_comparison(
        reports,
        title=(
            f"churn-bench -- {args.nodes} nodes, {args.duration:.0f}s churn, "
            f"mean session {args.mean_session:.0f}s, "
            f"crash probability {args.crash_probability}"
        ),
    ))

    if args.json_path:
        # The BENCH_churn.json shape (minus the gates only the benchmark
        # states), so the file feeds `dharma dashboard --churn` / `audit --churn`.
        write_json(args.json_path, churn_point(reports))
        print(f"\nsurvival report written to {args.json_path}")
    return 0


def _cmd_attack_bench(args: argparse.Namespace) -> int:
    from repro.analysis.survival import attack_point, forged_write_totals
    from repro.metrics import MetricsStream
    from repro.simulation.cluster import attack_cluster_config
    from repro.simulation.experiment import run_attack_benchmark
    from repro.simulation.workload import TaggingWorkload

    workload = TaggingWorkload.from_triples(_load_dataset(args).triples())

    modes = [True, False] if args.verification == "both" else [args.verification == "on"]
    reports = {}
    for verification in modes:
        config = attack_cluster_config(
            num_nodes=args.nodes,
            verification=verification,
            sybil_count=args.sybil_count,
            compromised_fraction=args.compromised_fraction,
            forge_rate=args.forge_rate,
            append_forge_rate=args.append_forge_rate,
            stale_republish_rate=args.stale_republish_rate,
            eclipse=not args.no_eclipse,
            replicate=args.replicate,
            seed=args.seed,
        )
        label = "verification on" if verification else "verification off"
        suffix = "on" if verification else "off"
        stream = None
        if args.metrics_out is not None:
            stream = MetricsStream(
                path=_labelled_path(args.metrics_out, suffix, len(modes) > 1),
                prom_path=_labelled_path(args.prom_out, suffix, len(modes) > 1),
            )
        report = run_attack_benchmark(
            config,
            workload,
            ops=args.ops,
            duration_s=args.duration,
            sample_every_s=args.sample_every,
            target_keys=args.targets,
            metrics_stream=stream,
        )
        if stream is not None:
            stream.close()
        reports[label] = report

    metrics = [
        "blocks_written", "targets", "final_availability", "lost_blocks",
        "integrity_violations", "foreign_entries", "forged_reads_rejected",
        "honest_appends", "honest_append_failures", "eclipse_progress",
        "likir_verified", "likir_rejected", "sybil_contacts_rejected",
        "messages_total", "virtual_time_s", "wall_time_s",
    ]
    summaries = {label: report.summary() for label, report in reports.items()}
    headers = ["metric", *reports.keys()]
    rows = [
        [metric, *[summaries[label].get(metric, 0.0) for label in summaries]]
        for metric in metrics
    ]
    print(format_table(
        headers, rows,
        title=(
            f"attack-bench -- {args.nodes} nodes, {args.duration:.0f}s attack, "
            f"{args.sybil_count} sybils, forge rate {args.forge_rate}/s"
        ),
    ))
    for label, summary in summaries.items():
        forged = forged_write_totals(summary)
        print(
            f"{label}: {forged['sent']} forged writes sent, "
            f"{forged['accepted']} accepted, {forged['rejected']} rejected"
        )

    if args.json_path:
        # The BENCH_attack.json shape, so the file feeds straight into
        # `dharma dashboard --attack` / `dharma audit --attack` (minus the
        # honest-overhead section only the benchmark measures).
        write_json(args.json_path, attack_point(
            list(reports.values()), sybil_count=args.sybil_count, targets=args.targets
        ))
        print(f"\nattack report written to {args.json_path}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.codec import encode_value
    from repro.core.compact import freeze_folksonomy
    from repro.core.faceted_search import FacetedSearch, ModelView
    from repro.core.tagging_model import derive_folksonomy_graph
    from repro.perf import PERF

    dataset = _load_dataset(args, limit=args.limit)

    PERF.reset()
    with PERF.timer("dataset.aggregate"):
        trg = dataset.to_tag_resource_graph()
    with PERF.timer("fg.derive"):
        fg = derive_folksonomy_graph(trg)
    # freeze() times itself under "core.freeze".
    compact = freeze_folksonomy(trg, fg)

    start_tags = [t for t in trg.most_popular_tags(100) if fg.out_degree(t) > 0]
    if not start_tags:
        print("dataset has no searchable tags; nothing to profile")
        return 1

    def run_searches(view, timer_name: str) -> float:
        engine = FacetedSearch(view, seed=args.seed)
        with PERF.timer(timer_name):
            for index in range(args.searches):
                engine.run(start_tags[index % len(start_tags)], args.strategy)
        return PERF.timer_stats(timer_name).total_s

    legacy_s = run_searches(ModelView(trg, fg), "search.legacy")
    frozen_s = run_searches(compact, "search.frozen")

    # Codec pass: every block of the folksonomy as the value union a STORE
    # carries, counting bytes.
    with PERF.timer("codec.encode"):
        total_bytes = 0
        blocks = 0
        for resource in trg.resources:
            payload = {"owner": resource, "type": "1", "entries": dict(trg.tags_of(resource))}
            total_bytes += len(encode_value(payload))
            uri = {"owner": resource, "type": "4", "uri": f"urn:dharma:{resource}"}
            total_bytes += len(encode_value(uri))
            blocks += 2
        for tag in trg.tags:
            payload = {"owner": tag, "type": "2", "entries": dict(trg.resources_of(tag))}
            total_bytes += len(encode_value(payload))
            blocks += 1
        for tag in fg.tags:
            payload = {"owner": tag, "type": "3", "entries": dict(fg.out_arcs(tag))}
            total_bytes += len(encode_value(payload))
            blocks += 1
    PERF.count("codec.blocks", blocks)
    PERF.count("codec.bytes", total_bytes)

    peak_rss = PERF.sample_peak_rss()
    speedup = legacy_s / frozen_s if frozen_s else float("inf")
    print(format_mapping(
        {
            "tags": trg.num_tags,
            "resources": trg.num_resources,
            "trg edges": trg.num_edges,
            "fg arcs": fg.num_arcs,
            "searches per engine": args.searches,
            "legacy search (s)": round(legacy_s, 4),
            "frozen search (s)": round(frozen_s, 4),
            "frozen speedup": round(speedup, 2),
            "codec blocks": blocks,
            "codec bytes": total_bytes,
            "codec bytes/block": round(total_bytes / blocks, 1) if blocks else 0.0,
            "peak RSS (MiB)": round(peak_rss / (1024 * 1024), 1),
        },
        title=f"profile -- interned core ({args.strategy} strategy)",
    ))
    print()
    print(PERF.report())

    if args.json_path:
        snapshot = PERF.snapshot()
        snapshot["summary"] = {
            "legacy_search_s": legacy_s,
            "frozen_search_s": frozen_s,
            "frozen_speedup": speedup,
            "codec_blocks": blocks,
            "codec_bytes": total_bytes,
            "searches": args.searches,
            "strategy": args.strategy,
            "peak_rss_bytes": peak_rss,
        }
        write_json(args.json_path, snapshot)
        print(f"\nperf snapshot written to {args.json_path}")
    return 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from repro.analysis.dashboard import dashboard_data, load_benchmark, render_dashboard
    from repro.metrics import read_metrics_log

    data = dashboard_data(
        {kind: load_benchmark(getattr(args, kind)) for kind in _BENCH_POINTS},
        read_metrics_log(args.metrics) if args.metrics is not None else None,
    )
    if args.json_output:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(render_dashboard(data))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.analysis.audit import run_audit

    inputs = {name: getattr(args, name) for name in ("snapshot", "metrics", *_BENCH_POINTS)}
    if all(path is None for path in inputs.values()):
        flags = ", ".join(f"--{name}" for name in inputs)
        print(f"nothing to audit: pass at least one of {flags}", file=sys.stderr)
        return 2
    report = run_audit(**inputs)
    if args.json_output:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses
    import random as random_module
    import signal

    from repro.dht.likir import CertificationService
    from repro.dht.node import NodeConfig
    from repro.dht.node_id import NodeID
    from repro.net.base import TransportError
    from repro.net.server import ServeNode
    from repro.net.udp import UdpTransportConfig

    certification = None
    node_id = NodeID.hash_of(args.node_name) if args.node_name else None
    if args.verify:
        if args.cert_seed is None:
            print("--verify requires --cert-seed (the shared trust root)", file=sys.stderr)
            return 2
        # Stateless issuance: every process holding the seed derives the
        # same identity per user, so independently started nodes verify
        # each other's credentials without a shared registry.
        certification = CertificationService(seed=args.cert_seed, stateless=True)
        if args.node_name:
            node_id = certification.register(args.node_name).node_id
    try:
        node = ServeNode(
            host=args.host,
            port=args.port,
            node_id=node_id,
            node_config=NodeConfig(
                k=args.k,
                alpha=args.alpha,
                replicate=args.replicate,
                verify_credentials=args.verify,
            ),
            certification=certification,
            transport_config=UdpTransportConfig(
                timeout_ms=args.timeout_ms,
                retries=args.retries,
                max_datagram=args.max_datagram,
            ),
        )
    except OSError as exc:
        print(f"cannot bind udp://{args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    # SIGTERM (docker stop, systemd, most supervisors) leaves the overlay the
    # way Ctrl-C does, for as long as this command runs -- during bootstrap
    # too.  Only the main thread may install handlers; a caller on another
    # thread keeps its own.
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, signal.default_int_handler)
    except ValueError:
        previous_sigterm = None
    try:
        try:
            # The "listening" line is the machine-readable handshake: the
            # smoke test (and any operator script) parses the udp:// endpoint
            # from it, so it must be first and flushed before bootstrap begins.
            print(
                f"dharma node {node.node_id.hex()} listening on udp://{node.address}",
                flush=True,
            )
            try:
                contact = node.bootstrap(args.join)
            except TransportError as exc:
                print(f"bootstrap failed: {exc}", file=sys.stderr, flush=True)
                return 1
            if contact is None:
                print("founded a new overlay (no --join given)", flush=True)
            else:
                print(
                    f"joined overlay via {contact.address} "
                    f"(peer {contact.node_id.hex()[:12]}…)",
                    flush=True,
                )
            rng = random_module.Random(0)
            deadline = (
                None if args.run_seconds is None else time.monotonic() + args.run_seconds
            )
            next_refresh = (
                None
                if args.refresh_seconds <= 0
                else time.monotonic() + args.refresh_seconds
            )
            while deadline is None or time.monotonic() < deadline:
                time.sleep(0.2)
                if next_refresh is not None and time.monotonic() >= next_refresh:
                    try:
                        node.refresh(rng)
                    except TransportError:
                        pass
                    next_refresh = time.monotonic() + args.refresh_seconds
        except KeyboardInterrupt:
            print("interrupted, leaving the overlay", flush=True)
        stats = node.stats()
        print(
            f"served {sum(stats.rpcs_served.values())} RPCs "
            f"({stats.routing_contacts} contacts, {stats.suspects} suspects, "
            f"{stats.stored_items} stored items)",
            flush=True,
        )
        if args.stats_out is not None:
            write_json(args.stats_out, dataclasses.asdict(stats))
        return 0
    finally:
        node.close()
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "evolve": _cmd_evolve,
    "converge": _cmd_converge,
    "overlay": _cmd_overlay,
    "churn-bench": _cmd_churn_bench,
    "attack-bench": _cmd_attack_bench,
    "profile": _cmd_profile,
    "dashboard": _cmd_dashboard,
    "audit": _cmd_audit,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``dharma`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
