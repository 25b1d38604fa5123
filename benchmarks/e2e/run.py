"""End-to-end benchmark of the DHARMA stack: one command, every metric.

Three ways to call it::

    # the whole set: every workload in its own fresh subprocess, timed
    # replays then traced replays, a table per workload, JSON to --out
    python -m benchmarks.e2e.run [--workload W] [--seed S] [--smoke] [--out FILE]

    # one measurement of one workload in this process (what the benchmark
    # driver runs; the last stdout line is the result object)
    python3 benchmarks/e2e/run.py --workload W --seed S --seconds X --trace 0|1

    # judge two --out files against the bounds in BENCHMARK.json
    python -m benchmarks.e2e.run --compare A.json B.json

``BENCHMARK.json`` at the repository root is the single source of the metric
names, units, directions and regression bounds; this file only measures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):  # run as a script: become benchmarks.e2e.run
    sys.path[0] = str(ROOT)
    __package__ = "benchmarks.e2e"
    importlib.import_module(__package__)

SPEC_PATH = ROOT / "BENCHMARK.json"
#: ``--trace`` value of the children the whole-set mode spawns.
BOTH = "both"


def load_spec() -> dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def pin_to_one_cpu() -> tuple[int | None, str | None]:
    """Pin this process (and so its children) to one allowed CPU.

    One closed-loop client thread loses no parallelism on one core, and a
    single busy core has no idle-vCPU wake-up jitter.  Returns the CPU and,
    where pinning is unavailable, a warning instead of raising.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as exc:
        return None, f"sched_setaffinity unavailable ({exc!r}); running unpinned"
    return cpu, None


# --------------------------------------------------------------------------- #
# one workload, in this process
# --------------------------------------------------------------------------- #


def measure(args: argparse.Namespace) -> int:
    """Run one workload here and print its result object as the last line."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found: nothing to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    from . import workloads
    from .serve_procs import install_signal_handlers

    install_signal_handlers()
    cpu, warning = pin_to_one_cpu()
    spec = load_spec()
    workload = workloads.WORKLOADS[args.workload](
        seed=args.seed, seconds=args.seconds, smoke=args.smoke, root=str(ROOT)
    )
    replays = workloads.REPLAYS_SMOKE if args.smoke else workloads.REPLAYS
    traced_replays = 1 if args.smoke else workloads.TRACED_REPLAYS
    part = workloads.measure(
        workload,
        replays=replays,
        traced_replays=traced_replays,
        budget_s=workloads.BUDGET_FACTOR * args.seconds,
        timed=args.trace in ("0", BOTH),
        traced=args.trace in ("1", BOTH),
        spans_path=args.spans,
    )
    measured: dict[str, tuple[float, str]] = part["metrics"]
    attempted, failed = part["attempted"], part["failed"]
    result: dict[str, Any] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
    }
    if args.trace == BOTH:
        result["metrics"] = {
            name: {"value": value, "unit": unit} for name, (value, unit) in measured.items()
        }
        result["workload"] = args.workload
        result["ops"] = workload.ops
        result["pinned_cpu"] = cpu
        result["warnings"] = [warning] if warning else []
        result["diagnostics"] = part["diagnostics"]
    else:
        # The driver's contract: exactly the metrics BENCHMARK.json lists for
        # this mode.  A per-layer metric whose layer is not on this
        # workload's path reads 0 here (it is omitted from the full report).
        listed = spec["end_to_end" if args.trace == "0" else "per_layer"]
        metrics = {}
        for entry in listed:
            value, _unit = measured.get(entry["name"], (0.0, entry["unit"]))
            if args.trace == "0" and entry["name"] not in measured:
                raise RuntimeError(f"end-to-end metric {entry['name']!r} was not measured")
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        result["metrics"] = metrics
    for note in part["diagnostics"]["check_failures"]:
        print(f"check failed: {note}", file=sys.stderr)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# --------------------------------------------------------------------------- #
# the whole set, one subprocess per workload
# --------------------------------------------------------------------------- #


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _print_table(name: str, result: dict[str, Any], spec: dict[str, Any]) -> None:
    end_to_end = {entry["name"] for entry in spec["end_to_end"]}
    diagnostics = result["diagnostics"]
    print(f"\n== {name}: {result['ops']} ops x {diagnostics['replays']} replays, "
          f"{diagnostics['samples_beyond_p95']} samples beyond p95, "
          f"{result['attempted']} attempted / {result['failed']} failed ==")
    for group, wanted in (("end to end", True), ("per layer", False)):
        print(f"  -- {group} --")
        for metric, body in result["metrics"].items():
            if (metric in end_to_end) == wanted:
                print(f"  {metric:<42} {body['value']:>14.6g} {body['unit']}")
    print(f"  (plain median {diagnostics['plain_median_ops_per_s']:.1f} ops/s, "
          f"replay spread {diagnostics['plain_spread']:.1%}; "
          f"messages per replay {diagnostics['messages_per_replay']})")


def run_set(args: argparse.Namespace) -> int:
    """Every selected workload in its own fresh subprocess."""
    spec = load_spec()
    names = args.workload_list or [entry["name"] for entry in spec["workloads"]]
    out_path = Path(args.out) if args.out else None
    results: dict[str, Any] = {}
    status = 0
    for name in names:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", BOTH,
        ]
        if args.smoke:
            command.append("--smoke")
        if out_path is not None:
            command += ["--spans", str(out_path.with_suffix("")) + f".{name}.spans.jsonl"]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"\n== {name}: no result (exit code {completed.returncode}) ==")
            status = 1
            continue
        results[name] = result
        _print_table(name, result, spec)
        if completed.returncode != 0 or not result["correct"]:
            print(f"  FAILED: {result['diagnostics'].get('check_failures')}")
            status = 1
    document = {
        "stamp": {
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "pinned_cpu": next((r["pinned_cpu"] for r in results.values()), None),
            "seed": args.seed,
            "seconds": args.seconds,
            "replays": next((r["diagnostics"]["replays"] for r in results.values()), None),
            "ops": {name: r["ops"] for name, r in results.items()},
            "smoke": args.smoke,
            "network": "loopback (127.0.0.1)",
        },
        "workloads": results,
    }
    if out_path is not None:
        out_path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {out_path}")
    return status


# --------------------------------------------------------------------------- #
# --compare
# --------------------------------------------------------------------------- #


def compare(path_a: str, path_b: str) -> int:
    """Judge set B against set A with the bounds of BENCHMARK.json.

    Per workload x end-to-end metric: PASS when B is no worse than A by more
    than half the bound (what two sets of one commit must show), UNRESOLVED
    when it is worse by more than that but within the bound (inside the
    benchmark's own noise allowance: rerun before concluding), FAIL beyond
    the bound.  Exits non-zero on any FAIL, or on operations that failed.
    """
    spec = load_spec()
    documents = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        if document["stamp"].get("smoke"):
            print(f"error: {path} is a smoke run; smoke values are not measurements",
                  file=sys.stderr)
            return 2
        documents.append(document)
    a, b = documents
    for key in ("seed", "seconds", "replays", "ops"):
        if a["stamp"].get(key) != b["stamp"].get(key):
            print(f"error: the sets differ in {key}: "
                  f"{a['stamp'].get(key)!r} vs {b['stamp'].get(key)!r}", file=sys.stderr)
            return 2
    for label, path, document in (("A", path_a, a), ("B", path_b, b)):
        print(f"{label}: {path} ({document['stamp']['git_sha'][:12]})")
    print(f"{'workload':<16} {'metric':<14} {'A':>12} {'B':>12} {'B vs A':>9} {'bound':>7}"
          "  verdict")
    worst = "PASS"
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        side_a, side_b = a["workloads"][name], b["workloads"][name]
        for entry in spec["end_to_end"]:
            value_a = side_a["metrics"][entry["name"]]["value"]
            value_b = side_b["metrics"][entry["name"]]["value"]
            change = (value_b - value_a) / value_a
            worse = change if entry["better"] == "lower" else -change
            if worse > entry["bound"]:
                verdict = "FAIL"
            elif worse > entry["bound"] / 2:
                verdict = "UNRESOLVED"
            else:
                verdict = "PASS"
            if verdict == "FAIL" or (verdict == "UNRESOLVED" and worst == "PASS"):
                worst = verdict
            print(f"{name:<16} {entry['name']:<14} {value_a:>12.5g} {value_b:>12.5g} "
                  f"{change:>+9.2%} {entry['bound']:>7.1%}  {verdict}")
        for side, label in ((side_a, "A"), (side_b, "B")):
            if side["failed"]:
                print(f"{name:<16} {label}: {side['failed']} of {side['attempted']} "
                      "operations or checks failed  FAIL")
                worst = "FAIL"
    print(f"overall: {worst}")
    return 1 if worst == "FAIL" else 0


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e.run", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", action="append", dest="workload_list", metavar="W",
                        help="workload to run (repeatable; default: all in BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=0,
                        help="reseeds op order, overlay ids, search draws, churn trace")
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal measuring time per run; scales the op count "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", choices=("0", "1", BOTH), default=None,
                        help="measure one workload in this process: 0 = end-to-end metrics "
                             "(tracing off), 1 = per-layer metrics (traced replays)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, 3 replays; values are flagged and refused by --compare")
    parser.add_argument("--out", default=None, help="write the set's results as JSON")
    parser.add_argument("--spans", default=None,
                        help="(with --trace) write the spans of traced replay 0 as JSON lines")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files against the bounds")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.trace is None:
        return run_set(args)
    if not args.workload_list or len(args.workload_list) != 1:
        parser.error("--trace measures exactly one --workload")
    args.workload = args.workload_list[0]
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
