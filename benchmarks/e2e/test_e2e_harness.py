"""Unit tests of the end-to-end benchmark harness, plus its smoke run.

Collected by ``pytest benchmarks/`` (the CI ``bench-smoke`` job), not by the
tier-1 suite.  The unit tests need nothing but the harness's own files; the
smoke test drives ``run.py --smoke`` over all five workloads, including the
``dharma serve`` child processes.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import floor, run, serve_procs  # noqa: E402

RUN = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py")]


# -- floor.py ------------------------------------------------------------------ #


def _noisy_replays(true_latencies, replays, rng):
    """Each replay is the true cost plus jitter, with 2x noise bursts: whole
    windows of consecutive ops running at half speed, as on a shared vCPU."""
    out = []
    for _ in range(replays):
        replay = [cost * (1.0 + rng.uniform(0.0, 0.01)) for cost in true_latencies]
        for _ in range(4):
            start = rng.randrange(len(replay))
            for index in range(start, min(start + len(replay) // 8, len(replay))):
                replay[index] *= 2.0
        out.append(replay)
    return out


def test_floor_recovers_true_cost_under_noise_bursts():
    rng = random.Random(7)
    truth = [rng.uniform(0.001, 0.004) for _ in range(400)]
    replays = _noisy_replays(truth, 10, rng)
    summary = floor.summarise(replays)
    true_ops_per_s = len(truth) / sum(truth)
    assert summary.ops_per_s == pytest.approx(true_ops_per_s, rel=0.02)
    assert summary.p50_ms == pytest.approx(floor.percentile(truth, 50.0) * 1e3, rel=0.02)
    assert summary.tail_ms == pytest.approx(floor.percentile(truth, 95.0) * 1e3, rel=0.02)
    # ... which a plain median over the same replays does not:
    assert summary.plain_median_ops_per_s < true_ops_per_s * 0.9
    assert summary.samples_beyond_tail == 20


def test_unfloored_summary_is_replay_zero_as_measured():
    replays = [[0.3, 0.3, 0.45, 0.15], [0.1, 0.1, 0.1, 0.1]]
    summary = floor.summarise(replays, floored=False)
    assert summary.ops_per_s == pytest.approx(4 / 1.2)
    assert summary.tail_ms == pytest.approx(450.0)


def test_identity_guard_aborts_on_diverging_replay():
    floor.check_replay_identity([279_654] * 10)
    floor.check_replay_identity([54_496, 54_642, 54_500], tolerance=0.005)
    with pytest.raises(floor.ReplayDiverged, match="replay 3 sent 279655"):
        floor.check_replay_identity([279_654, 279_654, 279_654, 279_655])
    with pytest.raises(floor.ReplayDiverged):
        floor.check_replay_identity([54_496, 54_800], tolerance=0.005)
    with pytest.raises(floor.ReplayDiverged, match="ran 2 ops"):
        floor.replay_floor([[1.0, 2.0, 3.0], [1.0, 2.0]])


def test_supported_percentile_needs_ten_samples_beyond():
    assert floor.supported_percentile(200, 95.0) == 95.0
    assert floor.supported_percentile(199, 95.0) == 90.0
    assert floor.supported_percentile(100, 95.0) == 90.0
    assert floor.supported_percentile(48, 95.0) == 75.0
    assert floor.supported_percentile(12, 95.0) == 50.0
    assert floor.supported_percentile(5000, 95.0) == 95.0  # never above what was asked


def test_percentile_averages_a_window_of_order_statistics():
    values = [float(v) for v in range(1, 201)]
    assert floor.percentile(values, 50.0) == 100.5  # ranks 96..105
    assert floor.percentile(values, 95.0) == 190.5  # ranks 186..195
    assert floor.percentile([3.0], 99.0) == 3.0
    # One op changing cost class next to the wanted rank moves the plain
    # nearest-rank value by the whole gap, the windowed one by a tenth of it.
    classes = [1.0] * 100 + [2.0] * 100
    flipped = [1.0] * 99 + [2.0] * 101
    assert sorted(flipped)[99] - sorted(classes)[99] == 1.0
    assert floor.percentile(flipped, 50.0) - floor.percentile(classes, 50.0) == pytest.approx(0.1)


# -- --compare ----------------------------------------------------------------- #


def _document(tmp_path, name, scale=None, smoke=False, failed=0):
    spec = run.load_spec()
    scale = scale or {}
    metrics = {
        entry["name"]: {"value": 100.0 * scale.get(entry["name"], 1.0), "unit": entry["unit"]}
        for entry in spec["end_to_end"]
    }
    document = {
        "stamp": {"git_sha": "0" * 40, "seed": 0, "seconds": 10.0, "replays": 10,
                  "ops": {"sim-tag-1k": 300}, "smoke": smoke},
        "workloads": {
            "sim-tag-1k": {"metrics": metrics, "attempted": 400, "failed": failed,
                           "correct": not failed},
        },
    }
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    base = _document(tmp_path, "a.json")
    assert run.compare(base, _document(tmp_path, "same.json")) == 0
    assert "overall: PASS" in capsys.readouterr().out
    # ops_per_s (higher is better): slower by 0.7 of its bound is inside the
    # bound but beyond what one commit's own sets show; by 1.2 of it fails.
    bound = next(e["bound"] for e in run.load_spec()["end_to_end"] if e["name"] == "ops_per_s")
    slower = _document(tmp_path, "u.json", {"ops_per_s": 1 - 0.7 * bound})
    assert run.compare(base, slower) == 0
    assert "UNRESOLVED" in capsys.readouterr().out
    assert run.compare(base, _document(tmp_path, "f.json", {"ops_per_s": 1 - 1.2 * bound})) == 1
    assert "FAIL" in capsys.readouterr().out
    # An improvement is never a failure, in either direction of "better".
    better = _document(tmp_path, "b.json", {"ops_per_s": 1.5, "op_p50_ms": 0.5})
    assert run.compare(base, better) == 0
    # Failed operations fail the comparison whatever the timings say.
    assert run.compare(base, _document(tmp_path, "x.json", failed=3)) == 1


def test_compare_refuses_smoke_and_mismatched_sets(tmp_path, capsys):
    base = _document(tmp_path, "a.json")
    assert run.compare(base, _document(tmp_path, "s.json", smoke=True)) == 2
    assert "smoke" in capsys.readouterr().err
    other = json.loads(Path(base).read_text())
    other["stamp"]["seed"] = 1
    path = tmp_path / "seed1.json"
    path.write_text(json.dumps(other))
    assert run.compare(base, str(path)) == 2


# -- process hygiene ----------------------------------------------------------- #


def _serve_children():
    """Command lines of live ``dharma serve`` benchmark children."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
            except OSError:
                continue
            if "repro.cli serve" in cmdline and "--node-name bench-" in cmdline:
                found.append(cmdline)
    return found


def test_spawn_failure_carries_the_childs_output(tmp_path):
    fleet = serve_procs.ServeFleet(
        src_dir=str(ROOT / "src"), scratch_dir=str(tmp_path), handshake_timeout_s=20
    )
    with pytest.raises(serve_procs.SpawnError, match="unrecognized arguments: --no-such-flag"):
        fleet.spawn("bench-broken", None, ["--no-such-flag"])
    assert not fleet.children[0].alive()
    assert not list(tmp_path.glob(".bench-e2e-*"))


def test_pinning_falls_back_with_a_warning(monkeypatch):
    def refuse(_pid, _cpus):
        raise OSError("not permitted")

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    cpu, warning = run.pin_to_one_cpu()
    assert cpu is None and "running unpinned" in warning


# -- the smoke run ------------------------------------------------------------- #


def test_smoke_run_covers_every_workload(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.monotonic()
    completed = subprocess.run(
        [*RUN, "--smoke", "--out", str(out)], capture_output=True, text=True, timeout=300
    )
    elapsed = time.monotonic() - started
    assert completed.returncode == 0, completed.stdout + completed.stderr
    document = json.loads(out.read_text())
    spec = run.load_spec()
    assert document["stamp"]["smoke"] is True
    assert set(document["workloads"]) == {entry["name"] for entry in spec["workloads"]}
    for name, result in document["workloads"].items():
        assert result["correct"] and result["failed"] == 0, (name, result["diagnostics"])
        for entry in spec["end_to_end"]:
            assert result["metrics"][entry["name"]]["value"] > 0, (name, entry["name"])
        assert result["metrics"]["trace.coverage_ratio"]["value"] > 0.5
        assert (tmp_path / f"smoke.{name}.spans.jsonl").stat().st_size > 0
    # Every metric the harness emits is declared in BENCHMARK.json.
    declared = {entry["name"] for entry in spec["end_to_end"] + spec["per_layer"]}
    emitted = {m for result in document["workloads"].values() for m in result["metrics"]}
    assert emitted <= declared, sorted(emitted - declared)
    assert _serve_children() == []
    # Smoke values are not measurements: --compare refuses them.
    refused = subprocess.run([*RUN, "--compare", str(out), str(out)], capture_output=True)
    assert refused.returncode == 2
    print(f"smoke set took {elapsed:.1f} s")
