"""Tests for the ``dharma`` command-line front-end."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.datasets.lastfm_synthetic import LastfmSyntheticConfig, generate_lastfm_like
from repro.datasets.loader import save_triples_tsv

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_KINDS = ("core", "churn", "attack", "scale", "wire")


def dashboard_of(tmp_path, **records) -> list[str]:
    """``dharma dashboard`` arguments that show only *records* (kind -> path):
    every other kind points at a file that does not exist."""
    argv = ["dashboard"]
    for kind in BENCH_KINDS:
        argv += [f"--{kind}", str(records.get(kind, tmp_path / f"missing_{kind}.json"))]
    return argv


def assert_churn_file_feeds_dashboard_and_audit(path, tmp_path, capsys, arms: int) -> None:
    """A ``churn-bench --json`` file is a ``BENCH_churn.json``-shaped record:
    the dashboard renders it and the audit gates the arms it has (a run this
    small may legitimately fail a gate -- exit 1 -- but must be *read*)."""
    capsys.readouterr()
    assert main(dashboard_of(tmp_path, churn=path)) == 0
    out = capsys.readouterr().out
    assert "churn survival (BENCH_churn.json)" in out
    assert out.count("availability  ") == arms
    assert main(["audit", "--churn", str(path)]) in (0, 1)
    assert f"{arms} churn arms" in capsys.readouterr().out


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "triples.tsv"
    dataset = generate_lastfm_like(
        LastfmSyntheticConfig(
            num_resources=80, num_tags=60, num_users=60, max_tags_per_resource=12,
            synonym_families=2, seed=5,
        )
    )
    save_triples_tsv(dataset, path)
    return path


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command, extra in [
            ("generate", ["out.tsv"]),
            ("stats", ["in.tsv"]),
            ("evolve", ["in.tsv"]),
            ("converge", ["in.tsv"]),
            ("overlay", ["in.tsv"]),
            ("churn-bench", []),
            ("attack-bench", []),
            ("profile", []),
            ("dashboard", []),
            ("audit", []),
            ("serve", []),
        ]:
            args = parser.parse_args([command, *extra])
            assert args.command == command

    def test_importing_the_cli_does_not_load_scipy(self):
        """Every ``dharma`` command and ``dharma serve`` child pays for what
        ``import repro.cli`` pulls in; scipy (~0.7 s, ~65 MB) is needed by
        one analysis function only."""
        import subprocess
        import sys

        probe = "import sys, repro.cli; sys.exit('scipy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", probe], timeout=60).returncode == 0

    def test_a_serve_child_imports_neither_numpy_nor_the_cluster_harness(self):
        """What ``python -m repro.cli serve`` loads before it answers its
        first RPC: the parser and the served node, nothing of the evaluation
        or simulation stack."""
        import subprocess
        import sys

        probe = (
            "import sys, repro.cli; repro.cli.build_parser(); import repro.net.server; "
            "heavy = ('numpy', 'scipy', 'repro.datasets.lastfm_synthetic', "
            "'repro.simulation.cluster'); "
            "sys.exit(', '.join(m for m in heavy if m in sys.modules) or 0)"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], timeout=60, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr

    def test_preset_choices_are_the_generator_presets(self):
        from repro.cli import _PRESET_NAMES
        from repro.datasets.lastfm_synthetic import PRESETS

        assert list(_PRESET_NAMES) == sorted(PRESETS)

    @pytest.mark.parametrize("flags", [
        ["--checkpoint-at", "5"],
        ["--checkpoint-out", "ck.json"],
        ["--halt-at-checkpoint"],
        ["--checkpoint-out", "ck.json", "--halt-at-checkpoint"],
    ])
    def test_churn_bench_rejects_half_a_checkpoint(self, flags, tmp_path, monkeypatch, capsys):
        """Refused while parsing -- not after the cluster is built and the
        workload replayed, and not by silently writing no snapshot."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["churn-bench", "--nodes", "16", "--ops", "4", "--duration", "10", *flags])
        assert exit_info.value.code == 2
        assert "--checkpoint-" in capsys.readouterr().err
        assert not (tmp_path / "ck.json").exists()


class TestCommands:
    def test_generate_writes_tsv(self, tmp_path, capsys):
        output = tmp_path / "generated.tsv"
        assert main(["generate", str(output), "--preset", "tiny", "--seed", "3"]) == 0
        assert output.exists()
        out = capsys.readouterr().out
        assert "generated dataset" in out

    def test_stats_prints_table_ii(self, dataset_path, capsys):
        assert main(["stats", str(dataset_path)]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "NFG(t)" in out

    def test_evolve_prints_table_iii(self, dataset_path, capsys):
        assert main(["evolve", str(dataset_path), "--k", "1", "--limit", "400"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "Recall" in out

    def test_converge_prints_table_iv(self, dataset_path, capsys):
        assert main(
            [
                "converge",
                str(dataset_path),
                "--start-tags", "5",
                "--random-runs", "3",
                "--limit", "400",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out
        assert "original" in out and "approximated" in out

    def test_overlay_replay_reports_costs(self, dataset_path, capsys):
        assert main(
            ["overlay", str(dataset_path), "--nodes", "8", "--limit", "60", "--k", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "overlay replay" in out
        assert "measured primitive costs" in out
        assert "hotspot" in out

    def test_profile_reports_perf_snapshot(self, tmp_path, capsys):
        json_path = tmp_path / "perf.json"
        assert main(
            [
                "profile",
                "--preset", "tiny",
                "--searches", "20",
                "--strategy", "first",
                "--json", str(json_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "profile -- interned core" in out
        assert "frozen speedup" in out
        assert "core.freeze" in out
        assert "codec bytes" in out
        import json as json_module

        snapshot = json_module.loads(json_path.read_text())
        assert snapshot["summary"]["searches"] == 20
        assert snapshot["counters"]["search.compact_runs"] == 20
        assert snapshot["timers"]["core.freeze"]["calls"] == 1
        assert snapshot["summary"]["codec_bytes"] > 0
        assert snapshot["summary"]["peak_rss_bytes"] > 0
        assert "peak RSS (MiB)" in out

    def test_profile_with_dataset_file(self, dataset_path, capsys):
        assert main(["profile", "--dataset", str(dataset_path), "--searches", "10"]) == 0
        out = capsys.readouterr().out
        assert "frozen speedup" in out

    def test_profile_limit_truncates_the_synthetic_preset(self, capsys):
        assert main(["profile", "--preset", "tiny", "--limit", "50", "--searches", "5"]) == 0
        out = capsys.readouterr().out
        edges = int(re.search(r"^trg edges\s*:\s*(\d+)$", out, flags=re.MULTILINE).group(1))
        assert 0 < edges <= 50

    def test_churn_bench_reports_survival(self, tmp_path, capsys):
        json_path = tmp_path / "churn.json"
        assert main(
            [
                "churn-bench",
                "--preset", "tiny",
                "--nodes", "24",
                "--ops", "20",
                "--duration", "30",
                "--mean-session", "40",
                "--republish-interval", "3",
                "--refresh-interval", "12",
                "--sample-every", "10",
                "--maintenance", "both",
                "--json", str(json_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "churn-bench -- 24 nodes" in out
        assert "final_availability" in out
        assert "availability CDF over probes (maintenance on)" in out
        assert "what maintenance buys" in out
        import json as json_module

        payload = json_module.loads(json_path.read_text())
        assert set(payload) == {
            "bench", "nodes", "duration_s", "maintenance_on", "maintenance_off", "deltas",
        }
        assert (payload["nodes"], payload["duration_s"]) == (24, 30.0)
        for report in (payload["maintenance_on"], payload["maintenance_off"]):
            assert 0.0 <= report["final_availability"] <= 1.0
            assert report["samples"]
        assert_churn_file_feeds_dashboard_and_audit(json_path, tmp_path, capsys, arms=2)

    def test_churn_bench_single_mode_skips_deltas(self, tmp_path, capsys):
        json_path = tmp_path / "churn_on.json"
        assert main(
            [
                "churn-bench",
                "--preset", "tiny",
                "--nodes", "16",
                "--ops", "12",
                "--duration", "20",
                "--mean-session", "30",
                "--republish-interval", "3",
                "--refresh-interval", "12",
                "--sample-every", "10",
                "--maintenance", "on",
                "--json", str(json_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "survival (maintenance on)" in out
        assert "what maintenance buys" not in out
        payload = json.loads(json_path.read_text())
        assert "maintenance_off" not in payload and "deltas" not in payload
        assert_churn_file_feeds_dashboard_and_audit(json_path, tmp_path, capsys, arms=1)


class TestObservabilityCommands:
    def test_checkpoint_halt_resume_audit_dashboard_cycle(self, tmp_path, capsys):
        """The full observability loop: halt at a checkpoint, resume, audit."""
        checkpoint = tmp_path / "checkpoint.json"
        metrics = tmp_path / "metrics.jsonl"
        prom = tmp_path / "metrics.prom"
        base = [
            "churn-bench",
            "--preset", "tiny",
            "--nodes", "16",
            "--ops", "12",
            "--duration", "20",
            "--mean-session", "30",
            "--republish-interval", "3",
            "--refresh-interval", "12",
            "--sample-every", "5",
            "--maintenance", "on",
        ]
        assert main(
            base + [
                "--metrics-out", str(metrics),
                "--prom-out", str(prom),
                "--checkpoint-out", str(checkpoint),
                "--checkpoint-at", "9",
                "--halt-at-checkpoint",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "halted at checkpoint" in out
        assert "--resume-from" in out
        assert checkpoint.exists() and metrics.exists() and prom.exists()

        resumed = tmp_path / "resumed.json"
        assert main(
            ["churn-bench", "--resume-from", str(checkpoint), "--metrics-out", str(metrics),
             "--json", str(resumed)]
        ) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
        assert "final_availability" in out
        payload = json.loads(resumed.read_text())
        assert (payload["nodes"], payload["duration_s"]) == (16, 20.0)
        assert payload["maintenance_on"]["samples"]
        assert_churn_file_feeds_dashboard_and_audit(resumed, tmp_path, capsys, arms=1)

        assert main(["audit", "--snapshot", str(checkpoint), "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "result: OK" in out
        assert "samples" in out

        assert main(["dashboard", "--metrics", str(metrics), "--json"]) == 0
        import json as json_module

        payload = json_module.loads(capsys.readouterr().out)
        assert payload["metrics"]["samples"] >= 2
        assert payload["metrics"]["live_nodes"]["last"] > 0

    def test_dashboard_renders_bench_trajectories(self, tmp_path, capsys):
        import json as json_module

        core = tmp_path / "BENCH_core.json"
        churn = tmp_path / "BENCH_churn.json"
        core.write_text(json_module.dumps({
            "preset": "small", "legacy_s": 1.2, "frozen_s": 0.3,
            "speedup": 4.0, "speedup_target": 3.0,
        }))
        churn.write_text(json_module.dumps({
            "nodes": 24, "duration_s": 60.0, "availability_floor": 0.99,
            "maintenance_on": {
                "final_availability": 1.0, "lost_blocks": 0, "blocks_written": 40,
                "integrity_violations": 0, "entries_checked": 30,
                "samples": [[10.0, 1.0], [20.0, 1.0]], "joins": 3,
                "graceful_leaves": 1, "crashes": 2, "live_nodes_end": 24,
                "messages_total": 1000,
            },
            "maintenance_off": None,
            "deltas": {"availability_delta": 0.1},
        }))
        assert main(
            ["dashboard", "--core", str(core), "--churn", str(churn)]
        ) == 0
        out = capsys.readouterr().out
        assert "core speed" in out
        assert "speedup gate" in out and "PASS" in out
        assert "churn survival" in out
        assert "floor 0.99: PASS" in out
        assert "on-vs-off deltas" in out

    def test_dashboard_with_nothing_to_show(self, tmp_path, capsys):
        assert main(
            [
                "dashboard",
                "--core", str(tmp_path / "missing_core.json"),
                "--churn", str(tmp_path / "missing_churn.json"),
                "--wire", str(tmp_path / "missing_wire.json"),
                "--scale", str(tmp_path / "missing_scale.json"),
                "--attack", str(tmp_path / "missing_attack.json"),
            ]
        ) == 0
        assert "nothing to show" in capsys.readouterr().out

    @staticmethod
    def _scale_record() -> dict:
        def rung(nodes, wall, rss):
            return {
                "nodes": nodes, "wall_s": wall, "peak_rss_bytes": rss,
                "virtual_time_s": 20.0, "messages_total": nodes * 10,
                "final_availability": 1.0, "queue_compactions": 0,
                "queue_heap_peak": nodes * 2.0,
            }

        return {
            "bench": "scale_ladder", "smoke": True,
            "promised_nodes": [1000, 4000, 10000],
            "ladder": [
                rung(1000, 1.5, 120 * 1024 * 1024),
                rung(4000, 4.0, 160 * 1024 * 1024),
                rung(10000, 11.0, 250 * 1024 * 1024),
            ],
        }

    def test_dashboard_renders_scale_ladder(self, tmp_path, capsys):
        import json as json_module

        scale = tmp_path / "BENCH_scale.json"
        scale.write_text(json_module.dumps(self._scale_record()))
        assert main(
            [
                "dashboard",
                "--core", str(tmp_path / "missing_core.json"),
                "--churn", str(tmp_path / "missing_churn.json"),
                "--wire", str(tmp_path / "missing_wire.json"),
                "--scale", str(scale),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "scale ladder" in out
        assert "1,000 -> 4,000 -> 10,000" in out
        assert "wall clock" in out and "peak RSS" in out

    def test_dashboard_scale_json_output(self, tmp_path, capsys):
        import json as json_module

        scale = tmp_path / "BENCH_scale.json"
        scale.write_text(json_module.dumps(self._scale_record()))
        assert main(
            [
                "dashboard",
                "--core", str(tmp_path / "missing_core.json"),
                "--churn", str(tmp_path / "missing_churn.json"),
                "--wire", str(tmp_path / "missing_wire.json"),
                "--scale", str(scale),
                "--json",
            ]
        ) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert [p["nodes"] for p in payload["scale"]["ladder"]] == [1000, 4000, 10000]
        assert payload["scale"]["ladder"][0]["wall_s"] == 1.5

    def test_audit_accepts_scale_ladder(self, tmp_path, capsys):
        import json as json_module

        scale = tmp_path / "BENCH_scale.json"
        scale.write_text(json_module.dumps(self._scale_record()))
        assert main(["audit", "--scale", str(scale)]) == 0
        out = capsys.readouterr().out
        assert "ladder points" in out
        assert "result: OK" in out

    def test_audit_flags_inconsistent_scale_file(self, tmp_path, capsys):
        import json as json_module

        record = self._scale_record()
        # Ladder no longer climbs, a measurement is junk, and a promised
        # rung is missing entirely.
        record["ladder"][1]["nodes"] = 500
        record["ladder"][2]["wall_s"] = 0.0
        record["promised_nodes"].append(100_000)
        scale = tmp_path / "BENCH_scale.json"
        scale.write_text(json_module.dumps(record))
        assert main(["audit", "--scale", str(scale)]) == 1
        out = capsys.readouterr().out
        assert "scale-not-monotone" in out
        assert "scale-bad-measurement" in out
        assert "scale-missing-point" in out
        assert "result: FAILED" in out

        # The gates bench_scale.py applies per rung: the record's own
        # availability floor and counter integrity.
        record = self._scale_record()
        record["availability_floor"] = 0.95
        record["ladder"][0]["final_availability"] = 0.5
        record["ladder"][2]["integrity_violations"] = 7
        scale.write_text(json_module.dumps(record))
        assert main(["audit", "--scale", str(scale)]) == 1
        out = capsys.readouterr().out
        assert "scale-availability" in out and "ladder point 0 (1000 nodes)" in out
        assert "scale-integrity" in out and "ladder point 2 (10000 nodes)" in out

    @staticmethod
    def _attack_record() -> dict:
        def arm(verification: bool) -> dict:
            protected = verification
            return {
                "verification": int(verification),
                "blocks_written": 40,
                "targets": 2,
                "final_availability": 1.0 if protected else 0.95,
                "lost_blocks": 0,
                "integrity_violations": 0 if protected else 4,
                "foreign_entries": 0 if protected else 2,
                "entries_checked": 30,
                "forged_reads_rejected": 3 if protected else 0,
                "honest_appends": 6,
                "honest_append_failures": 0 if protected else 2,
                "eclipse_progress": 0.0 if protected else 0.1,
                "likir_verified": 100 if protected else 0,
                "likir_rejected": 50 if protected else 0,
                "sybil_contacts_rejected": 200 if protected else 0,
                "messages_total": 4000,
                "attack_sybil_joins": 6,
                "attack_forge_bad_credential_sent": 10,
                "attack_forge_bad_credential_accepted": 0 if protected else 10,
                "attack_forge_bad_credential_rejected": 10 if protected else 0,
                "attack_stale_republish_sent": 5,
                "attack_stale_republish_accepted": 0 if protected else 5,
                "attack_stale_republish_rejected": 5 if protected else 0,
                "samples": [[10.0, 1.0], [20.0, 1.0 if protected else 0.95]],
            }

        return {
            "bench": "attack_resilience",
            "nodes": 32,
            "duration_s": 20.0,
            "availability_floor": 0.99,
            "overhead_budget": 1.15,
            "honest_overhead": {
                "messages_ratio": 1.01,
                "virtual_time_ratio": 1.0,
            },
            "verification_on": arm(True),
            "verification_off": arm(False),
        }

    def test_attack_bench_runs_both_arms_and_writes_json(self, tmp_path, capsys):
        import json as json_module

        output = tmp_path / "attack.json"
        assert main([
            "attack-bench", "--preset", "tiny",
            "--nodes", "24", "--ops", "30", "--duration", "15",
            "--sample-every", "5", "--sybil-count", "4",
            "--forge-rate", "0.5", "--targets", "2",
            "--seed", "3", "--json", str(output),
        ]) == 0
        out = capsys.readouterr().out
        assert "attack-bench" in out
        assert "integrity_violations" in out
        assert "forged writes sent" in out
        payload = json_module.loads(output.read_text())
        on, off = payload["verification_on"], payload["verification_off"]
        assert on["integrity_violations"] == 0
        # Identical campaign across arms.
        for key in on:
            if key.startswith("attack_") and key.endswith("_sent"):
                assert on[key] == off[key]

    def test_dashboard_renders_attack_section(self, tmp_path, capsys):
        import json as json_module

        attack = tmp_path / "BENCH_attack.json"
        attack.write_text(json_module.dumps(self._attack_record()))
        assert main(
            [
                "dashboard",
                "--core", str(tmp_path / "missing_core.json"),
                "--churn", str(tmp_path / "missing_churn.json"),
                "--wire", str(tmp_path / "missing_wire.json"),
                "--scale", str(tmp_path / "missing_scale.json"),
                "--attack", str(attack),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "attack A/B" in out
        assert "verification on" in out and "verification off" in out
        assert "sybil" in out
        assert "honest overhead" in out

    def test_audit_accepts_attack_record(self, tmp_path, capsys):
        import json as json_module

        attack = tmp_path / "BENCH_attack.json"
        attack.write_text(json_module.dumps(self._attack_record()))
        assert main(["audit", "--attack", str(attack)]) == 0
        out = capsys.readouterr().out
        assert "attack arms" in out
        assert "result: OK" in out

    def test_audit_flags_broken_attack_record(self, tmp_path, capsys):
        import json as json_module

        record = self._attack_record()
        # The arms no longer faced the same campaign, enforcement leaked,
        # and verification got expensive.
        record["verification_off"]["attack_forge_bad_credential_sent"] = 99
        record["verification_on"]["integrity_violations"] = 2
        record["honest_overhead"]["messages_ratio"] = 1.4
        attack = tmp_path / "BENCH_attack.json"
        attack.write_text(json_module.dumps(record))
        assert main(["audit", "--attack", str(attack)]) == 1
        out = capsys.readouterr().out
        assert "attack-trace-divergence" in out
        assert "attack-integrity" in out
        assert "attack-overhead" in out
        assert "result: FAILED" in out

        # The gates bench_attack.py applies on top: a campaign and an
        # enforcement that actually ran, and an unprotected arm that let
        # forgeries in.
        def no_forgery_accepted(record):
            for name in record["verification_off"]:
                if name.endswith("_accepted"):
                    record["verification_off"][name] = 0

        for corrupt, code in [
            (lambda r: r["verification_on"].update(attack_sybil_joins=0), "attack-no-sybils"),
            (lambda r: r["verification_on"].update(likir_rejected=0), "attack-nothing-rejected"),
            (no_forgery_accepted, "attack-no-forgery-accepted"),
        ]:
            record = self._attack_record()
            corrupt(record)
            attack.write_text(json_module.dumps(record))
            assert main(["audit", "--attack", str(attack)]) == 1
            out = capsys.readouterr().out
            assert code in out and "1 errors" in out

    def test_audit_flags_toothless_campaign(self, tmp_path, capsys):
        import json as json_module

        record = self._attack_record()
        # The unprotected arm shows no damage: the benchmark proves nothing.
        record["verification_off"]["integrity_violations"] = 0
        record["verification_off"]["final_availability"] = 1.0
        attack = tmp_path / "BENCH_attack.json"
        attack.write_text(json_module.dumps(record))
        assert main(["audit", "--attack", str(attack)]) == 1
        assert "attack-no-damage" in capsys.readouterr().out

    @staticmethod
    def _wire_point() -> dict:
        def summary(p50, samples):
            return {
                "samples": samples, "min_ms": p50 / 2, "p50_ms": p50,
                "p90_ms": p50 * 2, "p99_ms": p50 * 3, "max_ms": p50 * 4,
                "mean_ms": p50,
            }

        return {
            "bench": "wire_latency", "smoke": False, "nodes": 5,
            "rpc_samples": 4, "op_samples": 2,
            "wall_clock": {
                "rpc_ping": summary(0.2, 4), "rpc_find_node": summary(0.3, 4),
                "rpc_find_value": summary(0.3, 4), "rpc_store": summary(0.4, 4),
                "store": summary(2.0, 2), "append": summary(2.5, 2),
                "retrieve": summary(0.5, 2),
            },
            "wall_clock_degraded": {
                "store": summary(2.2, 2), "append": summary(2.6, 2),
                "retrieve": summary(0.6, 2),
            },
            "degraded": {
                "peers_killed": 1, "first_strike_ms": 6000.0,
                "p99_factor": 3.0, "p99_floor_ms": 2.0,
            },
            "virtual_time": {
                "store": summary(400.0, 2), "append": summary(450.0, 2),
                "retrieve": summary(70.0, 2),
            },
        }

    def test_dashboard_renders_wire_percentiles(self, tmp_path, capsys):
        import json as json_module

        wire = tmp_path / "BENCH_wire.json"
        wire.write_text(json_module.dumps(self._wire_point()))
        assert main(
            [
                "dashboard",
                "--core", str(tmp_path / "missing_core.json"),
                "--churn", str(tmp_path / "missing_churn.json"),
                "--wire", str(wire),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "wire latency" in out
        assert "wall clock (real sockets)" in out
        assert "virtual time (SimulatedNetwork model)" in out
        assert "wall clock, one peer dead" in out
        assert "rpc_ping" in out and "p99" in out

    def test_dashboard_wire_json_output(self, tmp_path, capsys):
        import json as json_module

        wire = tmp_path / "BENCH_wire.json"
        wire.write_text(json_module.dumps(self._wire_point()))
        assert main(
            [
                "dashboard",
                "--core", str(tmp_path / "missing_core.json"),
                "--churn", str(tmp_path / "missing_churn.json"),
                "--wire", str(wire),
                "--json",
            ]
        ) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["wire"]["nodes"] == 5
        assert payload["wire"]["wall_clock"]["rpc_ping"]["p50_ms"] == 0.2
        assert payload["wire"]["virtual_time"]["store"]["p99_ms"] == 1200.0

    def test_audit_accepts_wire_benchmark(self, tmp_path, capsys):
        import json as json_module

        wire = tmp_path / "BENCH_wire.json"
        wire.write_text(json_module.dumps(self._wire_point()))
        assert main(["audit", "--wire", str(wire)]) == 0
        out = capsys.readouterr().out
        assert "wire operations" in out
        assert "result: OK" in out

    def test_audit_flags_inconsistent_wire_file(self, tmp_path, capsys):
        import json as json_module

        point = self._wire_point()
        # p99 below p50 and one promised operation missing entirely.
        point["wall_clock"]["rpc_ping"]["p99_ms"] = 0.01
        del point["wall_clock"]["append"]
        wire = tmp_path / "BENCH_wire.json"
        wire.write_text(json_module.dumps(point))
        assert main(["audit", "--wire", str(wire)]) == 1
        out = capsys.readouterr().out
        assert "wire-unordered-percentiles" in out
        assert "wire-missing-op" in out
        assert "result: FAILED" in out

    def test_audit_gates_the_dead_peer_arm(self, tmp_path, capsys):
        import json as json_module

        wire = tmp_path / "BENCH_wire.json"
        # One dead peer stalls every store for a whole RPC budget again.
        point = self._wire_point()
        point["wall_clock_degraded"]["store"].update(p99_ms=6000.0, max_ms=6000.0)
        del point["wall_clock_degraded"]["append"]
        wire.write_text(json_module.dumps(point))
        assert main(["audit", "--wire", str(wire)]) == 1
        out = capsys.readouterr().out
        assert "wire-degraded-stall" in out and "'store'" in out
        assert "wall_clock_degraded has no record for operation 'append'" in out

        # A sub-millisecond healthy p99 is floored: 5 ms against 1.5 ms is
        # scheduler jitter, not a stall.
        point = self._wire_point()
        point["wall_clock_degraded"]["retrieve"].update(p99_ms=5.0, max_ms=5.0)
        wire.write_text(json_module.dumps(point))
        assert main(["audit", "--wire", str(wire)]) == 0
        capsys.readouterr()

        # A record from before the arm existed still audits, with a warning.
        point = self._wire_point()
        del point["wall_clock_degraded"], point["degraded"]
        wire.write_text(json_module.dumps(point))
        assert main(["audit", "--wire", str(wire)]) == 0
        assert "wire-no-degraded-arm" in capsys.readouterr().out

    @pytest.mark.parametrize("kind, corrupt, code", [pytest.param(*case, id=case[2]) for case in [
        ("core", lambda p: p.update(speedup=2.9), "core-speedup"),
        ("churn", lambda p: p["maintenance_off"].update(crashes=1), "churn-trace-divergence"),
        ("churn", lambda p: p["maintenance_on"].update(final_availability=0.98),
         "churn-availability"),
        ("churn", lambda p: p["maintenance_on"].update(integrity_violations=1), "churn-integrity"),
        ("churn", lambda p: p["maintenance_on"].update(churn_appends=0), "churn-no-appends"),
        ("churn", lambda p: [arm.update(crashes=0) for arm in
                             (p["maintenance_on"], p["maintenance_off"])], "churn-no-faults"),
        ("churn", lambda p: p["maintenance_off"].update(lost_blocks=0), "churn-no-loss"),
        ("scale", lambda p: p["ladder"][1].update(final_availability=0.5), "scale-availability"),
        ("scale", lambda p: p["ladder"][1].update(integrity_violations=7), "scale-integrity"),
        ("scale", lambda p: p["ladder"][2].update(crashes=0), "scale-no-faults"),
        ("scale", lambda p: p["ladder"][0].update(churn_appends=0), "scale-no-appends"),
        ("attack", lambda p: p["verification_on"].update(attack_sybil_joins=0),
         "attack-no-sybils"),
        ("attack", lambda p: p["verification_on"].update(honest_appends=0), "attack-no-appends"),
        ("attack", lambda p: p["verification_on"].update(likir_rejected=0),
         "attack-nothing-rejected"),
        ("attack", lambda p: p["verification_on"].update(final_availability=0.9),
         "attack-availability"),
        ("wire", lambda p: p["wall_clock"]["rpc_ping"].update(samples=399), "wire-sample-count"),
        ("wire", lambda p: p["wall_clock"]["rpc_store"].update(
            p50_ms=2000.0, p90_ms=2000.0, p99_ms=2000.0, max_ms=2000.0), "wire-slow-rpc"),
        ("wire", lambda p: p["degraded"].update(first_strike_ms=3.0), "wire-cheap-strike"),
    ]])
    def test_audit_fails_a_corrupted_copy_of_a_checked_in_point(
        self, kind, corrupt, code, tmp_path, capsys
    ):
        """Every gate a bench script applies to the record it writes is a
        gate of ``dharma audit --<kind>``: break one gated field of the
        checked-in point and the offline audit says which."""
        point = json.loads((REPO_ROOT / f"BENCH_{kind}.json").read_text())
        corrupt(point)
        path = tmp_path / f"BENCH_{kind}.json"
        path.write_text(json.dumps(point))
        assert main(["audit", f"--{kind}", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"[error] {code}: " in out
        assert "result: FAILED (1 errors, 0 warnings)" in out

    def test_audit_core_states_no_speed_gate_for_a_smoke_point(self, tmp_path, capsys):
        point = json.loads((REPO_ROOT / "BENCH_core.json").read_text())
        # BENCH_SMOKE=1 records the ratio it measured on a toy dataset and
        # no target; only a full-mode point is held to one.
        point.update(smoke=True, speedup=0.7, speedup_target=None)
        path = tmp_path / "BENCH_core.json"
        path.write_text(json.dumps(point))
        assert main(["audit", "--core", str(path)]) == 0
        assert "core readings" in capsys.readouterr().out

    def test_attack_metrics_log_is_range_checked_and_shows_availability(self, tmp_path, capsys):
        """An attack run's log carries ``attack.availability`` where a churn
        run's carries ``survival.availability``: same checks, same line."""
        log = REPO_ROOT / "BENCH_attack_metrics.jsonl"
        assert main([*dashboard_of(tmp_path), "--metrics", str(log)]) == 0
        assert "  availability   " in capsys.readouterr().out

        samples = [json.loads(line) for line in log.read_text().splitlines()]
        samples[3]["gauges"]["attack.availability"] = 1.2
        samples[5]["gauges"]["attack.eclipse_progress"] = -0.1
        broken = tmp_path / "attack_metrics.jsonl"
        broken.write_text("".join(json.dumps(s) + "\n" for s in samples))
        assert main(["audit", "--metrics", str(broken)]) == 1
        out = capsys.readouterr().out
        assert "gauge attack.availability is 1.2 at sample 3" in out
        assert "gauge attack.eclipse_progress is -0.1 at sample 5" in out
        assert out.count("gauge-out-of-range") == 2

    def test_dashboard_renders_the_churn_seed_sweep(self, tmp_path, capsys):
        record = Path(__file__).resolve().parents[1] / "BENCH_churn.json"
        rows = json.loads(record.read_text())["seed_sweep"]
        assert [row["seed"] for row in rows] == list(range(8))  # full mode
        assert main(dashboard_of(tmp_path, churn=record)) == 0
        out = capsys.readouterr().out
        assert "seed sweep (maintenance on, same config)" in out
        totals = [
            sum(row[name] for row in rows)
            for name in ("messages_total", "lost_blocks", "integrity_violations")
        ]
        assert re.search(r"total\s*\|\s*{}\s*\|\s*{}\s*\|\s*{}\s".format(*totals), out)

    def test_audit_requires_an_input(self, capsys):
        assert main(["audit"]) == 2
        assert "nothing to audit" in capsys.readouterr().err

    def test_serve_founds_an_overlay_and_writes_stats(self, tmp_path, capsys):
        import json as json_module

        stats_out = tmp_path / "serve_stats.json"
        assert main(
            [
                "serve",
                "--port", "0",
                "--run-seconds", "0.3",
                "--refresh-seconds", "0",
                "--stats-out", str(stats_out),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "listening on udp://127.0.0.1:" in out
        assert "founded a new overlay" in out
        assert "0 suspects" in out
        stats = json_module.loads(stats_out.read_text())
        assert stats["joined"] is True
        assert stats["address"].startswith("127.0.0.1:")
        assert stats["suspects"] == 0

    def test_serve_leaves_the_overlay_on_sigterm(self, tmp_path):
        """``docker stop`` / systemd send SIGTERM, not SIGINT: the node must
        still leave, print its summary and write ``--stats-out``."""
        import json as json_module
        import signal
        import subprocess
        import sys

        stats_out = tmp_path / "serve_stats.json"
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--refresh-seconds", "0", "--stats-out", str(stats_out)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            assert "listening on udp://127.0.0.1:" in child.stdout.readline()
            assert "founded a new overlay" in child.stdout.readline()
            child.send_signal(signal.SIGTERM)
            out, _ = child.communicate(timeout=10)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == 0
        assert "interrupted, leaving the overlay" in out
        assert "served 0 RPCs" in out
        assert json_module.loads(stats_out.read_text())["joined"] is True

    def test_serve_leaves_the_overlay_on_sigterm_during_bootstrap(
        self, tmp_path, capsys, monkeypatch
    ):
        """A SIGTERM that lands before the serve loop -- here, inside
        bootstrap -- still ends in the summary, ``--stats-out`` and exit 0."""
        import json as json_module
        import os
        import signal

        from repro.net.server import ServeNode

        bootstrap = ServeNode.bootstrap

        def terminated(node, join):
            os.kill(os.getpid(), signal.SIGTERM)
            return bootstrap(node, join)

        monkeypatch.setattr(ServeNode, "bootstrap", terminated)
        previous = signal.getsignal(signal.SIGTERM)
        stats_out = tmp_path / "serve_stats.json"
        assert main(
            ["serve", "--port", "0", "--run-seconds", "30", "--refresh-seconds", "0",
             "--stats-out", str(stats_out)]
        ) == 0
        out = capsys.readouterr().out
        assert "founded a new overlay" not in out
        assert "interrupted, leaving the overlay" in out
        assert "served 0 RPCs" in out
        assert json_module.loads(stats_out.read_text())["joined"] is False
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_serve_on_a_taken_port_reports_the_bind_error(self, capsys):
        import socket
        import threading

        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as holder:
            holder.bind(("127.0.0.1", 0))
            port = holder.getsockname()[1]
            threads = set(threading.enumerate())
            assert main(["serve", "--port", str(port), "--run-seconds", "0.1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()  # one line, not a traceback
        assert line.startswith(f"cannot bind udp://127.0.0.1:{port}: ")
        assert set(threading.enumerate()) == threads

    def test_audit_fails_on_violations(self, tmp_path, capsys):
        import json as json_module

        log = tmp_path / "broken.jsonl"
        samples = [
            {"seq": 0, "t_ms": 1000.0, "counters": {"net.messages_sent": 10},
             "gauges": {}, "deltas": {"net.messages_sent": 10}},
            {"seq": 2, "t_ms": 500.0, "counters": {"net.messages_sent": 4},
             "gauges": {"cache.hit_rate": 1.5}, "deltas": {"net.messages_sent": -6}},
        ]
        log.write_text("\n".join(json_module.dumps(s) for s in samples) + "\n")
        assert main(["audit", "--metrics", str(log)]) == 1
        out = capsys.readouterr().out
        assert "result: FAILED" in out
        assert "broken-sequence" in out
        assert "time-regression" in out
        assert "counter-rollback" in out
        assert "gauge-out-of-range" in out

    def test_audit_json_mode(self, tmp_path, capsys):
        import json as json_module

        log = tmp_path / "clean.jsonl"
        log.write_text(json_module.dumps(
            {"seq": 0, "t_ms": 0.0, "counters": {}, "gauges": {}, "deltas": {}}
        ) + "\n")
        assert main(["audit", "--metrics", str(log), "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["errors"] == []
