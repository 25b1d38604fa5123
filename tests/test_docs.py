"""Docs stay in sync with the code they describe.

The contract: every ``dharma`` subcommand has a ``## dharma <name>`` section
in ``docs/CLI.md`` and vice versa, and the README links every docs page.
CI runs this module in its docs job, so adding a subcommand without
documenting it (or documenting one that no longer exists) fails the build.
"""

import json
import re
from pathlib import Path

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"


def parser_subcommands() -> set[str]:
    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if action.__class__.__name__ == "_SubParsersAction"
    )
    return set(subparsers.choices)


def cli_md_sections() -> set[str]:
    text = (DOCS / "CLI.md").read_text(encoding="utf-8")
    return set(re.findall(r"^## dharma ([a-z0-9-]+)\s*$", text, flags=re.MULTILINE))


class TestCliDocsDrift:
    def test_every_subcommand_is_documented(self):
        missing = parser_subcommands() - cli_md_sections()
        assert not missing, (
            f"subcommands missing a '## dharma <name>' section in docs/CLI.md: "
            f"{sorted(missing)}"
        )

    def test_no_stale_sections(self):
        stale = cli_md_sections() - parser_subcommands()
        assert not stale, (
            f"docs/CLI.md documents subcommands the parser does not have: "
            f"{sorted(stale)}"
        )

    def test_expected_surface(self):
        # The drift check above is relative; pin the absolute surface too so
        # an accidentally emptied parser cannot vacuously pass.
        assert parser_subcommands() >= {
            "generate", "stats", "evolve", "converge", "overlay",
            "churn-bench", "attack-bench", "profile",
            "dashboard", "audit", "serve",
        }


class TestDocsExist:
    def test_docs_pages_present(self):
        for name in ("ARCHITECTURE.md", "CLI.md", "BENCHMARKS.md"):
            page = DOCS / name
            assert page.is_file(), f"docs/{name} is missing"
            assert page.stat().st_size > 500, f"docs/{name} is a stub"

    def test_readme_links_the_docs(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for name in ("docs/ARCHITECTURE.md", "docs/CLI.md", "docs/BENCHMARKS.md"):
            assert name in readme, f"README.md does not link {name}"

    def test_architecture_names_every_package(self):
        text = (DOCS / "ARCHITECTURE.md").read_text(encoding="utf-8")
        for package in ("core", "dht", "distributed", "simulation", "analysis",
                        "metrics", "datasets", "net"):
            assert f"src/repro/{package}/" in text, (
                f"docs/ARCHITECTURE.md does not describe src/repro/{package}/"
            )


class TestCheckedInBenchmarkPoints:
    def test_no_checked_in_point_is_a_smoke_run(self):
        """README and docs quote the checked-in ``BENCH_*.json``; a point
        recorded under ``BENCH_SMOKE=1`` (shrunk cluster, relaxed gates)
        backs none of those numbers."""
        points = sorted(REPO_ROOT.glob("BENCH_*.json"))
        assert points, "no BENCH_*.json at the repo root"
        smoke = [
            path.name for path in points
            if json.loads(path.read_text(encoding="utf-8")).get("smoke") is not False
        ]
        assert not smoke, f"re-record without BENCH_SMOKE: {smoke}"

    def test_every_checked_in_point_passes_its_own_gates(self):
        """The numbers the README quotes are held to the gates the bench
        scripts apply when they write them (``dharma audit`` over the five
        records), and both checked-in metrics streams are well-formed."""
        from repro.analysis.audit import POINT_AUDITS, run_audit

        points = {
            path.stem.removeprefix("BENCH_"): path for path in REPO_ROOT.glob("BENCH_*.json")
        }
        assert set(points) == set(POINT_AUDITS)
        report = run_audit(**points)
        assert report.findings == [], report.render()
        logs = sorted(REPO_ROOT.glob("BENCH_*_metrics.jsonl"))
        assert [log.name for log in logs] == [
            "BENCH_attack_metrics.jsonl", "BENCH_churn_metrics.jsonl",
        ]
        for log in logs:
            report = run_audit(metrics=log)
            assert report.findings == [] and report.checked["samples"] > 0, report.render()
