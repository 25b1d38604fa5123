"""What the benchmarks need of the program, checked in tier-1.

``benchmarks/e2e/trace.py`` wraps ~70 public calls by name, through
``owner.__dict__[attr]``: a method that is renamed, deleted or merely
*inherited* after a refactor crashes every ``--trace 1`` run, and two entries
resolving to the same attribute of the same object (an alias left behind for
compatibility) wrap it twice and double every count.  Without this module the
first to notice is ``pytest benchmarks/`` in CI's ``bench-smoke`` job.  It
reads the benchmark's tables and edits nothing there.
"""

import importlib
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.e2e import trace  # noqa: E402


def patch_sites() -> list[tuple[object, str, str]]:
    """``(owner object, attribute, where it is listed)`` of everything
    ``Tracer.install`` patches."""
    sites = []
    for module_name, class_name, attribute, _span in trace.TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        sites.append((owner, attribute, f"{module_name}:{class_name}.{attribute}"))
    for module_name, class_name in trace._REGISTER_TARGETS:
        owner = getattr(importlib.import_module(module_name), class_name)
        sites.append((owner, "register", f"{module_name}:{class_name}.register"))
    return sites


class TestTraceTargets:
    def test_every_target_is_defined_on_its_owner(self):
        missing = [
            where for owner, attribute, where in patch_sites()
            if attribute not in owner.__dict__
        ]
        assert not missing, f"trace.py targets that no longer resolve: {missing}"

    def test_no_target_is_wrapped_twice(self):
        seen: dict[tuple[int, str], str] = {}
        doubled = []
        for owner, attribute, where in patch_sites():
            first = seen.setdefault((id(owner), attribute), where)
            if first != where:
                doubled.append((first, where))
        assert not doubled, f"aliased trace.py targets (wrapped twice): {doubled}"

    def test_workloads_import(self):
        # Pulls in every name the five workloads use of the program.
        importlib.import_module("benchmarks.e2e.workloads")

