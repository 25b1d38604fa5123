"""Lightweight performance counters and timers.

Performance that is measured needs observable hot paths: aggregate counts
and times here, per-layer attribution of one operation in the repository
benchmark (``benchmarks/e2e``).  This module provides a process-wide
:data:`PERF` registry of named counters and wall-clock timers that the core
instruments at coarse granularity (one event per freeze, per search run, per
codec pass -- never per inner-loop step, so the overhead is unmeasurable).
The ``dharma profile`` CLI subcommand drives a workload with the registry
enabled and prints/exports the resulting snapshot.

Usage::

    from repro.perf import PERF

    PERF.count("search.runs")
    with PERF.timer("core.freeze"):
        ...heavy work...

Counters and timers spring into existence on first use.  ``PERF.enabled``
can be flipped off to turn every call into a cheap no-op (timers still run
the body, they just skip the bookkeeping).
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["TimerStats", "PerfRegistry", "PERF", "peak_rss_bytes"]


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    Uses ``resource.getrusage`` where available (``ru_maxrss`` is reported in
    kilobytes on Linux and in bytes on macOS), falling back to the current
    ``tracemalloc`` peak (heap-only, and zero unless tracing was started) on
    platforms without the ``resource`` module.  Returns 0 when neither source
    has anything to report, so callers can treat the figure as best-effort.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        pass
    else:
        ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
            return int(ru_maxrss)
        return int(ru_maxrss) * 1024
    import tracemalloc  # pragma: no cover - fallback path

    if tracemalloc.is_tracing():  # pragma: no cover
        return tracemalloc.get_traced_memory()[1]
    return 0  # pragma: no cover


@dataclass(slots=True)
class TimerStats:
    """Accumulated wall-clock statistics of one named timer."""

    calls: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    def add(self, elapsed: float) -> None:
        self.calls += 1
        self.total_s += elapsed
        if elapsed > self.max_s:
            self.max_s = elapsed

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0


@dataclass
class PerfRegistry:
    """Named counters and timers with snapshot/report export."""

    enabled: bool = True
    counters: dict[str, int] = field(default_factory=dict)
    timers: dict[str, TimerStats] = field(default_factory=dict)
    #: Point-in-time measurements (e.g. memory) -- last write wins.
    gauges: dict[str, float] = field(default_factory=dict)

    # -- recording --------------------------------------------------------- #

    def count(self, name: str, amount: int = 1) -> None:
        """Add *amount* to the counter *name* (created at 0 on first use)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def timer(self, name: str):
        """Time the ``with`` body under *name* (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stats = self.timers.get(name)
            if stats is None:
                stats = self.timers[name] = TimerStats()
            stats.add(elapsed)

    def record_time(self, name: str, elapsed: float) -> None:
        """Fold an externally measured duration into timer *name*."""
        if not self.enabled:
            return
        stats = self.timers.get(name)
        if stats is None:
            stats = self.timers[name] = TimerStats()
        stats.add(elapsed)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value* (point-in-time, last write wins)."""
        if not self.enabled:
            return
        self.gauges[name] = float(value)

    def sample_peak_rss(self) -> int:
        """Record the process peak RSS under ``mem.peak_rss_bytes``.

        Returns the sampled figure so callers can use it inline; peak RSS is
        monotone over the process lifetime, so repeated samples only ever
        raise the gauge.
        """
        rss = peak_rss_bytes()
        self.gauge("mem.peak_rss_bytes", rss)
        return rss

    # -- reading ------------------------------------------------------------ #

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def timer_stats(self, name: str) -> TimerStats:
        return self.timers.get(name, TimerStats())

    def gauge_value(self, name: str) -> float:
        return self.gauges.get(name, 0.0)

    def reset(self) -> None:
        self.counters.clear()
        self.timers.clear()
        self.gauges.clear()

    def snapshot(self) -> dict[str, dict]:
        """JSON-serialisable dump of every counter, gauge and timer."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "timers": {
                name: {
                    "calls": stats.calls,
                    "total_s": stats.total_s,
                    "mean_s": stats.mean_s,
                    "max_s": stats.max_s,
                }
                for name, stats in sorted(self.timers.items())
            },
        }

    def restore(self, snapshot: dict[str, dict]) -> None:
        """Load a :meth:`snapshot` dump back into the registry.

        Used when resuming a checkpointed run, so cumulative counters (and
        the metrics stream derived from them) continue from where the
        interrupted run stopped instead of restarting at zero.
        """
        self.counters = {name: int(value) for name, value in snapshot.get("counters", {}).items()}
        # Older snapshots predate gauges; default to empty.
        self.gauges = {name: float(value) for name, value in snapshot.get("gauges", {}).items()}
        self.timers = {
            name: TimerStats(
                calls=int(stats["calls"]),
                total_s=float(stats["total_s"]),
                max_s=float(stats["max_s"]),
            )
            for name, stats in snapshot.get("timers", {}).items()
        }

    def report(self) -> str:
        """Human-readable two-section table of the snapshot."""
        lines: list[str] = []
        if self.counters:
            lines.append("counters:")
            width = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                lines.append(f"  {name:<{width}}  {self.counters[name]:>14,}")
        if self.gauges:
            if lines:
                lines.append("")
            lines.append("gauges:")
            width = max(len(name) for name in self.gauges)
            for name in sorted(self.gauges):
                lines.append(f"  {name:<{width}}  {self.gauges[name]:>18,.1f}")
        if self.timers:
            if lines:
                lines.append("")
            lines.append("timers:")
            width = max(len(name) for name in self.timers)
            lines.append(f"  {'name':<{width}}  {'calls':>8}  {'total s':>10}  {'mean ms':>10}  {'max ms':>10}")
            for name in sorted(self.timers):
                stats = self.timers[name]
                lines.append(
                    f"  {name:<{width}}  {stats.calls:>8}  {stats.total_s:>10.3f}"
                    f"  {stats.mean_s * 1e3:>10.3f}  {stats.max_s * 1e3:>10.3f}"
                )
        return "\n".join(lines) if lines else "(no perf data recorded)"


#: Process-wide default registry used by the instrumented core paths.
PERF = PerfRegistry()
