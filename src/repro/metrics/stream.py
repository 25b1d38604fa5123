"""The metrics stream and the event-queue-driven cluster recorder.

:class:`MetricsStream` is the sink: every :meth:`MetricsStream.emit` turns a
``(virtual time, counters, gauges)`` reading into a sample (with per-interval
deltas against the previous reading), appends it to an in-memory history,
and optionally writes it as one JSON line and/or re-renders a Prometheus
text-exposition file that a scraper can poll.

:class:`ClusterMetricsRecorder` is the source: attached to a
:class:`~repro.simulation.cluster.SimulatedCluster`, it schedules itself on
the shared event queue every ``interval_ms`` of *virtual* time and samples
the run's live state -- network message/byte counters, client lookup and
wire-byte totals, cache hits, maintenance and churn progress, perf-registry
counters, live-node and pending-event gauges.  Sampling is read-only and
draws no randomness, so turning metrics on cannot perturb a deterministic
run (the property the snapshot/restore tests rely on).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import IO, TYPE_CHECKING, Any

from repro.metrics.exporters import json_line, render_prometheus
from repro.perf import PERF, PerfRegistry
from repro.simulation.event_queue import Event

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.simulation.cluster import SimulatedCluster

__all__ = ["MetricsStream", "ClusterMetricsRecorder", "METRICS_TICK_LABEL"]

#: Event-queue label of the recorder's periodic sampling tick.
METRICS_TICK_LABEL = "metrics-tick"


class MetricsStream:
    """Sink for metric samples: in-memory history + optional files.

    *path* receives one JSON line per sample (append mode, flushed per
    sample so a killed run leaves a readable log); *prom_path* is rewritten
    with the latest sample's Prometheus text exposition on every emit.
    """

    def __init__(self, path: str | None = None, prom_path: str | None = None) -> None:
        self.path = path
        self.prom_path = prom_path
        self.samples: list[dict[str, Any]] = []
        self._seq = 0
        self._prev: dict[str, float] = {}
        self._handle: IO[str] | None = None

    # -- emitting ---------------------------------------------------------- #

    def emit(
        self,
        t_ms: float,
        counters: dict[str, float],
        gauges: dict[str, float],
    ) -> dict[str, Any]:
        """Record one reading; returns the finished sample dict."""
        ordered_counters = {name: counters[name] for name in sorted(counters)}
        sample = {
            "seq": self._seq,
            "t_ms": t_ms,
            "counters": ordered_counters,
            "gauges": {name: gauges[name] for name in sorted(gauges)},
            "deltas": {
                name: value - self._prev.get(name, 0)
                for name, value in ordered_counters.items()
            },
        }
        self._seq += 1
        self._prev = dict(ordered_counters)
        self.samples.append(sample)
        if self.path is not None:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(json_line(sample) + "\n")
            self._handle.flush()
        if self.prom_path is not None:
            with open(self.prom_path, "w", encoding="utf-8") as prom:
                prom.write(render_prometheus(sample))
        return sample

    @property
    def last(self) -> dict[str, Any] | None:
        return self.samples[-1] if self.samples else None

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- checkpoint support -------------------------------------------------- #

    def export_state(self) -> dict[str, Any]:
        """Continuity state for snapshot/restore (not the sample history)."""
        return {"seq": self._seq, "prev": dict(self._prev)}

    def restore_state(self, state: dict[str, Any]) -> None:
        self._seq = int(state["seq"])
        self._prev = dict(state["prev"])


class ClusterMetricsRecorder:
    """Samples a :class:`SimulatedCluster` on a virtual-time cadence."""

    def __init__(
        self,
        cluster: "SimulatedCluster",
        stream: MetricsStream,
        interval_ms: float,
        extra_gauges: Callable[[], dict[str, float]] | None = None,
        perf: PerfRegistry | None = None,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError("interval_ms must be > 0")
        self.cluster = cluster
        self.stream = stream
        self.interval_ms = interval_ms
        self.extra_gauges = extra_gauges
        self.perf = perf if perf is not None else PERF
        self._pending: Event | None = None
        self._next_at: float | None = None
        self._running = False

    # -- lifecycle --------------------------------------------------------- #

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Schedule the first sampling tick one interval from now."""
        if self._running:
            return
        self._running = True
        self.schedule_tick_at(self.cluster.queue.clock.now + self.interval_ms)

    def stop(self) -> None:
        self._running = False
        if self._pending is not None and not self._pending.cancelled:
            self._pending.cancel()
        self._pending = None
        self._next_at = None

    def schedule_tick_at(self, at: float) -> Event:
        """Schedule (or re-schedule after a restore) the next tick at *at*."""
        self._running = True
        self._next_at = at
        self._pending = self.cluster.queue.schedule_at(
            at, self._tick, label=METRICS_TICK_LABEL
        )
        return self._pending

    def _tick(self) -> None:
        self._pending = None
        if not self._running:
            return
        counters, gauges = self.collect()
        self.stream.emit(self.cluster.queue.clock.now, counters, gauges)
        # The next tick is pinned to this one's scheduled time, not to the
        # (possibly inflated) execution-time clock, so the cadence does not
        # drift when event execution charges latency to the shared clock.
        base = self._next_at if self._next_at is not None else self.cluster.queue.clock.now
        at = max(base + self.interval_ms, self.cluster.queue.clock.now)
        self.schedule_tick_at(at)

    # -- sampling ------------------------------------------------------------ #

    def collect(self) -> tuple[dict[str, float], dict[str, float]]:
        """One read-only reading of the cluster: ``(counters, gauges)``."""
        cluster = self.cluster
        net = cluster.overlay.network.stats
        counters: dict[str, float] = {
            "net.messages_sent": net.messages_sent,
            "net.messages_delivered": net.messages_delivered,
            "net.messages_dropped": net.messages_dropped,
            "net.rpcs_failed_unreachable": net.rpcs_failed_unreachable,
            "net.bytes_transferred": net.bytes_transferred,
            "queue.events_processed": cluster.queue.processed,
            "queue.compactions": cluster.queue.compactions,
        }
        if cluster.churn is not None:
            counters["churn.joins"] = cluster.churn.joins
            counters["churn.graceful_leaves"] = cluster.churn.graceful_leaves
            counters["churn.crashes"] = cluster.churn.crashes
        if cluster.maintenance is not None:
            for name, value in cluster.maintenance.stats.snapshot().items():
                counters[f"maint.{name}"] = value
        hits = misses = 0
        for service in cluster.services:
            stats = service.client.stats
            counters["client.lookups"] = counters.get("client.lookups", 0) + stats.lookups
            counters["client.puts"] = counters.get("client.puts", 0) + stats.puts
            counters["client.gets"] = counters.get("client.gets", 0) + stats.gets
            counters["client.appends"] = counters.get("client.appends", 0) + stats.appends
            if service.cache is not None:
                hits += service.cache.stats.hits
                misses += service.cache.stats.misses
        if cluster.services:
            counters["cache.hits"] = hits
            counters["cache.misses"] = misses
        for name, value in self.perf.counters.items():
            counters[f"perf.{name}"] = value

        gauges: dict[str, float] = {
            "nodes.live": float(len(cluster.overlay.live_nodes())),
            "queue.pending": float(len(cluster.queue)),
            # Raw heap footprint vs cancelled entries awaiting compaction:
            # together with queue.compactions these make the queue's memory
            # behaviour at 10k-node scale observable from the stream.
            "queue.heap_size": float(cluster.queue.heap_size()),
            "queue.cancelled_pending": float(cluster.queue.cancelled_pending),
        }
        for name, value in self.perf.gauges.items():
            gauges[f"perf.{name}"] = value
        reads = hits + misses
        if cluster.services:
            gauges["cache.hit_rate"] = hits / reads if reads else 0.0
        if self.extra_gauges is not None:
            gauges.update(self.extra_gauges())
        return counters, gauges

    # -- checkpoint support -------------------------------------------------- #

    def export_state(self) -> dict[str, Any]:
        return {
            "interval_ms": self.interval_ms,
            "next_at": self._next_at,
            "stream": self.stream.export_state(),
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Adopt a checkpointed recorder's cadence and stream continuity.

        The pending ``metrics-tick`` event itself is re-created by the
        snapshot layer's event-queue replay (via :meth:`schedule_tick_at`).
        """
        self.interval_ms = float(state["interval_ms"])
        next_at = state.get("next_at")
        self._next_at = float(next_at) if next_at is not None else None
        self.stream.restore_state(state["stream"])
