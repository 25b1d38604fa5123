"""The benchmark's workloads and the measurement protocol that runs them.

Five workloads, each stressing different layers (see ``README.md`` for the
rationale and the layer -> end-to-end table):

``sim-tag-1k``       write path on a 1,000-node simulated overlay
``sim-search-1k``    read path (faceted search) on the same overlay, populated
``sim-churn-256``    background work: maintenance + churn on the event queue
``udp-serve-6``      six ``dharma serve`` OS processes on loopback, healthy
``udp-degraded-6``   the same overlay with one peer SIGKILLed (timer-bound)

Every workload is a deterministic sequence of ``ops`` operations derived from
the seed.  :func:`measure` replays it ``R`` times doing identical work and keeps the
per-op minimum (:mod:`floor`), with exact counters from replay 0, then repeats
a few replays with the layer wrappers of :mod:`trace` installed for the
per-layer metrics.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import signal
import statistics
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace
from typing import Any

from repro.core.approximation import default_approximation
from repro.core.tagging_model import TaggingModel
from repro.datasets.lastfm_synthetic import generate_lastfm_like
from repro.dht.node import NodeConfig
from repro.dht.node_id import NodeID
from repro.distributed.approximated_protocol import ApproximatedProtocol
from repro.distributed.block_store import BlockStore
from repro.distributed.search_client import DistributedFacetedSearch
from repro.distributed.tagging_service import DharmaService, ServiceConfig
from repro.net.server import ServeNode
from repro.net.udp import UdpTransportConfig
from repro.perf import PERF, peak_rss_bytes
from repro.simulation.cluster import ClusterConfig, SimulatedCluster, churn_cluster_config
from repro.simulation.workload import TaggingWorkload, WorkloadEvent

from . import floor
from .serve_procs import ServeFleet
from .trace import Tracer

__all__ = ["WORKLOADS", "Workload", "measure"]

#: Replays per timed run (fixed: the same on both sides of any comparison).
REPLAYS = 10
REPLAYS_SMOKE = 3
#: Traced replays, and untraced ones run next to them for the overhead ratio.
TRACED_REPLAYS = 3
#: A timed run that has used this many times its ``--seconds`` stops
#: replaying early (never below :data:`MIN_REPLAYS`) and says so: the valve
#: that keeps a run on a much slower box inside the driver's time cap.
BUDGET_FACTOR = 2.5
MIN_REPLAYS = 3
#: Resources/tags compared against the reference model per correctness check.
VERIFY_SAMPLE = 50
#: Seed of the system under test: overlay ids, latencies, maintenance jitter
#: and the churn trace.  ``--seed`` generates the *inputs* (op order, search
#: draws and walks, probe keys); the overlay they run against is one fixed
#: configuration, so that runs on different seeds measure the same system.
OVERLAY_SEED = 0


@dataclass
class OpRecorder:
    """What one replay of a workload observed."""

    lat_ns: list[int] = field(default_factory=list)
    #: Transport-clock delta around the foreground call (virtual ms on the
    #: simulator; unused on UDP).
    virt_ms: list[float] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Per-op return values a workload wants to check after the replay.
    results: list[Any] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


@dataclass
class Checks:
    """Correctness checks: how many were made, how many failed, and why."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(note)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[: 5 - len(self.notes)])


def _apply(backend: Any, event: WorkloadEvent) -> None:
    if event.kind == "insert":
        backend.insert_resource(event.resource, list(event.tags))
    else:
        backend.add_tag(event.resource, event.tags[0])


def _events(preset: str, count: int, seed: int) -> list[WorkloadEvent]:
    """The first *count* events of the *preset* dataset, order reseeded.

    The *set* of operations is the same for every seed (so the work per run
    is comparable across seeds); the seed decides their order, keeping each
    resource's insertion ahead of its tagging operations.
    """
    workload = TaggingWorkload.from_triples(generate_lastfm_like(preset).triples())
    return TaggingWorkload(workload.events[:count]).shuffled(seed).events


def _reference(events: list[WorkloadEvent]) -> TaggingModel:
    model = TaggingModel()
    for event in events:
        _apply(model, event)
    return model


def _check_against_reference(
    reader: Any, model: TaggingModel, seed: int, checks: Checks, exact: bool
) -> float:
    """Compare ``tags_of`` / ``resources_of`` of a seeded sample with the
    reference TRG (which is exact under both maintenance protocols).

    With *exact* the stored weights must equal the reference.  On the large
    simulated overlays they provably do not at the commit that defined this
    benchmark (clients resolve slightly different replica sets for one key,
    so a reader can meet a replica that missed an increment), so there the
    check is soundness -- nothing unknown, nothing over-counted -- and the
    share of blocks that read back exactly is returned for reporting.
    """
    rng = random.Random(seed)
    resources = sorted(model.trg.resources)
    tags = sorted(model.trg.tags)
    sample = [
        (reader.tags_of, model.trg.tags_of, name)
        for name in rng.sample(resources, min(VERIFY_SAMPLE, len(resources)))
    ] + [
        (reader.resources_of, model.trg.resources_of, name)
        for name in rng.sample(tags, min(VERIFY_SAMPLE, len(tags)))
    ]
    matching = 0
    for read, expect, name in sample:
        expected = dict(expect(name))
        stored = read(name)
        matching += stored == expected
        ok = stored == expected if exact else all(
            count <= expected.get(entry, 0) for entry, count in stored.items()
        )
        checks.expect(ok, f"{read.__name__}({name!r}) = {stored!r}, reference {expected!r}")
    return matching / len(sample)


def _popular_start_tags(events: list[WorkloadEvent], count: int, seed: int) -> list[str]:
    """*count* start tags from the 200 most used, in popularity proportion.

    Each tag gets its popularity share of the draws (largest-remainder
    apportionment) and the seed shuffles the order: real search traffic
    revisits hot tags, and every seed sees the same mix of hot and cold ones.
    """
    usage: Counter = Counter(tag for event in events for tag in event.tags)
    pool = sorted(usage, key=lambda t: (-usage[t], t))[:200]
    total = sum(usage[tag] for tag in pool)
    quotas = [usage[tag] * count / total for tag in pool]
    shares = [int(quota) for quota in quotas]
    by_remainder = sorted(range(len(pool)), key=lambda i: (shares[i] - quotas[i], i))
    for index in by_remainder[: count - sum(shares)]:
        shares[index] += 1
    tags = [tag for tag, share in zip(pool, shares) for _ in range(share)]
    random.Random(seed).shuffle(tags)
    return tags


class Workload:
    """One benchmark workload (see the module docstring)."""

    name = ""
    why = ""
    #: Ops per replay at ``--seconds 10``.
    base_ops = 0
    #: Fresh overlay per replay (writes mutate state) vs rounds on one overlay.
    fresh = True
    #: Per-op minimum over replays, or plain statistics over a single run.
    floored = True
    #: Allowed relative deviation of a replay's message total from replay 0.
    tolerance = 0.0
    #: Set-up repetitions behind ``setup_s`` when the rounds share one overlay.
    setups = 3
    on_simulator = True

    def __init__(self, seed: int, seconds: float, smoke: bool, root: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.root = root
        scale = seconds / 10.0 * (0.1 if smoke else 1.0)
        self.ops = max(6, round(self.base_ops * scale))
        if smoke:
            self.setups = 1

    # -- hooks ---------------------------------------------------------------- #

    def build(self) -> None:
        """Set-up: dataset, overlay build/spawn, populate."""
        raise NotImplementedError

    def reset(self) -> None:
        """Prepare the next round on a shared overlay (client state only)."""

    def run_ops(self, rec: OpRecorder, tracer: Tracer | None) -> None:
        raise NotImplementedError

    def snapshot(self) -> dict[str, float]:
        """Running totals of every counter the metrics are derived from."""
        raise NotImplementedError

    def received_by_node(self) -> Counter:
        """Running messages-received-per-node (the hotspot measure)."""
        return Counter()

    def node_count(self) -> int:
        """Nodes the hotspot ratio averages over."""
        raise NotImplementedError

    def message_counter(self) -> Callable[[], int] | None:
        """Reads the overlay-wide running message total (simulator only); the
        tracer uses it to attribute messages to event labels."""
        return None

    def storage_totals(self) -> tuple[int, int]:
        """(stored blocks, counter entries) over the overlay's live nodes."""
        return (0, 0)

    def membership(self) -> tuple:
        """State that must be equal after every replay."""
        return ()

    def verify_setup(self) -> Checks:
        return Checks()

    def verify_replay(self, rec: OpRecorder) -> Checks:
        return Checks()

    def verify_final(self) -> Checks:
        return Checks()

    def close(self) -> None:
        """Tear the overlay down (idempotent)."""

    def children_rss_mb(self) -> float:
        return 0.0


# --------------------------------------------------------------------------- #
# simulator workloads
# --------------------------------------------------------------------------- #


class _SimWorkload(Workload):
    nodes = 1000
    nodes_smoke = 64
    cluster: SimulatedCluster | None = None

    def _config(self) -> ClusterConfig:
        nodes = self.nodes_smoke if self.smoke else self.nodes
        return ClusterConfig(num_nodes=nodes, clients=4, seed=OVERLAY_SEED)

    def snapshot(self) -> dict[str, float]:
        cluster = self.cluster
        assert cluster is not None
        overlay = cluster.overlay
        net = overlay.network.stats
        transport = overlay.nodes[0].transport.stats
        snap: dict[str, float] = {
            "messages": net.messages_sent,
            "unreachable": net.rpcs_failed_unreachable,
            "rpcs_sent": transport.rpcs_sent,
            "rpcs_served": transport.rpcs_sent - transport.rpcs_failed,
            "lookups": sum(s.total_lookups for s in cluster.services),
            "likir_rejected": PERF.counter("likir.rejected"),
            "events": cluster.queue.processed,
            "compactions": cluster.queue.compactions,
            "virtual_ms": overlay.clock.now,
        }
        for service in cluster.services:
            if service.cache is not None:
                stats = service.cache.stats
                for key in ("hits", "misses", "expirations", "evictions"):
                    snap[f"cache_{key}"] = snap.get(f"cache_{key}", 0) + getattr(stats, key)
            if service.engine is not None:
                for key, value in service.engine.stats.snapshot().items():
                    snap[f"engine_{key}"] = snap.get(f"engine_{key}", 0) + value
        if cluster.maintenance is not None:
            for key, value in cluster.maintenance.stats.snapshot().items():
                snap[f"maint_{key}"] = value
        if cluster.churn is not None:
            snap["churn_joins"] = cluster.churn.joins
            snap["churn_crashes"] = cluster.churn.crashes
        return snap

    def storage_totals(self) -> tuple[int, int]:
        assert self.cluster is not None
        nodes = self.cluster.overlay.live_nodes()
        return (
            sum(len(node.storage) for node in nodes),
            sum(node.storage.total_entries() for node in nodes),
        )

    def received_by_node(self) -> Counter:
        assert self.cluster is not None
        return Counter(self.cluster.overlay.network.stats.received_by_node)

    def node_count(self) -> int:
        assert self.cluster is not None
        return len(self.cluster.overlay.live_nodes())

    def message_counter(self) -> Callable[[], int]:
        assert self.cluster is not None
        stats = self.cluster.overlay.network.stats
        return lambda: stats.messages_sent

    def _verifier(self) -> DharmaService:
        """A cache-less reader bound to the overlay (reads what is stored,
        not what some client cached)."""
        assert self.cluster is not None
        return DharmaService(self.cluster.overlay, user="bench-verify", config=ServiceConfig())

    def close(self) -> None:
        self.cluster = None


class SimTag(_SimWorkload):
    name = "sim-tag-1k"
    why = (
        "write path: protocol -> DHT append/put -> lookup -> STORE/APPEND handler -> "
        "storage merge -> Likir sign/verify; writes invalidate the block cache"
    )
    base_ops = 300

    def build(self) -> None:
        self.events = _events("small", self.ops, self.seed)
        self.cluster = SimulatedCluster(self._config())

    def run_ops(self, rec: OpRecorder, tracer: Tracer | None) -> None:
        assert self.cluster is not None
        services = self.cluster.services
        clock = self.cluster.overlay.clock
        count = len(services)
        for index, event in enumerate(self.events):
            service = services[index % count]
            if tracer is not None:
                tracer.op_id = index
            virt = clock.now
            start = perf_counter_ns()
            try:
                _apply(service, event)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                rec.fail(f"op {index}: {exc!r}")
            rec.lat_ns.append(perf_counter_ns() - start)
            rec.virt_ms.append(clock.now - virt)

    def verify_replay(self, rec: OpRecorder) -> Checks:
        checks = Checks()
        self.exact_read_ratio = _check_against_reference(
            self._verifier(), _reference(self.events), self.seed, checks, exact=False
        )
        return checks


class SimSearch(_SimWorkload):
    name = "sim-search-1k"
    why = (
        "read path: block cache, route cache, FIND_VALUE, faceted search; zero writes, "
        "same lookup/routing/storage layers as sim-tag-1k the other way round"
    )
    base_ops = 300
    fresh = False
    # Rounds share one overlay whose routing tables keep learning contacts
    # and whose latency draws move on, so route choices and cache expiries
    # drift a little between rounds (measured: up to 0.6 %).
    tolerance = 0.015
    setups = 2
    populate = 1000
    #: One op is a session of this many searches by one client.  A single
    #: search is served from the block cache, through a cached route or by a
    #: full lookup -- three cost classes with cliffs between them, one of
    #: which sits at the median; the sum over a short session has no cliff.
    session = 3

    def build(self) -> None:
        populate = self.populate // 10 if self.smoke else self.populate
        self.events = _events("small", populate, self.seed)
        self.cluster = SimulatedCluster(self._config())
        services = self.cluster.services
        for index, event in enumerate(self.events):
            _apply(services[index % len(services)], event)
        self.start_tags = _popular_start_tags(self.events, self.ops * self.session, self.seed)
        self.reference: TaggingModel | None = None

    def reset(self) -> None:
        assert self.cluster is not None
        for service in self.cluster.services:
            service.cache.clear()
            service.engine.clear_routes()
        self.searches = [
            DistributedFacetedSearch(service.store, seed=self.seed + index)
            for index, service in enumerate(self.cluster.services)
        ]

    def run_ops(self, rec: OpRecorder, tracer: Tracer | None) -> None:
        assert self.cluster is not None
        searches = self.searches
        clock = self.cluster.overlay.clock
        session = self.session
        for index in range(self.ops):
            search = searches[index % len(searches)]
            tags = self.start_tags[index * session:(index + 1) * session]
            if tracer is not None:
                tracer.op_id = index
            virt = clock.now
            start = perf_counter_ns()
            try:
                for tag in tags:
                    rec.results.append(search.run(tag, "random"))
            except Exception as exc:
                rec.fail(f"session {index} from {tags!r}: {exc!r}")
            rec.lat_ns.append(perf_counter_ns() - start)
            rec.virt_ms.append(clock.now - virt)

    def verify_setup(self) -> Checks:
        checks = Checks()
        self.reference = _reference(self.events)
        self.exact_read_ratio = _check_against_reference(
            self._verifier(), self.reference, self.seed, checks, exact=False
        )
        return checks

    def verify_replay(self, rec: OpRecorder) -> Checks:
        checks = Checks()
        assert self.reference is not None
        trg = self.reference.trg
        for result in rec.results:
            allowed = set.intersection(*(trg.resource_set(tag) for tag in result.path))
            checks.expect(
                result.final_resources <= allowed,
                f"search {result.path!r} returned resources outside the reference TRG",
            )
        return checks


class SimChurn(_SimWorkload):
    name = "sim-churn-256"
    why = (
        "background work: republish/refresh ticks, churn joins/crashes and the event queue "
        "send nearly all messages while the foreground path idles"
    )
    base_ops = 200
    nodes = 256
    populate = 80
    #: Virtual ms advanced per op before its probe.
    slice_ms = 50.0

    def _config(self) -> ClusterConfig:
        return churn_cluster_config(
            self.nodes_smoke if self.smoke else self.nodes,
            maintenance=True,
            mean_session_s=120.0,
            # Short enough that one or two republish passes of every node and a bucket
            # refresh of about half of them fall inside the measured window (ops *
            # slice_ms = 10 virtual seconds at the default size).
            republish_interval_ms=5_000.0,
            refresh_interval_ms=10_000.0,
            seed=OVERLAY_SEED,
        )

    def build(self) -> None:
        self.events = _events("small", self.populate, self.seed)
        self.cluster = SimulatedCluster(self._config())
        self.cluster.run_workload(TaggingWorkload(self.events), ignore_errors=False)
        overlay = self.cluster.overlay
        keys = sorted({key for node in overlay.live_nodes() for key in node.storage.keys()})
        rng = random.Random(self.seed)
        self.probe_keys = [keys[rng.randrange(len(keys))] for _ in range(self.ops)]
        self.cluster.start_churn(trace_horizon_ms=self.ops * self.slice_ms)

    def run_ops(self, rec: OpRecorder, tracer: Tracer | None) -> None:
        cluster = self.cluster
        assert cluster is not None
        overlay = cluster.overlay
        clock = overlay.clock
        for index, key in enumerate(self.probe_keys):
            if tracer is not None:
                tracer.op_id = index
            start = perf_counter_ns()
            cluster.run_for(self.slice_ms)
            virt = clock.now
            value = None
            try:
                # Like run_survival_benchmark's probe: a client retries once
                # through another live access node.
                for _ in range(2):
                    value, _outcome = overlay.random_node().retrieve(key)
                    if value is not None:
                        break
            except Exception as exc:
                rec.fail(f"probe {index}: {exc!r}")
            else:
                if value is None:
                    rec.fail(f"probe {index}: pre-churn block {key.hex()[:12]} unreadable")
            rec.lat_ns.append(perf_counter_ns() - start)
            rec.virt_ms.append(clock.now - virt)
            rec.results.append(cluster.queue.heap_size())

    def membership(self) -> tuple:
        assert self.cluster is not None and self.cluster.churn is not None
        churn = self.cluster.churn
        return (self.node_count(), churn.joins, churn.crashes, churn.graceful_leaves)

    def verify_setup(self) -> Checks:
        checks = Checks()
        self.exact_read_ratio = _check_against_reference(
            self._verifier(), _reference(self.events), self.seed, checks, exact=False
        )
        return checks


# --------------------------------------------------------------------------- #
# real-socket workloads
# --------------------------------------------------------------------------- #


class UdpServe(Workload):
    name = "udp-serve-6"
    why = (
        "only workload with the wire codec, the UDP thread bridge and real loopback sockets "
        "on the path; routing/lookup CPU is negligible with 6 complete tables"
    )
    base_ops = 200
    fresh = False
    tolerance = 0.02
    # One set-up only: every child imports the CLI (~1.2 s of CPU each, in
    # turn on the one pinned core), so a set-up costs ~7 s and repeating it
    # would dominate the run.
    setups = 1
    on_simulator = False
    peers = 6
    peers_smoke = 3
    populate = 120
    serve_args = [
        "--k", "8", "--alpha", "2", "--replicate", "2", "--timeout-ms", "50",
        "--retries", "1", "--refresh-seconds", "0",
        # Orphan guard: a child whose parent was SIGKILLed leaves on its own.
        "--run-seconds", "900",
    ]
    fleet: ServeFleet | None = None
    client_node: ServeNode | None = None

    def build(self) -> None:
        self.rounds_done = 0
        self.peer_stats: list[dict] = []
        self.fleet = ServeFleet(src_dir=os.path.join(self.root, "src"), scratch_dir=self.root)
        count = self.peers_smoke if self.smoke else self.peers
        first = self.fleet.spawn("bench-0", None, self.serve_args)
        for index in range(1, count):
            self.fleet.spawn(f"bench-{index}", first.address, self.serve_args)
        self.client_node = ServeNode(
            node_id=NodeID.hash_of("bench-client"),
            node_config=NodeConfig(k=8, alpha=2, replicate=2, verify_credentials=False),
            transport_config=UdpTransportConfig(timeout_ms=50.0, retries=1),
        )
        self.client_node.bootstrap(first.address)
        self.store = BlockStore(self.client_node.client(batched=False))
        self.events = _events("tiny", self.populate, self.seed)
        self.reset()
        for event in self.events:
            _apply(self.protocol, event)
        model = self.reference = _reference(self.events)
        pairs = sorted(
            (resource, tag) for resource in model.trg.resources
            for tag in model.trg.tags_of(resource)
        )
        searches = self.ops // 3
        retags = self.ops - searches
        # The same pairs and start tags for every seed (evenly spread over the
        # sorted pairs; popularity-proportional tags); the seed orders them.
        chosen = pairs[:: max(1, len(pairs) // retags)][:retags]
        random.Random(self.seed).shuffle(chosen)
        tags = _popular_start_tags(self.events, searches, self.seed)
        #: Two re-tags of an already-present pair, then one faceted search.
        #: Not 1:1: tags cost about twice a search, so with equal shares the
        #: median would sit on the boundary between the two classes and flip
        #: with a single op; at 2:1 both p50 and p95 fall among the tags.
        self.plan: list[tuple[str, Any]] = [
            ("search", tags[index // 3]) if index % 3 == 2
            else ("tag", chosen[(index - index // 3) % len(chosen)])
            for index in range(self.ops)
        ]

    def reset(self) -> None:
        self.protocol = ApproximatedProtocol(
            self.store, approximation=default_approximation(k=1), seed=self.seed
        )
        self.search = DistributedFacetedSearch(self.store, seed=self.seed)

    def run_ops(self, rec: OpRecorder, tracer: Tracer | None) -> None:
        protocol, search = self.protocol, self.search
        for index, (kind, arg) in enumerate(self.plan):
            if tracer is not None:
                tracer.op_id = index
            start = perf_counter_ns()
            try:
                if kind == "tag":
                    protocol.add_tag(arg[0], arg[1])
                else:
                    rec.results.append(search.run(arg, "random"))
            except Exception as exc:
                rec.fail(f"op {index} ({kind}): {exc!r}")
            rec.lat_ns.append(perf_counter_ns() - start)
        self.rounds_done += 1

    def snapshot(self) -> dict[str, float]:
        assert self.client_node is not None
        stats = self.client_node.transport.stats
        per_type = stats.per_type.values()
        return {
            "messages": stats.rpcs_sent,
            "rpcs_sent": stats.rpcs_sent,
            "rpcs_failed": stats.rpcs_failed,
            "retries": sum(s.retries for s in per_type),
            "bytes": sum(s.bytes_sent + s.bytes_received for s in per_type),
            "lookups": self.store.lookups,
        }

    def _read(self) -> SimpleNamespace:
        return SimpleNamespace(
            tags_of=self.store.get_resource_tags, resources_of=self.store.get_tag_resources
        )

    def verify_setup(self) -> Checks:
        checks = Checks()
        _check_against_reference(self._read(), self.reference, self.seed, checks, exact=True)
        return checks

    def verify_replay(self, rec: OpRecorder) -> Checks:
        checks = Checks()
        trg = self.reference.trg
        for result in rec.results:
            allowed = set.intersection(*(trg.resource_set(tag) for tag in result.path))
            checks.expect(
                result.final_resources <= allowed,
                f"search {result.path!r} returned resources outside the reference TRG",
            )
        return checks

    def verify_final(self) -> Checks:
        """Every round re-tagged the same pairs once more: the stored weights
        must have grown by exactly rounds x (re-tags of the pair per round)."""
        checks = Checks()
        retags = Counter(arg for kind, arg in self.plan if kind == "tag")
        trg = self.reference.trg
        for (resource, tag), per_round in sorted(retags.items())[:20]:
            expected = trg.weight(tag, resource) + per_round * self.rounds_done
            stored = self.store.get_resource_tags(resource).get(tag)
            checks.expect(
                stored == expected,
                f"u({tag!r}, {resource!r}) = {stored}, expected {expected} "
                f"after {self.rounds_done} rounds",
            )
        return checks

    def received_by_node(self) -> Counter:
        """RPCs served per surviving peer, from their ``--stats-out``
        (available once :meth:`close` has shut the fleet down)."""
        return Counter(
            {stats["address"]: sum(stats["rpcs_served"].values()) for stats in self.peer_stats}
        )

    def node_count(self) -> int:
        return len(self.peer_stats)

    def close(self) -> None:
        if self.client_node is not None:
            self.client_node.close()
            self.client_node = None
        if self.fleet is not None:
            self.spawn_s = [child.spawn_s for child in self.fleet.children]
            self.fleet.shutdown()
            self.peer_stats = [
                stats for child in self.fleet.children if (stats := child.stats()) is not None
            ]
            self.fleet.kill()
            self.fleet = None

    def children_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class UdpDegraded(UdpServe):
    name = "udp-degraded-6"
    why = (
        "one of six peers SIGKILLed without goodbye: every lookup pays the RPC timeout, so "
        "latency is timer-bound; runs once with plain statistics, never floored"
    )
    base_ops = 48
    floored = False

    def build(self) -> None:
        super().build()
        assert self.fleet is not None
        # Which peer dies is part of the scenario, like the overlay: fixed.
        victim = self.fleet.children[-1]
        victim.signal_group(signal.SIGKILL)
        victim.process.wait(10.0)

    def verify_final(self) -> Checks:
        # The read-back of the healthy rounds would cost twenty more
        # timer-bound reads here and is already made on the healthy overlay.
        return Checks()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SimTag, SimSearch, SimChurn, UdpServe, UdpDegraded)
}


# --------------------------------------------------------------------------- #
# measurement protocol
# --------------------------------------------------------------------------- #


def _hotspot_ratio(received: Counter, nodes: int) -> float:
    """Load of the busiest 1 % of nodes (at least one) over the mean load.

    The paper's hotspot measure is max / mean; over 1,000 nodes the maximum
    is an extreme-value statistic that moves +-15 % with the op order, so the
    busiest percentile stands in for it (on overlays of fewer than 200 nodes
    that is the maximum itself).
    """
    if not nodes or not received:
        return 0.0
    top = sorted(received.values(), reverse=True)[: max(1, nodes // 100)]
    return (sum(top) / len(top)) / (sum(received.values()) / nodes)


def _delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def _one_replay(workload: Workload, tracer: Tracer | None) -> tuple[OpRecorder, dict[str, float]]:
    """Run the op sequence once; returns the recorder and the counter delta."""
    if not workload.fresh:
        workload.reset()
    gc.collect()
    rec = OpRecorder()
    before = workload.snapshot()
    if tracer is not None:
        tracer.reset()
        tracer.enabled = True
    try:
        workload.run_ops(rec, tracer)
    finally:
        if tracer is not None:
            tracer.enabled = False
    return rec, _delta(before, workload.snapshot())


def _build(workload: Workload, checks: Checks | None, setup_s: list[float] | None = None) -> None:
    """(Re)build the overlay, timing it, then run the set-up checks.

    The checks run after *every* build, so that each fresh overlay has seen
    the same reads before its replay; they are counted into *checks* once.
    """
    workload.close()
    gc.collect()
    started = perf_counter()
    workload.build()
    if setup_s is not None:
        setup_s.append(perf_counter() - started)
    verified = workload.verify_setup()
    if checks is not None:
        checks.merge(verified)


def _seconds(rec: OpRecorder) -> list[float]:
    return [ns / 1e9 for ns in rec.lat_ns]


def measure(
    workload: Workload,
    replays: int,
    traced_replays: int,
    budget_s: float,
    timed: bool = True,
    traced: bool = True,
    spans_path: str | None = None,
) -> dict[str, Any]:
    """Run *workload* by the benchmark's protocol.

    **Untraced phase** (always): the set-up, then the replays with tracing
    off -- *replays* of them when the end-to-end metrics are wanted
    (*timed*), otherwise just the *traced_replays* the overhead ratio needs.
    Replay 0 supplies the exact counters; the per-op minimum over all replays
    supplies the timings.

    **Traced phase** (*traced*): the layer wrappers are installed and
    *traced_replays* more replays run.  Fresh-overlay workloads rebuild per
    replay anyway; a workload whose rounds share one simulated overlay
    rebuilds it once so the handlers its nodes register are wrapped too;
    the UDP workloads keep their overlay (the peers are other processes).
    Counts come from traced replay 0, self times are the minimum over the
    traced replays.

    Returns ``{"metrics", "attempted", "failed", "diagnostics"}``.
    """
    if not workload.floored:
        replays = traced_replays = 1
    untraced_replays = replays if timed else traced_replays
    setup_s: list[float] = []
    latencies: list[list[float]] = []
    totals: list[int] = []
    memberships: list[tuple] = []
    checks = Checks()
    first: tuple[OpRecorder, dict[str, float]] | None = None
    hotspot_before: Counter = Counter()
    hotspot_after: Counter = Counter()
    nodes = 0
    self_rss_mb = 0.0
    truncated = False
    lookup_rpcs = {"rpcs": 0, "failed": 0}

    def on_lookup(outcome: Any) -> None:
        lookup_rpcs["rpcs"] += outcome.messages
        lookup_rpcs["failed"] += outcome.failures

    traced_latencies: list[list[float]] = []
    layer_self: list[dict[str, int]] = []
    traced_first: dict[str, Any] = {}
    tracer = Tracer(keep_spans=spans_path is not None)
    started = perf_counter()
    try:
        for index in range(untraced_replays):
            if index == 0:
                repeats = workload.setups if timed and not workload.fresh else 1
                for _ in range(repeats - 1):
                    _build(workload, None, setup_s)
            if workload.fresh or index == 0:
                _build(workload, checks if index == 0 else None, setup_s)
            if index == 0:
                hotspot_before = workload.received_by_node()
            rec, delta = _one_replay(workload, None)
            latencies.append(_seconds(rec))
            totals.append(int(delta["messages"]))
            memberships.append(workload.membership())
            if index == 0:
                first = (rec, delta)
                if workload.on_simulator:
                    hotspot_after = workload.received_by_node()
                    nodes = workload.node_count()
                checks.merge(workload.verify_replay(rec))
            if (
                index + 1 >= MIN_REPLAYS
                and index + 1 < untraced_replays
                and perf_counter() - started > budget_s
            ):
                truncated = True
                break

        # Sampled before the traced phase: spans and wrappers are not the
        # program's memory.
        self_rss_mb = peak_rss_bytes() / 2**20
        if traced:
            tracer.install(result_hooks={"lookup.iterative_lookup": on_lookup})
            for index in range(traced_replays):
                if workload.fresh or (index == 0 and workload.on_simulator):
                    _build(workload, None)
                tracer.message_counter = workload.message_counter()
                lookup_rpcs.update(rpcs=0, failed=0)
                rec, delta = _one_replay(workload, tracer)
                traced_latencies.append(_seconds(rec))
                layer_self.append(tracer.layer_self_ns())
                if index == 0:
                    traced_first = {
                        "rec": rec,
                        "delta": delta,
                        "calls": dict(tracer.calls),
                        "entries": dict(tracer.entries),
                        "self_ns": dict(tracer.self_ns),
                        "messages": dict(tracer.messages),
                        "durations": {k: list(v) for k, v in tracer.durations.items()},
                        "lookup": dict(lookup_rpcs),
                        "storage": workload.storage_totals(),
                    }
                    if spans_path is not None:
                        traced_first["spans_written"] = tracer.write_spans(spans_path)
                        tracer.spans = None
        checks.merge(workload.verify_final())
    finally:
        tracer.uninstall()
        workload.close()
    assert first is not None
    if not workload.on_simulator:  # the peers' --stats-out exist only now
        hotspot_after = workload.received_by_node()
        nodes = workload.node_count()

    floor.check_replay_identity(totals, workload.tolerance)
    checks.expect(
        len(set(memberships)) == 1,
        f"membership differs across replays: {sorted(set(memberships))}",
    )
    rec, delta = first
    ops = len(rec.lat_ns)
    metrics: dict[str, tuple[float, str]] = {}
    diagnostics: dict[str, Any] = {
        "ops": ops,
        "replays": len(latencies),
        "replays_truncated": truncated,
        "messages_per_replay": totals,
        "membership": list(memberships[0]),
        "check_failures": checks.notes + rec.errors,
    }
    if timed:
        summary = floor.summarise(latencies, tail=95.0, floored=workload.floored)
        metrics.update({
            "setup_s": (statistics.median(setup_s), "s"),
            "ops_per_s": (summary.ops_per_s, "1/s"),
            "op_p50_ms": (summary.p50_ms, "ms"),
            "op_p95_ms": (summary.tail_ms, "ms"),
            "msgs_per_op": (delta["messages"] / ops, "1/op"),
            "hotspot_ratio": (
                _hotspot_ratio(hotspot_after - hotspot_before, nodes), "ratio"
            ),
            "peak_rss_mb": (self_rss_mb + workload.children_rss_mb(), "MB"),
        })
        diagnostics.update({
            "samples_beyond_p95": summary.samples_beyond_tail,
            "supported_percentile": floor.supported_percentile(ops, 95.0),
            "plain_median_ops_per_s": summary.plain_median_ops_per_s,
            "plain_spread": summary.plain_spread,
            "setup_samples_s": setup_s,
        })
    if traced:
        traced_rec: OpRecorder = traced_first["rec"]
        floored = workload.floored
        baseline = latencies[: len(traced_latencies)]
        untraced_total = sum(floor.replay_floor(baseline) if floored else baseline[0])
        traced_total = sum(
            floor.replay_floor(traced_latencies) if floored else traced_latencies[0]
        )
        layers = set().union(*layer_self)
        self_ns = {layer: min(run.get(layer, 0) for run in layer_self) for layer in layers}
        op_ns = min(sum(run) for run in traced_latencies) * 1e9
        metrics.update(_layer_metrics(workload, traced_first, self_ns, ops))
        metrics["trace.overhead_ratio"] = (traced_total / untraced_total, "ratio")
        metrics["trace.coverage_ratio"] = (sum(self_ns.values()) / op_ns, "ratio")
        metrics["fail_ratio"] = (traced_rec.failed / ops, "ratio")
        if traced_rec.virt_ms:
            metrics["virt_op_p95_ms"] = (floor.percentile(traced_rec.virt_ms, 95.0), "ms")
        diagnostics.update({
            "traced_replays": len(traced_latencies),
            "spans_written": traced_first.get("spans_written", 0),
            "self_ms_by_span": {
                name: value / 1e6 for name, value in sorted(traced_first["self_ns"].items())
            },
        })
        diagnostics["check_failures"] = diagnostics["check_failures"] + traced_rec.errors
    failed_ops = rec.failed + (traced_first["rec"].failed if traced else 0)
    attempted_ops = ops * (2 if traced else 1)
    return {
        "metrics": metrics,
        "attempted": attempted_ops + checks.attempted,
        "failed": failed_ops + checks.failed,
        "diagnostics": diagnostics,
    }


def _layer_metrics(
    workload: Workload, first: dict[str, Any], self_ns: dict[str, int], ops: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the layers on this workload's path (others are
    omitted, not zero-filled)."""
    delta: dict[str, float] = first["delta"]
    calls: dict[str, int] = first["calls"]
    entries: dict[str, int] = first["entries"]
    span_ns: dict[str, int] = first["self_ns"]
    out: dict[str, tuple[float, str]] = {}

    def self_ms_per_op(layer: str) -> None:
        out[f"{layer}.self_ms_per_op"] = (self_ns.get(layer, 0) / 1e6 / ops, "ms/op")

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def calls_of(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    tagging = isinstance(workload, (SimTag, UdpServe))
    searching = isinstance(workload, (SimSearch, UdpServe))
    if tagging:
        self_ms_per_op("service")
        tag_ops = calls_of("service.add_tag", "service.insert_resource")
        if isinstance(workload, SimTag):
            out["service.lookups_per_op"] = (ratio(delta["lookups"], tag_ops), "1/op")
    if searching:
        self_ms_per_op("search_client")
        results = first["rec"].results
        steps = sum(r.length for r in results)
        out["search_client.steps_per_search"] = (ratio(steps, len(results)), "1/search")
        if isinstance(workload, SimSearch):
            out["search_client.lookups_per_step"] = (ratio(delta["lookups"], steps), "1/step")
    if tagging or searching:
        self_ms_per_op("block_store")
        out["block_store.calls_per_op"] = (entries.get("block_store", 0) / ops, "1/op")
        self_ms_per_op("api")
    def on_path(layer: str) -> bool:
        return entries.get(layer, 0) > 0

    if on_path("block_cache"):
        reads = delta["cache_hits"] + delta["cache_misses"]
        out["block_cache.hit_ratio"] = (ratio(delta["cache_hits"], reads), "ratio")
        out["block_cache.expirations"] = (delta["cache_expirations"], "count")
        out["block_cache.evictions"] = (delta["cache_evictions"], "count")
        self_ms_per_op("block_cache")
    if on_path("batched_lookup"):
        out["batched_lookup.route_hit_ratio"] = (
            ratio(delta["engine_route_hits"], delta["engine_requests"]), "ratio"
        )
        out["batched_lookup.full_lookups_per_op"] = (delta["engine_full_lookups"] / ops, "1/op")
        out["batched_lookup.route_fallbacks"] = (delta["engine_route_fallbacks"], "count")
        out["batched_lookup.dedup_hits"] = (delta["engine_dedup_hits"], "count")
        self_ms_per_op("batched_lookup")

    lookups = calls.get("lookup.iterative_lookup", 0)
    out["lookup.rpcs_per_lookup"] = (ratio(first["lookup"]["rpcs"], lookups), "1/lookup")
    out["lookup.failed_rpcs_per_lookup"] = (ratio(first["lookup"]["failed"], lookups), "1/lookup")
    self_ms_per_op("lookup")
    self_ms_per_op("node")
    out["routing_table.closest_calls_per_op"] = (
        calls.get("routing_table.closest_contacts", 0) / ops, "1/op"
    )
    out["routing_table.record_calls_per_op"] = (
        calls.get("routing_table.record_contact", 0) / ops, "1/op"
    )
    self_ms_per_op("routing_table")

    if workload.on_simulator:
        out["node.rpcs_served_per_op"] = (delta["rpcs_served"] / ops, "1/op")
        out["storage.merge_calls_per_op"] = (
            calls_of("storage.put", "storage.append") / ops, "1/op"
        )
        out["storage.get_calls_per_op"] = (calls.get("storage.get", 0) / ops, "1/op")
        self_ms_per_op("storage")
        out["storage.entries_total"] = (first["storage"][1], "count")
        out["storage.exact_read_ratio"] = (workload.exact_read_ratio, "ratio")
        if on_path("likir"):
            out["likir.sign_calls_per_op"] = (calls.get("likir.create", 0) / ops, "1/op")
            out["likir.verify_calls_per_op"] = (calls.get("likir.verify", 0) / ops, "1/op")
            out["likir.rejected"] = (delta["likir_rejected"], "count")
            self_ms_per_op("likir")
        out["network.msgs_per_op"] = (delta["messages"] / ops, "1/op")
        out["network.unreachable_ratio"] = (
            ratio(delta["unreachable"], delta["rpcs_sent"]), "ratio"
        )
        out["network.self_us_per_msg"] = (
            ratio(self_ns.get("network", 0) / 1e3, delta["messages"]), "us/msg"
        )
    if isinstance(workload, SimChurn):
        virtual_s = delta["virtual_ms"] / 1_000.0
        out["maintenance.msgs_share"] = (
            ratio(first["messages"].get("maintenance", 0), delta["messages"]), "ratio"
        )
        out["maintenance.replicas_written_per_block"] = (
            ratio(delta["maint_replicas_written"], first["storage"][0]), "1/block"
        )
        out["maintenance.republish_runs"] = (delta["maint_republish_runs"], "count")
        out["maintenance.refresh_runs"] = (delta["maint_refresh_runs"], "count")
        out["maintenance.self_ms_per_virt_s"] = (
            ratio(self_ns.get("maintenance", 0) / 1e6, virtual_s), "ms/s"
        )
        out["churn.joins"] = (delta["churn_joins"], "count")
        out["churn.crashes"] = (delta["churn_crashes"], "count")
        out["churn.self_ms_per_virt_s"] = (ratio(self_ns.get("churn", 0) / 1e6, virtual_s), "ms/s")
        out["event_queue.events_per_op"] = (delta["events"] / ops, "1/op")
        out["event_queue.self_us_per_event"] = (
            ratio(self_ns.get("event_queue", 0) / 1e3, delta["events"]), "us/event"
        )
        out["event_queue.heap_peak"] = (max(first["rec"].results), "count")
        out["event_queue.compactions"] = (delta["compactions"], "count")
    if isinstance(workload, UdpServe):
        rpc_ms = [ns / 1e6 for ns in first["durations"].get("udp.send", [])]
        out["udp.rpc_p50_ms"] = (floor.percentile(rpc_ms, 50.0), "ms")
        out["udp.rpc_p95_ms"] = (floor.percentile(rpc_ms, 95.0), "ms")
        out["udp.send_wait_ms_per_op"] = (span_ns.get("udp.send", 0) / 1e6 / ops, "ms/op")
        out["udp.timeouts_per_op"] = (delta["rpcs_failed"] / ops, "1/op")
        out["udp.retransmits_per_rpc"] = (ratio(delta["retries"], delta["rpcs_sent"]), "1/rpc")
        peers = workload.peer_stats
        out["udp.replays_served"] = (
            sum(stats["transport"]["replays_served"] for stats in peers), "count"
        )
        encoded = calls.get("wire.encode_frame", 0)
        decoded = calls.get("wire.decode_frame", 0)
        out["wire.encode_us_per_frame"] = (
            ratio(span_ns.get("wire.encode_frame", 0) / 1e3, encoded), "us/frame"
        )
        out["wire.decode_us_per_frame"] = (
            ratio(span_ns.get("wire.decode_frame", 0) / 1e3, decoded), "us/frame"
        )
        out["wire.bytes_per_frame"] = (ratio(delta["bytes"], encoded + decoded), "B/frame")
        out["wire.bytes_per_op"] = (delta["bytes"] / ops, "B/op")
        out["server.spawn_s_per_node"] = (statistics.fmean(workload.spawn_s), "s")
        out["server.rpcs_served_max"] = (
            max(sum(stats["rpcs_served"].values()) for stats in peers), "count"
        )
        out["server.stored_items_max"] = (max(stats["stored_items"] for stats in peers), "count")
    return out
