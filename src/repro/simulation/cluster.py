"""An in-process cluster harness for 1,000+ node experiments.

The seed tooling tops out at a few dozen nodes because
:func:`~repro.dht.bootstrap.build_overlay` joins every node through the full
iterative procedure (quadratic-ish message cost in the overlay size).  The
cluster harness scales the same substrate to four-digit node counts:

* **fast bootstrap** -- nodes are wired by seeding each routing table
  directly with the nodes adjacent in sorted id order plus a spray of random
  long-range contacts: close buckets dense, far buckets sampled, no join
  traffic, so iterative lookups work from the first operation.  Sorted-order
  neighbours are only an approximation of a node's XOR-space vicinity (see
  :meth:`SimulatedCluster._fast_bootstrap`).  Small clusters can still use
  the faithful ``"iterative"`` join;
* **event-driven workloads** -- tagging operations from a
  :class:`~repro.simulation.workload.TaggingWorkload` are scheduled on the
  shared :class:`~repro.simulation.event_queue.EventQueue` at a configurable
  arrival interval and fan out round-robin over a pool of DHARMA service
  clients, each bound to a different access node.

Every client runs the batched lookup engine and a block cache of
:data:`CACHE_CAPACITY` blocks that expire after :data:`CACHE_TTL_MS`; every
node's table holds :data:`NODE_K` contacts per bucket.  What a run costs is
read off the overlay itself (``overlay.network.stats``, ``overlay.clock``,
each node's ``rpcs_served``); ``benchmarks/e2e`` turns those counters into
``msgs_per_op``, ``hotspot_ratio`` and the per-layer ``batched_lookup.*``
metrics.

Churn experiments flip :attr:`ClusterConfig.churn` (a pre-scheduled
:class:`~repro.simulation.churn.ChurnProcess` trace on the shared event
queue) and :attr:`ClusterConfig.maintenance` (per-node periodic republish +
bucket refresh from :mod:`repro.dht.maintenance`); attack experiments flip
:attr:`ClusterConfig.adversary`.  The experiments that drive a cluster under
such faults and audit what survived -- ``run_survival_benchmark`` and
``run_attack_benchmark`` -- live in :mod:`repro.simulation.experiment`; this
module only shapes their configs (:func:`churn_cluster_config`,
:func:`attack_cluster_config`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.approximation import default_approximation
from repro.dht.bootstrap import Overlay, build_overlay
from repro.dht.likir import CertificationService
from repro.dht.maintenance import MaintenanceConfig, OverlayMaintenance
from repro.dht.node import KademliaNode, NodeConfig
from repro.dht.node_id import NodeIDInterner
from repro.dht.routing_table import Contact
from repro.distributed.tagging_service import DharmaService, ServiceConfig
from repro.simulation.adversary import AdversaryConfig, AdversaryProcess, AttackTarget
from repro.simulation.churn import ChurnConfig, ChurnProcess
from repro.simulation.event_queue import EventQueue
from repro.simulation.network import NetworkConfig, SimulatedNetwork
from repro.simulation.workload import TaggingWorkload, WorkloadStats

__all__ = [
    "ClusterConfig",
    "SimulatedCluster",
    "churn_cluster_config",
    "attack_cluster_config",
    "NODE_K",
    "RING_NEIGHBOURS",
    "CACHE_CAPACITY",
    "CACHE_TTL_MS",
]

#: Kademlia bucket size of every cluster node (a modest ``k`` keeps 1k-node
#: runs fast).
NODE_K = 8
#: Sorted-order neighbours on each side that fast bootstrap wires into a
#: node's table.
RING_NEIGHBOURS = 4
#: Block-cache capacity of every cluster client.
CACHE_CAPACITY = 4096
#: Block-cache TTL in virtual ms.  Each client only sees its *own* writes
#: invalidate its cache, so with several clients the TTL is what bounds how
#: stale a cached block can get relative to other clients' writes: ~2 virtual
#: seconds of staleness traded for the message savings.
CACHE_TTL_MS = 2_000.0


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """Shape and policy of a simulated cluster."""

    num_nodes: int = 1000
    #: Number of DHARMA service clients driving the workload (each bound to a
    #: distinct access node, round-robin).
    clients: int = 4
    #: "approximated" or "naive" maintenance protocol.
    protocol: str = "approximated"
    #: Connection parameter of Approximation A.
    k: int = 1
    #: Kademlia parameters (the bucket size is :data:`NODE_K`).
    alpha: int = 3
    replicate: int = 2
    #: One-way latency bounds of the simulated transport (virtual ms).
    min_latency_ms: float = 1.0
    max_latency_ms: float = 5.0
    #: Per-message drop probability of the simulated transport.
    loss_rate: float = 0.0
    #: RPC timeout charged when a contact is dead (virtual ms).  Leave at the
    #: transport default for static runs; churn runs want a value scaled to
    #: the latency bounds (a few RTTs), or every stale routing entry charges
    #: a full second and inflates virtual time past the configured duration.
    timeout_ms: float = 1_000.0
    #: "fast" (direct table seeding), "iterative" (faithful joins) or "auto"
    #: (iterative up to 128 nodes, fast beyond).
    bootstrap: str = "auto"
    #: Random long-range contacts per node under fast bootstrap.
    random_contacts: int = 24
    #: Virtual ms between successive workload arrivals.
    op_interval_ms: float = 20.0
    #: Drive a pre-scheduled churn trace on the shared event queue (started
    #: explicitly via :meth:`SimulatedCluster.start_churn`).
    churn: bool = False
    churn_join_rate: float = 0.0
    mean_session_s: float = 300.0
    crash_probability: float = 0.5
    churn_min_nodes: int = 8
    #: Run periodic replica maintenance (republish + bucket refresh) on every
    #: live node; joiners picked up by churn start their own loops.
    maintenance: bool = False
    republish_interval_ms: float = 30_000.0
    refresh_interval_ms: float = 120_000.0
    seed: int = 0
    #: Likir enforcement posture of every node (threaded into NodeConfig):
    #: credential verification on the STORE/GET paths, certified-id routing
    #: admission (Sybil defense), and the hardened unsigned-write policy.
    verify_credentials: bool = True
    certified_contacts: bool = False
    require_signed_writes: bool = False
    #: Arm the adversarial fault-injection harness (started explicitly via
    #: :meth:`SimulatedCluster.start_attack`); the remaining knobs shape its
    #: :class:`~repro.simulation.adversary.AdversaryConfig`.
    adversary: bool = False
    sybil_count: int = 0
    eclipse: bool = True
    compromised_fraction: float = 0.0
    forge_rate: float = 0.0
    append_forge_rate: float = 0.0
    stale_republish_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.bootstrap not in ("fast", "iterative", "auto"):
            raise ValueError(f"unknown bootstrap mode {self.bootstrap!r}")
        if self.protocol not in ("approximated", "naive"):
            raise ValueError(f"unknown protocol {self.protocol!r}")

    def node_config(self) -> NodeConfig:
        return NodeConfig(
            k=NODE_K,
            alpha=self.alpha,
            replicate=self.replicate,
            verify_credentials=self.verify_credentials,
            certified_contacts=self.certified_contacts,
            require_signed_writes=self.require_signed_writes,
        )

    def network_config(self) -> NetworkConfig:
        return NetworkConfig(
            min_latency_ms=self.min_latency_ms,
            max_latency_ms=self.max_latency_ms,
            loss_rate=self.loss_rate,
            timeout_ms=self.timeout_ms,
            seed=self.seed,
        )

    def churn_config(self) -> ChurnConfig:
        return ChurnConfig(
            join_rate=self.churn_join_rate,
            mean_session_s=self.mean_session_s,
            crash_probability=self.crash_probability,
            min_nodes=self.churn_min_nodes,
            seed=self.seed,
        )

    def adversary_config(self) -> AdversaryConfig:
        return AdversaryConfig(
            sybil_count=self.sybil_count,
            eclipse=self.eclipse,
            compromised_fraction=self.compromised_fraction,
            forge_rate=self.forge_rate,
            append_forge_rate=self.append_forge_rate,
            stale_republish_rate=self.stale_republish_rate,
            seed=self.seed,
        )

    def maintenance_config(self) -> MaintenanceConfig:
        return MaintenanceConfig(
            republish_interval_ms=self.republish_interval_ms,
            refresh_interval_ms=self.refresh_interval_ms,
            seed=self.seed,
        )

    def service_config(self, seed: int) -> ServiceConfig:
        return ServiceConfig(
            protocol=self.protocol,
            approximation=default_approximation(k=self.k),
            cache_capacity=CACHE_CAPACITY,
            cache_ttl_ms=CACHE_TTL_MS,
            batch_lookups=True,
            seed=seed,
        )


class SimulatedCluster:
    """A wired overlay of :attr:`ClusterConfig.num_nodes` Likir nodes plus a
    pool of DHARMA service clients, driven from one event queue."""

    __slots__ = (
        "config",
        "_rng",
        "overlay",
        "queue",
        "maintenance",
        "churn",
        "adversary",
        "services",
    )

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config or ClusterConfig()
        self._rng = random.Random(self.config.seed)
        self.overlay = self._build_overlay()
        self.queue = EventQueue(clock=self.overlay.clock)
        self.maintenance: OverlayMaintenance | None = None
        if self.config.maintenance:
            self.maintenance = OverlayMaintenance(
                self.overlay, self.queue, self.config.maintenance_config()
            )
            self.maintenance.start()
        self.churn: ChurnProcess | None = None
        if self.config.churn:
            self.churn = ChurnProcess(self.overlay, self.queue, self.config.churn_config())
        self.adversary: AdversaryProcess | None = None
        self.services = self._build_services()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def _build_overlay(self) -> Overlay:
        cfg = self.config
        node_config = cfg.node_config()
        network_config = cfg.network_config()
        mode = cfg.bootstrap
        if mode == "auto":
            mode = "iterative" if cfg.num_nodes <= 128 else "fast"
        if mode == "iterative":
            return build_overlay(
                cfg.num_nodes,
                node_config=node_config,
                network_config=network_config,
                seed=cfg.seed,
            )
        return self._fast_bootstrap(node_config, network_config)

    def _fast_bootstrap(
        self, node_config: NodeConfig, network_config: NetworkConfig
    ) -> Overlay:
        """Wire the overlay without join traffic.

        Each routing table is seeded with the node's neighbours in sorted id
        order plus random long-range contacts: close buckets dense, far
        buckets sampled.  Sorted-order neighbours are not the XOR-space
        vicinity, though: at 256 and at 1,000 nodes (seed 0) only 3 % of the
        tables hold all :data:`NODE_K` of their node's XOR-closest nodes, and
        about 2.5 of them are missing per node.
        """
        cfg = self.config
        network = SimulatedNetwork(config=network_config)
        certification = CertificationService(seed=cfg.seed)
        overlay = Overlay(
            network=network,
            certification=certification,
            node_config=node_config,
            _rng=random.Random(cfg.seed),
        )
        for index in range(cfg.num_nodes):
            identity = certification.register(f"peer-{index:06d}")
            node = KademliaNode(
                node_id=identity.node_id,
                network=network,
                config=node_config,
                certification=certification,
            )
            node.joined = True
            overlay.adopt_node(node)

        # One flat-array argsort over interned ids instead of a keyed object
        # sort: same ordering (ids are unique), O(n log n) over machine-int
        # comparisons, and the interner is reusable for later index-keyed
        # wiring passes.
        interner = NodeIDInterner()
        for node in overlay.nodes:
            interner.intern(node.node_id)
        ordered = [overlay.nodes[i] for i in interner.argsort()]
        count = len(ordered)
        contacts = [n.contact for n in ordered]
        for position, node in enumerate(ordered):
            neighbourhood: list[Contact] = []
            for offset in range(1, RING_NEIGHBOURS + 1):
                neighbourhood.append(contacts[(position - offset) % count])
                neighbourhood.append(contacts[(position + offset) % count])
            sampled = self._rng.sample(range(count), min(cfg.random_contacts, count))
            for index in sampled:
                neighbourhood.append(contacts[index])
            for contact in neighbourhood:
                if contact.node_id != node.node_id:
                    node.routing_table.record_contact(contact)
        return overlay

    def _build_services(self) -> list[DharmaService]:
        cfg = self.config
        services = []
        for index in range(cfg.clients):
            services.append(
                DharmaService(
                    self.overlay,
                    user=f"client-{index:03d}",
                    config=cfg.service_config(seed=cfg.seed + index),
                )
            )
        return services

    def __len__(self) -> int:
        return len(self.overlay)

    # ------------------------------------------------------------------ #
    # workload driving
    # ------------------------------------------------------------------ #

    def run_workload(
        self,
        workload: TaggingWorkload,
        limit: int | None = None,
        ignore_errors: bool = True,
    ) -> WorkloadStats:
        """Replay *workload* through the client pool via the event queue.

        Events are scheduled ``op_interval_ms`` of virtual time apart and
        round-robin over the services; network latencies advance the same
        clock, so the run yields a meaningful virtual-throughput figure.
        """
        stats = WorkloadStats()
        events = workload.events if limit is None else workload.events[:limit]
        start = self.queue.clock.now

        def dispatch(event_index: int) -> None:
            event = events[event_index]
            service = self.services[event_index % len(self.services)]
            try:
                if event.kind == "insert":
                    service.insert_resource(event.resource, list(event.tags))
                    stats.insert_ops += 1
                else:
                    service.add_tag(event.resource, event.tags[0])
                    stats.tag_ops += 1
            except Exception:
                if not ignore_errors:
                    raise
                stats.errors += 1

        for index in range(len(events)):
            self.queue.schedule_at(
                start + index * self.config.op_interval_ms,
                (lambda i=index: dispatch(i)),
                label=f"op-{index}",
            )
        if self.maintenance is None and self.churn is None:
            self.queue.run_all(max_events=len(events) + 1)
        else:
            # Maintenance/churn timers reschedule themselves forever, so the
            # queue never drains; run up to the last workload arrival instead
            # (periodic events due in that window interleave with the ops).
            last = start + max(len(events) - 1, 0) * self.config.op_interval_ms
            self.queue.run_until(last)
        return stats

    # ------------------------------------------------------------------ #
    # churn driving
    # ------------------------------------------------------------------ #

    def start_churn(self, trace_horizon_ms: float) -> ChurnProcess:
        """Pre-schedule the membership trace of the next *trace_horizon_ms*
        at absolute virtual times (requires ``churn``): identical faults
        across configurations."""
        if self.churn is None:
            raise RuntimeError("cluster was built without churn (ClusterConfig.churn)")
        self.churn.schedule_trace(trace_horizon_ms)
        return self.churn

    # ------------------------------------------------------------------ #
    # adversary driving
    # ------------------------------------------------------------------ #

    def start_attack(
        self, targets: list[AttackTarget], trace_horizon_ms: float
    ) -> AdversaryProcess:
        """Pre-schedule the whole attack campaign (requires ``adversary``).

        Like :meth:`start_churn`: every attack event is pinned to an absolute
        virtual time drawn from the config seed, so a verification-on and a
        verification-off cluster with the same config face the byte-identical
        campaign.
        """
        if not self.config.adversary:
            raise RuntimeError(
                "cluster was built without an adversary (ClusterConfig.adversary)"
            )
        self.adversary = AdversaryProcess(
            self.overlay, self.queue, self.config.adversary_config(), targets
        )
        self.adversary.schedule_trace(trace_horizon_ms)
        return self.adversary

    def compromise(self, node: KademliaNode, hook=None) -> None:
        """Turn *node* malicious through its RPC-response hook.

        With an explicit *hook* the node lies however the harness says; with
        ``None`` the running adversary's eclipse behavior is installed
        (forged victim-key answers, sybil-ring steering).
        """
        if hook is not None:
            node.rpc_hook = hook
            return
        if self.adversary is None:
            raise RuntimeError("no adversary running and no explicit hook given")
        self.adversary.compromise(node)

    def run_for(self, duration_ms: float, max_events: int | None = None) -> int:
        """Advance the simulation by *duration_ms* of virtual time."""
        return self.queue.run_until(self.queue.clock.now + duration_ms, max_events=max_events)


# --------------------------------------------------------------------- #
# config shapes of the fault experiments (repro.simulation.experiment)
# --------------------------------------------------------------------- #


def churn_cluster_config(
    num_nodes: int,
    maintenance: bool,
    mean_session_s: float,
    republish_interval_ms: float,
    refresh_interval_ms: float,
    crash_probability: float = 0.5,
    join_rate: float | None = None,
    min_nodes: int | None = None,
    replicate: int = 3,
    clients: int = 4,
    seed: int = 0,
) -> ClusterConfig:
    """A :class:`ClusterConfig` shaped for churn-survival experiments.

    Shared by ``dharma churn-bench`` and ``bench_churn_survival.py`` so the
    two always measure the same system.  *join_rate* defaults to the
    replacement rate ``num_nodes / mean_session_s`` (stable population);
    *min_nodes* defaults to a third of the starting size.  The transport uses
    near-zero latencies: survival is governed by the ratio of session length
    to republish interval, and charging milliseconds of shared virtual clock
    per RPC would skew the pre-scheduled churn/maintenance timelines against
    each other (the survival benchmark measures message counts, not latency).
    """
    return ClusterConfig(
        num_nodes=num_nodes,
        clients=clients,
        bootstrap="fast",
        replicate=replicate,
        min_latency_ms=0.01,
        max_latency_ms=0.05,
        timeout_ms=0.25,
        churn=True,
        churn_join_rate=join_rate if join_rate is not None else num_nodes / mean_session_s,
        mean_session_s=mean_session_s,
        crash_probability=crash_probability,
        churn_min_nodes=min_nodes if min_nodes is not None else max(2, num_nodes // 3),
        maintenance=maintenance,
        republish_interval_ms=republish_interval_ms,
        refresh_interval_ms=refresh_interval_ms,
        op_interval_ms=10.0,
        seed=seed,
    )


def attack_cluster_config(
    num_nodes: int,
    verification: bool,
    sybil_count: int = 32,
    compromised_fraction: float = 0.02,
    forge_rate: float = 2.0,
    append_forge_rate: float = 1.0,
    stale_republish_rate: float = 1.0,
    eclipse: bool = True,
    replicate: int = 3,
    clients: int = 4,
    seed: int = 0,
) -> ClusterConfig:
    """A :class:`ClusterConfig` shaped for attack experiments.

    Shared by ``dharma attack-bench`` and ``bench_attack.py``.  *verification*
    toggles the whole Likir enforcement posture at once -- credential
    verification, certified-contact admission and the hardened unsigned-write
    policy -- which is the A/B the benchmark measures; everything else
    (including the adversary's seeded campaign) is identical across the two
    arms.  The transport uses the same near-zero latencies as the churn
    config: the benchmark measures message counts and integrity, not latency.
    """
    return ClusterConfig(
        num_nodes=num_nodes,
        clients=clients,
        bootstrap="fast",
        replicate=replicate,
        min_latency_ms=0.01,
        max_latency_ms=0.05,
        timeout_ms=0.25,
        op_interval_ms=10.0,
        seed=seed,
        verify_credentials=verification,
        certified_contacts=verification,
        require_signed_writes=verification,
        adversary=True,
        sybil_count=sybil_count,
        eclipse=eclipse,
        compromised_fraction=compromised_fraction,
        forge_rate=forge_rate,
        append_forge_rate=append_forge_rate,
        stale_republish_rate=stale_republish_rate,
    )
