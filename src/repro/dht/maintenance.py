"""Replica maintenance: periodic republish and bucket refresh under churn.

The DHARMA evaluation runs on a static overlay, but the system it models is a
folksonomy living on a Kademlia/Likir DHT where peers come and go.  Two
classic Kademlia maintenance loops make block data survive that churn:

* **periodic republish** -- every live node periodically re-stores each block
  it holds onto the ``replicate`` closest nodes *currently* responsible for
  the key.  When a replica crashed since the last tick, the republish restores
  full replication from the surviving copies; when responsibility shifted
  because nodes joined, the data follows.  The STOREs rely on the
  merge-on-store semantics of :meth:`~repro.dht.storage.LocalStorage.put`, so
  a republished counter-block snapshot can never roll back APPENDs applied
  concurrently at the destination;
* **periodic bucket refresh** -- every live node periodically refreshes its
  routing table (one self-lookup for the neighbourhood, one PING or lookup
  per non-empty bucket outside it), evicting contacts that crashed and
  discovering joiners, which keeps republish lookups converging on the true
  closest nodes.

Both loops follow Kademlia's two rules for not doing work a peer just did
(Maymounkov & Mazières 2002, §2.3 and §2.5).  Their windows are the loops'
own intervals -- "since this loop's previous pass" -- so they add no knob:

* **republish skip** -- a pass skips (no STORE, no hand-off check) every key
  that a STORE from another node *dominated* since the previous pass: the
  incoming payload was an opaque value, or a counter block none of whose
  resident entries exceeded it
  (:attr:`~repro.dht.storage.StoredValue.dominated_at`).  The sender's
  republish already put exactly this copy on the replica set.  A replica
  holding entries the sender lacked is not dominated and still republishes
  them, and a stale snapshot -- such as an adversary's stale-republish
  storm -- never dominates, so it can never suppress a republish;
* **refresh skip** -- a pass skips every non-empty bucket that one of the
  node's own lookups walked since the previous pass
  (:attr:`~repro.dht.node.KademliaNode.bucket_lookup_at`): that lookup
  refreshed it.  A pass's window opens when the previous pass *finished*, so
  the refresh lookups themselves never make the next pass skip a bucket.

Refresh adds two more rules, from Kademlia's join (§2.3) and its preference
for old live contacts (§2.2), that again add no knob:

* **neighbourhood refresh** -- let ``r`` be the bucket index of the k-th
  closest contact to the node's own id.  Every due bucket below ``r`` is
  refreshed by **one** lookup of the node's own id per pass (it returns the
  whole neighbourhood); each due bucket at or above ``r`` keeps its own
  lookup of a random id in its range.  A table with fewer than k contacts
  has no ``r`` and refreshes every due bucket with its own lookup.  A bucket
  the self-lookup covers counts as *refreshed*: ``buckets_skipped`` and
  ``maint.refresh_skips`` count only buckets the refresh-skip rule left
  alone;
* **far-bucket PING** -- a due bucket at or above ``r`` that is **full**
  first PINGs its least-recently-seen contact, the one likeliest to be dead.
  If it answers, the bucket has nothing to evict and no room for a joiner
  (newcomers wait in the replacement cache), so it counts as refreshed
  without a walk (``buckets_pinged`` / ``maint.refresh_pings``, also counted
  in ``buckets_refreshed``).  If it does not, the failed call strikes and
  evicts it -- promoting a replacement -- and the bucket is walked as above.
  A far bucket with room keeps its walk: that walk is what finds joiners.

A holder that republishes a block onto a full replica set it is no longer
part of *hands the block off* (drops its copy), so the per-key holder set --
and with it the republish cost -- stays bounded as responsibility shifts.
One caveat is inherent to the scheme: **opaque** blocks (the ``r̃`` URI
block, arbitrary application values) are last-writer-wins with no version
vector, so a holder that missed an overwrite can push the old value back one
last time before handing off.  Counter blocks are immune (their merge is a
monotone join); applications that rewrite opaque blocks under churn need
versioned payloads, which the paper's model does not require (``r̃`` is
written once at insert).

Timers are driven by the shared :class:`~repro.simulation.event_queue.EventQueue`
and every pending timer is **cancelled** when its node leaves or crashes --
mass departures therefore exercise the queue's lazy compaction of cancelled
events.  :class:`OverlayMaintenance` wires one :class:`NodeMaintenance` per
live node and tracks membership through :meth:`~repro.dht.bootstrap.Overlay.subscribe`,
so joiners picked up by a churn process start their own maintenance loops
automatically.

Tick times are jittered per node (deterministically, from the configured
seed) so a thousand nodes do not republish in one synchronised burst.

Invariants
----------

* **merge-on-store** -- a republished counter-block snapshot is always a
  *lower bound* of the live block; the receiving replica folds it in with an
  entry-wise ``max``, so republication can never roll back an APPEND that
  landed after the snapshot was taken.
* **holder hand-off** -- a node drops its copy of a key only after a
  republish pass confirmed a *full-size* replica set that it is no longer
  part of; the holder set per key therefore stays bounded at ``k`` without
  ever deleting the last copy.
* **own-timeline timers** -- each loop's next tick is drawn relative to the
  *scheduled* time of the previous one (``_next_at``), not the possibly
  inflated execution clock, so maintenance cadence is independent of how much
  latency the surrounding simulation charges.
* **no posthumous ticks** -- a tick on a node that silently left the network
  stops both loops instead of republishing from beyond the grave, and every
  pending timer is cancelled when the overlay reports the node gone.

Ticks also feed the process-wide :data:`repro.perf.PERF` registry
(``maint.republish_ticks`` / ``maint.refresh_ticks`` / ``maint.handoffs`` /
``maint.republish_skips`` / ``maint.refresh_skips`` / ``maint.refresh_pings``)
so live metrics streams can export maintenance progress per interval.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.dht.bootstrap import Overlay
from repro.dht.node import KademliaNode
from repro.perf import PERF
from repro.simulation.event_queue import Event, EventQueue

__all__ = ["MaintenanceConfig", "MaintenanceStats", "NodeMaintenance", "OverlayMaintenance"]


@dataclass(frozen=True, slots=True)
class MaintenanceConfig:
    """Timer policy of the maintenance loops (times in virtual ms)."""

    #: Interval between two republish passes of one node (0 disables).
    republish_interval_ms: float = 30_000.0
    #: Interval between two bucket-refresh passes of one node (0 disables).
    refresh_interval_ms: float = 120_000.0
    #: Fraction of the interval randomised around each tick (de-synchronises
    #: the fleet; 0 = strictly periodic).
    jitter: float = 0.5
    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.republish_interval_ms < 0 or self.refresh_interval_ms < 0:
            raise ValueError("maintenance intervals must be >= 0")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError("jitter must be in [0, 1]")


@dataclass(slots=True)
class MaintenanceStats:
    """Aggregate counters over every maintenance loop of an overlay."""

    republish_runs: int = 0
    blocks_republished: int = 0
    #: Keys a republish pass left alone: a peer's STORE dominated them.
    blocks_skipped: int = 0
    replicas_written: int = 0
    blocks_handed_off: int = 0
    refresh_runs: int = 0
    buckets_refreshed: int = 0
    #: Full far buckets a PING to their least-recently-seen contact vouched
    #: for instead of a walk; they count in ``buckets_refreshed`` too.
    buckets_pinged: int = 0
    #: Non-empty buckets a refresh pass left alone: a lookup walked them
    #: (refresh skip).  Buckets the neighbourhood self-lookup covered count
    #: as refreshed.
    buckets_skipped: int = 0
    timers_cancelled: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "republish_runs": self.republish_runs,
            "blocks_republished": self.blocks_republished,
            "blocks_skipped": self.blocks_skipped,
            "replicas_written": self.replicas_written,
            "blocks_handed_off": self.blocks_handed_off,
            "refresh_runs": self.refresh_runs,
            "buckets_refreshed": self.buckets_refreshed,
            "buckets_pinged": self.buckets_pinged,
            "buckets_skipped": self.buckets_skipped,
            "timers_cancelled": self.timers_cancelled,
        }


class NodeMaintenance:
    """The two maintenance loops of a single node."""

    __slots__ = (
        "node", "queue", "config", "stats", "_rng", "_pending", "_next_at", "_last_at",
        "_running",
    )

    def __init__(
        self,
        node: KademliaNode,
        queue: EventQueue,
        config: MaintenanceConfig | None = None,
        stats: MaintenanceStats | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.node = node
        self.queue = queue
        self.config = config or MaintenanceConfig()
        self.stats = stats or MaintenanceStats()
        self._rng = rng or random.Random(self.config.seed)
        self._pending: dict[str, Event] = {}
        #: Scheduled time of each loop's pending tick.  The *next* tick is
        #: drawn relative to this, not to the current clock, so the loop
        #: stays pinned to its own timeline even when event execution
        #: inflates the virtual clock (the simulator charges RPC latency to
        #: the shared clock); otherwise a burst of same-window failure events
        #: could starve the loop of its interleaved passes.
        self._next_at: dict[str, float] = {}
        #: Clock when each loop's previous pass finished (or the loops
        #: started): the window of the two skip rules.  No entry reads as
        #: "never", so every mark counts.
        self._last_at: dict[str, float] = {}
        self._running = False

    # -- lifecycle --------------------------------------------------------- #

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Schedule the first republish and refresh ticks."""
        if self._running:
            return
        self._running = True
        now = self.queue.clock.now
        self._last_at = {"republish": now, "refresh": now}
        self._schedule("republish", self.config.republish_interval_ms)
        self._schedule("refresh", self.config.refresh_interval_ms)

    def stop(self) -> None:
        """Cancel every pending timer (the node left or crashed)."""
        self._running = False
        for event in self._pending.values():
            if not event.cancelled:
                event.cancel()
                self.stats.timers_cancelled += 1
        self._pending.clear()
        self._next_at.clear()
        self._last_at.clear()

    def _schedule(self, kind: str, interval_ms: float) -> None:
        if not self._running or interval_ms <= 0:
            return
        delay = interval_ms
        if self.config.jitter:
            spread = self.config.jitter * interval_ms
            delay += self._rng.uniform(-spread / 2.0, spread / 2.0)
        base = self._next_at.get(kind, self.queue.clock.now)
        at = max(base + max(delay, 1.0), self.queue.clock.now)
        self._next_at[kind] = at
        action = self._republish_tick if kind == "republish" else self._refresh_tick
        self._pending[kind] = self.queue.schedule_at(
            at, action, label=f"maint-{kind}:{self.node.address}"
        )

    # -- ticks -------------------------------------------------------------- #

    def _alive(self) -> bool:
        if self.node.transport.is_registered(self.node.address):
            return True
        # The node silently died without going through the overlay: stop the
        # loops instead of republishing from beyond the grave.
        self.stop()
        return False

    def _republish_tick(self) -> None:
        self._pending.pop("republish", None)
        if not self._alive():
            return
        node = self.node
        held = len(node.storage)
        # Republish skip: a key a peer's STORE dominated since the previous
        # pass is already on the replica set as this node holds it.
        snapshot = node.storage.items_snapshot(
            since=self._last_at.get("republish", float("-inf"))
        )
        skipped = held - len(snapshot)
        replicas = 0
        for key, value in snapshot.items():
            outcome = node.store(key, value)
            replicas += outcome.accepted_replicas
            # Hand-off: once the key's data sits on a full replica set and
            # this node has drifted out of the key's k-closest neighbourhood
            # entirely, drop the local copy.  Without this, responsibility
            # shifts only ever *add* holders, so a long churn run would
            # republish an ever-growing inventory and a stale holder could
            # keep re-STOREing a block forever.  Nodes still inside the
            # k-closest ring keep their copy: that redundancy is what rides
            # out replica crashes between two republish passes, and it stays
            # bounded at k holders per key.
            if (
                outcome.accepted_replicas >= node.config.replicate
                # A *full-size* closest set must exist: with a degenerate
                # lookup (empty or short closest list) the membership test
                # below would be vacuous and the hand-off could delete the
                # only copy of the block.
                and len(outcome.closest) >= node.config.replicate
                and all(
                    contact.node_id != node.node_id for contact in outcome.closest
                )
                and node.storage.delete(key)
            ):
                self.stats.blocks_handed_off += 1
                PERF.count("maint.handoffs")
        self.stats.republish_runs += 1
        self.stats.blocks_republished += len(snapshot)
        self.stats.blocks_skipped += skipped
        self.stats.replicas_written += replicas
        PERF.count("maint.republish_ticks")
        if skipped:
            PERF.count("maint.republish_skips", skipped)
        self._last_at["republish"] = self.queue.clock.now
        self._schedule("republish", self.config.republish_interval_ms)

    def _refresh_tick(self) -> None:
        self._pending.pop("refresh", None)
        if not self._alive():
            return
        outcome = self.node.refresh_buckets(
            self._rng, since=self._last_at.get("refresh", float("-inf"))
        )
        self.stats.refresh_runs += 1
        self.stats.buckets_refreshed += outcome.refreshed
        self.stats.buckets_pinged += outcome.pinged
        self.stats.buckets_skipped += outcome.skipped
        PERF.count("maint.refresh_ticks")
        self._last_at["refresh"] = self.queue.clock.now
        self._schedule("refresh", self.config.refresh_interval_ms)


class OverlayMaintenance:
    """Replica maintenance for a whole overlay.

    Attaches a :class:`NodeMaintenance` to every live node, follows overlay
    membership (joiners get loops, leavers get their timers cancelled) and
    aggregates one :class:`MaintenanceStats` over the fleet.
    """

    def __init__(
        self,
        overlay: Overlay,
        queue: EventQueue,
        config: MaintenanceConfig | None = None,
    ) -> None:
        self.overlay = overlay
        self.queue = queue
        self.config = config or MaintenanceConfig()
        self.stats = MaintenanceStats()
        self._rng = random.Random(self.config.seed)
        self._by_address: dict[str, NodeMaintenance] = {}
        self._started = False
        overlay.subscribe(on_join=self._on_join, on_leave=self._on_leave)

    # -- lifecycle --------------------------------------------------------- #

    def __len__(self) -> int:
        return len(self._by_address)

    def start(self) -> None:
        """Start maintenance loops on every currently live node."""
        self._started = True
        for node in self.overlay.live_nodes():
            self.attach(node)

    def stop(self) -> None:
        """Cancel every loop (end of experiment)."""
        self._started = False
        for maintenance in list(self._by_address.values()):
            maintenance.stop()
        self._by_address.clear()

    def attach(self, node: KademliaNode) -> NodeMaintenance:
        """Start (or return) the maintenance loops of *node*."""
        maintenance = self._by_address.get(node.address)
        if maintenance is None:
            maintenance = NodeMaintenance(
                node,
                self.queue,
                config=self.config,
                stats=self.stats,
                rng=random.Random(self._rng.random()),
            )
            self._by_address[node.address] = maintenance
        maintenance.start()
        return maintenance

    def detach(self, node: KademliaNode) -> None:
        """Cancel the loops of *node* (it left or crashed)."""
        maintenance = self._by_address.pop(node.address, None)
        if maintenance is not None:
            maintenance.stop()

    # -- membership tracking ------------------------------------------------ #

    def _on_join(self, node: KademliaNode) -> None:
        if self._started:
            self.attach(node)

    def _on_leave(self, node: KademliaNode) -> None:
        self.detach(node)
