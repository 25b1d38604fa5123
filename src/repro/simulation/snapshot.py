"""Checkpoint/restore of a running simulated cluster.

A :class:`~repro.simulation.cluster.SimulatedCluster` mid-churn is a pile of
interlocking state: the virtual clock, every node's routing table and local
store, the seeded generators of the network/overlay/churn/maintenance layers,
and the pending events of the shared queue.  This module serialises all of it
into one JSON document so a long survival run can be killed at any checkpoint
and resumed later -- **deterministically**: the resumed run executes the exact
same event sequence, RNG draws and RPCs as an uninterrupted one, and produces
the identical :class:`~repro.simulation.experiment.SurvivalReport`.

Design notes
------------

* Every field is plain JSON, so a checkpoint reads and diffs with ``jq``.
  A node's membership is its ``user``, ``node_id`` (hex), ``address`` and
  ``joined`` fields; its routing table is a ``buckets`` list of
  ``[index, contacts, replacements]``, each contact an ``[id_hex, address]``
  pair.  Contact order inside each bucket is part of the format because it
  *is* state: Kademlia buckets are LRU-ordered and eviction picks the
  least-recently seen contact.
* A stored value is ``{"kind": "json", "data": ...}`` -- a block is its
  payload dict -- or ``{"kind": "signed", ...}`` around the inner value,
  with the Likir credential in hex.
* RNG states are captured with :meth:`random.Random.getstate` and stored as
  nested lists; Python guarantees ``setstate`` restores the exact stream.
* The certification service is not dumped -- it is **replayed**.  Likir
  secrets derive deterministically from ``(seed, issuance_index, user)``, so
  re-registering every user in issuance order rebuilds identical secrets and
  node ids without putting keying material in the snapshot.
* Pending events cannot be pickled (they are closures), so they are stored
  as ``(time, label)`` pairs and re-created from their labels: the churn
  trace encodes its parameters in the label
  (``churn-join:<at>:<session>:<horizon>``), maintenance ticks name their
  node (``maint-republish:<address>``), and benchmark probes map back to the
  restored :class:`~repro.simulation.experiment.SurvivalRun`.
* A node's failure memory (which peers it watched fail, how often, until
  when they stay suspected) steers its next lookups, so it travels with the
  node as its ``suspects`` list.
* The state of the two maintenance skip rules travels the same way: a
  stored record's ``dominated_at`` (``null`` while never), a node's
  ``bucket_lookups`` and each loop's ``last_at`` next to its ``next_at``.
* Every field is always written and read strictly: a missing field raises
  :class:`KeyError`, a config that does not name exactly this build's
  ``ClusterConfig`` fields is a :class:`SnapshotError`, and so is a file of
  another :data:`SNAPSHOT_VERSION`.  Checkpoints are artefacts of one run,
  so no older layout is read.
* Default node addresses come from a process-wide counter; restore reserves
  every number seen in the snapshot so post-restore joiners cannot collide
  with restored nodes, even in a fresh process.

Service clients are *not* captured: checkpoints are taken after the workload
phase, when the survival benchmark no longer touches them.  A restored
cluster therefore has an empty client pool (``cluster.services == []``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields as dataclass_fields
from pathlib import Path
from typing import Any

import random
import time

from repro.dht.likir import CertificationService, SignedValue
from repro.dht.maintenance import NodeMaintenance, OverlayMaintenance
from repro.dht.node import KademliaNode, NodeConfig, reserve_addresses
from repro.dht.node_id import NodeID
from repro.dht.routing_table import Contact
from repro.perf import PERF
from repro.simulation.churn import ChurnProcess
from repro.simulation.cluster import ClusterConfig, SimulatedCluster
from repro.simulation.event_queue import EventQueue
from repro.simulation.experiment import SurvivalReport, SurvivalRun
from repro.simulation.network import SimulatedNetwork

__all__ = [
    "SnapshotError",
    "snapshot_cluster",
    "save_snapshot",
    "load_snapshot",
    "restore_cluster",
    "resume_survival_benchmark",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
]

SNAPSHOT_FORMAT = "dharma-cluster-snapshot"
SNAPSHOT_VERSION = 2


class SnapshotError(RuntimeError):
    """The snapshot is malformed, or the cluster state is not checkpointable."""


# --------------------------------------------------------------------------- #
# primitive encoders
# --------------------------------------------------------------------------- #


def _rng_to_json(rng: random.Random) -> list:
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def _rng_from_json(data: list) -> tuple:
    return (data[0], tuple(data[1]), data[2])


def _restored_rng(data: list) -> random.Random:
    rng = random.Random()
    rng.setstate(_rng_from_json(data))
    return rng


def _encode_value(value: Any) -> dict:
    """Encode one stored value for the JSON container.

    :class:`SignedValue` wrappers recurse on their inner value; anything else
    (a block is its payload dict) must be JSON-serialisable and is embedded
    verbatim.
    """
    if isinstance(value, SignedValue):
        return {
            "kind": "signed",
            "publisher": value.publisher,
            "key_hex": value.key_hex,
            "credential": value.credential.hex(),
            "value": _encode_value(value.value),
        }
    return {"kind": "json", "data": value}


def _decode_value(record: dict) -> Any:
    kind = record["kind"]
    if kind == "signed":
        return SignedValue(
            publisher=record["publisher"],
            key_hex=record["key_hex"],
            value=_decode_value(record["value"]),
            credential=bytes.fromhex(record["credential"]),
        )
    if kind == "json":
        return record["data"]
    raise SnapshotError(f"unknown stored-value kind {kind!r}")


# --------------------------------------------------------------------------- #
# capture
# --------------------------------------------------------------------------- #


def _network_state(network: SimulatedNetwork) -> dict:
    stats = network.stats
    return {
        "rng": _rng_to_json(network._rng),
        "stats": {
            "messages_sent": stats.messages_sent,
            "messages_delivered": stats.messages_delivered,
            "messages_dropped": stats.messages_dropped,
            "rpcs_failed_unreachable": stats.rpcs_failed_unreachable,
            "bytes_transferred": stats.bytes_transferred,
            "received_by_node": dict(stats.received_by_node),
        },
    }


def _node_state(node: KademliaNode, users_by_id: dict[NodeID, str]) -> dict:
    user = users_by_id.get(node.node_id)
    if user is None:
        raise SnapshotError(f"node {node.address} has no certified identity")
    return {
        "user": user,
        "node_id": node.node_id.hex(),
        "address": node.address,
        "joined": node.joined,
        "rpcs_served": dict(node.rpcs_served),
        "buckets": [
            [index, _contacts_to_json(contacts), _contacts_to_json(replacements)]
            for index, contacts, replacements in node.routing_table.export_buckets()
        ],
        "storage": [
            {
                "key": key.hex(),
                "value": _encode_value(record.value),
                "stored_at": record.stored_at,
                "writes": record.writes,
                "reads": record.reads,
                "dominated_at": record.dominated_at,
            }
            for key, record in node.storage.records_snapshot().items()
        ],
        "suspects": [
            [node_id.hex(), strikes, until] for node_id, strikes, until in node.export_suspects()
        ],
        "bucket_lookups": [[index, at] for index, at in node.bucket_lookup_at.items()],
    }


def _contacts_to_json(contacts: list[Contact]) -> list[list[str]]:
    return [[contact.node_id.hex(), contact.address] for contact in contacts]


def _contacts_from_json(pairs: list[list[str]]) -> list[Contact]:
    return [Contact(NodeID.from_hex(id_hex), address) for id_hex, address in pairs]


def _maintenance_state(maintenance: OverlayMaintenance) -> dict:
    return {
        "started": maintenance._started,
        "rng": _rng_to_json(maintenance._rng),
        "stats": maintenance.stats.snapshot(),
        "nodes": {
            address: {
                "rng": _rng_to_json(nm._rng),
                "next_at": dict(nm._next_at),
                "last_at": dict(nm._last_at),
                "running": nm._running,
            }
            for address, nm in maintenance._by_address.items()
        },
    }


def _benchmark_state(run: SurvivalRun) -> dict:
    report = run.report
    return {
        "sample_every_s": run.sample_every_s,
        "churn_start_ms": run.start_ms,
        "prior_wall_s": run.prior_wall_s,
        "report": {
            "duration_s": report.duration_s,
            "blocks_written": report.blocks_written,
            "counter_blocks": report.counter_blocks,
            "churn_appends": report.churn_appends,
            "samples": [[t, a] for t, a in report.samples],
        },
        "expected": [
            {
                "key": key.hex(),
                "payload": _encode_value(payload) if payload is not None else None,
            }
            for key, payload in run.expected.items()
        ],
        "probe": [key.hex() for key in run.probe],
        "appended": [key.hex() for key in run.appended],
    }


def snapshot_cluster(
    cluster: SimulatedCluster,
    benchmark: SurvivalRun | None = None,
    recorder: Any | None = None,
) -> dict:
    """Serialise *cluster* (and optionally a mid-flight survival run and a
    metrics recorder) into a JSON-compatible dict."""
    overlay = cluster.overlay
    events = []
    for event in cluster.queue.pending_events():
        if not event.label:
            raise SnapshotError(
                "pending event without a label cannot be restored "
                "(checkpoint after the workload phase has drained)"
            )
        events.append({"time": event.time, "label": event.label})
    users_by_id = {
        node_id: user for user, node_id in overlay.certification._node_ids.items()
    }
    address_numbers = [
        int(node.address.removeprefix("node-"))
        for node in overlay.nodes
        if node.address.startswith("node-") and node.address.removeprefix("node-").isdigit()
    ]
    snapshot: dict[str, Any] = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "clock_ms": overlay.clock.now,
        "config": asdict(cluster.config),
        "address_floor": max(address_numbers, default=-1) + 1,
        "certified_users": list(overlay.certification._secrets),
        "network": _network_state(overlay.network),
        "overlay": {
            "rng": _rng_to_json(overlay._rng),
            "helper_cursor": overlay._helper_cursor,
            "peer_counter": overlay._peer_counter,
        },
        "cluster": {"rng": _rng_to_json(cluster._rng)},
        "nodes": [_node_state(node, users_by_id) for node in overlay.nodes],
        "churn": None,
        "maintenance": None,
        "queue": {"events": events, "processed": cluster.queue.processed},
        "perf": PERF.snapshot(),
        "benchmark": _benchmark_state(benchmark) if benchmark is not None else None,
        "recorder": recorder.export_state() if recorder is not None else None,
    }
    if cluster.churn is not None:
        snapshot["churn"] = {
            "rng": _rng_to_json(cluster.churn._rng),
            "joins": cluster.churn.joins,
            "graceful_leaves": cluster.churn.graceful_leaves,
            "crashes": cluster.churn.crashes,
        }
    if cluster.maintenance is not None:
        snapshot["maintenance"] = _maintenance_state(cluster.maintenance)
    return snapshot


def save_snapshot(
    path: str | Path,
    cluster: SimulatedCluster,
    benchmark: SurvivalRun | None = None,
    recorder: Any | None = None,
) -> dict:
    """Snapshot *cluster* and write it to *path* as JSON.  Returns the dict."""
    snapshot = snapshot_cluster(cluster, benchmark=benchmark, recorder=recorder)
    Path(path).write_text(json.dumps(snapshot, separators=(",", ":")) + "\n", encoding="utf-8")
    return snapshot


def load_snapshot(path: str | Path) -> dict:
    """Read a snapshot written by :func:`save_snapshot` and sanity-check it."""
    try:
        snapshot = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if not isinstance(snapshot, dict) or snapshot.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"{path} is not a {SNAPSHOT_FORMAT} file")
    if snapshot.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {snapshot.get('version')!r} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    return snapshot


# --------------------------------------------------------------------------- #
# restore
# --------------------------------------------------------------------------- #


def _restore_nodes(
    snapshot: dict,
    network: SimulatedNetwork,
    node_config: NodeConfig,
    certification: CertificationService,
) -> list[KademliaNode]:
    nodes: list[KademliaNode] = []
    for record in snapshot["nodes"]:
        user, address = record["user"], record["address"]
        node_id = NodeID.from_hex(record["node_id"])
        if certification.node_id_for(user) != node_id:
            raise SnapshotError(
                f"certified id for {user!r} does not match the snapshot "
                "(wrong seed or corrupted snapshot)"
            )
        node = KademliaNode(
            node_id=node_id,
            network=network,
            config=node_config,
            address=address,
            certification=certification,
        )
        node.joined = record["joined"]
        node.rpcs_served = {name: int(count) for name, count in record["rpcs_served"].items()}
        node.routing_table.restore_buckets(
            [
                (index, _contacts_from_json(contacts), _contacts_from_json(replacements))
                for index, contacts, replacements in record["buckets"]
            ]
        )
        for item in record["storage"]:
            node.storage.restore_record(
                NodeID.from_hex(item["key"]),
                _decode_value(item["value"]),
                stored_at=item["stored_at"],
                writes=item["writes"],
                reads=item["reads"],
                dominated_at=item["dominated_at"],
            )
        node.bucket_lookup_at = {int(index): at for index, at in record["bucket_lookups"]}
        node.restore_suspects(
            [
                (NodeID.from_hex(node_id), int(strikes), until)
                for node_id, strikes, until in record["suspects"]
            ]
        )
        nodes.append(node)
    return nodes


def _restore_benchmark(snapshot_section: dict, cluster: SimulatedCluster) -> SurvivalRun:
    report_data = snapshot_section["report"]
    report = SurvivalReport(
        config=cluster.config,
        maintenance_on=cluster.config.maintenance,
        blocks_written=report_data["blocks_written"],
        counter_blocks=report_data["counter_blocks"],
        duration_s=report_data["duration_s"],
        churn_appends=report_data["churn_appends"],
        samples=[(t, a) for t, a in report_data["samples"]],
    )
    expected = {
        NodeID.from_hex(item["key"]): (
            _decode_value(item["payload"]) if item["payload"] is not None else None
        )
        for item in snapshot_section["expected"]
    }
    return SurvivalRun(
        cluster,
        report,
        expected,
        probe=[NodeID.from_hex(h) for h in snapshot_section["probe"]],
        appended=[NodeID.from_hex(h) for h in snapshot_section["appended"]],
        start_ms=snapshot_section["churn_start_ms"],
        sample_every_s=snapshot_section["sample_every_s"],
        prior_wall_s=snapshot_section["prior_wall_s"],
    )


def _replay_events(
    snapshot: dict,
    cluster: SimulatedCluster,
    run: SurvivalRun | None,
    recorder: Any | None,
) -> None:
    from repro.metrics.stream import METRICS_TICK_LABEL

    queue = cluster.queue
    for record in snapshot["queue"]["events"]:
        at, label = record["time"], record["label"]
        if label.startswith("maint-"):
            kind, _, address = label[len("maint-"):].partition(":")
            maintenance = cluster.maintenance
            if maintenance is None:
                raise SnapshotError(f"event {label!r} but maintenance is off")
            nm = maintenance._by_address.get(address)
            if nm is None:
                raise SnapshotError(f"event {label!r} names an unknown node")
            action = nm._republish_tick if kind == "republish" else nm._refresh_tick
            nm._pending[kind] = queue.schedule_at(at, action, label=label)
        elif label.startswith("churn-leave:"):
            if cluster.churn is None:
                raise SnapshotError(f"event {label!r} but churn is off")
            address = label[len("churn-leave:"):]
            churn = cluster.churn
            queue.schedule_at(
                at,
                lambda a=address, c=churn: c._do_departure(a),
                label=label,
            )
        elif label.startswith("churn-join:"):
            if cluster.churn is None:
                raise SnapshotError(f"event {label!r} but churn is off")
            try:
                join_at, session, horizon = (
                    float(part) for part in label[len("churn-join:"):].split(":")
                )
            except ValueError as exc:
                raise SnapshotError(f"malformed traced-join label {label!r}") from exc
            churn = cluster.churn
            queue.schedule_at(
                at,
                lambda t=join_at, s=session, h=horizon, c=churn: c._do_traced_join(t, s, h),
                label=label,
            )
        elif label.startswith((SurvivalRun.PROBE_LABEL, SurvivalRun.APPEND_LABEL)):
            if run is None:
                raise SnapshotError(f"event {label!r} but no benchmark context in snapshot")
            probe = label.startswith(SurvivalRun.PROBE_LABEL)
            queue.schedule_at(at, run.probe_tick if probe else run.append_tick, label=label)
        elif label == METRICS_TICK_LABEL:
            # Metrics are optional on resume: without a recorder the tick is
            # dropped (sampling is read-only, so skipping it cannot change
            # the run).
            if recorder is not None:
                recorder.schedule_tick_at(at)
        else:
            raise SnapshotError(f"cannot restore event with unknown label {label!r}")


def _cluster_config(fields: dict) -> ClusterConfig:
    """The snapshot's ``ClusterConfig``: exactly this build's fields."""
    names = {field.name for field in dataclass_fields(ClusterConfig)}
    if set(fields) != names:
        raise SnapshotError(
            f"snapshot config does not fit this build: missing {sorted(names - set(fields))}, "
            f"unknown {sorted(set(fields) - names)}"
        )
    return ClusterConfig(**fields)


def restore_cluster(
    snapshot: dict,
    metrics_stream: Any | None = None,
) -> tuple[SimulatedCluster, SurvivalRun | None, Any | None]:
    """Rebuild a :class:`SimulatedCluster` from a snapshot dict.

    Returns ``(cluster, run, recorder)``: *run* is the restored
    :class:`SurvivalRun` when the snapshot carries benchmark context
    (else ``None``); *recorder* is a re-armed
    :class:`~repro.metrics.stream.ClusterMetricsRecorder` when the snapshot
    carries one **and** *metrics_stream* is given (else ``None``).  A field
    missing from *snapshot* raises :class:`KeyError`.
    """
    config = _cluster_config(snapshot["config"])

    reserve_addresses(int(snapshot["address_floor"]))

    certification = CertificationService(seed=config.seed)
    for user in snapshot["certified_users"]:
        certification.register(user)

    network = SimulatedNetwork(config=config.network_config())
    network._rng.setstate(_rng_from_json(snapshot["network"]["rng"]))
    stats = snapshot["network"]["stats"]
    network.stats.messages_sent = stats["messages_sent"]
    network.stats.messages_delivered = stats["messages_delivered"]
    network.stats.messages_dropped = stats["messages_dropped"]
    network.stats.rpcs_failed_unreachable = stats["rpcs_failed_unreachable"]
    network.stats.bytes_transferred = stats["bytes_transferred"]
    network.stats.received_by_node.update(stats["received_by_node"])
    network.clock.advance_to(snapshot["clock_ms"])

    node_config = config.node_config()
    from repro.dht.bootstrap import Overlay

    overlay = Overlay(
        network=network,
        certification=certification,
        node_config=node_config,
        _rng=_restored_rng(snapshot["overlay"]["rng"]),
        _helper_cursor=snapshot["overlay"]["helper_cursor"],
        _peer_counter=snapshot["overlay"]["peer_counter"],
    )
    nodes = _restore_nodes(snapshot, network, node_config, certification)
    # Direct roster insertion: membership listeners are attached below, and
    # firing on_join for already-running nodes would double-start loops.
    overlay.nodes.extend(nodes)
    for node in nodes:
        overlay._by_address[node.address] = node

    cluster = object.__new__(SimulatedCluster)
    cluster.config = config
    cluster._rng = _restored_rng(snapshot["cluster"]["rng"])
    cluster.overlay = overlay
    cluster.queue = EventQueue(clock=overlay.clock)
    cluster.queue._processed = snapshot["queue"]["processed"]
    cluster.services = []
    cluster.adversary = None

    cluster.maintenance = None
    maint_state = snapshot["maintenance"]
    if maint_state is not None:
        maintenance = OverlayMaintenance(overlay, cluster.queue, config.maintenance_config())
        maintenance._rng.setstate(_rng_from_json(maint_state["rng"]))
        maintenance._started = maint_state["started"]
        for name, value in maint_state["stats"].items():
            setattr(maintenance.stats, name, value)
        for address, node_state in maint_state["nodes"].items():
            node = overlay._by_address.get(address)
            if node is None:
                raise SnapshotError(f"maintenance state names unknown node {address!r}")
            nm = NodeMaintenance(
                node,
                cluster.queue,
                config=maintenance.config,
                stats=maintenance.stats,
                rng=_restored_rng(node_state["rng"]),
            )
            nm._next_at = dict(node_state["next_at"])
            nm._last_at = dict(node_state["last_at"])
            nm._running = node_state["running"]
            maintenance._by_address[address] = nm
        cluster.maintenance = maintenance

    cluster.churn = None
    churn_state = snapshot["churn"]
    if churn_state is not None:
        churn = ChurnProcess(overlay, cluster.queue, config.churn_config())
        churn._rng.setstate(_rng_from_json(churn_state["rng"]))
        churn.joins = churn_state["joins"]
        churn.graceful_leaves = churn_state["graceful_leaves"]
        churn.crashes = churn_state["crashes"]
        cluster.churn = churn

    PERF.restore(snapshot["perf"])

    run = None
    if snapshot["benchmark"] is not None:
        run = _restore_benchmark(snapshot["benchmark"], cluster)

    recorder = None
    state = snapshot["recorder"]
    if metrics_stream is not None and state is not None:
        from repro.metrics.stream import ClusterMetricsRecorder

        recorder = ClusterMetricsRecorder(
            cluster,
            metrics_stream,
            interval_ms=state["interval_ms"],
            extra_gauges=run.metrics_gauges if run is not None else None,
        )
        recorder.restore_state(state)
        if run is not None:
            run.recorder = recorder  # the run stops it when it finishes

    _replay_events(snapshot, cluster, run, recorder)
    return cluster, run, recorder


def resume_survival_benchmark(
    path: str | Path,
    metrics_stream: Any | None = None,
) -> SurvivalReport:
    """Resume a checkpointed :func:`~repro.simulation.experiment.run_survival_benchmark`.

    Loads the snapshot at *path*, restores the cluster and the mid-flight
    benchmark state, runs the remaining virtual time and performs the final
    audit.  The returned report is identical (modulo ``wall_time_s``) to the
    one an uninterrupted run would have produced.
    """
    started = time.perf_counter()
    snapshot = load_snapshot(path)
    cluster, run, _recorder = restore_cluster(snapshot, metrics_stream=metrics_stream)
    if run is None:
        raise SnapshotError(f"{path} has no survival-benchmark context to resume")
    cluster.queue.run_until(run.end_ms)
    return run.finish(started)
