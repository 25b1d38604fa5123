"""Exact outcomes of every write path, through the node and through the engine.

A PUT or an APPEND reaches its replicas one of four ways: by a lookup and a
replica walk (no route known), or through a known route that is fully alive,
partly dead, or dead altogether -- the last falling back to the lookup.  The
node exposes the route form as ``store_at`` / ``append_at``; the batched
lookup engine picks the form from its route cache.  Each scenario below runs
on the same small seeded overlay and pins what the write cost and where the
value landed: messages sent, replicas that accepted, the engine's counters
and the holders of the key.  The literals were captured from a run and must
not drift unless a change means to move them.
"""

from __future__ import annotations

import pytest

from repro.core.blocks import BlockKey, BlockType
from repro.dht.api import DHTClient
from repro.dht.batched_lookup import BatchedLookupEngine
from repro.dht.bootstrap import build_overlay
from repro.dht.node import NodeConfig
from repro.simulation.network import NetworkConfig

CASES = ("no-route", "route-accepted", "route-partly-dead", "route-dead-fallback")


def _overlay():
    return build_overlay(
        16,
        node_config=NodeConfig(k=8, alpha=3, replicate=2),
        network_config=NetworkConfig(min_latency_ms=1.0, max_latency_ms=2.0, seed=21),
        seed=21,
    )


def _remote_key(overlay, node):
    """The first tag key whose two closest nodes exclude *node*."""
    for index in range(1000):
        key = DHTClient.key_for(BlockKey.tag_resources(f"pin-{index}"))
        closest = sorted(overlay.nodes, key=lambda n: n.node_id.value ^ key.value)[:2]
        if node not in closest:
            return key
    raise AssertionError("no remote key found")


def _holders(overlay, key) -> dict[int, object]:
    """Roster index -> what that node stores under *key* (dead nodes too)."""
    held = {}
    for index, node in enumerate(overlay.nodes):
        value = node.storage.get(key)
        if value is not None:
            held[index] = value.get("entries", value)
    return held


def run_scenario(arm: str, op: str, case: str) -> dict:
    overlay = _overlay()
    access = overlay.nodes[0]
    engine = BatchedLookupEngine(access) if arm == "engine" else None
    key = _remote_key(overlay, access)
    stats = overlay.network.stats
    writes = iter(range(1, 10))

    def direct(targets):
        version = next(writes)
        if op == "put":
            return access.store_at(targets, key, {"v": version})
        return access.append_at(
            targets, key, "pin", BlockType.TAG_RESOURCES, {f"r{version}": version}
        )

    def full():
        version = next(writes)
        writer = engine or access
        if op == "put":
            return writer.store(key, {"v": version})
        return writer.append(key, "pin", BlockType.TAG_RESOURCES, {f"r{version}": version})

    def kill(contacts):
        for contact in contacts:
            if contact.node_id != access.node_id:
                overlay.network.unregister(contact.address)

    ranked = sorted(overlay.nodes[1:], key=lambda n: n.node_id.value ^ key.value)
    route = None
    if case == "no-route":
        kill([ranked[0].contact])
    else:
        warm = full()
        route = list(warm.closest[: access.config.replicate])
        if case == "route-partly-dead":
            kill(route[:1])
        elif case == "route-dead-fallback":
            kill(route)

    before = stats.messages_sent
    if engine is not None or route is None:
        outcome = full()
        accepted, lookup_messages = outcome.accepted_replicas, outcome.messages
    else:
        accepted, lookup_messages = direct(route), 0
        if not accepted:
            outcome = full()
            accepted, lookup_messages = outcome.accepted_replicas, outcome.messages
    return {
        "messages_sent": stats.messages_sent - before,
        "lookup_messages": lookup_messages,
        "accepted_replicas": accepted,
        "engine": engine.stats.snapshot() if engine is not None else None,
        "holders": _holders(overlay, key),
    }


def _engine(**counts) -> dict:
    base = dict.fromkeys(
        ("requests", "local_hits", "route_hits", "route_fallbacks", "full_lookups",
         "dedup_hits", "seeded_lookups", "route_invalidations"),
        0,
    )
    base.update(counts)
    return base


#: Node 4 is the key's closest replica and node 3 the next; "no-route" kills
#: node 4 before the write, so its lookup strikes it and the walk lands on 9.
#: Writes are numbered from 1: the node arm's fallback spends one number on
#: the dead route first.
EXPECTED: dict[tuple[str, str, str], dict] = {
    ("node", "put", "no-route"): {
        "messages_sent": 21, "lookup_messages": 9, "accepted_replicas": 2,
        "engine": None,
        "holders": {3: {"v": 1}, 9: {"v": 1}},
    },
    ("node", "put", "route-accepted"): {
        "messages_sent": 4, "lookup_messages": 0, "accepted_replicas": 2,
        "engine": None,
        "holders": {3: {"v": 2}, 4: {"v": 2}},
    },
    ("node", "put", "route-partly-dead"): {
        "messages_sent": 3, "lookup_messages": 0, "accepted_replicas": 1,
        "engine": None,
        "holders": {3: {"v": 2}, 4: {"v": 1}},
    },
    ("node", "put", "route-dead-fallback"): {
        "messages_sent": 22, "lookup_messages": 8, "accepted_replicas": 2,
        "engine": None,
        "holders": {3: {"v": 1}, 4: {"v": 1}, 9: {"v": 3}, 10: {"v": 3}},
    },
    ("node", "append", "no-route"): {
        "messages_sent": 21, "lookup_messages": 9, "accepted_replicas": 2,
        "engine": None,
        "holders": {3: {"r1": 1}, 9: {"r1": 1}},
    },
    ("node", "append", "route-accepted"): {
        "messages_sent": 4, "lookup_messages": 0, "accepted_replicas": 2,
        "engine": None,
        "holders": {3: {"r1": 1, "r2": 2}, 4: {"r1": 1, "r2": 2}},
    },
    ("node", "append", "route-partly-dead"): {
        "messages_sent": 3, "lookup_messages": 0, "accepted_replicas": 1,
        "engine": None,
        "holders": {3: {"r1": 1, "r2": 2}, 4: {"r1": 1}},
    },
    ("node", "append", "route-dead-fallback"): {
        "messages_sent": 22, "lookup_messages": 8, "accepted_replicas": 2,
        "engine": None,
        "holders": {3: {"r1": 1}, 4: {"r1": 1}, 9: {"r3": 3}, 10: {"r3": 3}},
    },
    ("engine", "put", "no-route"): {
        "messages_sent": 21, "lookup_messages": 9, "accepted_replicas": 2,
        "engine": _engine(requests=1, full_lookups=1),
        "holders": {3: {"v": 1}, 9: {"v": 1}},
    },
    ("engine", "put", "route-accepted"): {
        "messages_sent": 4, "lookup_messages": 0, "accepted_replicas": 2,
        "engine": _engine(requests=2, route_hits=1, full_lookups=1),
        "holders": {3: {"v": 2}, 4: {"v": 2}},
    },
    ("engine", "put", "route-partly-dead"): {
        "messages_sent": 3, "lookup_messages": 0, "accepted_replicas": 1,
        "engine": _engine(requests=2, route_hits=1, full_lookups=1, route_invalidations=1),
        "holders": {3: {"v": 2}, 4: {"v": 1}},
    },
    ("engine", "put", "route-dead-fallback"): {
        "messages_sent": 22, "lookup_messages": 8, "accepted_replicas": 2,
        "engine": _engine(
            requests=2, route_fallbacks=1, full_lookups=2, route_invalidations=1
        ),
        "holders": {3: {"v": 1}, 4: {"v": 1}, 9: {"v": 2}, 10: {"v": 2}},
    },
    ("engine", "append", "no-route"): {
        "messages_sent": 21, "lookup_messages": 9, "accepted_replicas": 2,
        "engine": _engine(requests=1, full_lookups=1),
        "holders": {3: {"r1": 1}, 9: {"r1": 1}},
    },
    ("engine", "append", "route-accepted"): {
        "messages_sent": 4, "lookup_messages": 0, "accepted_replicas": 2,
        "engine": _engine(requests=2, route_hits=1, full_lookups=1),
        "holders": {3: {"r1": 1, "r2": 2}, 4: {"r1": 1, "r2": 2}},
    },
    ("engine", "append", "route-partly-dead"): {
        "messages_sent": 3, "lookup_messages": 0, "accepted_replicas": 1,
        "engine": _engine(requests=2, route_hits=1, full_lookups=1, route_invalidations=1),
        "holders": {3: {"r1": 1, "r2": 2}, 4: {"r1": 1}},
    },
    ("engine", "append", "route-dead-fallback"): {
        "messages_sent": 22, "lookup_messages": 8, "accepted_replicas": 2,
        "engine": _engine(
            requests=2, route_fallbacks=1, full_lookups=2, route_invalidations=1
        ),
        "holders": {3: {"r1": 1}, 4: {"r1": 1}, 9: {"r2": 2}, 10: {"r2": 2}},
    },
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("op", ("put", "append"))
@pytest.mark.parametrize("arm", ("node", "engine"))
def test_write_outcome_is_pinned(arm, op, case):
    assert run_scenario(arm, op, case) == EXPECTED[arm, op, case]
