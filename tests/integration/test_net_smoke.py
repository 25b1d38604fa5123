"""Multi-process smoke test: a real DHARMA overlay over localhost UDP.

Five ``dharma serve`` processes are spawned as real OS processes, each with
its own UDP endpoint (one socket, plain threads); the test process attaches
a sixth in-process node and drives the full stack through real sockets:

* bootstrap -- four processes join through the first one's udp:// address
  learned by parsing the "listening" handshake line;
* STORE / APPEND -- counter blocks written from the test node land on serve
  processes, merge-on-store semantics included (two APPENDs through
  different access paths must both survive);
* faceted search -- a catalogue published via the naive protocol, then a
  :class:`~repro.distributed.search_client.DistributedFacetedSearch` walk
  whose every block read crosses a process boundary;
* a dead peer -- one extra serve process is SIGKILLed; the lookups that
  keep being told about it finish within a bound and pay its timeout once;
* Likir over sockets -- a second, smaller overlay runs ``dharma serve
  --verify --cert-seed``: independently started processes share only the
  seed, yet a credentialed STORE verifies everywhere while a forged one
  re-raises :class:`~repro.dht.likir.LikirAuthError` across the process
  boundary.

Everything binds OS-assigned ephemeral ports, so the test is safe to run in
parallel CI jobs.  A hard deadline on the handshake keeps a wedged child
from hanging the suite.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.blocks import BlockKey, BlockType
from repro.dht.likir import CertificationService, Identity, LikirAuthError, SignedValue
from repro.dht.node import SUSPECT_BASE_MS, NodeConfig
from repro.dht.node_id import NodeID
from repro.distributed.block_store import BlockStore
from repro.distributed.naive_protocol import NaiveProtocol
from repro.distributed.search_client import DistributedFacetedSearch
from repro.net.server import ServeNode
from repro.net.udp import UdpTransportConfig

NUM_SERVERS = 5
NUM_VERIFIED_SERVERS = 3
CERT_SEED = 4242
HANDSHAKE_TIMEOUT = 20.0


def spawn_server(
    join: str | None, extra: tuple[str, ...] = ()
) -> tuple[subprocess.Popen, str]:
    """Start one ``dharma serve`` process and return (process, udp address)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--port",
        "0",
        "--k",
        "8",
        "--alpha",
        "2",
        "--replicate",
        "2",
        "--timeout-ms",
        "400",
        "--retries",
        "1",
        "--refresh-seconds",
        "0",
        "--run-seconds",
        "600",  # self-destruct long after the test is done
        *extra,
    ]
    if join is not None:
        argv += ["--join", join]
    process = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    deadline = time.monotonic() + HANDSHAKE_TIMEOUT
    address = None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        if "listening on udp://" in line:
            address = line.rsplit("udp://", 1)[1].strip()
            break
    if address is None:
        process.kill()
        raise AssertionError("serve process never printed its listening line")
    return process, address


@pytest.fixture(scope="module")
def overlay_processes():
    processes: list[subprocess.Popen] = []
    addresses: list[str] = []
    try:
        first, first_address = spawn_server(join=None)
        processes.append(first)
        addresses.append(first_address)
        for _ in range(NUM_SERVERS - 1):
            proc, address = spawn_server(join=first_address)
            processes.append(proc)
            addresses.append(address)
        yield addresses
    finally:
        for process in processes:
            if process.poll() is None:
                process.send_signal(signal.SIGINT)
        for process in processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - safety net
                process.kill()
                process.wait(timeout=10)


@pytest.fixture(scope="module")
def access_node(overlay_processes):
    node = ServeNode(
        node_config=NodeConfig(k=8, alpha=2, replicate=2, verify_credentials=False),
        transport_config=UdpTransportConfig(timeout_ms=400.0, retries=1),
    )
    try:
        node.bootstrap(overlay_processes[0])
        yield node
    finally:
        node.close()


def test_bootstrap_populates_routing_tables(access_node, overlay_processes):
    # The access node joined through process 0; its self-lookup must have
    # discovered several of the other serve processes.
    contacts = {c.address for c in access_node.node.routing_table.contacts()}
    assert overlay_processes[0] in contacts
    assert len(contacts & set(overlay_processes)) >= 3


def test_store_append_and_merge_through_real_sockets(access_node):
    key = NodeID.hash_of("smoke-block")
    access_node.node.store(
        key, {"owner": "smoke", "type": "1", "entries": {"rock": 2}}
    )
    # Two APPENDs: one creating a new entry, one incrementing the stored one.
    access_node.node.append(key, "smoke", BlockType.RESOURCE_TAGS, {"grunge": 1})
    access_node.node.append(key, "smoke", BlockType.RESOURCE_TAGS, {"rock": 3})
    value, outcome = access_node.node.retrieve(key)
    assert outcome.value is not None
    assert value["entries"] == {"rock": 5, "grunge": 1}


def test_counter_merge_survives_second_writer(overlay_processes):
    """Two distinct writer processes append to the same block: merge-on-store
    must combine both writers' tokens, across OS processes.

    Both writers use ``replicate=8`` so every node of the small overlay holds
    the block -- first-found reads are then guaranteed to see the merge
    regardless of which replica answers.
    """
    config = NodeConfig(k=8, alpha=2, replicate=8, verify_credentials=False)
    transport_config = UdpTransportConfig(timeout_ms=400.0, retries=1)
    writer_a = ServeNode(node_config=config, transport_config=transport_config)
    writer_b = ServeNode(node_config=config, transport_config=transport_config)
    key = NodeID.hash_of("two-writers")
    try:
        writer_a.bootstrap(overlay_processes[0])
        writer_b.bootstrap(overlay_processes[1])
        writer_a.node.store(key, {"owner": "w", "type": "2", "entries": {"a": 1}})
        writer_b.node.append(key, "w", BlockType.TAG_RESOURCES, {"a": 2, "b": 7})
        value, _ = writer_b.node.retrieve(key)
        assert value["entries"] == {"a": 3, "b": 7}
        # The first writer reads the merged state back too.
        value, _ = writer_a.node.retrieve(key)
        assert value["entries"] == {"a": 3, "b": 7}
    finally:
        writer_a.close()
        writer_b.close()


def test_faceted_search_over_udp(access_node):
    store = BlockStore(access_node.client(batched=False))
    protocol = NaiveProtocol(store)
    catalogue = [
        ("nevermind", ["rock", "grunge", "90s"]),
        ("in-utero", ["rock", "grunge"]),
        ("ok-computer", ["rock", "alternative", "90s"]),
        ("kid-a", ["alternative", "electronic"]),
    ]
    for resource, tags in catalogue:
        protocol.insert_resource(resource, tags)

    # Every view access below is a FIND_VALUE through real UDP sockets.
    search = DistributedFacetedSearch(store, resource_threshold=1, seed=0)
    result = search.run("rock", "first")
    assert result.length >= 2
    assert result.path[0] == "rock"
    assert set(result.final_resources) <= {r for r, _ in catalogue}

    # And the tag blocks really live on the overlay, not in this process.
    resources_of_rock = store.get_tag_resources("rock")
    assert set(resources_of_rock) == {"nevermind", "in-utero", "ok-computer"}


@pytest.fixture(scope="module")
def verified_overlay():
    """A separate overlay where every process enforces Likir credentials.

    The processes share nothing but ``--cert-seed``: the stateless
    certification service derives identical identities per user in every
    process, which is exactly the trust model ``dharma serve --verify``
    promises.
    """
    extra = ("--verify", "--cert-seed", str(CERT_SEED))
    processes: list[subprocess.Popen] = []
    addresses: list[str] = []
    try:
        first, first_address = spawn_server(join=None, extra=extra)
        processes.append(first)
        addresses.append(first_address)
        for _ in range(NUM_VERIFIED_SERVERS - 1):
            proc, address = spawn_server(join=first_address, extra=extra)
            processes.append(proc)
            addresses.append(address)
        yield addresses
    finally:
        for process in processes:
            if process.poll() is None:
                process.send_signal(signal.SIGINT)
        for process in processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - safety net
                process.kill()
                process.wait(timeout=10)


def test_verified_store_crosses_processes_and_forgeries_do_not(verified_overlay):
    certification = CertificationService(seed=CERT_SEED, stateless=True)
    access = ServeNode(
        node_config=NodeConfig(k=8, alpha=2, replicate=2, verify_credentials=True),
        transport_config=UdpTransportConfig(timeout_ms=400.0, retries=1),
        certification=certification,
    )
    try:
        access.bootstrap(verified_overlay[0])

        # A credentialed STORE: the serve processes derive alice's secret
        # from the shared seed and accept, and the read verifies end-to-end.
        alice = certification.register("alice")
        key = NodeID.hash_of("verified-block")
        outcome = access.node.store(
            key, {"owner": "alice", "type": "1", "entries": {"rock": 4}}, identity=alice
        )
        assert outcome.accepted_replicas > 0
        value, _ = access.node.retrieve(key)
        assert value["entries"] == {"rock": 4}

        # A forged STORE: mallory's self-minted secret cannot match the
        # seed-derived one, so the remote handler rejects and the fault
        # frame re-raises LikirAuthError here, across the process boundary.
        mallory = Identity(
            user="mallory", node_id=NodeID.hash_of("mallory"), secret=b"\x13" * 20
        )
        forged_key = NodeID.hash_of("forged-block")
        forged = SignedValue.create(
            mallory, forged_key, {"owner": "mallory", "type": "1", "entries": {"x": 9}}
        )
        target = access.probe(verified_overlay[0])
        with pytest.raises(LikirAuthError):
            access.node.store_at([target], forged_key, forged)
        # The forgery left no readable value behind.
        value, _ = access.node.retrieve(forged_key)
        assert value is None
    finally:
        access.close()


def test_uri_blocks_resolve(access_node):
    # A resource no other test inserts: the URI block is last-writer-wins, so
    # rewriting one that insert_resource already wrote would make the answer
    # depend on which replica replies first.
    store = BlockStore(access_node.client(batched=False))
    store.put_resource_uri("the-bends", "urn:album:the-bends")
    assert store.get_resource_uri("the-bends") == "urn:album:the-bends"
    key = BlockKey("the-bends", BlockType.RESOURCE_URI)
    assert access_node.client(batched=False).get(key)["uri"] == "urn:album:the-bends"


def test_killed_peer_costs_one_timeout_not_one_per_lookup(overlay_processes):
    """SIGKILL one serve process (no goodbye): the survivors keep handing its
    contact out, but the client pays the RPC timeout for it once."""
    extra_process, extra_address = spawn_server(join=overlay_processes[0])
    client = ServeNode(
        node_config=NodeConfig(k=8, alpha=2, replicate=2, verify_credentials=False),
        # 100 + 200 ms per dead peer: the whole loop below stays well inside
        # the first suspicion window even on a slow box.
        transport_config=UdpTransportConfig(timeout_ms=100.0, retries=1),
    )
    try:
        client.bootstrap(overlay_processes[0])
        victim = client.probe(extra_address)
        # The survivors know the victim first-hand (it joined through them)
        # and hand it out: a lookup of its id finds it.
        found = client.node.lookup_node(victim.node_id).closest
        assert victim.node_id in {c.node_id for c in found}
        extra_process.kill()
        extra_process.wait(timeout=10)

        started = time.monotonic()
        for index in range(25):
            # Keys next to the victim's id: every one of these lookups is
            # told about the victim by the peers it queries.
            key = NodeID(victim.node_id.value ^ (index + 1))
            client.node.store(key, {"owner": "k", "type": "1", "entries": {"x": 1}})
            value, _ = client.node.retrieve(key)
            assert value["entries"] == {"x": 1}
        elapsed = time.monotonic() - started

        # Before the failure memory every one of the 50 lookups above paid
        # the victim's 300 ms (> 15 s); now only the first does.
        assert elapsed < SUSPECT_BASE_MS / 1_000.0
        strikes = {node_id: count for node_id, count, _ in client.node.export_suspects()}
        assert strikes[victim.node_id] == 1
        # At most one failed RPC per dead peer (earlier tests' closed access
        # nodes are dead peers of this overlay too).
        assert client.transport.stats.rpcs_failed == len(strikes)
        assert client.stats().suspects == len(strikes)
    finally:
        client.close()
        if extra_process.poll() is None:  # pragma: no cover - only on failure
            extra_process.kill()
            extra_process.wait(timeout=10)
