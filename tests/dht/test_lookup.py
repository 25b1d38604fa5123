"""Unit tests for the iterative lookup procedure (scripted transport)."""

from __future__ import annotations

import random

import pytest

from repro.dht.lookup import MAX_ROUNDS, LookupOutcome, iterative_lookup
from repro.dht.node_id import NodeID
from repro.dht.routing_table import Contact


def contact(value: int) -> Contact:
    return Contact(node_id=NodeID(value), address=f"addr-{value}")


class ScriptedTransport:
    """Transport whose topology is a static mapping node -> known contacts,
    with optional value holders, dead nodes and suspects (nodes the initiator
    already watched fail)."""

    def __init__(self, topology, values=None, dead=None, suspects=None):
        self.topology = {c.node_id: peers for c, peers in topology.items()}
        self.values = values or {}
        self.dead = dead or set()
        self.suspects = suspects or set()
        self.queries = 0
        self.queried = []
        self.suspect_checks = 0

    def is_suspect(self, node_id):
        self.suspect_checks += 1
        return node_id in self.suspects

    def query(self, target_contact, target, find_value, top_n):
        self.queries += 1
        self.queried.append(target_contact.node_id)
        if target_contact.node_id in self.dead:
            return None
        if find_value and target_contact.node_id in self.values:
            return ([], self.values[target_contact.node_id])
        return (list(self.topology.get(target_contact.node_id, [])), None)


class TestFindNode:
    def test_converges_to_closest_nodes(self):
        # Chain topology: 100 knows 10, 10 knows 3, 3 knows 1; target is 0.
        c100, c10, c3, c1 = contact(100), contact(10), contact(3), contact(1)
        transport = ScriptedTransport({c100: [c10], c10: [c3], c3: [c1], c1: []})
        outcome = iterative_lookup(transport, NodeID(0), seeds=[c100], k=3, alpha=1)
        found = [c.node_id.value for c in outcome.closest]
        assert found[0] == 1
        assert set(found) <= {1, 3, 10, 100}
        assert outcome.rounds >= 3
        assert outcome.succeeded

    def test_respects_k_limit(self):
        seeds = [contact(i) for i in range(10, 20)]
        transport = ScriptedTransport({c: [] for c in seeds})
        outcome = iterative_lookup(transport, NodeID(0), seeds=seeds, k=4, alpha=3)
        assert len(outcome.closest) == 4

    def test_handles_dead_nodes(self):
        c5, c6, c7 = contact(5), contact(6), contact(7)
        transport = ScriptedTransport(
            {c5: [c6, c7], c6: [], c7: []}, dead={NodeID(6)}
        )
        outcome = iterative_lookup(transport, NodeID(0), seeds=[c5], k=3, alpha=2)
        assert outcome.failures >= 1
        assert NodeID(6) not in {c.node_id for c in outcome.closest}

    def test_empty_seed_list(self):
        transport = ScriptedTransport({})
        outcome = iterative_lookup(transport, NodeID(0), seeds=[], k=3)
        assert outcome.closest == []
        assert not outcome.succeeded
        assert outcome.messages == 0

    def test_all_dead_seeds(self):
        seeds = [contact(1), contact(2)]
        transport = ScriptedTransport({c: [] for c in seeds}, dead={NodeID(1), NodeID(2)})
        outcome = iterative_lookup(transport, NodeID(0), seeds=seeds, k=3)
        assert not outcome.succeeded
        assert outcome.failures == 2

    def test_parameter_validation(self):
        transport = ScriptedTransport({})
        with pytest.raises(ValueError):
            iterative_lookup(transport, NodeID(0), seeds=[], k=0)
        with pytest.raises(ValueError):
            iterative_lookup(transport, NodeID(0), seeds=[], k=1, alpha=0)

    def test_no_duplicate_queries(self):
        c1, c2 = contact(1), contact(2)
        # Both nodes return each other forever; each must be queried only once.
        transport = ScriptedTransport({c1: [c2], c2: [c1]})
        outcome = iterative_lookup(transport, NodeID(0), seeds=[c1, c2], k=5, alpha=2)
        assert transport.queries == 2
        assert outcome.messages == 2


class TestFindValue:
    def test_short_circuits_on_value(self):
        c9, c5, c1 = contact(9), contact(5), contact(1)
        transport = ScriptedTransport(
            {c9: [c5], c5: [c1], c1: []}, values={NodeID(5): {"entries": {}}}
        )
        outcome = iterative_lookup(
            transport, NodeID(0), seeds=[c9], k=3, alpha=1, find_value=True
        )
        assert outcome.found_value
        assert outcome.value == {"entries": {}}
        # Node 1 never needed to be queried.
        assert transport.queries <= 2

    def test_value_not_found_returns_closest(self):
        c9, c5 = contact(9), contact(5)
        transport = ScriptedTransport({c9: [c5], c5: []})
        outcome = iterative_lookup(
            transport, NodeID(0), seeds=[c9], k=3, alpha=1, find_value=True
        )
        assert not outcome.found_value
        assert outcome.value is None
        assert {c.node_id.value for c in outcome.closest} == {5, 9}


class TestSuspects:
    """Hearsay about a contact the initiator watched fail is not evidence."""

    def test_suspect_is_never_queried_and_not_in_closest(self):
        c9, c5, c1 = contact(9), contact(5), contact(1)
        # 5 is dead *and* suspected; every live peer still hands it out.
        transport = ScriptedTransport(
            {c9: [c5, c1], c1: [c5], c5: []}, dead={NodeID(5)}, suspects={NodeID(5)}
        )
        outcome = iterative_lookup(transport, NodeID(0), seeds=[c9], k=3, alpha=2)
        assert NodeID(5) not in transport.queried
        assert outcome.failures == 0
        assert outcome.messages == transport.queries == 2
        assert [c.node_id.value for c in outcome.closest] == [1, 9]

    def test_next_closest_takes_the_place_of_a_suspect(self):
        seeds = [contact(v) for v in (1, 2, 3, 4)]
        transport = ScriptedTransport({c: [] for c in seeds}, suspects={NodeID(1)})
        outcome = iterative_lookup(transport, NodeID(0), seeds=seeds, k=3, alpha=3)
        # k = 3: with 1 dropped, 4 moves into the k closest and is queried.
        assert sorted(n.value for n in transport.queried) == [2, 3, 4]
        assert [c.node_id.value for c in outcome.closest] == [2, 3, 4]

    def test_suspected_seed_alone_ends_the_lookup_without_an_rpc(self):
        transport = ScriptedTransport({}, suspects={NodeID(7)})
        outcome = iterative_lookup(transport, NodeID(0), seeds=[contact(7)], k=3)
        assert transport.queries == 0
        assert outcome.messages == 0 and not outcome.succeeded

    def test_find_value_steps_over_a_suspect_replica(self):
        c9, c5, c1 = contact(9), contact(5), contact(1)
        transport = ScriptedTransport(
            {c9: [c1, c5], c1: [], c5: []},
            values={NodeID(5): {"entries": {"a": 1}}},
            dead={NodeID(1)},
            suspects={NodeID(1)},
        )
        outcome = iterative_lookup(
            transport, NodeID(0), seeds=[c9], k=3, alpha=1, find_value=True
        )
        assert outcome.found_value and outcome.failures == 0
        assert NodeID(1) not in transport.queried

    def test_check_runs_on_chosen_candidates_not_on_every_reply_contact(self):
        # One hub that returns 40 contacts; k = 4, so only the closest few are
        # ever chosen.  The check must scale with queries, not with replies.
        far = [contact(v) for v in range(100, 140)]
        hub = contact(50)
        transport = ScriptedTransport({hub: far, **{c: [] for c in far}})
        iterative_lookup(transport, NodeID(0), seeds=[hub], k=4, alpha=2)
        assert transport.suspect_checks <= 2 * transport.queries


class TestFinishingSweep:
    """The round that finds nobody closer ends the rounds; one sweep then
    queries every unqueried contact among the k closest, in distance order,
    and the lookup stops."""

    def test_sweep_finds_a_value_past_a_suspect_and_a_dead_contact(self):
        c16, c1, c3, c5, c6, c7 = (contact(v) for v in (16, 1, 3, 5, 6, 7))
        transport = ScriptedTransport(
            {c16: [c1, c3, c5, c6, c7], c1: [], c3: [], c6: [], c7: []},
            values={NodeID(7): {"entries": {"x": 1}}},
            dead={NodeID(6)},
            suspects={NodeID(5)},
        )
        outcome = iterative_lookup(
            transport, NodeID(0), seeds=[c16], k=5, alpha=1, find_value=True
        )
        # Rounds: 16 (improves), 1 (improves), 3 (no progress); then the
        # sweep skips suspect 5, loses 6 and finds the value at 7.
        assert [n.value for n in transport.queried] == [16, 1, 3, 6, 7]
        assert outcome.found_value and outcome.value == {"entries": {"x": 1}}
        assert (outcome.rounds, outcome.messages, outcome.failures) == (3, 5, 1)
        assert [c.node_id.value for c in outcome.closest] == [1, 3, 7, 16]

    def test_contacts_learned_in_the_sweep_are_kept_but_not_queried(self):
        c16, c1, c3, c6, c7, c2 = (contact(v) for v in (16, 1, 3, 6, 7, 2))
        transport = ScriptedTransport(
            {c16: [c1, c3, c6, c7], c1: [], c3: [], c6: [c2], c7: []}
        )
        outcome = iterative_lookup(transport, NodeID(0), seeds=[c16], k=4, alpha=1)
        assert [n.value for n in transport.queried] == [16, 1, 3, 6, 7]
        assert (outcome.rounds, outcome.messages, outcome.failures) == (3, 5, 0)
        assert [c.node_id.value for c in outcome.closest] == [1, 2, 3, 6]


def reference_lookup(transport, target, seeds, k, alpha=3, find_value=False, top_n=None):
    """The procedure with a ranking that re-sorts the whole shortlist on every
    call: the plain reading of the algorithm, kept as the reference that the
    incremental ranking of :func:`iterative_lookup` must reproduce."""
    outcome = LookupOutcome(target=target)
    shortlist = {c.node_id.value: c for c in seeds}
    queried, failed = set(), set()

    def ranked():
        live = sorted((v ^ target.value, v, c) for v, c in shortlist.items() if v not in failed)
        return [c for _, _, c in live[:k]]

    def ask(contact):
        if transport.is_suspect(contact.node_id):
            failed.add(contact.node_id.value)
            return False
        queried.add(contact.node_id.value)
        outcome.messages += 1
        reply = transport.query(contact, target, find_value, top_n)
        if reply is None:
            outcome.failures += 1
            failed.add(contact.node_id.value)
            return False
        if find_value and reply[1] is not None:
            outcome.value, outcome.found_value = reply[1], True
        else:
            for c in reply[0]:
                shortlist.setdefault(c.node_id.value, c)
        return True

    best = None
    while outcome.rounds < MAX_ROUNDS and not outcome.found_value:
        candidates = [c for c in ranked() if c.node_id.value not in queried]
        if not candidates:
            break
        outcome.rounds += 1
        improved = False
        for contact in candidates[:alpha]:
            if not ask(contact):
                continue
            if outcome.found_value:
                break
            if best is None or contact.distance_to(target) < best:
                best, improved = contact.distance_to(target), True
        if not improved and not outcome.found_value:
            for contact in [c for c in ranked() if c.node_id.value not in queried]:
                if ask(contact) and outcome.found_value:
                    break
            break
    outcome.closest = ranked()
    return outcome


class LoggingTransport(ScriptedTransport):
    """Records every suspect check and every query, in call order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def is_suspect(self, node_id):
        self.log.append(("suspect?", node_id.value))
        return super().is_suspect(node_id)

    def query(self, target_contact, target, find_value, top_n):
        self.log.append(("query", target_contact.node_id.value, target_contact.address))
        return super().query(target_contact, target, find_value, top_n)


def random_scenario(rng: random.Random):
    """A scripted overlay of up to 60 nodes: each knows a random handful of
    others (some under a second address, so first-record-wins matters), and
    some are dead, suspect or hold the value."""
    ids = rng.sample(range(1, 1 << 12), rng.randint(1, 60))
    population = [contact(v) for v in ids]

    def named(c):
        return Contact(c.node_id, f"alt-{c.node_id.value}") if rng.random() < 0.15 else c

    topology = {
        c: [named(p) for p in rng.sample(population, min(len(population), rng.randint(0, 8)))]
        for c in population
    }
    dead = {c.node_id for c in population if rng.random() < 0.2}
    suspects = {c.node_id for c in population if rng.random() < 0.1}
    values = {c.node_id: {"entries": {"hit": c.node_id.value}}
              for c in population if rng.random() < 0.05}
    seeds = [named(c) for c in rng.sample(population, rng.randint(0, min(5, len(population))))]
    lookup = dict(
        target=NodeID(rng.randrange(1 << 12)),
        seeds=seeds,
        k=rng.choice([1, 2, 3, 5, 8, 20]),
        alpha=rng.choice([1, 2, 3]),
        find_value=rng.random() < 0.5,
    )
    return (topology, values, dead, suspects), lookup


class TestAgainstTheSortEveryCallReference:
    """The incremental ranking issues the same checks and queries, in the
    same order, and returns an equal outcome, as a full re-sort per call."""

    @pytest.mark.parametrize("seed", range(8))
    def test_same_queries_and_outcome_on_random_overlays(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            script, lookup = random_scenario(rng)
            ours, theirs = LoggingTransport(*script), LoggingTransport(*script)
            outcome = iterative_lookup(ours, **lookup)
            expected = reference_lookup(theirs, **lookup)
            assert ours.log == theirs.log
            assert outcome == expected

    def test_scenarios_reach_every_path(self):
        """The generator is not vacuous: it finds values, loses RPCs, skips
        suspects and runs finishing sweeps."""
        rng = random.Random(0)
        found = failed = skipped = swept = 0
        for _ in range(200):
            script, lookup = random_scenario(rng)
            transport = LoggingTransport(*script)
            outcome = reference_lookup(transport, **lookup)
            found += outcome.found_value
            failed += outcome.failures > 0
            skipped += outcome.messages < sum(1 for e in transport.log if e[0] == "suspect?")
            swept += outcome.messages > outcome.rounds * lookup["alpha"]
        assert min(found, failed, skipped, swept) >= 10, (found, failed, skipped, swept)
