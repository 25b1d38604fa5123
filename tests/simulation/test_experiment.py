"""The fault experiments' shared read path and APPEND policy, against a
scripted overlay (no cluster run).

Churn survival and the attack A/B read blocks through one
:meth:`FaultExperiment.read`; the seeded pins in ``test_adversary.py`` /
``test_scale_equivalence.py`` say the merged runner reproduces the old
numbers, these say *why* it reads what it reads.
"""

from types import SimpleNamespace

import pytest

from repro.datasets.lastfm_synthetic import generate_lastfm_like
from repro.dht.likir import LikirAuthError
from repro.dht.node_id import NodeID
from repro.simulation.cluster import ClusterConfig, churn_cluster_config
from repro.simulation.experiment import (
    AttackReport,
    AttackRun,
    SurvivalReport,
    SurvivalRun,
    run_survival_benchmark,
)
from repro.simulation.snapshot import resume_survival_benchmark
from repro.simulation.workload import TaggingWorkload

KEY = NodeID(7)
REPLICATE = 3


def counter(**entries):
    return {"type": "2", "owner": "rock", "entries": dict(entries)}


class ScriptedNode:
    """An access node whose ``retrieve`` gives (or raises) *answer* and whose
    ``append`` is accepted by *accepted* replicas (or raises it)."""

    def __init__(self, answer=None, accepted=REPLICATE):
        self.answer = answer
        self.accepted = accepted

    def retrieve(self, key):
        if isinstance(self.answer, Exception):
            raise self.answer
        return self.answer, None

    def append(self, key, owner, block_type, entries):
        if isinstance(self.accepted, Exception):
            raise self.accepted
        return SimpleNamespace(accepted_replicas=self.accepted)


class ScriptedOverlay:
    """``random_node()`` hands out the scripted nodes in order."""

    def __init__(self, *nodes):
        self.nodes = list(nodes)
        self.draws = 0

    def random_node(self):
        self.draws += 1
        return self.nodes.pop(0)


def make_run(run_class, *nodes, expected=None):
    config = ClusterConfig(num_nodes=1, replicate=REPLICATE)
    if run_class is SurvivalRun:
        report = SurvivalReport(config=config, maintenance_on=False)
    else:
        report = AttackReport(config=config, verification_on=True)
    cluster = SimpleNamespace(overlay=ScriptedOverlay(*nodes), config=config)
    return run_class(
        cluster, report, expected or {}, probe=[KEY], appended=[KEY],
        start_ms=0.0, sample_every_s=10.0,
    )


RUNS = pytest.mark.parametrize("run_class", [SurvivalRun, AttackRun])


class TestRead:
    @RUNS
    @pytest.mark.parametrize("merge", [False, True])
    def test_a_forged_answer_is_counted_once_and_the_next_node_tried(self, run_class, merge):
        run = make_run(
            run_class,
            ScriptedNode(LikirAuthError("forged")),
            ScriptedNode(counter(a=2)),
            ScriptedNode(None),
        )
        assert run.read(KEY, merge=merge) == counter(a=2)
        assert run.forged_reads_rejected == 1

    @RUNS
    def test_a_probe_read_stops_at_the_first_hit(self, run_class):
        run = make_run(run_class, ScriptedNode(counter(a=1)), ScriptedNode(counter(a=9)))
        assert run.read(KEY) == counter(a=1)
        assert run.cluster.overlay.draws == 1

    def test_a_probe_read_gives_up_after_its_attempts(self):
        for run_class, attempts in ((SurvivalRun, 2), (AttackRun, 3)):
            run = make_run(run_class, *(ScriptedNode(None) for _ in range(4)))
            assert run.read(KEY) is None
            assert run.cluster.overlay.draws == attempts

    @RUNS
    def test_an_audit_read_joins_three_counter_replicas_entry_wise(self, run_class):
        answers = [counter(a=3, b=1), counter(a=1, b=4, c=2), counter(c=5)]
        run = make_run(run_class, *(ScriptedNode(a) for a in answers), ScriptedNode(counter(a=99)))
        assert run.read(KEY, merge=True) == counter(a=3, b=4, c=5)
        assert run.cluster.overlay.draws == 3
        # The join is the reader's own copy: no answer was written through.
        assert answers[0] == counter(a=3, b=1)

    @RUNS
    def test_an_audit_read_skips_misses_and_survives_on_one_replica(self, run_class):
        one_hit = (ScriptedNode(None), ScriptedNode(counter(a=2)), ScriptedNode(None))
        run = make_run(run_class, *one_hit)
        assert run.read(KEY, merge=True) == counter(a=2)
        run = make_run(run_class, *(ScriptedNode(None) for _ in range(3)))
        assert run.read(KEY, merge=True) is None

    @RUNS
    def test_an_opaque_block_has_no_join_its_first_answer_stands(self, run_class):
        run = make_run(run_class, ScriptedNode(None), ScriptedNode("uri-1"), ScriptedNode("uri-2"))
        assert run.read(KEY, merge=True) == "uri-1"
        assert run.cluster.overlay.draws == 2


class TestAppendTick:
    @RUNS
    def test_the_floor_rises_only_on_a_fully_replicated_write(self, run_class):
        run = make_run(
            run_class,
            ScriptedNode(accepted=REPLICATE),
            ScriptedNode(accepted=REPLICATE - 1),
            expected={KEY: counter(a=1)},
        )
        entry = f"{run_class.ENTRY_PREFIX}rock"
        run.append_tick()
        assert run.expected[KEY]["entries"] == {"a": 1, entry: 1}
        run.append_tick()  # one store candidate was dead: durable nowhere yet
        assert run.expected[KEY]["entries"] == {"a": 1, entry: 1}

    def test_survival_counts_the_appends_that_raised_the_floor(self):
        run = make_run(
            SurvivalRun,
            ScriptedNode(accepted=REPLICATE),
            ScriptedNode(accepted=0),
            expected={KEY: counter()},
        )
        run.append_tick()
        run.append_tick()
        assert run.report.churn_appends == 1

    def test_attack_counts_every_honest_append_and_books_a_blow_up(self):
        run = make_run(
            AttackRun,
            ScriptedNode(accepted=REPLICATE),
            ScriptedNode(accepted=KeyError("type")),
            expected={KEY: counter()},
        )
        run.append_tick()
        run.append_tick()
        assert (run.report.honest_appends, run.report.honest_append_failures) == (2, 1)
        assert run.expected[KEY]["entries"] == {"probe-rock": 1}


class TestCheckpointedRunReachesTheLastTick:
    def test_continued_and_resumed_runs_equal_the_plain_run(self, tmp_path):
        """The last tick falls exactly on the end of the run, and a leg that
        runs "for what is left" re-associates that sum and can stop an ulp
        short of it (seed 1, checkpoint at 11 s of 30: the third of three
        samples went missing, continued and resumed alike)."""
        workload = TaggingWorkload.from_triples(generate_lastfm_like("tiny").triples())
        checkpoint = tmp_path / "checkpoint.json"

        def run(**checkpointing):
            config = churn_cluster_config(
                num_nodes=16, maintenance=True, mean_session_s=30.0,
                republish_interval_ms=3_000.0, refresh_interval_ms=12_000.0, seed=1,
            )
            return run_survival_benchmark(
                config, workload, ops=12, duration_s=30.0, sample_every_s=10.0, **checkpointing
            )

        def fingerprint(report):
            summary = report.summary()
            summary.pop("wall_time_s")
            return summary, report.samples

        plain = run()
        continued = run(checkpoint_path=str(checkpoint), checkpoint_at_s=11.0)
        resumed = resume_survival_benchmark(checkpoint)
        assert len(plain.samples) == 3
        assert fingerprint(continued) == fingerprint(plain)
        assert fingerprint(resumed) == fingerprint(plain)

    @pytest.mark.parametrize("checkpointing", [
        {"checkpoint_at_s": 5.0},
        {"checkpoint_path": "ck.json"},
        {"halt_at_checkpoint": True},
    ])
    def test_half_a_checkpoint_request_is_refused_before_any_work(self, checkpointing):
        # config=None: the check comes before the cluster is even built.
        with pytest.raises(ValueError, match="checkpoint"):
            run_survival_benchmark(None, None, **checkpointing)
