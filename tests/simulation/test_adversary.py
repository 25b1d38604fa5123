"""Tests for the adversarial fault-injection harness.

The harness's whole value is determinism: one seeded config must produce the
byte-identical campaign no matter which enforcement posture faces it, so the
verification-on/off delta measures Likir, not luck.  These tests pin that
property, plus the attack outcomes the benchmark gates on, at a size small
enough for the unit suite.
"""

import pytest

from repro.simulation.adversary import AdversaryConfig
from repro.simulation.cluster import attack_cluster_config
from repro.simulation.experiment import run_attack_benchmark
from repro.simulation.workload import TaggingWorkload

TRIPLES = [
    (f"user-{i % 7}", f"res-{i % 11}", f"tag-{i % 5}")
    for i in range(160)
]


@pytest.fixture(scope="module")
def workload():
    return TaggingWorkload.from_triples(TRIPLES)


def small_attack_config(verification: bool, seed: int = 3):
    return attack_cluster_config(
        num_nodes=32,
        verification=verification,
        sybil_count=8,
        compromised_fraction=0.05,
        forge_rate=0.5,
        append_forge_rate=0.5,
        stale_republish_rate=0.5,
        seed=seed,
    )


def run_small(verification: bool, seed: int = 3, workload=None):
    return run_attack_benchmark(
        small_attack_config(verification, seed=seed),
        workload,
        ops=40,
        duration_s=30.0,
        sample_every_s=10.0,
        probe_keys=20,
        target_keys=2,
    )


class TestAdversaryConfig:
    def test_defaults_are_valid(self):
        AdversaryConfig()

    def test_validation(self):
        with pytest.raises(ValueError):
            AdversaryConfig(sybil_count=-1)
        with pytest.raises(ValueError):
            AdversaryConfig(compromised_fraction=1.5)
        with pytest.raises(ValueError):
            AdversaryConfig(forge_rate=-0.1)

    def test_cluster_config_round_trip(self):
        config = small_attack_config(verification=True)
        adversary = config.adversary_config()
        assert adversary.sybil_count == 8
        assert adversary.seed == config.seed


@pytest.fixture(scope="module")
def arms(workload):
    return {
        "on": run_small(verification=True, workload=workload),
        "off": run_small(verification=False, workload=workload),
    }


class TestAttackOutcomes:
    def test_identical_campaign_across_postures(self, arms):
        """Every *_sent counter agrees: both arms faced the same trace."""
        sent_on = {
            k: v for k, v in arms["on"].summary().items()
            if k.startswith("attack_") and k.endswith("_sent")
        }
        sent_off = {
            k: v for k, v in arms["off"].summary().items()
            if k.startswith("attack_") and k.endswith("_sent")
        }
        assert sent_on == sent_off
        assert sum(sent_on.values()) > 0

    def test_verification_on_blocks_every_forgery(self, arms):
        on = arms["on"]
        assert on.integrity_violations == 0
        assert on.foreign_entries == 0
        accepted = sum(
            v for k, v in on.summary().items()
            if k.startswith("attack_") and k.endswith("_accepted")
        )
        assert accepted == 0
        assert on.likir_rejected > 0
        assert on.sybil_contacts_rejected > 0

    def test_verification_off_takes_damage(self, arms):
        off = arms["off"]
        accepted = sum(
            v for k, v in off.summary().items()
            if k.startswith("attack_") and k.endswith("_accepted")
        )
        assert accepted > 0
        assert off.likir_verified == 0 and off.likir_rejected == 0

    def test_sybils_make_less_eclipse_progress_under_admission_control(self, arms):
        assert arms["on"].eclipse_progress <= arms["off"].eclipse_progress

    def test_same_seed_same_fingerprint(self, workload, arms):
        """The determinism pin: a rerun of the same seeded config reproduces
        the full report (summary minus wall time, plus the availability
        timeline) exactly."""
        rerun = run_small(verification=True, workload=workload)
        assert rerun.fingerprint() == arms["on"].fingerprint()

    def test_different_seed_different_campaign(self, workload, arms):
        other = run_small(verification=True, seed=4, workload=workload)
        assert other.fingerprint() != arms["on"].fingerprint()

    def test_requires_adversarial_config(self, workload):
        from repro.simulation.cluster import ClusterConfig, SimulatedCluster

        cluster = SimulatedCluster(ClusterConfig(num_nodes=8, bootstrap="fast"))
        with pytest.raises(RuntimeError):
            cluster.start_attack(targets=[], trace_horizon_ms=1000.0)


def assert_summary(report, expected: dict):
    summary = report.summary()
    assert {key: summary[key] for key in expected} == expected


class TestAttackPins:
    """Literal pins of the seeded arms, recorded before the survival and
    attack runners were merged: a rerun agreeing with itself (above) cannot
    tell whether a refactor changed what the experiment does.

    Re-based once, on purpose, when ``lookup_node`` stopped pinging on
    behalf of contacts that had just answered it: only the message totals
    (on 3,960 -> 3,730, off 4,135 -> 3,881, forged read 17,230 -> 15,466) and
    the virtual clock moved; every attack, Likir and audit counter and every
    availability sample's value is the same."""

    def test_verification_on_arm(self, arms):
        assert_summary(arms["on"], {
            "messages_total": 3730,
            "virtual_time_s": 30.403934187496787,
            "likir_verified": 74,
            "likir_rejected": 120,
            "sybil_contacts_rejected": 248,
            "entries_checked": 81,
            "integrity_violations": 0,
            "foreign_entries": 0,
            "forged_reads_rejected": 0,
            "honest_appends": 6,
            "honest_append_failures": 0,
            "final_availability": 1.0,
        })
        assert arms["on"].samples[-1] == (30.006341741390102, 1.0)

    def test_verification_off_arm(self, arms):
        assert_summary(arms["off"], {
            "messages_total": 3881,
            "virtual_time_s": 30.403453353801595,
            "integrity_violations": 2,
            "foreign_entries": 1,
            "entries_checked": 80,
            "honest_appends": 6,
            "honest_append_failures": 3,
            "attack_lies_served": 2,
            "attack_blackholed_appends": 9,
            "eclipse_progress": 0.125,
        })
        assert arms["off"].samples[-1] == (30.00601363252468, 1.0)

    def test_a_forged_read_is_rejected_and_retried(self):
        """64 nodes, seed 5: one probe read raises ``LikirAuthError`` on a
        compromised responder's forgery, so the count-and-retry branch of
        the read path sits inside a pin."""
        from repro.datasets.lastfm_synthetic import generate_lastfm_like

        report = run_attack_benchmark(
            attack_cluster_config(64, True, seed=5),
            TaggingWorkload.from_triples(generate_lastfm_like("tiny").triples()),
            ops=150,
            duration_s=40.0,
        )
        assert_summary(report, {
            "messages_total": 15466,
            "virtual_time_s": 41.57419156293462,
            "forged_reads_rejected": 1,
            "attack_lies_served": 37,
            "likir_verified": 346,
            "likir_rejected": 433,
            "entries_checked": 169,
            "honest_appends": 16,
            "integrity_violations": 0,
            "lost_blocks": 0,
        })
        assert report.samples[-1] == (40.020943599185166, 1.0)
