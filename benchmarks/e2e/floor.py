"""Replay-floor aggregation for the end-to-end benchmark.

On a small shared box a fixed pure-Python kernel swings by a factor of two
between adjacent scheduler windows, so a plain median over one run moves far
more than any optimisation the benchmark is meant to resolve.  The harness
therefore replays the *identical* deterministic op sequence ``R`` times and
keeps, for every op ``i``, the minimum latency over the replays: noise only
ever adds time, so the minimum converges on the cost of the work itself.

The floor is only meaningful when the replays really did identical work, which
is what :func:`check_replay_identity` enforces: the per-replay message totals
must agree (exactly for fresh-cluster replays, within a small tolerance for
rounds on one long-lived overlay) or the run aborts.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence
from dataclasses import dataclass

__all__ = [
    "ReplayDiverged",
    "FloorSummary",
    "check_replay_identity",
    "percentile",
    "replay_floor",
    "summarise",
    "supported_percentile",
]

#: Percentiles the harness is willing to report, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)
#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


class ReplayDiverged(RuntimeError):
    """Two replays of one workload did different work; the floor is void."""


def check_replay_identity(totals: Sequence[int], tolerance: float = 0.0) -> None:
    """Abort unless every replay's message total matches replay 0.

    *tolerance* is the allowed relative deviation from ``totals[0]``: ``0.0``
    demands bit-identical totals (fresh cluster per replay), a small positive
    value admits the drift of rounds sharing one overlay (routing tables keep
    learning contacts between rounds).
    """
    if not totals:
        raise ValueError("no replay totals to compare")
    reference = totals[0]
    allowed = abs(reference) * tolerance
    for index, total in enumerate(totals):
        if abs(total - reference) > allowed:
            raise ReplayDiverged(
                f"replay {index} sent {total} messages, replay 0 sent {reference} "
                f"(allowed deviation {tolerance:.2%}): the replays did not do "
                "identical work, so their per-op minimum is not a floor"
            )


def replay_floor(replays: Sequence[Sequence[float]]) -> list[float]:
    """Per-op minimum over *replays* (each one latency per op, same length)."""
    if not replays:
        raise ValueError("no replays")
    length = len(replays[0])
    for index, replay in enumerate(replays):
        if len(replay) != length:
            raise ReplayDiverged(
                f"replay {index} ran {len(replay)} ops, replay 0 ran {length}"
            )
    return [min(column) for column in zip(*replays)]


#: Half-width, in percentile points, of the window :func:`percentile` averages.
WINDOW = 2.5


def _rank(samples: int, q: float) -> int:
    """1-based nearest rank of percentile *q* among *samples* values."""
    return min(samples, max(1, math.ceil(q * samples / 100.0)))


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile *q* (0-100) of *values*: the mean of the order statistics
    from ``q - WINDOW`` to ``q + WINDOW`` (nearest ranks).

    Op latencies come in cost classes with gaps between them; where a gap
    falls on the wanted rank, the plain nearest-rank value jumps by the width
    of the gap when a single op changes class.  Averaging the ten or so
    neighbouring order statistics (N = 200) moves by a tenth of that.  A sample too small for
    the window to span two ranks yields the nearest-rank value.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    low = _rank(len(ordered), max(q - WINDOW, 0.0))
    high = _rank(len(ordered), min(q + WINDOW, 100.0))
    if low == high:
        return ordered[_rank(len(ordered), q) - 1]
    window = ordered[low:high]  # ranks low+1 .. high
    return sum(window) / len(window)


def supported_percentile(samples: int, wanted: float) -> float:
    """The highest ladder percentile ``<= wanted`` that *samples* support.

    A percentile is supported when at least :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond it; the median is always reported.
    """
    best = PERCENTILE_LADDER[0]
    for q in PERCENTILE_LADDER:
        if q > wanted:
            break
        if samples - _rank(samples, q) >= MIN_SAMPLES_BEYOND:
            best = q
    return best


@dataclass(frozen=True, slots=True)
class FloorSummary:
    """Throughput and latency of one workload, floored and plain."""

    ops: int
    replays: int
    #: ``ops / sum(per-op floors)``.
    ops_per_s: float
    p50_ms: float
    tail_percentile: float
    tail_ms: float
    #: Samples strictly beyond the tail percentile's rank (the benchmark sizes
    #: its floored workloads so that this is at least
    #: :data:`MIN_SAMPLES_BEYOND`, and prints it).
    samples_beyond_tail: int
    #: Median over replays of each replay's own ``ops / sum(latencies)``: what
    #: the run would have reported without the floor (kept for contrast).
    plain_median_ops_per_s: float
    #: (max - min) / median of the per-replay throughputs.
    plain_spread: float


def summarise(
    replays: Sequence[Sequence[float]], tail: float = 95.0, floored: bool = True
) -> FloorSummary:
    """Aggregate per-op latencies (seconds) of *replays* into a summary.

    With ``floored=False`` (timer-dominated phases, run once) the statistics
    are taken over replay 0 as measured.
    """
    floors = replay_floor(replays) if floored else list(replays[0])
    ops = len(floors)
    per_replay = [len(replay) / sum(replay) for replay in replays]
    median = statistics.median(per_replay)
    return FloorSummary(
        ops=ops,
        replays=len(replays),
        ops_per_s=ops / sum(floors),
        p50_ms=percentile(floors, 50.0) * 1_000.0,
        tail_percentile=tail,
        tail_ms=percentile(floors, tail) * 1_000.0,
        samples_beyond_tail=ops - _rank(ops, tail),
        plain_median_ops_per_s=median,
        plain_spread=(max(per_replay) - min(per_replay)) / median,
    )
