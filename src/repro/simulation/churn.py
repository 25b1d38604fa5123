"""Node churn for failure-injection experiments.

The DHARMA evaluation runs on a static dataset, but any DHT-backed system has
to survive nodes joining and leaving; the integration tests and the extension
benchmark E9 therefore exercise the overlay under churn.  The model is the
classic exponential session/inter-arrival one: joins arrive as a Poisson
process with rate ``join_rate`` (nodes per virtual second) and each live node
leaves after an exponentially distributed session of mean
``mean_session_s`` seconds.  Departures can be graceful (data republished) or
abrupt (crash).

The whole trace is drawn up front (:meth:`ChurnProcess.schedule_trace`) and
pinned to absolute virtual times; each pending event carries its parameters
in its label, which is what lets a cluster snapshot re-create it on restore.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.simulation.event_queue import EventQueue

if TYPE_CHECKING:  # imported lazily to avoid a circular import with repro.dht
    from repro.dht.bootstrap import Overlay

__all__ = ["ChurnConfig", "ChurnProcess"]


@dataclass(frozen=True, slots=True)
class ChurnConfig:
    """Parameters of the churn process (all times in virtual seconds)."""

    join_rate: float = 0.0
    mean_session_s: float = 600.0
    #: Probability that a departure is abrupt (no republication).
    crash_probability: float = 0.5
    #: Never let the overlay shrink below this size.
    min_nodes: int = 2
    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.join_rate < 0:
            raise ValueError("join_rate must be >= 0")
        if self.mean_session_s <= 0:
            raise ValueError("mean_session_s must be > 0")
        if not (0.0 <= self.crash_probability <= 1.0):
            raise ValueError("crash_probability must be in [0, 1]")
        if self.min_nodes < 1:
            raise ValueError("min_nodes must be >= 1")


class ChurnProcess:
    """Drives joins and departures on an :class:`~repro.dht.bootstrap.Overlay`."""

    def __init__(self, overlay: "Overlay", queue: EventQueue, config: ChurnConfig) -> None:
        self.overlay = overlay
        self.queue = queue
        self.config = config
        self._rng = random.Random(config.seed)
        self.joins = 0
        self.graceful_leaves = 0
        self.crashes = 0

    # -- scheduling ------------------------------------------------------- #

    def schedule_trace(self, horizon_ms: float) -> int:
        """Pre-schedule the whole churn trace over the next *horizon_ms*.

        Every join arrival and every departure is drawn up front and pinned
        to an absolute virtual time, so the membership schedule is a pure
        function of the config seed -- two runs over the same overlay see
        the *identical* fault injection trace no matter how much virtual
        time their own work (maintenance, probes) consumes in between.
        Returns the number of scheduled events.  Pending events carry their
        parameters in the label (``churn-leave:<address>``,
        ``churn-join:<at>:<session>:<horizon>``).
        """
        start = self.queue.clock.now
        scheduled = 0
        for node in list(self.overlay.nodes):
            if not self.overlay.network.is_registered(node.address):
                continue
            at = start + self._ms(self._rng.expovariate(1.0 / self.config.mean_session_s))
            if at <= start + horizon_ms:
                address = node.address
                self.queue.schedule_at(
                    at, lambda a=address: self._do_departure(a),
                    label=f"churn-leave:{address}",
                )
                scheduled += 1
        if self.config.join_rate > 0:
            at = start
            while True:
                at += self._ms(self._rng.expovariate(self.config.join_rate))
                if at > start + horizon_ms:
                    break
                # The joiner's own departure is drawn relative to its join
                # time, staying on the pre-computed timeline.
                session = self._ms(self._rng.expovariate(1.0 / self.config.mean_session_s))
                horizon = start + horizon_ms
                self.queue.schedule_at(
                    at,
                    lambda t=at, s=session, h=horizon: self._do_traced_join(t, s, h),
                    label=f"churn-join:{at!r}:{session!r}:{horizon!r}",
                )
                scheduled += 1
        return scheduled

    def _do_traced_join(self, join_time: float, session_ms: float, horizon: float) -> None:
        node = self.overlay.add_node()
        self.joins += 1
        at = join_time + session_ms
        if at > horizon:
            return
        address = node.address
        if at <= self.queue.clock.now:
            # The join outlasted its session (timeouts on dead contacts): leave
            # now, not at a clock time that other events' work decided.
            self._do_departure(address)
        else:
            self.queue.schedule_at(
                at,
                lambda: self._do_departure(address),
                label=f"churn-leave:{address}",
            )

    def _ms(self, seconds: float) -> float:
        return seconds * 1000.0

    # -- event actions ------------------------------------------------------ #

    def _live_count(self) -> int:
        return sum(
            1
            for node in self.overlay.nodes
            if self.overlay.network.is_registered(node.address)
        )

    def _do_departure(self, address: str) -> None:
        if self._live_count() <= self.config.min_nodes:
            # Keep the overlay usable: the departure is skipped, and the trace
            # stays on its timeline.
            return
        node = self.overlay.node_by_address(address)
        if node is None or not self.overlay.network.is_registered(address):
            return
        # Both paths go through the overlay so the departed node is pruned
        # from the roster (and membership listeners fire): long churn runs
        # must not accumulate dead entries.
        if self._rng.random() < self.config.crash_probability:
            self.overlay.crash_node(node)
            self.crashes += 1
        else:
            self.overlay.remove_node(node, republish=True)
            self.graceful_leaves += 1
