"""The lookup cost model of Table I.

The paper expresses the cost of every DHARMA primitive as the number of
*overlay lookups* it performs, assuming that reading or modifying one block
costs exactly one lookup:

=================  =======================  =====================
Primitive          Naive protocol           Approximated protocol
=================  =======================  =====================
Insert(r, t1..m)   ``2 + 2m``               ``2 + 2m``
Tag(r, t)          ``4 + |Tags(r)|``        ``4 + k``
Search step        ``2``                    ``2``
=================  =======================  =====================

This module provides the analytical formulas (used as the ground truth the
measured costs are checked against in ``benchmarks/bench_table1_primitive_costs.py``
and in the protocol unit tests) and :class:`CostLedger`, a per-operation
record of the lookups actually issued by a protocol instance.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass, field

__all__ = [
    "insert_cost",
    "naive_tag_cost",
    "approximated_tag_cost",
    "search_step_cost",
    "PRIMITIVE_COSTS",
    "CacheStats",
    "OperationCost",
    "CostLedger",
]


def insert_cost(num_tags: int) -> int:
    """Lookups needed to insert a resource with *num_tags* tags (both
    protocols): one PUT for ``r̃``, one for ``r̄``, and per tag one update of
    ``t̄`` plus one of ``t̂``."""
    if num_tags < 0:
        raise ValueError("num_tags must be >= 0")
    return 2 + 2 * num_tags


def naive_tag_cost(tags_of_resource: int) -> int:
    """Lookups for one tagging operation under the naive protocol: update
    ``r̄`` and ``t̄``, read ``r̄``, update ``t̂``, then one update of ``τ̂`` per
    co-tag of the resource."""
    if tags_of_resource < 0:
        raise ValueError("tags_of_resource must be >= 0")
    return 4 + tags_of_resource


def approximated_tag_cost(k: int) -> int:
    """Lookups for one tagging operation under the approximated protocol:
    the constant part plus at most *k* reverse-arc updates."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return 4 + k


def search_step_cost() -> int:
    """Lookups per faceted-search step: fetch ``t̂`` and ``t̄`` of the selected
    tag (set intersections are computed locally)."""
    return 2


#: Table I in dictionary form, for report generation.
PRIMITIVE_COSTS = {
    "insert": {"naive": "2 + 2m", "approximated": "2 + 2m"},
    "tag": {"naive": "4 + |Tags(r)|", "approximated": "4 + k"},
    "search_step": {"naive": "2", "approximated": "2"},
}


@dataclass(slots=True)
class CacheStats:
    """Counters of a block cache sitting in front of the overlay.

    The cost model distinguishes *network* lookups (what the paper charges)
    from *cached* reads served locally at zero overlay cost; these counters
    are how a cache reports the split back to the experiments.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0
    invalidations: int = 0

    @property
    def reads(self) -> int:
        """Total read attempts that went through the cache."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of reads served from the cache (0.0 when unused)."""
        reads = self.reads
        return self.hits / reads if reads else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0

    def snapshot(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True, slots=True)
class OperationCost:
    """Measured cost of one primitive invocation."""

    operation: str  # "insert", "tag" or "search_step"
    lookups: int
    #: Operation-specific size parameter: m for insert, |Tags(r)| before the
    #: operation for tag, 0 for search steps.
    size: int = 0
    rpc_messages: int = 0
    #: Block reads served by a local cache instead of the overlay (always 0
    #: when no cache is configured); ``lookups`` counts network reads only.
    cache_hits: int = 0


@dataclass
class CostLedger:
    """Accumulates measured :class:`OperationCost` records."""

    records: list[OperationCost] = field(default_factory=list)

    def record(self, cost: OperationCost) -> None:
        self.records.append(cost)

    def __len__(self) -> int:
        return len(self.records)

    # -- aggregation -------------------------------------------------------- #

    def by_operation(self) -> dict[str, list[OperationCost]]:
        grouped: dict[str, list[OperationCost]] = defaultdict(list)
        for record in self.records:
            grouped[record.operation].append(record)
        return dict(grouped)

    def total_lookups(self, operation: str | None = None) -> int:
        return sum(
            r.lookups for r in self.records if operation is None or r.operation == operation
        )

    def mean_lookups(self, operation: str) -> float:
        values = [r.lookups for r in self.records if r.operation == operation]
        if not values:
            raise ValueError(f"no records for operation {operation!r}")
        return statistics.fmean(values)

    def max_lookups(self, operation: str) -> int:
        values = [r.lookups for r in self.records if r.operation == operation]
        if not values:
            raise ValueError(f"no records for operation {operation!r}")
        return max(values)

    def total_cache_hits(self, operation: str | None = None) -> int:
        return sum(
            r.cache_hits for r in self.records if operation is None or r.operation == operation
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-operation mean / max / count, for benchmark reports."""
        out: dict[str, dict[str, float]] = {}
        for operation, records in self.by_operation().items():
            lookups = [r.lookups for r in records]
            out[operation] = {
                "count": len(lookups),
                "mean_lookups": statistics.fmean(lookups),
                "max_lookups": max(lookups),
                "total_lookups": sum(lookups),
                "cache_hits": sum(r.cache_hits for r in records),
            }
        return out
