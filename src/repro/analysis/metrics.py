"""Comparison metrics between the exact and the approximated Folksonomy Graph.

Table III quantifies how much the approximated FG deviates from the exact one
through four per-tag measures, aggregated as mean and standard deviation over
all tags:

* **Kendall's tau** (``K_tau``) between the similarity ranking of the tag's
  neighbours in the two graphs (restricted to the neighbours common to both);
* **cosine similarity** (``theta``) between the two weight vectors over the
  common neighbours;
* **recall** -- the fraction of the tag's exact arcs that survive in the
  approximated graph;
* **sim1%** -- among the arcs *missing* from the approximated graph, the
  fraction whose exact weight is exactly 1 (i.e. noise arcs).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

__all__ = ["kendall_tau", "cosine_similarity", "recall", "sim1_fraction"]


def kendall_tau(reference: Sequence[float], candidate: Sequence[float]) -> float | None:
    """Kendall's tau-b rank correlation between two aligned weight vectors.

    Returns ``None`` when the correlation is undefined: fewer than two
    elements, or one of the vectors is constant (no ranking information).
    The paper measures it on the set of neighbours common to both graphs, so
    the two vectors are always the same length.
    """
    if len(reference) != len(candidate):
        raise ValueError("vectors must have the same length")
    if len(reference) < 2:
        return None
    if len(set(reference)) < 2 or len(set(candidate)) < 2:
        return None
    # Imported here: scipy costs ~0.7 s and ~65 MB, and `import repro` (every
    # `dharma` command and `dharma serve` child) reaches this module.
    from scipy.stats import kendalltau

    tau, _p = kendalltau(reference, candidate)
    if math.isnan(tau):
        return None
    return float(tau)


def cosine_similarity(reference: Sequence[float], candidate: Sequence[float]) -> float | None:
    """Cosine of the angle between two aligned weight vectors.

    Equal to 1 when the vectors are perfectly proportional (the property the
    paper cares about: proportions between arc weights are preserved even if
    absolute values shrink).  Returns ``None`` for empty or all-zero vectors.
    """
    if len(reference) != len(candidate):
        raise ValueError("vectors must have the same length")
    if not reference:
        return None
    dot = sum(a * b for a, b in zip(reference, candidate))
    norm_a = math.sqrt(sum(a * a for a in reference))
    norm_b = math.sqrt(sum(b * b for b in candidate))
    if norm_a == 0.0 or norm_b == 0.0:
        return None
    return dot / (norm_a * norm_b)


def recall(num_reference_arcs: int, num_candidate_arcs: int) -> float | None:
    """Fraction of reference arcs present in the candidate graph.

    ``num_candidate_arcs`` counts only arcs that also exist in the reference
    (the approximated protocol never *creates* spurious arcs, but callers are
    expected to pass the intersection count anyway).  Returns ``None`` when
    the reference has no arcs.
    """
    if num_reference_arcs < 0 or num_candidate_arcs < 0:
        raise ValueError("arc counts must be >= 0")
    if num_reference_arcs == 0:
        return None
    return min(num_candidate_arcs, num_reference_arcs) / num_reference_arcs


def sim1_fraction(missing_arc_weights: Sequence[int]) -> float | None:
    """Fraction of missing arcs whose exact weight is 1.

    *missing_arc_weights* are the exact-model weights of the arcs that do not
    appear in the approximated graph.  Returns ``None`` when nothing is
    missing (the statistic is undefined, not 0).
    """
    if not missing_arc_weights:
        return None
    ones = sum(1 for w in missing_arc_weights if w == 1)
    return ones / len(missing_arc_weights)
