"""Closed-form reassembly analysis (Appendix A, Figure 4-1).

Two questions, both for K original blocks expanded into R*K output blocks
and a uniformly random arrival order:

* replication — probability that the first M arrivals contain at least one
  copy of every original block (Appendix A.1)::

      P(M) = sum_{i=1..K} (-1)^{K-i} C(K,i) C(R i, M) / C(R K, M)

* LT coding (degree-d approximation, Appendix A.2) — probability that the
  union of the neighbours of the first M coded blocks covers all K
  originals::

      P_c(M) = sum_{i=1..K} (-1)^{K-i} C(K,i) (i/K)^{d M}

The dissertation evaluates these at K = 1024, 4x expansion, d = 5.

Both are alternating inclusion-exclusion sums whose terms dwarf their total
— float64 (even in log space) cancels catastrophically for mid-range M, so
everything is evaluated in exact big-integer arithmetic and converted to
float only at the very end.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lgamma, log

import numpy as np

#: Terms whose magnitude relative to the denominator is below this bound are
#: skipped; the retained terms are still summed exactly, so the total error
#: is below ``K * _PRUNE`` (~1e-15 for K = 1024).
_PRUNE_LOG = log(1e-18)


def _log_comb(n: int, r: int) -> float:
    if r < 0 or r > n:
        return float("-inf")
    return lgamma(n + 1) - lgamma(r + 1) - lgamma(n - r + 1)


def replication_coverage_probability(k: int, replicas: int, m: int) -> float:
    """P(first M of the R*K shuffled replicas cover all K originals).

    Parameters
    ----------
    k, replicas, m:
        Original block count, copies per block, arrivals consumed.
    """
    if k < 1 or replicas < 1:
        raise ValueError("k and replicas must be >= 1")
    if m > replicas * k:
        raise ValueError("m exceeds the total number of replica blocks")
    if m < k:
        return 0.0
    total = 0
    log_denom = _log_comb(replicas * k, m)
    for i in range(1, k + 1):
        if _log_comb(k, i) + _log_comb(replicas * i, m) - log_denom < _PRUNE_LOG:
            continue
        term = comb(k, i) * comb(replicas * i, m)
        total += term if (k - i) % 2 == 0 else -term
    p = float(Fraction(total, comb(replicas * k, m)))
    return min(max(p, 0.0), 1.0)


def erasure_coverage_probability(k: int, degree: int, m: int) -> float:
    """P(degree*M random neighbour draws cover all K originals).

    Approximates each coded block as ``degree`` independent uniform draws
    (the Appendix A.2 model with d = 5).  ``degree`` must be an integer so
    the sum stays exact.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    degree = int(degree)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if m <= 0:
        return 0.0
    e = degree * m
    total = 0
    log_k = log(k)
    for i in range(1, k + 1):
        if _log_comb(k, i) + e * (log(i) - log_k) < _PRUNE_LOG:
            continue
        term = comb(k, i) * pow(i, e)
        total += term if (k - i) % 2 == 0 else -term
    p = float(Fraction(total, pow(k, e)))
    return min(max(p, 0.0), 1.0)


def replication_coverage_curve(k: int, replicas: int, ms) -> np.ndarray:
    """Vector of replication coverage probabilities over arrival counts."""
    return np.array(
        [replication_coverage_probability(k, replicas, int(m)) for m in ms]
    )


def erasure_coverage_curve(k: int, degree: int, ms) -> np.ndarray:
    """Vector of erasure-coded coverage probabilities over arrival counts."""
    return np.array([erasure_coverage_probability(k, degree, int(m)) for m in ms])


def expected_replicated_blocks(k: int) -> float:
    """Coupon-collector expectation K * H_K ~= K ln K (§5.2.1's f(K))."""
    i = np.arange(1, k + 1, dtype=np.float64)
    return float(k * np.sum(1.0 / i))


def median_blocks_needed(curve_m: np.ndarray, curve_p: np.ndarray) -> int:
    """Smallest M with coverage probability >= 0.5 along a curve."""
    idx = np.nonzero(np.asarray(curve_p) >= 0.5)[0]
    if idx.size == 0:
        raise ValueError("curve never reaches probability 0.5")
    return int(np.asarray(curve_m)[idx[0]])
