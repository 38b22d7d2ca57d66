"""Closed-form upper bounds and counting for ternary codes.

Covers the per-root upper bound from counting admissible region-count
vectors, the recursion counting irreducible words by number of regions,
the bound through optimal codes for duplication length at most two, and
the refined global upper bound assembled from all three.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .oracle import irreducible_counts
from .codes import ONE_REGION_PATTERNS, one_region_size

__all__ = [
    "region_vector_upper_bound",
    "irreducible_region_count",
    "le2_upper_bound",
    "refined_upper_bound",
]


def region_vector_upper_bound(n: int, i: int, m: int) -> int:
    """Upper bound on code size inside the cone of a length-``i`` root with
    ``m`` regions, at word length ``n``.

    Counts the positive region-count vectors (c_1..c_m) that a length-n
    descendant can realize; when n - i is divisible by three, all vectors
    on the boundary share one code slot.
    """
    if m < 1:
        raise ValueError(f"region count must be positive, got {m}")
    if i > n:
        raise ValueError(f"root length {i} exceeds word length {n}")
    t, rem = divmod(n - i, 3)
    if rem == 0:
        return comb(t + m, m) - comb(t + m - 1, m - 1) + 1
    return comb(t + m, m)


@lru_cache(maxsize=None)
def _aba_count(i: int, m: int) -> int:
    # irreducible ternary words of length i with m regions whose first
    # three symbols carry two distinct values
    if i > 3:
        return _abc_count(i - 1, m)
    if i == 3:
        return 6 if m == 0 else 0
    raise ValueError(f"split counts need length >= 3, got {i}")


@lru_cache(maxsize=None)
def _abc_count(i: int, m: int) -> int:
    # same but with three distinct values in the first three symbols
    if m == 0:
        return 0
    if i >= 6:
        return _aba_count(i - 1, m - 1) + _aba_count(i - 2, m - 1) + _aba_count(i - 3, m - 1)
    if i == 5:
        return {1: 12, 2: 6}.get(m, 0)
    if i == 4:
        return 12 if m == 1 else 0
    if i == 3:
        return 6 if m == 1 else 0
    raise ValueError(f"split counts need length >= 3, got {i}")


def irreducible_region_count(i: int, m: int) -> int:
    """Number of irreducible ternary words of length ``i`` with ``m`` regions."""
    if i < 1 or m < 0:
        raise ValueError(f"need i >= 1 and m >= 0, got ({i}, {m})")
    if i == 1:
        return 3 if m == 0 else 0
    if i == 2:
        return 6 if m == 0 else 0
    return _aba_count(i, m) + _abc_count(i, m)


def le2_upper_bound(n: int) -> int:
    """Code-size bound through optimal codes for duplication length <= 2."""
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    return sum(irreducible_counts(n, 3, 2))


def refined_upper_bound(n: int) -> int:
    """Refined upper bound on optimal ternary code size at length ``n``.

    Zero-region roots contribute one codeword each, one-region roots their
    exact closed-form size (six relabelings per normalized pattern), and
    every longer root is bounded by the region-count vector count.
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    zero = 3 if n == 1 else 9 if n == 2 else 15
    one = 6 * sum(
        one_region_size(p, n) for p in ONE_REGION_PATTERNS if len(p) <= n
    )
    multi = 0
    for i in range(5, n + 1):
        for m in range(2, i + 1):
            cnt = irreducible_region_count(i, m)
            if cnt:
                multi += cnt * region_vector_upper_bound(n, i, m)
    return zero + one + multi
