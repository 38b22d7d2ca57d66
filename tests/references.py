"""Slow reference implementations that only the tests use.

Each one checks a library function against a direct, independent
computation of the same thing.
"""

from tdcodes.confusability import compute_label

Word = bytes


def remove_duplicates_pass(x: Word, k: int) -> Word:
    """Remove every factor ``vv`` with ``|v| = k`` by a left-to-right scan.

    After each removal the scan index backtracks by ``2k - 1`` positions
    (floored at zero): a removal can only create a new k-duplicate spanning
    the junction, and any such duplicate starts within that window.
    """
    if k < 1:
        raise ValueError(f"duplicate length must be positive, got {k}")
    if len(x) == 0:
        raise ValueError("empty word")
    r = bytearray(x)
    i = 0
    back = 2 * k - 1
    while i + 2 * k <= len(r):
        if r[i : i + k] == r[i + k : i + 2 * k]:
            del r[i : i + k]
            i = i - back if i > back else 0
        else:
            i += 1
    return bytes(r)


def region_vector_upper_bound_bruteforce(n: int, i: int, m: int) -> int:
    """Independent count of the vectors ``region_vector_upper_bound`` counts,
    by explicit enumeration."""
    if m < 1 or i > n:
        raise ValueError("need m >= 1 and i <= n")
    budget = n - i
    total = 0
    boundary = 0

    def rec(left: int, used: int) -> None:
        nonlocal total, boundary
        if left == 0:
            total += 1
            if used == budget:
                boundary += 1
            return
        # c_j >= 1 contributes 3*(c_j - 1) to the used length
        extra = 0
        while used + extra <= budget:
            rec(left - 1, used + extra)
            extra += 3

    rec(m, 0)
    if boundary:  # only possible when 3 divides n - i; one slot for all of them
        return total - boundary + 1
    return total


def recursion_sizes(cache=None):
    """The prefix recursion behind ``codes._size_table``, one memoised call
    per (word, length).

    Returns ``value(rr, nn)``: the best known code size for the canonical
    word ``rr`` at length ``nn``, by the prefix recursion over the padded
    baseline, with closed forms for zero- and one-region words and a size
    cache hit taking precedence.  Every suffix is looked up by its
    canonical form, in the cache and in the memo.  Each call lowers the
    length, so the recursion is at most ``nn`` calls deep.
    """
    from functools import lru_cache
    from itertools import islice

    from tdcodes.codes import _PREFIX_CASES, one_region_size
    from tdcodes.confusability import _regions
    from tdcodes.oracle import canonical_form

    @lru_cache(None)
    def shape(rr):
        # (region count capped at two, canonical tail left after the cut,
        # prefix options)
        regions = tuple(islice(_regions(rr), 2))
        if len(regions) < 2:
            return len(regions), b"", ()
        cut, options = _PREFIX_CASES[regions[0][1].reg]
        return 2, canonical_form(rr[cut:])[0], options

    memo = {}

    def value(rr, nn):
        if nn < len(rr):
            return 0
        if (rr, nn) in memo:
            return memo[rr, nn]
        hit = None if cache is None else cache.get(rr, nn)
        if hit is not None:
            return hit[0]
        if nn <= len(rr) + 2:
            return 1
        m, tail, options = shape(rr)
        if m == 0:
            return 1
        if m == 1:
            return one_region_size(rr, nn)
        best = max(2, value(rr, nn - 1))
        for drop, prefixes in options:
            best = max(best, len(prefixes) * value(tail, nn - drop))
        memo[rr, nn] = best
        return best

    return value


def recursive_size_reference(value, r, n):
    """``codes.recursive_size`` from a :func:`recursion_sizes` table: the
    larger of the sizes of ``r`` and of its reversal."""
    from tdcodes.oracle import canonical_form

    return max(value(canonical_form(x)[0], n) for x in (r, r[::-1]))


def assemble_lower_bounds_per_root(targets, cache=None) -> dict[int, int]:
    """``codes.assemble_lower_bounds`` summed root by root over every
    canonical root up to the largest target, each root adding its orbit
    at the lengths within two symbols of it and its best per-root size
    from :func:`recursion_sizes` beyond."""
    from math import perm

    from tdcodes.codes import _iter_canonical_irreducible

    targets = sorted(set(targets))
    value = recursion_sizes(cache)
    totals = {t: 0 for t in targets}
    for root in _iter_canonical_irreducible(targets[-1]):
        orbit = perm(3, max(root) + 1)
        for t in targets:
            if len(root) <= t <= len(root) + 2:
                totals[t] += orbit
            elif t > len(root) + 2:
                totals[t] += orbit * recursive_size_reference(value, root, t)
    return totals


def labels_by_root_words(n: int):
    """``optimal.labels_by_root`` by labelling words one by one.

    It walks the canonical words with no run of three up to length ``n``
    (``oracle._walk`` with ``k = 0``) and labels each word
    ``oracle._labelled`` picks with ``compute_label``.  The proof that
    these words give every label is in ``labels_by_root``'s docstring.
    """
    from tdcodes.oracle import _labelled, _walk

    buckets = {}
    for w in _walk(1, n, 3, 0, canonical=True):
        pair = any(w[i] == w[i + 1] for i in range(len(w) - 2))
        if _labelled(len(w), n, w[-2:], pair):
            label = compute_label(w)
            buckets.setdefault(label.root, set()).add(label)
    return buckets


def find_confusable_pair_pairwise(code):
    """``codes.find_confusable_pair`` by deciding every pair with ``confusable``.

    Words are grouped by root in sorted order and each pair of a group is
    decided in turn, so the first confusable pair is the one the library
    returns.
    """
    from tdcodes import confusable, root_le3

    groups = {}
    for w in code.sorted_words():
        groups.setdefault(root_le3(w), []).append(w)
    for group in groups.values():
        for i, x in enumerate(group):
            for y in group[i + 1 :]:
                if confusable(x, y):
                    return x, y
    return None


def graph_from_labels_pairwise(labels):
    """``optimal.graph_from_labels`` deciding each ordered pair of labels
    with ``labels_confusable``, both ways round."""
    from tdcodes.confusability import labels_confusable
    from tdcodes.optimal import LabelGraph

    ordered = sorted(set(labels))
    nbrs = [
        {j for j, lj in enumerate(ordered) if i != j and not labels_confusable(li, lj)}
        for i, li in enumerate(ordered)
    ]
    order = sorted(range(len(ordered)), key=lambda v: -len(nbrs[v]))
    adjacency = tuple(sum(1 << p for p, u in enumerate(order) if u in nbrs[v]) for v in order)
    return LabelGraph(tuple(ordered[v] for v in order), adjacency)
