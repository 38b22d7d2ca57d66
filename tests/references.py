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


def assemble_lower_bounds_per_root(targets, cache=None) -> dict[int, int]:
    """``codes.assemble_lower_bounds`` summed root by root over every
    canonical root up to the largest target, each root adding its orbit
    at the lengths within two symbols of it and its best per-root size
    beyond."""
    from math import perm

    from tdcodes.codes import _iter_canonical_irreducible, _size_table
    from tdcodes.oracle import canonical_form

    targets = sorted(set(targets))
    value, _ = _size_table(cache)
    totals = {t: 0 for t in targets}
    for root in _iter_canonical_irreducible(targets[-1]):
        orbit = perm(3, max(root) + 1)
        rev, _ = canonical_form(root[::-1])
        for t in targets:
            if len(root) <= t <= len(root) + 2:
                totals[t] += orbit
            elif t > len(root) + 2:
                totals[t] += orbit * max(value(root, t), value(rev, t))
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
