"""Ground-truth machinery: enumerations, descendant cones and brute-force
confusability, plus the label route over a root's run-free cone.

The enumerations, ``descendant_cone`` and ``oracle_confusable`` are brute
force and never call the region-peeling decision, so they can serve as an
oracle for it.  ``enumerate_labels`` is not: it walks the run-free part of
a root's cone, peels those words with the root's region plan and derives
the labels of the other members from theirs.
Cone searches are bounded and budgeted: a found witness is conclusive, an
empty intersection is only conclusive up to the explored length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, count
from math import perm
from typing import Iterator

from .words import Word, ResourceBudgetError, _root_text, check_word
from .confusability import Label, _peel, _region_plan
from .roots import _check_root, root_le3_depths

__all__ = [
    "enumerate_irreducible",
    "irreducible_counts",
    "ConeFrontier",
    "descendant_cone",
    "oracle_confusable",
    "enumerate_labels",
    "canonical_form",
]


def _extensions(prefix: Word, q: int, k: int) -> Iterator[int]:
    # symbols that keep the prefix free of duplicates vv with |v| <= k; only
    # duplicates ending at the new position need checking, and they reach
    # back at most 2k - 1 symbols.  k = 0 (the label sweep's run check)
    # refuses only a symbol equal to the last two, so the prefix keeps no
    # run of three symbols
    n = len(prefix)
    for s in range(q):
        if k == 0 and n >= 2 and prefix[-1] == s == prefix[-2]:
            continue
        if k >= 1 and n >= 1 and prefix[-1] == s:
            continue
        if k >= 2 and n >= 3 and prefix[-2] == s and prefix[-3] == prefix[-1]:
            continue
        if (
            k >= 3
            and n >= 5
            and prefix[-3] == s
            and prefix[-4] == prefix[-1]
            and prefix[-5] == prefix[-2]
        ):
            continue
        yield s


def _walk(n_min: int, n_max: int, q: int, k: int, canonical: bool = False) -> Iterator[Word]:
    # depth-first over the words _extensions admits symbol by symbol, each
    # yielded before its extensions once its length reaches n_min (>= 1),
    # smaller siblings first: the stack holds (word, symbols used) and gets
    # each word's extensions pushed in reverse.  ``canonical`` keeps only
    # words whose symbols first occur in the order 0, 1, 2, ..., one per
    # relabeling orbit
    stack = [(b"", 0)]
    while stack:
        word, used = stack.pop()
        if len(word) >= n_min:
            yield word
        if len(word) < n_max:
            grown = _extensions(word, min(used + 1, q) if canonical else q, k)
            stack += [(word + bytes((s,)), max(used, s + 1)) for s in reversed([*grown])]


def _check_alphabet(q: int, k: int) -> None:
    if q < 2:
        raise ValueError(f"alphabet size must be at least 2, got {q}")
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1..3, got {k}")


def enumerate_irreducible(n: int, q: int = 3, k: int = 3) -> Iterator[Word]:
    """Yield the irreducible words of length exactly ``n`` over ``0..q-1``.

    Irreducible means no factor ``vv`` with ``|v| <= k``.  The DFS extends
    only duplicate-free prefixes, which is exhaustive because every factor
    of an irreducible word is irreducible.
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    _check_alphabet(q, k)
    return _walk(n, n, q, k)


def irreducible_counts(n_max: int, q: int = 3, k: int = 3) -> list[int]:
    """Counts of irreducible words per length ``1..n_max`` (index 0 unused).

    Whether a symbol extends an irreducible word depends only on its last
    ``2k - 1`` symbols, so the count runs over those tails instead of
    over the words.
    """
    _check_alphabet(q, k)
    keep = 2 * k - 1
    counts = [0] * (n_max + 1)
    tails: dict[bytes, int] = {b"": 1}
    for length in range(1, n_max + 1):
        grown: dict[bytes, int] = {}
        for tail, ways in tails.items():
            for s in _extensions(tail, q, k):
                key = (tail + bytes((s,)))[-keep:]
                grown[key] = grown.get(key, 0) + ways
        tails = grown
        counts[length] = sum(tails.values())
    return counts


@dataclass
class ConeFrontier:
    """All descendants of a word up to a length bound, grouped by length."""

    by_length: dict[int, set[Word]] = field(repr=False)

    @property
    def members(self) -> set[Word]:
        return set().union(*self.by_length.values())


def _cone(
    x: Word, max_len: int, budget: int, spent: count, run_free: bool = False
) -> Iterator[set[Word]]:
    # the cone of x by length, len(x)..max_len: each set is yielded once every
    # shorter word is expanded, and expanded on resume.  Each word made, x
    # included, counts on ``spent``, shared by the cones of one search.
    # ``run_free`` makes only the duplications of length 2 or 3 whose factor
    # does not end in its first symbol: a duplication puts the factor's last
    # symbol next to its first and keeps every other adjacent pair, so from a
    # word with no run ss these are the children with none
    next(spent)
    by_length: dict[int, set[Word]] = {len(x): {x}}
    for length in range(len(x), max_len + 1):
        words = by_length.pop(length, set())
        yield words
        for w in words:
            for k in range(1 + run_free, min(3, max_len - length) + 1):
                bucket = by_length.setdefault(length + k, set())
                for i in range(length - k + 1):
                    if w[i : i + k] == w[i + k : i + 2 * k]:
                        continue  # duplicating vv again lands on a shorter route's result anyway
                    if run_free and w[i + k - 1] == w[i]:
                        continue
                    child = w[: i + k] + w[i : i + k] + w[i + k :]
                    if child not in bucket:
                        if next(spent) >= budget:
                            raise ResourceBudgetError(
                                f"descendant cone of {_root_text(x)} exceeded {budget} states"
                            )
                        bucket.add(child)


def descendant_cone(x: Word, max_len: int, budget: int = 2_000_000) -> ConeFrontier:
    """Breadth-first closure of ``x`` under duplications of length <= 3.

    Raises :class:`ResourceBudgetError` once more than ``budget`` words
    have been generated; partial results are discarded.
    """
    check_word(x)
    if max_len < len(x):
        raise ValueError(f"max_len {max_len} below word length {len(x)}")
    cone = enumerate(_cone(x, max_len, budget, count()), len(x))
    return ConeFrontier({length: words for length, words in cone if words})


def oracle_confusable(
    x: Word,
    y: Word,
    max_len: int | None = None,
    budget: int = 2_000_000,
) -> Word | None:
    """Search both descendant cones for a common member.

    Returns the shortest common descendant with length at most ``max_len``
    (ties broken lexicographically), or ``None`` when the truncated cones
    are disjoint.  ``None`` is conclusive only up to the bound.  The
    default bound is the longer input plus sixteen.  ``budget`` bounds the
    words generated in both cones together, ``x`` and ``y`` included.
    """
    check_word(x)
    check_word(y)
    if max_len is None:
        max_len = max(len(x), len(y)) + 16
    if max_len < max(len(x), len(y)):
        raise ValueError(f"max_len {max_len} below longer input")
    # lockstep over lengths from the shorter input up, x's walk first; each
    # first set expands nothing, so both inputs count before any child
    spent = count()
    walks = []
    for v in (x, y):
        walk = _cone(v, max_len, budget, spent)
        walks.append(chain([set()] * (len(v) - min(len(x), len(y))), [next(walk)], walk))
    for words_x, words_y in zip(*walks):
        common = words_x & words_y
        if common:
            return min(common)
    return None


def enumerate_labels(r: Word, n: int, budget: int = 2_000_000) -> set[Label]:
    """Labels of all length-``n`` descendants of the irreducible word ``r``.

    The search walks only the run-free words of the cone, those with no
    run ``ss``, and derives every other label from theirs.  ``budget``
    bounds the run-free words generated, ``r`` included.  By
    ``labels_by_root`` (points 1-4) the labels wanted are those of the
    words ``w`` with root ``r``, no run of three and length at most ``n``
    that have length ``n`` or hold a run ``ss``; a word descends from
    ``r`` exactly when its root is ``r``.

    A. Such a ``w`` is one run-free word ``y``, its run-collapse, with a
       set ``P`` of its positions doubled: ``y^P``, of length ``len(y) +
       |P|``.  ``y`` is unique and has root ``r`` (collapsing is length-1
       deduplications); conversely every run-free ``y`` with root ``r``
       and every ``P`` make such a word.
    B. Every run-free ``y`` with root ``r`` and length at most ``n`` is
       reached by the ``run_free`` walk of ``_cone``.  ``normalize_trace``
       turns a duplication path from ``r`` to ``y`` into one of
       nonincreasing step lengths whose steps of length 2 and 3 copy
       pairwise-distinct symbols.  A duplication keeps every adjacent pair
       of its input, so runs never disappear: the path has no length-1
       step, and each word on it is run-free and no longer than ``y``.
    C. ``label(y^P)`` has the root and counts of ``label(y)``, and region
       i's sign is "+" exactly when some literal rotation of its triple in
       y's window has its middle symbol outside ``P``.  The depth tables
       and windows of the two words correspond (``_cap_runs``, points 2-3,
       with runs collapsed to one symbol), each match of ``a b+ c`` in a
       window of ``y^P`` is one ``abc`` in y's (``count_occurrences``),
       and a literal triple of ``y^P`` is one of ``y`` whose middle is not
       doubled: doubling a symbol makes no distinct triple.  Write ``M_i``
       for those middles in y's window.  A window ends in ``a b`` and the
       next starts at that ``a``, so the ``M_i`` are disjoint.
    D. So a ``y`` of length ``n`` gives its own label, and one with slack
       ``h = n - len(y) > 0`` gives its label with the signs of a kill set
       ``K`` turned to "-", for every set ``K`` of regions with nonempty
       ``M_i`` and ``sum(|M_i| for i in K) <= h``.  Doubling the union of
       those ``M_i`` realises ``K``, or doubling position 0 (never a
       middle) when ``K`` is empty; either word holds ``ss``.  Conversely
       the kill set of ``y^P``, the regions whose nonempty ``M_i`` lies in
       ``P``, has ``sum(|M_i|) <= |P| <= h``.  A position is the middle of
       one triple at most, so ``|M_i|`` is the entry's count (``y`` has no
       ``abbc``) plus two more ``bytes.count`` calls over ``_peel``'s
       window, one per other rotation.  Kill sets are enumerated once per
       distinct (regions, slack).
    """
    _check_root(r)
    if n < len(r):
        raise ValueError(f"target length {n} below root length {len(r)}")
    plan = _region_plan(r)
    shapes = {
        (
            tuple(
                (entry, entry[0] + y.count(rot1, start, end) + y.count(rot2, start, end))
                for (entry, start, end), (*_, rot1, rot2, _) in zip(
                    _peel(y, plan, root_le3_depths(y)[1]), plan
                )
            ),
            n - len(y),
        )
        for words in _cone(r, n, budget, count(), run_free=True)
        for y in words
    }
    entries = set()
    for regions, slack in shapes:
        kills = [((), slack)]
        for (c, sign), size in regions:
            kills = [(e + ((c, sign),), h) for e, h in kills] + [
                (e + ((c, "-"),), h - size) for e, h in kills if 0 < size <= h
            ]
        entries.update(e for e, _ in kills)
    return {Label(r, e) for e in entries}


def _labelled(length: int, n: int, tail: Word, pair: bool) -> bool:
    # whether the label sweep (optimal.labels_by_root) labels a word w with
    # no run of three, length at most n, last symbols tail (two at least,
    # when w has them) and pair telling whether w[:-1] holds a run ss: w
    # has length n or holds a run ss (it is the cap of a length-n word),
    # and it is not u + ss with ss in u (the tail rule).  With no run of
    # three, w ends in ss and u holds ss exactly when w ends in ss and
    # w[:-1] holds ss.  Such a word w = u + s + s has the label of u + s,
    # which holds ss, does not end in ss, and is a shorter word the sweep
    # labels already.  Appending s to a word x ending in s keeps its
    # label:
    # 1. In both words every run is capped the same way but the last, and
    #    the cap of x + s is that of x or that plus one s.
    # 2. The root stack's top is the symbol last read (roots._stack), so
    #    it skips the extra s: the root is the same, and of the depth
    #    table only the entry of the final depth moves, by one.
    # 3. Region end depths increase, so only the last region can end at
    #    that depth, and only its prefix grows, by the extra s.  No abc,
    #    abbc or rotation of a distinct triple ends at it: their last two
    #    symbols differ, and the grown prefix ends in ss.  So every count
    #    and sign stays the same.
    ends_in_pair = len(tail) >= 2 and tail[-1] == tail[-2]
    return (length == n or pair or ends_in_pair) and not (pair and ends_in_pair)


def canonical_form(x: Word, q: int = 3) -> tuple[Word, int]:
    """Relabel symbols by first occurrence; also return the orbit size.

    The orbit size is the number of distinct words obtainable from ``x``
    by injective relabelings into an alphabet of ``q`` symbols.
    """
    seen = bytes(dict.fromkeys(x))
    d = len(seen)
    if d > q:
        raise ValueError(f"word uses {d} symbols, alphabet has {q}")
    return x.translate(bytes.maketrans(seen, bytes(range(d)))), perm(q, d)
