"""Ground-truth machinery: enumerations, descendant cones and brute-force
confusability, plus the label route over a root's run-capped cone.

The enumerations, ``descendant_cone`` and ``oracle_confusable`` are brute
force and never call the region-peeling decision, so they can serve as an
oracle for it.  ``enumerate_labels`` is not: it walks the run-capped part
of a root's cone and peels the words it keeps with the root's region plan.
Cone searches are bounded and budgeted: a found witness is conclusive, an
empty intersection is only conclusive up to the explored length.
"""

from __future__ import annotations

import re
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
    x: Word, max_len: int, budget: int, spent: count, capped: bool = False
) -> Iterator[set[Word]]:
    # the cone of x by length, len(x)..max_len: each set is yielded once every
    # shorter word is expanded, and expanded on resume.  Each word made, x
    # included, counts on ``spent``, shared by the cones of one search.
    # ``capped`` refuses the duplications that leave a run of three in a word
    # with none: of length 1 or 2, the factor ending in a symbol equal to its
    # left neighbour (s after s, or ss)
    next(spent)
    by_length: dict[int, set[Word]] = {len(x): {x}}
    for length in range(len(x), max_len + 1):
        words = by_length.pop(length, set())
        yield words
        for w in words:
            for k in range(1, min(3, max_len - length) + 1):
                bucket = by_length.setdefault(length + k, set())
                for i in range(length - k + 1):
                    if w[i : i + k] == w[i + k : i + 2 * k]:
                        continue  # duplicating vv again lands on a shorter route's result anyway
                    if capped and k < 3 and i + k >= 2 and w[i + k - 2] == w[i + k - 1]:
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

    The search walks only the run-capped part of the cone: the words with
    root ``r``, length at most ``n`` and no run of three symbols.  It
    refuses every duplication that leaves a run of three, which are a
    length-1 duplication of a symbol next to an equal one and a length-2
    duplication of ``ss``; a length-3 duplication of a word with no run of
    three leaves none.  ``budget`` bounds the run-capped words generated,
    ``r`` included.  Every run-capped member is reached, by induction
    over a duplication path from ``r``: if ``w'`` is ``w`` with one
    duplication, ``_cap_runs(w')`` is ``_cap_runs(w)`` or the cap of that
    word with one duplication of the same length.  A duplication inside a
    run only lengthens the run, which leaves the cap unchanged; any other
    duplication copies a factor that keeps its symbols in the capped word,
    and duplicating it there gives a word with the cap of ``w'``.  That
    word is a child the search keeps, its own cap, or one it refuses,
    which caps back to its parent.

    ``compute_label`` labels the cap of a word (``labels_by_root``, point
    1), so the labels of the length-``n`` members are those of their caps:
    the run-capped members of length ``n``, and the shorter ones holding
    ``ss``, each the cap of the word that pumps that run to length ``n``.
    ``_labelled`` picks these out and skips the ones the tail rule shows
    to repeat the label of a shorter one.  Those words are run-capped with
    root ``r``, so each is peeled with one region plan of ``r``, as
    ``compute_label`` would peel it.  ``descendant_cone`` remains the
    brute-force search over every member.
    """
    _check_root(r)
    if n < len(r):
        raise ValueError(f"target length {n} below root length {len(r)}")
    plan = _region_plan(r)
    entries = {
        tuple(entry for entry, _, _ in _peel(w, plan, root_le3_depths(w)[1]))
        for words in _cone(r, n, budget, count(), capped=True)
        for w in words
        if _labelled(len(w), n, w[-2:], _PAIR.search(w, 0, len(w) - 1) is not None)
    }
    return {Label(r, e) for e in entries}


_PAIR = re.compile(rb"(.)\1", re.DOTALL)


def _labelled(length: int, n: int, tail: Word, pair: bool) -> bool:
    # whether a label route labels a word w with no run of three, length
    # at most n, last symbols tail (two at least, when w has them) and
    # pair telling whether w[:-1] holds a run ss: w has length n or holds
    # a run ss (it is the cap of a length-n word), and it is not u + ss
    # with ss in u (the tail rule).  With no run of three, w ends in ss
    # and u holds ss exactly when w ends in ss and w[:-1] holds ss.
    # Such a word w = u + s + s has the label of u + s, which holds ss,
    # does not end in ss, and is a shorter member of the same route, so
    # labelled already.  Appending s to a word x ending in s keeps its
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
