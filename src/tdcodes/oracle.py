"""Ground-truth machinery: enumerations, descendant cones and brute-force
confusability.

Everything here is deliberately independent of the region-peeling decision
procedure so it can serve as an oracle for it.  Cone searches are bounded
and budgeted: a found witness is conclusive, an empty intersection is only
conclusive up to the explored length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .words import Word, ResourceBudgetError, _root_text, check_word, is_irreducible
from .confusability import Label, compute_label

__all__ = [
    "enumerate_irreducible",
    "irreducible_counts",
    "ConeFrontier",
    "descendant_cone",
    "oracle_confusable",
    "enumerate_labels",
    "canonical_form",
]


def _extensions(prefix: bytearray, q: int, k: int) -> Iterator[int]:
    # symbols that keep the prefix free of duplicates vv with |v| <= k; only
    # duplicates ending at the new position need checking, and they reach
    # back at most 2k - 1 symbols.  k = 0 (the label sweep's walk over
    # run-capped words) refuses only a symbol equal to the last two, so
    # the prefix keeps no run of three symbols
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
    # yielded before its extensions once its length reaches n_min (>= 1);
    # ``canonical`` keeps only words whose symbols first occur in the order
    # 0, 1, 2, ..., one per relabeling orbit
    prefix = bytearray()

    def rec(used: int) -> Iterator[Word]:
        if len(prefix) >= n_min:
            yield bytes(prefix)
        if len(prefix) == n_max:
            return
        for s in _extensions(prefix, min(used + 1, q) if canonical else q, k):
            prefix.append(s)
            yield from rec(max(used, s + 1))
            del prefix[-1:]

    yield from rec(0)


def enumerate_irreducible(n: int, q: int = 3, k: int = 3) -> Iterator[Word]:
    """Yield the irreducible words of length exactly ``n`` over ``0..q-1``.

    Irreducible means no factor ``vv`` with ``|v| <= k``.  The DFS extends
    only duplicate-free prefixes, which is exhaustive because every factor
    of an irreducible word is irreducible.
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    if q < 2:
        raise ValueError(f"alphabet size must be at least 2, got {q}")
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1..3, got {k}")
    return _walk(n, n, q, k)


def irreducible_counts(n_max: int, q: int = 3, k: int = 3) -> list[int]:
    """Counts of irreducible words per length ``1..n_max`` (index 0 unused).

    Whether a symbol extends an irreducible word depends only on its last
    ``2k - 1`` symbols, so the count runs over those tails instead of
    over the words.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1..3, got {k}")
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
        out: set[Word] = set()
        for words in self.by_length.values():
            out |= words
        return out


def _expand_cone(
    origin: Word,
    by_length: dict[int, set[Word]],
    length: int,
    max_len: int,
    budget: int,
    total: int,
) -> int:
    words = by_length.get(length)
    if not words:
        return total
    for w in words:
        top = min(3, max_len - length)
        for k in range(1, top + 1):
            for i in range(length - k + 1):
                if w[i : i + k] == w[i + k : i + 2 * k]:
                    continue  # duplicating vv again lands on a shorter route's result anyway
                child = w[: i + k] + w[i : i + k] + w[i + k :]
                bucket = by_length.setdefault(length + k, set())
                if child not in bucket:
                    bucket.add(child)
                    total += 1
                    if total > budget:
                        raise ResourceBudgetError(
                            f"descendant cone of {_root_text(origin)} exceeded {budget} states"
                        )
    return total


def descendant_cone(x: Word, max_len: int, budget: int = 2_000_000) -> ConeFrontier:
    """Breadth-first closure of ``x`` under duplications of length <= 3.

    Raises :class:`ResourceBudgetError` once more than ``budget`` words
    have been generated; partial results are discarded.
    """
    check_word(x)
    if max_len < len(x):
        raise ValueError(f"max_len {max_len} below word length {len(x)}")
    by_length: dict[int, set[Word]] = {len(x): {x}}
    total = 1
    for length in range(len(x), max_len + 1):
        total = _expand_cone(x, by_length, length, max_len, budget, total)
    return ConeFrontier(by_length)


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
    default bound is the longer input plus sixteen.
    """
    check_word(x)
    check_word(y)
    if max_len is None:
        max_len = max(len(x), len(y)) + 16
    if max_len < max(len(x), len(y)):
        raise ValueError(f"max_len {max_len} below longer input")
    fx: dict[int, set[Word]] = {len(x): {x}}
    fy: dict[int, set[Word]] = {len(y): {y}}
    total = 2
    for length in range(min(len(x), len(y)), max_len + 1):
        if length in fx and length in fy:
            common = fx[length] & fy[length]
            if common:
                return min(common)
        total = _expand_cone(x, fx, length, max_len, budget, total)
        total = _expand_cone(y, fy, length, max_len, budget, total)
    return None


def enumerate_labels(r: Word, n: int, budget: int = 2_000_000) -> set[Label]:
    """Labels of all length-``n`` descendants of the irreducible word ``r``."""
    check_word(r)
    if not is_irreducible(r, 3):
        raise ValueError(f"{_root_text(r)} is not irreducible, so it is not a root")
    if n < len(r):
        raise ValueError(f"target length {n} below root length {len(r)}")
    return {compute_label(w) for w in descendant_cone(r, n, budget).by_length.get(n, ())}


def canonical_form(x: Word, q: int = 3) -> tuple[Word, int]:
    """Relabel symbols by first occurrence; also return the orbit size.

    The orbit size is the number of distinct words obtainable from ``x``
    by injective relabelings into an alphabet of ``q`` symbols.
    """
    mapping: dict[int, int] = {}
    out = bytearray()
    for s in x:
        t = mapping.get(s)
        if t is None:
            t = mapping[s] = len(mapping)
        out.append(t)
    d = len(mapping)
    if d > q:
        raise ValueError(f"word uses {d} symbols, alphabet has {q}")
    orbit = 1
    for j in range(d):
        orbit *= q - j
    return bytes(out), orbit
