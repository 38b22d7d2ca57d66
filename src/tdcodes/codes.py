"""Tandem-duplication code constructions and code validation.

A code is a set of equal-length words that are pairwise non-confusable
under duplications of length at most three.  Constructions here cover:
padded irreducible words, an optimal two-word code three symbols past any
root, the complete one-region family with its closed-form size, and a
recursive prefix construction that extends codes for shorter ternary roots.
The one-region families and the prefix options are pattern tables over
0, 1, 2, relabeled onto each root by one ``bytes.maketrans``.  Every
constructed code can be checked against the confusability decision.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, permutations
from math import perm

from .words import Word, _root_text, check_word, pad_tail
from .words import tandem_duplicate
from .confusability import Label, _regions, compute_label, labels_confusable, main_and_region
from .oracle import _check_alphabet, _walk, canonical_form, irreducible_counts
from .roots import _check_root

__all__ = [
    "Code",
    "UnsupportedRootError",
    "ONE_REGION_PATTERNS",
    "irreducible_code",
    "pair_code",
    "one_region_words",
    "one_region_size",
    "one_region_code",
    "recursive_size",
    "recursive_code",
    "validate_code",
    "find_confusable_pair",
    "assemble_lower_bound",
    "assemble_lower_bounds",
]


class UnsupportedRootError(ValueError):
    """The requested construction does not apply to this root."""


@dataclass(frozen=True)
class Code:
    n: int
    q: int
    words: frozenset[Word]
    provenance: str

    def __len__(self) -> int:
        return len(self.words)

    def sorted_words(self) -> list[Word]:
        return sorted(self.words)


def irreducible_code(n: int, k: int, q: int = 3) -> Code:
    """All irreducible words of length up to ``n``, tail-padded to ``n``.

    For duplications of length at most two this code is optimal; for at
    most three it is optimal only up to length five.
    """
    if k not in (2, 3):
        raise ValueError(f"k must be 2 or 3, got {k}")
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    _check_alphabet(q, k)
    words = frozenset(pad_tail(x, n - len(x)) for x in _walk(1, n, q, k))
    return Code(n, q, words, f"irreducible(k<={k})")


def pair_code(r: Word) -> Code:
    """An optimal two-word code of length ``len(r) + 3`` inside the cone of ``r``."""
    check_word(r)
    i = len(r)
    if i < 4:
        raise UnsupportedRootError(f"pair construction needs a root of length >= 4, got {i}")
    _check_root(r, UnsupportedRootError)
    # j is the offset of the first distinct triple: the first word
    # duplicates it, the second duplicates each of the three symbols after
    # its first (the last clipped to the root's end), right to left so that
    # each offset still indexes the root
    j = 1 if r[0] == r[2] else 0
    first = tandem_duplicate(r, j, 3)
    second = r
    for p in (min(j + 3, i - 1), j + 2, j + 1):
        second = tandem_duplicate(second, p, 1)
    q = max(r) + 1
    return Code(i + 3, max(q, 3), frozenset((first, second)), "pair")


# One-region roots, normalized so the distinct triple of the first region
# is 012; every one-region root is an injective relabeling of one of these.
# pattern -> (head of the minus-sign family, its tail, head of the plus-sign
# family, its tail); the families are head + "112200"*(l-1) + tail and
# head + "012"*l + tail respectively, and the patterns with a leading 1
# carry it on both heads
_X_BLOCK = bytes((1, 1, 2, 2, 0, 0))
_Z_BLOCK = bytes((0, 1, 2))
_ONE_REGION_TAILS = {
    "012": ("112", ""),
    "0120": ("11220", "0"),
    "01201": ("1122001", "01"),
    "0121": ("1121", "1"),
    "01202": ("112202", "02"),
    "012010": ("11220010", "010"),
}
_ONE_REGION_TABLE: dict[Word, tuple[Word, Word, Word, Word]] = {
    lead + bytes(map(int, base)): (
        lead + b"\x00", bytes(map(int, x_tail)), lead, bytes(map(int, z_tail))
    )
    for lead in (b"", b"\x01")
    for base, (x_tail, z_tail) in _ONE_REGION_TAILS.items()
}
ONE_REGION_PATTERNS: tuple[Word, ...] = tuple(_ONE_REGION_TABLE)


def one_region_words(pattern: Word, ell: int) -> tuple[Word, Word]:
    """The ``ell``-th members of the two one-region families for ``pattern``."""
    if ell < 1:
        raise ValueError(f"family index must be >= 1, got {ell}")
    entry = _ONE_REGION_TABLE.get(pattern)
    if entry is None:
        raise UnsupportedRootError(f"{_root_text(pattern)} is not a normalized one-region root")
    x_head, x_tail, z_head, z_tail = entry
    x_word = x_head + _X_BLOCK * (ell - 1) + x_tail
    z_word = z_head + _Z_BLOCK * ell + z_tail
    return x_word, z_word


def _one_region_base(r: Word) -> tuple[Word, bytes]:
    # the 012 pattern of a one-region root and the table relabeling it onto
    # r; the round trip must give r back, since a symbol outside the leading
    # triple (the 0 of 5790) translates to itself on the way to the pattern
    t = main_and_region(r).main
    base = r.translate(bytes.maketrans(t, b"\0\1\2"))
    table = bytes.maketrans(b"\0\1\2", t)
    if base not in _ONE_REGION_TABLE or base.translate(table) != r:
        raise UnsupportedRootError(f"{_root_text(r)} is not a one-region root")
    return base, table


def one_region_size(r: Word, n: int) -> int:
    """Closed-form optimal code size for a one-region root ``r`` at length ``n``."""
    base, _ = _one_region_base(r)
    if n < len(r):
        return 0
    if n < len(r) + 3:
        return 1
    # x_1 fits from len(r) + 3 on, and one more x_l fits every six symbols
    return (n - len(one_region_words(base, 1)[0])) // 6 + 2


def one_region_code(r: Word, n: int) -> Code:
    """The optimal code for a one-region root ``r`` at length ``n``: the padded
    root below ``len(r) + 3``, from there on x_1, ..., x_L and one z word."""
    check_word(r)
    if n < len(r):
        raise ValueError(f"target length {n} below root length {len(r)}")
    base, table = _one_region_base(r)
    words = {r}
    if n >= len(r) + 3:
        words = {one_region_words(base, ell)[0] for ell in range(1, one_region_size(r, n))}
        words.add(one_region_words(base, (n - len(r)) // 3 + 1)[1])
        words = {x.translate(table) for x in words}
    q = max(3, max(r) + 1)
    return Code(n, q, frozenset(pad_tail(x, n - len(x)) for x in words), "one-region")


# The paper's prefix options for a root with two or more regions, keyed by
# the canonical first region main_and_region parses and written over 0, 1, 2
# for the root's first three symbols; the three aba... regions share one
# case.  Per case: (symbols cut from the root, options), each option being
# (length dropped from the code, prefixes put in front of each word of the
# code for the cut root at the shorter length).  Every prefix of an option
# is as long as the length it drops.
_PREFIX_CASES: dict[Word, tuple[int, tuple[tuple[int, tuple[Word, ...]], ...]]] = {
    bytes(map(int, reg)): (
        cut,
        tuple((len(group[0]), tuple(bytes(map(int, p)) for p in group)) for group in groups),
    )
    for regs, cut, groups in (
        (("0102", "01021", "010210"), 1, (("0",),)),
        (("012",), 1, (("0111", "0120"), ("01111111", "01122001", "01201201"))),
        (("0120",), 1, (("01112", "01201"), ("0112222222", "0112200112", "0120120122"))),
        (("01201",), 3, (("011220", "012012"), ("011220000000", "011220011220", "012012012000"))),
    )
    for reg in regs
}


# The first-occurrence relabeling of an irreducible word over 0, 1, 2 is fixed
# by its first two symbols, which differ (by its one symbol if it has one); the
# recursion relabels only such words: canonical roots, reversals, suffixes.
_CANON = {
    bytes(p[:m]): bytes.maketrans(bytes(p), b"\0\1\2")
    for p in permutations(range(3))
    for m in (1, 2)
}


def _canon(x: Word) -> Word:
    return x.translate(_CANON[x[:2]])


def _size_table(n_max: int, cache=None):
    # (row, shape) over canonical words.  row(rr): the best known code sizes
    # for rr at lengths 0..n_max, by the prefix recursion over the padded
    # baseline, with closed forms below two regions and each size-cache hit
    # overriding its cell.  A row depends only on rr's length, its parse
    # (fixed by which positions of rr hold equal symbols), its tail's row
    # and its cache hits (keyed by canonical root), so words are looked up
    # by canonical form and equal keys share one row; below two regions
    # the key holds the word, whose closed form the row is.
    shared: dict[tuple, tuple[int, ...]] = {}
    shapes: dict[Word, tuple[int, tuple]] = {}

    def shape(rr: Word) -> tuple[int, tuple]:
        # (region count capped at two, the first region's _PREFIX_CASES
        # entry or (0, ()) below two regions), memoised by rr[:8]: _regions
        # decides the first region from rr[:4], parses rr[:6] and tests for
        # a second one on rr[off : off + 4] with off = len(reg) - 2 <= 4.
        got = shapes.get(rr[:8])
        if got is None:
            regions = tuple(islice(_regions(rr), 2))
            case = _PREFIX_CASES[regions[0][1].reg] if len(regions) == 2 else (0, ())
            got = shapes[rr[:8]] = (len(regions), case)
        return got

    @lru_cache(None)
    def row(rr: Word) -> tuple[int, ...]:
        m, (cut, options) = shape(rr)
        span = range(len(rr), n_max + 1)
        hits = {} if cache is None else {nn: h[0] for nn in span if (h := cache.get(rr, nn))}
        tail = row(_canon(rr[cut:])) if m == 2 else rr
        key = (len(rr), options, tail, tuple(hits.items()))
        got = shared.get(key)
        if got is None:
            sizes = [0] * len(rr)
            for nn in span:
                if nn in hits:
                    sizes.append(hits[nn])
                elif nn <= len(rr) + 2 or m == 0:
                    sizes.append(1)  # every closed form gives 1 this close to the root, too
                elif m == 1:
                    sizes.append(one_region_size(rr, nn))
                else:
                    best = (len(p) * tail[nn - d] for d, p in options if nn >= d)
                    sizes.append(max(2, sizes[-1], *best))
            got = shared[key] = tuple(sizes)
        return got

    return row, shape


def _sizes(row, r: Word, n: int) -> tuple[int, int]:
    # the sizes of r (over 0, 1, 2) and of its reversal at n, from rows that reach n
    return tuple(row(_canon(x))[n] if n >= len(x) else 0 for x in (r, r[::-1]))


def _check_ternary_root(r: Word) -> None:
    # _PREFIX_CASES is the paper's ternary construction; over four or more
    # symbols it can pair confusable words
    _check_root(r, UnsupportedRootError)
    if len(set(r)) > 3:
        raise UnsupportedRootError(
            f"{_root_text(r)} has more than three symbols; the recursion is ternary"
        )


def recursive_size(r: Word, n: int, cache=None) -> int:
    """Best known code size for a root ``r`` over three symbols at length ``n``.

    Preference order: cached exact search value, one-region closed form,
    prefix recursion, the two-word code, a padded singleton.  The reversed
    root is tried as well since reversing every word of a code preserves
    validity.  Every suffix the recursion reaches is looked up, in the
    cache and in one row table, by its canonical relabeling, so a cached
    value for any relabeling or reversal of a suffix root is used.
    """
    _check_ternary_root(r)
    return max(_sizes(_size_table(n, cache)[0], canonical_form(r)[0], n))


def _materialize(rr: Word, nn: int, row, shape) -> set[Word]:
    # the words behind row for rr (over 0, 1, 2) at length nn, read off the
    # parse shape of rr's canonical form (rr is a relabeling of it, so the
    # two share their region count and case)
    key = _canon(rr)
    target = row(key)[nn]
    if target <= 1:  # zero-region roots always land here
        return {pad_tail(rr, nn - len(rr))}
    m, (cut, options) = shape(key)
    if m == 1:
        return set(one_region_code(rr, nn).words)
    if target == 2:
        return {pad_tail(w, nn - len(w)) for w in pair_code(rr).words}
    relabel = bytes.maketrans(b"\0\1\2", rr[:3])
    tail = row(_canon(rr[cut:]))
    for drop, prefixes in options:
        if nn >= drop and len(prefixes) * tail[nn - drop] == target:
            inner = _materialize(rr[cut:], nn - drop, row, shape)
            return {p.translate(relabel) + w for p in prefixes for w in inner}
    # Unreachable.  With two or more regions and nn > len(rr) + 2, row[nn]
    # = max(2, row[nn - 1], options(nn)), each option being len(prefixes)
    # * tail[nn - drop].  Rows are nondecreasing, so the options are too,
    # and induction from row[len(rr) + 2] = 1 gives row[nn] = max(2,
    # options(nn)): a target above 2 always equals some option.
    raise RuntimeError(f"no construction of size {target} for {_root_text(rr)} at length {nn}")


def _recursive_words(r: Word, n: int, table) -> set[Word]:
    # the recursive construction for r (over 0, 1, 2) or for its reversal,
    # whichever is larger (r on ties); table is a _size_table reaching n
    # that must not read a size cache, whose sizes come without words
    size, rev_size = _sizes(table[0], r, n)
    if rev_size > size:
        return {x[::-1] for x in _materialize(r[::-1], n, *table)}
    return _materialize(r, n, *table)


def recursive_code(r: Word, n: int) -> Code:
    """Materialize the recursive construction behind :func:`recursive_size`.

    Exact search caches are never consulted here (witness words for cached
    values are not stored in this module), so with a cache supplied
    :func:`recursive_size` can report more than this code holds.
    """
    _check_ternary_root(r)
    if n < len(r):
        raise ValueError(f"target length {n} below root length {len(r)}")
    canon = canonical_form(r)[0]  # the code is built over 0, 1, 2 and mapped back
    back = bytes.maketrans(canon, r)
    words = {x.translate(back) for x in _recursive_words(canon, n, _size_table(n))}
    return Code(n, max(3, max(r) + 1), frozenset(words), "recursive")


def find_confusable_pair(code: Code) -> tuple[Word, Word] | None:
    """First confusable pair of distinct words in ``code``, or ``None``.

    Each word is labelled once; pairs with equal roots are decided from
    their labels in sorted word order, the order of a pairwise search.
    """
    groups: dict[Word, list[tuple[Word, Label]]] = {}
    for w in code.sorted_words():
        label = compute_label(w)
        groups.setdefault(label.root, []).append((w, label))
    for group in groups.values():
        for i, (x, lx) in enumerate(group):
            for y, ly in group[i + 1 :]:
                if labels_confusable(lx, ly):
                    return x, y
    return None


def validate_code(code: Code) -> bool:
    """True iff no two words of ``code`` are confusable, labelling each word once."""
    for w in code.words:
        check_word(w, code.q)
        if len(w) != code.n:
            raise ValueError(f"word {_root_text(w)} does not have code length {code.n}")
    return find_confusable_pair(code) is None


def _iter_canonical_irreducible(n_max: int):
    # canonical (first-occurrence relabeled) irreducible ternary words of
    # every length up to n_max
    return _walk(1, n_max, 3, 3, canonical=True)


def assemble_lower_bounds(targets, cache=None) -> dict[int, int]:
    """Assembled lower bounds on optimal ternary code sizes.

    For each target length, sums the best available per-root code size
    over all roots that fit, working on canonical roots scaled by orbit
    size.  One enumeration pass and one size table, keyed by canonical
    word, serve every target, root, suffix and reversal; roots of one
    length whose rows and reversed rows agree are summed once.
    """
    targets = sorted(set(targets))
    if not targets or targets[0] < 1:
        raise ValueError("lengths must be positive")
    row, _ = _size_table(targets[-1], cache)
    # Within two symbols of the root every region count stays 1, so all its
    # labels are confusable and both the recursive and the exact value are
    # 1: each root of length t - 2, t - 1 or t adds its orbit to target t,
    # and the orbits of the canonical roots of length L add up to the
    # irreducible ternary words of that length
    counts = irreducible_counts(targets[-1])
    totals = {t: sum(counts[max(t - 2, 0) : t + 1]) for t in targets}
    # only roots three or more symbols below a target add more there; a
    # canonical root's symbols are 0 .. max(root)
    roots = Counter(
        (len(root), max(root), row(root), row(_canon(root[::-1])))
        for root in _iter_canonical_irreducible(targets[-1] - 3)
    )
    for (length, top, fwd, rev), count in roots.items():
        for t in targets[bisect_right(targets, length + 2) :]:
            totals[t] += count * perm(3, top + 1) * max(fwd[t], rev[t])
    return totals


def assemble_lower_bound(n: int) -> Code:
    """The code behind the assembled lower bound at length ``n``.

    Its size is ``assemble_lower_bounds([n])[n]`` with no size cache: the
    cache's sizes come without words, so it plays no part here.
    """
    if n < 1:
        raise ValueError("lengths must be positive")
    table = _size_table(n)
    words: set[Word] = set()
    for root in _iter_canonical_irreducible(n):
        best = _recursive_words(root, n, table)
        d = len(set(root))
        for image in permutations(b"\0\1\2", d):
            relabel = bytes.maketrans(bytes(range(d)), bytes(image))
            words |= {x.translate(relabel) for x in best}
    return Code(n, 3, frozenset(words), "assembled")
