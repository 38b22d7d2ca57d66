"""Deciding confusability under tandem duplications of length at most three.

Two words are confusable when their descendant cones intersect.  For
duplications of length at most three, equal roots are necessary but not
sufficient; the decision peels the shared root region by region.  Each
round parses the leading region of the running root, finds the longest
prefix of each word generated from that region, compares how often the
region's distinct triple occurs, and recurses on the remainders.  The
per-region counts and retained-triple signs form a word's label, and two
labels decide confusability of the underlying words directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .words import (
    Word,
    _parse_root,
    _narrow,
    _root_text,
    _squeeze,
    check_word,
    tandem_duplicate,
)
from .roots import root_le3_depths

__all__ = [
    "NoRegionError",
    "MalformedWordError",
    "RegionDescriptor",
    "main_and_region",
    "extended_prefix",
    "cut_prefix",
    "count_occurrences",
    "confusable",
    "Label",
    "compute_label",
    "labels_confusable",
    "confusable_by_labels",
    "count_regions",
    "DuplicationTrace",
    "normalize_trace",
]


class NoRegionError(ValueError):
    """The word has fewer than three distinct symbols among its first four."""


class MalformedWordError(ValueError):
    """No prefix of the word is generated from the requested region."""


@dataclass(frozen=True)
class RegionDescriptor:
    """The parse of a root's first region.

    ``reg`` is a prefix of the root and factors exactly as
    ``w + abc*ell + abc[:2]`` with ``a``, ``b``, ``c`` pairwise distinct,
    ``ell`` in {0, 1} and ``w`` a prefix of length at most three over
    {a, b, c}.  ``main`` is the first factor of the root with three
    distinct symbols and is always a rotation of ``abc``.
    """

    main: Word
    reg: Word
    w: Word
    abc: Word
    ell: int


def main_and_region(r: Word) -> RegionDescriptor:
    """Parse the first region of an irreducible word ``r``.

    Missing positions compare as "different", so short roots fall into the
    shorter region shapes.  Raises :class:`NoRegionError` when the first
    four positions carry fewer than three distinct symbols.
    """
    for _, desc in _regions(r):
        return desc
    raise NoRegionError(f"no region: fewer than 3 distinct symbols start {_root_text(r)}")


def extended_prefix(desc: RegionDescriptor, x: Word) -> Word:
    """Longest prefix of ``x`` generated from ``desc.reg`` by duplications.

    A prefix is generated from the region exactly when its root equals the
    region (the region is irreducible and roots are unique), so the scan
    streams the root of each prefix and keeps the last position where the
    stack equals the region.  Matches can recur arbitrarily late, so the
    scan covers the whole word.  The decision finds the same prefix by a
    lookup in the depth table of its single root pass (see ``_peel``);
    this scan is the reference it is tested against.
    """
    reg = desc.reg
    d = len(reg)
    st = bytearray()
    append = st.append
    best = 0
    for idx in range(len(x)):
        s = x[idx]
        n = len(st)
        if n and st[-1] == s:
            pass
        elif n >= 3 and st[-2] == s and st[-3] == st[-1]:
            del st[-1:]
            n -= 1
        elif n >= 5 and st[-3] == s and st[-4] == st[-1] and st[-5] == st[-2]:
            del st[-2:]
            n -= 2
        else:
            append(s)
            n += 1
        if n == d and st == reg:
            best = idx + 1
    if best == 0:
        raise MalformedWordError(
            f"no prefix of {_root_text(x)} is generated from region {_root_text(reg)}"
        )
    return x[:best]


def cut_prefix(r: Word, x: Word) -> Word:
    """The generated prefix of ``x``, truncated before its last ``a`` symbol."""
    desc = main_and_region(r)
    p = extended_prefix(desc, x)
    return p[: p.rfind(desc.abc[0])]


def count_occurrences(t: Word, x: Word) -> int:
    """Count occurrences of the distinct triple ``t`` in the le-2 root of ``x``.

    The count needs no root pass.  In a word with no runs ``ss``, deleting
    a square ``stst -> st`` keeps the word free of runs (the kept ``st``
    keeps its left neighbour, and its new right neighbour already followed
    a ``t``) and removes exactly the factors ``sts`` and ``tst`` from the
    multiset of length-3 factors.
    The le-2 root is unique, so it is the run-collapse of ``x`` followed by
    such deletions, and a triple of pairwise-distinct symbols occurs in it
    as often as in the run-collapse.  There each occurrence ``abc`` is the
    last ``a`` of a run, a whole ``b`` run and the first ``c`` of a run of
    ``x``: one match of ``a b+ c``, and matches start at distinct ``a``s.
    Capping every run at two symbols (``_cap_runs``) keeps each match and
    turns its ``b`` run into ``b`` or ``bb``, so the count is that of
    ``abc`` plus that of ``abbc`` in the capped word.  Neither overlaps
    itself, so ``bytes.count`` meets each occurrence once.
    """
    if len(t) != 3 or len(set(t)) != 3:
        raise ValueError(f"pattern must be three pairwise-distinct symbols, got {_root_text(t)}")
    p = _cap_runs(x)
    return p.count(t) + p.count(t[:2] + t[1:])


# a run of three or more equal symbols
_LONG_RUN = re.compile(rb"(.)\1\1+", re.S)


def _cap_runs(x: Word) -> Word:
    # x with every run s^k (k >= 3) cut to ss; x itself when nothing is cut.
    # On words whose symbols are all below 16, words._squeeze deletes each
    # symbol equal to the two before it with one packed translate; on
    # others one regex substitution cuts the runs (re.S, so that byte 10
    # is a symbol like any other).
    #
    # Capping leaves the decision's outputs unchanged:
    # 1. Cutting s^k to ss is k - 2 length-1 deduplications, so the le-3
    #    root of the capped word is the root r of x.
    # 2. The root stack skips every symbol equal to its top (roots._stack),
    #    so it is in the same state after each run's first symbol in both
    #    words, and only those symbols or the end of the word change the
    #    depth.  The depth tables therefore correspond through the
    #    monotone map sending the start of each run of x to the start of
    #    that run in the capped word, and the end of x to the end of the
    #    capped word.
    # 3. Each region prefix x[start:end] of _peel ends at a run start or at
    #    the end of x (last[d] is one of those), and each round starts at
    #    the last symbol of an a run, where the capped word starts at the
    #    last symbol of the same run; so the region prefixes of the capped
    #    word are exactly the capped region prefixes.
    # 4. Capping keeps every match of a b+ c (count_occurrences), and a
    #    literal rotation of the region's triple survives it, since a run
    #    of one symbol stays one symbol and longer runs stay runs; capping
    #    creates no new one for the same reason.  So each region's count
    #    and sign are unchanged.
    n = len(x)
    if n < 3:
        return x
    c = _squeeze(x, 3) if _narrow(x) else _LONG_RUN.sub(rb"\1\1", x)
    return x if len(c) == n else c


def _parses(r: Word) -> Iterator[tuple[int, Word, int, int, Word]]:
    # (offset, main, len(reg), len(w), abc) for the first region of r and
    # of every suffix left after peeling it (RegionDescriptor), offset
    # counting the symbols peeled so far.  Peeling stops at a suffix whose
    # first four symbols hold fewer than three distinct ones; an
    # irreducible word of length >= 4 always has three.  Each parse reads
    # at most six symbols, and reg is w + abc*ell + abc[:2], so ell follows
    # from the two lengths.
    offset = 0
    while True:
        s = r[offset : offset + 6]
        if len(set(s[:4])) < 3:
            return
        n = len(s)
        if s[0] == s[2]:
            main = s[1:4]
            if n < 5 or s[1] != s[4]:
                m, k, abc = 4, 2, bytes((s[0], s[3], s[1]))
            elif n < 6 or s[2] != s[5]:
                m, k, abc = 5, 3, bytes((s[3], s[1], s[0]))
            else:
                m, k, abc = 6, 1, bytes((s[1], s[0], s[3]))
        else:
            main = s[:3]
            if n < 4 or s[0] != s[3]:
                m, k, abc = 3, 1, bytes((s[1], s[2], s[0]))
            elif n < 5 or s[1] != s[4]:
                m, k, abc = 4, 2, bytes((s[2], s[0], s[1]))
            else:
                m, k, abc = 5, 0, main
        yield offset, main, m, k, abc
        offset += m - 2


def _regions(r: Word) -> Iterator[tuple[int, RegionDescriptor]]:
    # (offset, descriptor) per region of r, as _parses finds them
    for offset, main, m, k, abc in _parses(r):
        reg = r[offset : offset + m]
        yield offset, RegionDescriptor(main, reg, reg[:k], abc, (m - k - 2) // 3)


_Plan = tuple[tuple[int, Word, Word, Word, Word, int], ...]


def _region_plan(r: Word) -> _Plan:
    # (end depth, main, main with its middle symbol doubled, the two other
    # rotations of main, a) per region of the root r, as _parses finds
    # them; the end depth is offset + len(reg) (see _peel)
    return tuple(
        (offset + m, main, main[:2] + main[1:], main[1:] + main[:1], main[2:] + main[:2], abc[0])
        for offset, main, m, _, abc in _parses(r)
    )


def _peel(
    x: Word, plan: _Plan, last: list[int], start: int = 0
) -> Iterator[tuple[tuple[int, str], int, int]]:
    # ((count, sign), start, end) per region of the root r of a word x
    # whose runs have at most two symbols (_cap_runs), where plan is
    # _region_plan(r) and last is the depth table of x (roots.root_le3_depths).
    # A tail of the plan with the start of its first region peels the
    # rest of the word, as the rounds before it would.
    # x[start:end] is the longest prefix of x[start:] generated from the
    # region, and the next round starts at the last a of it.  With T =
    # r[:offset] the part of the root that earlier rounds peeled off (each
    # region minus its last two symbols), the round ends at
    # last[len(T) + len(reg)].
    #
    # Write S(j) for the stack after x[:j] and D(j) for its depth.
    # Round 1 (T empty, d = len(reg)): pushes add one symbol and the final
    # depth is len(r) >= d, so after j1 = last[d] the depth never returns
    # to d and never drops below it; the bottom d symbols of the stack are
    # then fixed and equal r[:d] = reg.  Hence root(x[:j1]) = reg and no
    # longer prefix has root reg.
    # Later rounds: after reading s then t != s the stack ends in st, so
    # as S(j1) = T + ab (now T = r[:d - 2]), x[:j1] ends in a b^m; the next
    # round starts at i = j1 - m - 1, and root(x[i:j1]) = ab.  For j >= j1
    # the stack S'(j - i) of x[i:] then stays on top of T: S(j) = T +
    # S'(j - i).  Both stacks see the same top symbols; the stack of x
    # looks below S' only while len(S') < 5, and any removal it found there
    # would leave D(j + 1) <= len(T) + 2 = d, which cannot happen after j1.
    # So root(x[i:]) = r[len(T):], and from j1 on, where len(S') = 2, the
    # depths of x are those of x[i:] plus len(T).  The next region has at
    # least three symbols, so the last visits to its depth in x and in
    # x[i:] both fall after j1 and coincide; round 1 applied to x[i:] gives
    # the round's end as last[len(T) + len(reg)], and by induction so on
    # for every round.
    #
    # Each round reads x[start:end] in place: two counts (abc and abbc,
    # see count_occurrences), a search for the other two rotations only
    # when main itself does not occur, and a backward search for the last
    # a, which the prefix always holds (it ends in a b^m, see above).
    for depth, main, main_bb, rot1, rot2, a in plan:
        end = last[depth]
        literal = x.count(main, start, end)
        count = literal + x.count(main_bb, start, end)
        plus = literal or x.find(rot1, start, end) >= 0 or x.find(rot2, start, end) >= 0
        yield (count, "+" if plus else "-"), start, end
        start = x.rfind(a, start, end)


def _entry_confusable(ex: tuple[int, str], ey: tuple[int, str]) -> bool:
    # one region rules confusability out exactly when its count is strictly
    # smaller on the side whose sign is "-"
    (cx, sx), (cy, sy) = ex, ey
    return not (cx < cy and sx == "-" or cy < cx and sy == "-")


def confusable(x: Word, y: Word) -> bool:
    """True iff some word descends from both ``x`` and ``y`` by duplications of length <= 3.

    Each word's runs are capped at two symbols, then one root pass over
    each capped word and one peeling round per region of the shared root,
    each reading only the region's generated prefixes.  The shared root's
    region plan is built once for both words.
    """
    x = _cap_runs(check_word(x))
    y = _cap_runs(check_word(y))
    r, last_x = root_le3_depths(x)
    ry, last_y = root_le3_depths(y)
    if r != ry:
        return False
    plan = _region_plan(r)
    for (ex, _, _), (ey, _, _) in zip(_peel(x, plan, last_x), _peel(y, plan, last_y)):
        if not _entry_confusable(ex, ey):
            return False
    return True


@dataclass(frozen=True, order=True)
class Label:
    """Per-region fingerprint deciding confusability within one root's cone.

    ``entries[i]`` is ``(count, sign)`` for the i-th region: how often the
    region's distinct triple occurs in the le-2 root of the generated
    prefix, and "+" when some rotation of the triple survives in the
    prefix itself.
    """

    root: Word
    entries: tuple[tuple[int, str], ...]

    def text(self) -> str:
        return _root_text(self.root) + ":" + "".join(f"({c},{s})" for c, s in self.entries)

    @classmethod
    def parse(cls, text: str) -> "Label":
        # exactly what text() writes: every count positive, with no leading zero
        match = re.fullmatch(r"([^:]*):((?:\([1-9][0-9]*,[+-]\))*)", text)
        if match is None:
            raise ValueError(f"malformed label {text!r}")
        entries = re.findall(r"\(([0-9]+),([+-])\)", match[2])
        return cls(_parse_root(match[1]), tuple((int(c), s) for c, s in entries))


def compute_label(x: Word) -> Label:
    """Compute the label of ``x`` by peeling its root region by region."""
    x = _cap_runs(check_word(x))
    r, last = root_le3_depths(x)
    return Label(r, tuple(entry for entry, _, _ in _peel(x, _region_plan(r), last)))


def labels_confusable(lx: Label, ly: Label) -> bool:
    """Decide confusability of two words from their labels alone.

    Labels with different roots are never confusable.  With equal roots the
    words are *not* confusable exactly when some region has a strictly
    smaller count on the side whose sign is "-".
    """
    if lx.root != ly.root:
        return False
    if len(lx.entries) != len(ly.entries):
        raise ValueError("labels with equal roots must have the same number of regions")
    return all(_entry_confusable(ex, ey) for ex, ey in zip(lx.entries, ly.entries))


def confusable_by_labels(x: Word, y: Word) -> bool:
    """Label-route confusability; must agree with :func:`confusable` everywhere."""
    return labels_confusable(compute_label(x), compute_label(y))


def count_regions(r: Word) -> int:
    """Number of region-peeling rounds of an irreducible word ``r``."""
    return sum(1 for _ in _parses(r))


@dataclass(frozen=True)
class DuplicationTrace:
    """A start word with a sequence of ``(i, k)`` duplication steps."""

    start: Word
    steps: tuple[tuple[int, int], ...]

    def replay(self) -> Word:
        w = self.start
        for i, k in self.steps:
            w = tandem_duplicate(w, i, k)
        return w


def _expand_step(i: int, v: Word) -> list[tuple[int, int]]:
    # replace one duplication of a segment with repeated symbols by an
    # equivalent pair of strictly shorter duplications
    if len(v) == 2:
        return [(i, 1), (i, 1)]
    a, b, c = v
    if a == b == c:
        return [(i, 2), (i, 1)]
    if a == c:
        return [(i + 1, 2), (i + 2, 1)]
    if a == b:
        return [(i + 1, 2), (i + 3, 1)]
    return [(i, 2), (i + 1, 1)]  # b == c


def _swap_steps(i1: int, k1: int, i2: int, k2: int) -> list[tuple[int, int]]:
    # rewrite the ordered pair "(i1,k1) then (i2,k2)" with k1 < k2 into an
    # equivalent sequence whose length multiset is no larger and whose
    # longer duplication comes first; applied repeatedly this sorts the
    # trace by nonincreasing length
    if (k1, k2) == (1, 2):
        if i2 <= i1 - 1:
            return [(i2, 2), (i1 + 2, 1)]
        if i2 == i1:
            return [(i1, 1), (i1, 1), (i1, 1)]
        return [(i2 - 1, 2), (i1, 1)]
    if (k1, k2) == (1, 3):
        if i2 <= i1 - 2:
            return [(i2, 3), (i1 + 3, 1)]
        if i2 == i1 - 1:
            return [(i1 - 1, 2), (i1, 1), (i1 + 3, 1)]
        if i2 == i1:
            return [(i1, 2), (i1, 1), (i1 + 3, 1)]
        return [(i2 - 1, 3), (i1, 1)]
    if (k1, k2) == (2, 3):
        if i2 <= i1 - 1:
            return [(i2, 3), (i1 + 3, 2)]
        if i2 == i1:
            return [(i1, 2), (i1, 2), (i1 + 2, 1)]
        if i2 == i1 + 1:
            return [(i1, 2), (i1, 2), (i1 + 3, 1)]
        return [(i2 - 2, 3), (i1, 2)]
    raise AssertionError((k1, k2))


def normalize_trace(trace: DuplicationTrace) -> DuplicationTrace:
    """Rewrite a trace so step lengths are nonincreasing and every
    duplication of length two or three copies pairwise-distinct symbols.

    The rewritten trace starts at the same word and replays to the same
    final word.  Termination: expansions shrink the multiset of step
    lengths, swaps never grow it and remove an inversion.
    """
    check_word(trace.start)
    steps = list(trace.steps)
    trace.replay()  # validates every step
    guard = 0
    limit = 10_000 + 100 * (len(steps) + 1) * (len(trace.start) + 1)
    while True:
        guard += 1
        if guard > limit:
            raise RuntimeError("trace normalization did not converge")
        w = trace.start
        changed = False
        for j, (i, k) in enumerate(steps):
            v = w[i : i + k]
            if k >= 2 and len(set(v)) < k:
                steps[j : j + 1] = _expand_step(i, v)
                changed = True
                break
            w = tandem_duplicate(w, i, k)
        if changed:
            continue
        for j in range(len(steps) - 1):
            i1, k1 = steps[j]
            i2, k2 = steps[j + 1]
            if k1 < k2:
                steps[j : j + 2] = _swap_steps(i1, k1, i2, k2)
                changed = True
                break
        if not changed:
            break
    out = DuplicationTrace(trace.start, tuple(steps))
    if out.replay() != trace.replay():
        raise RuntimeError("trace normalization changed the final word")
    return out
