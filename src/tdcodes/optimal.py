"""Exact optimal code sizes via maximum cliques on label graphs.

Within one root's cone, a code corresponds to a set of pairwise
non-confusable labels, so the optimal size is the maximum clique of the
graph whose vertices are the labels of length-n descendants and whose
edges join non-confusable pairs.  Label sets stay small even where the
cones are huge, which keeps the exact search cheap.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations, permutations
from typing import Callable, Iterable, Iterator

from .words import Word, _parse_root, _root_text
from .roots import _check_root, _stack
from .confusability import Label, _region_plan, count_regions, labels_confusable
from .oracle import _extensions, _labelled, enumerate_labels, canonical_form

__all__ = [
    "LabelGraph",
    "graph_from_labels",
    "max_clique",
    "SizeCache",
    "labels_by_root",
    "optimal_size_for_root",
    "optimal_size",
]

@dataclass(frozen=True)
class LabelGraph:
    vertices: tuple[Label, ...]
    adjacency: tuple[int, ...]  # bitmask per vertex, no self loops


def graph_from_labels(labels: Iterable[Label]) -> LabelGraph:
    """The graph joining non-confusable labels, numbered for the clique search.

    Vertices come in nonincreasing-degree order, label order on ties.
    """
    ordered = sorted(set(labels))
    nbrs: list[set[int]] = [set() for _ in ordered]
    for (i, li), (j, lj) in combinations(enumerate(ordered), 2):  # the relation is symmetric
        if not labels_confusable(li, lj):
            nbrs[i].add(j)
            nbrs[j].add(i)
    order = sorted(range(len(ordered)), key=lambda v: -len(nbrs[v]))
    adjacency = tuple(sum(1 << p for p, u in enumerate(order) if u in nbrs[v]) for v in order)
    return LabelGraph(tuple(ordered[v] for v in order), adjacency)


def _max_clique_masks(adj: tuple[int, ...]) -> tuple[int, int]:
    # branch and bound over the vertices in the order given, high degrees first
    best_size = 0
    best_mask = 0

    def expand(current: int, size: int, cand: int) -> None:
        nonlocal best_size, best_mask
        # greedy coloring of the candidates gives per-vertex bounds
        colored: list[tuple[int, int]] = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                colored.append((v, color))
                rest ^= low
                avail &= ~(adj[v] | low)
        for v, bound in reversed(colored):
            if size + bound <= best_size:
                return
            bit = 1 << v
            new_size = size + 1
            new_cand = cand & adj[v]
            if new_size > best_size:
                best_size = new_size
                best_mask = current | bit
            if new_cand:
                expand(current | bit, new_size, new_cand)
            cand &= ~bit

    expand(0, 0, (1 << len(adj)) - 1)
    return best_size, best_mask


def max_clique(graph: LabelGraph) -> tuple[int, tuple[Label, ...]]:
    """Exact maximum clique size with a witness set of labels, in label order."""
    size, mask = _max_clique_masks(graph.adjacency)
    return size, tuple(sorted(label for v, label in enumerate(graph.vertices) if mask >> v & 1))


def _check_line(root: Word, n: int, size: int, witness: tuple[Label, ...]) -> None:
    # a cached size is trusted only for a root at a length it fits in, with
    # a witness code of that size: labels of the line's root with one entry
    # per region, pairwise non-confusable
    _check_root(root)
    regions = count_regions(root)
    if n < len(root):
        raise ValueError(f"target length {n} below root length {len(root)}")
    if len(witness) != size:
        raise ValueError(f"size {size} but {len(witness)} witness labels")
    for i, label in enumerate(witness):
        if label.root != root:
            raise ValueError(f"witness label {label.text()} is not of the line's root")
        if len(label.entries) != regions:
            raise ValueError(
                f"witness label {label.text()} has {len(label.entries)} entries,"
                f" not {regions}, one per region of its root"
            )
        for other in witness[:i]:
            if labels_confusable(label, other):
                raise ValueError(f"witness labels {other.text()} and {label.text()} are confusable")


class SizeCache:
    """Persistent store of exact per-root optimal sizes.

    Line format: ``canonical_root<TAB>n<TAB>size<TAB>witness-labels`` with
    the root written as in a label and the witness labels ";"-joined.  The
    file is append-only; on load the last entry for a key wins.  Every
    line's root must be irreducible and no longer than ``n``, and its
    witness must hold ``size`` labels of that root with one entry per
    region, pairwise non-confusable.  With no path the cache lives in
    memory only.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._mem: dict[tuple[Word, int], tuple[int, tuple[Label, ...]]] = {}
        if path and os.path.exists(path):
            self._load(path)

    def _load(self, path: str) -> None:
        # lines often repeat a root and its witness labels: each distinct
        # text is parsed once
        parse_root, parse_label = lru_cache(None)(_parse_root), lru_cache(None)(Label.parse)
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8").rstrip("\r\n")  # an empty witness field ends the line
                    if not line.strip() or line.startswith("#"):
                        continue
                    root_text, n_text, size_text, witness_text = line.split("\t")
                    root = parse_root(root_text)
                    witness = tuple(
                        parse_label(piece) for piece in witness_text.split(";") if piece
                    )
                    n, size = int(n_text), int(size_text)
                    if [str(n), str(size)] != [n_text, size_text]:
                        raise ValueError(f"malformed length or size {n_text!r}, {size_text!r}")
                    _check_line(root, n, size, witness)
                    self._mem[(root, n)] = (size, witness)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: malformed size-cache line: {exc}") from exc

    def get(self, root: Word, n: int):
        return self._mem.get((root, n))

    def put(self, root: Word, n: int, size: int, witness: tuple[Label, ...]) -> None:
        _check_line(root, n, size, witness)
        self._mem[(root, n)] = (size, witness)
        if self.path:
            line = "\t".join(
                (
                    _root_text(root),
                    str(n),
                    str(size),
                    ";".join(label.text() for label in witness),
                )
            )
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")

    def __len__(self) -> int:
        return len(self._mem)


# The six distinct ternary triples, numbered, and for each the bit of its
# rotation class: 012, 120 and 201 are rotations of each other, and so are
# the other three
_TRIPLE_INDEX = {bytes(t): i for i, t in enumerate(permutations(range(3)))}
_ROTATION_BIT = tuple(1 << ((t[1] - t[0]) % 3) for t in permutations(range(3)))

# A sweep record: six match counts, one per triple, and the rotation
# classes that occur literally.
# A sweep state: ((S, tail, pair), entries, records), see _sweep.
_Record = tuple[int, int, int, int, int, int, int]
_Entries = tuple[tuple[int, str], ...]
_Word = tuple[Word, Word, bool]
_State = tuple[_Word, _Entries, tuple[_Record | None, ...]]
_START: _State = ((b"", b"", False), (), ((0,) * 7,))


def _grow_record(record: _Record, match: int) -> _Record:
    # the record after one more symbol s; match is -1 when no abc or abbc
    # ends at s, else 2 * t + 1 for a literal abc of triple t and 2 * t
    # for an abbc
    if match < 0:
        return record
    t = match >> 1
    *counts, literal = record
    counts[t] += 1
    if match & 1:
        literal |= _ROTATION_BIT[t]
    return (*counts, literal)


def labels_by_root(n: int) -> dict[Word, set[Label]]:
    """Labels of every canonical length-``n`` ternary word, grouped by its root.

    Descendants of a canonical root are exactly the canonical members of
    its cone, so the labels of the canonical length-``n`` words are every
    root's label set at this length.  A word has the label of its image
    under ``_cap_runs``, so it suffices to label the canonical words with
    no run of three symbols that have length ``n`` or, shorter, hold a
    run ``ss``:

    1. ``compute_label`` caps runs first, and capping is idempotent, so
       ``compute_label(w) == compute_label(_cap_runs(w))``, root included.
    2. A length-``n`` word with no run of three is its own cap.
    3. A word with a run of three or more caps to a shorter word that
       holds ``ss`` where that run was.
    4. Conversely, a shorter run-capped word holding ``ss`` is the cap of
       the length-``n`` word that pumps that run to the missing length.
    5. Capping and pumping keep the order in which symbols first occur,
       so canonical words map to canonical words.

    Of those it skips each ``u + ss`` with ``ss`` in ``u``: its label is
    that of ``u + s`` (the tail rule, proved at ``oracle._labelled``).

    The words are not labelled one by one.  The sweep walks their
    prefixes length by length and merges the prefixes that reach the same
    state: two prefixes with one state get the same label after every
    extension, so each distinct state is extended once.  The state, its
    step and the proof are at ``_sweep``.
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    extend = _sweep(n)
    buckets: dict[Word, set[_Entries]] = {}
    states = {_START}
    for length in range(1, n + 1):
        grown: set[_State] = set()
        for state in states:
            for new, label in extend(state, length):
                if label is not None:
                    buckets.setdefault(new[0][0], set()).add(label)
                if length < n:
                    grown.add(new)
        states = grown
    return {root: {Label(root, e) for e in entries} for root, entries in buckets.items()}


def _sweep(n: int) -> Callable[[_State, int], Iterator[tuple[_State, _Entries | None]]]:
    # the step of the label sweep to length n: extend(state, length) takes
    # the state of a prefix x of length - 1 and yields (state of x + s,
    # label entries of x + s or None) for each symbol s that keeps x + s
    # canonical with no run of three, the entries when _labelled picks
    # x + s.  The memos are the function's own, region plans included.  The
    # part of a state that the symbols alone decide, (S, tail, pair), is
    # built once per step of it, and equal entry and record tuples are kept
    # once: merged states share what they hold, and a finished sweep leaves
    # nothing behind.
    #
    # The state of a run-capped canonical prefix x of length L, with
    # h = n - L symbols left (_peel's notation: S is the root stack of x,
    # last its depth table; region i ends at depth D_i and reads the
    # window x[start_i:last[D_i]]):
    #   S, the le-3 root stack of x, and d = len(S);
    #   tail, the last two symbols of x, and the third last too when the
    #     last two are equal: a b^m with m <= 2, where b is the stack's top
    #     and a the symbol below it (the top is the symbol last read, and
    #     the one below it the last symbol read before that run,
    #     roots._stack), so beyond S the tail tells only whether m is 2;
    #   pair, whether x[:-1] holds a run ss;
    #   entries, the entries of the closed regions of S, those with
    #     D_i < d;
    #   records, one per closed region and one for the first open region
    #     (the one after the closed ones, whether S holds it yet or not).
    #     Record i summarises x[start_i:]: per distinct triple t the
    #     number of matches of abc and abbc (t = abc, count_occurrences),
    #     and which rotation classes occur literally (a sign asks only
    #     whether some rotation of the region's triple does).  The record
    #     of a closed region with D_i < d - 2h is dropped (None).
    # The symbols x uses are those of S, and the run check needs tail.
    #
    # Facts:
    # 1. Whether a region ends at depth D, and its parse, read only
    #    S[:D + 1] (main_and_region reads one symbol past the region, and
    #    whether the next region exists reads S[D - 2:D + 2]).  So a
    #    stack that starts with S[:e] has the regions of S that end below
    #    e, and no other region ending below e.
    # 2. last[D] is the length at which the depth last rose from D, and
    #    the stack keeps S[:D + 1] while the depth stays above D: while it
    #    does, no symbol moves a closed region's window or parse.
    # 3. A window ends in a b^m, m <= 2, its stack's last two symbols
    #    (_peel), so the next window starts at that a, in the tail.
    # 4. Each abc, abbc and literal triple of x is counted once, by the
    #    symbol that ends it, in every record that starts at or before
    #    its first symbol.
    # 5. Every match that ends at a symbol starts inside every live
    #    record.  The first record starts at 0.  A record opened when a
    #    region closes covers the tail a b^m of the prefix (the push step
    #    below).  An abc that ends at the next symbol starts two symbols
    #    back and needs m = 1, an abbc starts three symbols back and needs
    #    m = 2, so either starts at that a, and later matches start later.
    #
    # The step from x to x + s, with S' the stack after s and d' = len(S'):
    # - s repeats the last symbol: S' = S, no region closes and no match
    #   ends at s; the records stay as they are.
    # - Push, S' = S + s: last[d] = L.  By fact 1 the only region that can
    #   close is the first open one, when S' parses it as ending at d; its
    #   window is then x[start:L], so its entry is read from its record
    #   before s is added.  The next record opens at the last a of that
    #   window, which by fact 3 is the tail a b^m itself: no triple yet.
    # - Pop, S' = S[:d']: last[D] is unchanged below d'.  The entries and
    #   records of regions with D >= d' go, but the record of the first of
    #   them, now the first open region, stays: its window will end at or
    #   after L + 1, and the record already holds x[start:].
    # - Each record then adds the match that ends at s (facts 4 and 5).
    # Horizon rule: a step pops at most two symbols, so with h symbols
    # left the depth stays at or above d - 2h.  A closed region with
    # D < d - 2h can never be open again, so its entry is final and its
    # record is never read.  The bound d - 2h never decreases, because
    # d' >= d - 2 and h falls by one.
    #
    # The label of x, read out when _labelled picks it: the root is S, and
    # the entries are those of the closed regions, plus the entry of the
    # region ending at d, read from the first open record (its window is
    # x[start:L], last[d] being L), if S has such a region.
    #
    # By induction on y, the label of x + y is a function of the state of
    # x and of y: each step's state is a function of the state and the
    # symbol, and each label of the state alone.  That is the merge.  The
    # last length is not stored: each of its extensions is read out.

    @cache
    def step(S: Word, s: int) -> Word:
        return _stack(S + bytes((s,)), 3)[0]

    @cache
    def regions(S: Word) -> tuple[tuple[int, ...], tuple[int, ...], int, bool]:
        # end depths and triple numbers of the regions of S, how many are
        # closed, and whether the last one ends at len(S)
        plan = _region_plan(S)
        opens = bool(plan) and plan[-1][0] == len(S)
        ends = tuple(region[0] for region in plan)
        return ends, tuple(_TRIPLE_INDEX[region[1]] for region in plan), len(plan) - opens, opens

    @cache
    def moves(word: _Word) -> tuple[tuple[_Word, int], ...]:
        # ((S', tail', pair'), match) for each symbol s that keeps x + s
        # canonical and free of runs of three; the match ending at s is the
        # a b s or a b b s of a tail a b or a b b, when a b s is a distinct
        # triple
        S, tail, pair = word
        pair2 = pair or len(tail) >= 2 and tail[-1] == tail[-2]
        out = []
        for s in _extensions(tail, min(max(S, default=-1) + 2, 3), 0):
            sym = bytes((s,))
            if tail[-1:] == sym:
                out.append(((S, tail + sym, pair2), -1))
                continue
            t = _TRIPLE_INDEX.get(tail[:2] + sym)
            match = -1 if t is None else 2 * t + (len(tail) == 2)
            out.append(((step(S, s), tail[-1:] + sym, pair2), match))
        return tuple(out)

    grow = cache(_grow_record)
    shared: dict[tuple, tuple] = {}

    @cache
    def entry(record: _Record, t: int) -> tuple[int, str]:
        return record[t], "+" if record[6] & _ROTATION_BIT[t] else "-"

    def extend(state: _State, length: int) -> Iterator[tuple[_State, _Entries | None]]:
        word, entries, records = state
        reach = 2 * (n - length)
        c = len(entries)
        for word2, match in moves(word):
            S2, tail2, pair2 = word2
            ends, triples, closed, opens = regions(S2)
            if closed > c:
                entries2 = entries + (entry(records[c], triples[c]),)
                # the next record holds the tail a b^m: no triple yet
                records2 = records + ((0,) * 7,)
            else:
                entries2 = entries[:closed]
                records2 = records[: closed + 1]
            dropped = min(bisect_left(ends, len(S2) - reach), closed)
            records2 = (None,) * dropped + tuple(grow(r, match) for r in records2[dropped:])
            records2 = shared.setdefault(records2, records2)
            entries2 = shared.setdefault(entries2, entries2)
            label = None
            if _labelled(length, n, tail2, pair2):
                label = entries2
                if opens:
                    label += (entry(records2[closed], triples[closed]),)
            yield (word2, entries2, records2), label

    return extend


def _root_optimum(
    root: Word, n: int, cache: SizeCache | None, labels: Callable[[], Iterable[Label]]
) -> int:
    # the optimum of a canonical root: the cached size on a hit, else the
    # clique over labels(), stored with its witness
    hit = cache.get(root, n) if cache is not None else None
    if hit is not None:
        return hit[0]
    size, witness = max_clique(graph_from_labels(labels()))
    if cache is not None:
        cache.put(root, n, size, witness)
    return size


def optimal_size_for_root(
    r: Word,
    n: int,
    cache: SizeCache | None = None,
    budget: int = 2_000_000,
) -> int:
    """Exact optimal code size within the cone of ``r`` at length ``n``.

    The cone, its labels and the clique need no alphabet bound, so ``r``
    is relabeled over its own symbols.
    """
    canon, _ = canonical_form(r, len(set(r)))
    return _root_optimum(canon, n, cache, lambda: enumerate_labels(canon, n, budget=budget))


def optimal_size(n: int, cache: SizeCache | None = None) -> int:
    """Exact optimal ternary code size at length ``n``.

    Sums the per-root optima over all canonical roots, weighted by orbit
    size.  One label sweep (``labels_by_root``) supplies every root's
    label set.
    """
    total = 0
    for root, labels in labels_by_root(n).items():
        _, orbit = canonical_form(root)
        total += orbit * _root_optimum(root, n, cache, lambda: labels)
    return total
