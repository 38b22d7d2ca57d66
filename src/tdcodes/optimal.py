"""Exact optimal code sizes via maximum cliques on label graphs.

Within one root's cone, a code corresponds to a set of pairwise
non-confusable labels, so the optimal size is the maximum clique of the
graph whose vertices are the labels of length-n descendants and whose
edges join non-confusable pairs.  Label sets stay small even where the
cones are huge, which keeps the exact search cheap.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations
from math import perm
from typing import Callable, Iterable, Iterator

from .words import Word, _parse_root, _root_text
from .roots import _check_root, _stack
from .confusability import Label, _Plan, _region_plan, count_regions, labels_confusable
from .oracle import _Regions, _labels, _sized, _walk, enumerate_labels, canonical_form

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


def labels_by_root(n: int) -> dict[Word, set[Label]]:
    """Labels of every canonical length-``n`` ternary word, grouped by its root.

    A duplication copies symbols a word already holds, and a deduplication
    deletes the second copy of a square: both keep the order in which
    symbols first occur.  So descendants of a canonical root are
    canonical, and canonical words have canonical roots: the keys are the
    canonical roots up to length ``n``, and each root's label set is that
    of its cone at length ``n``.  A word has the label of its image under
    ``_cap_runs``, so the labels of a root's length-``n`` descendants are
    those of the words with its root and no run of three symbols that
    have length ``n`` or, shorter, hold a run ``ss``:

    1. ``compute_label`` caps runs first, and capping is idempotent, so
       ``compute_label(w) == compute_label(_cap_runs(w))``, root included.
    2. A length-``n`` word with no run of three is its own cap.
    3. A word with a run of three or more caps to a shorter word that
       holds ``ss`` where that run was.
    4. Conversely, a shorter run-capped word holding ``ss`` is the cap of
       the length-``n`` word that pumps that run to the missing length.

    By points A, C and D of ``enumerate_labels``, those labels follow from
    the shapes of the run-free words with the same root and length at most
    ``n``, the words with no run ``ss``.  The run-free members of a
    canonical root's cone are the canonical run-free words with that root,
    so one walk over all of them (``_run_free_walk``) gives every root its
    shapes, and ``oracle._labels`` expands them as ``enumerate_labels``
    does.
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    shapes: dict[Word, set] = defaultdict(set)
    for y, root, _, regions in _run_free_walk(n):
        shapes[root].add((regions, n - len(y)))
    shared: dict = {}
    return {root: _labels(root, root_shapes, shared) for root, root_shapes in shapes.items()}


def _run_free_walk(n: int) -> Iterator[tuple[Word, Word, list[int], _Regions]]:
    # (y, root, depth table, regions) for each canonical ternary word y of
    # length at most n with no run ss, once each, where regions is what
    # oracle._sized gives for y with its root's plan.  Each word's values
    # come from its parent x's, y = x + s:
    # - After x the root stack holds root(x), so root(y) = root(root(x) + s).
    # - s is not the last symbol of x, so the stack reads it: last at the
    #   old depth is set to len(x), which it already is, and last at the
    #   new depth d = len(root(y)) becomes len(y), appended when d is new.
    #   No other entry changes.
    # - A region of root(y) that root(x) has at the same place in its plan
    #   and that ends below d has the same window in x and in y: its end
    #   last[D] is unchanged, the window lies in x, and its start comes
    #   from the windows before it.  So y keeps x's leading such regions
    #   and peels only the rest.
    plans = cache(_region_plan)

    @cache
    def step(S: Word, s: Word) -> tuple[Word, _Plan, int]:
        # the root after one more symbol, its plan, and how many leading
        # regions a word keeps from its parent
        root = _stack(S + s, 3)[0]
        plan, old = plans(root), plans(S)
        keep = 0
        for region, kept in zip(plan, old):
            if region != kept or region[0] == len(root):
                break
            keep += 1
        return root, plan, keep

    path = [(b"", [0], (), ())]  # root, depth table, regions and windows per prefix
    for y in _walk(1, n, 3, 1, canonical=True):
        length = len(y)
        S, last, regions, windows = path[length - 1]
        S, plan, keep = step(S, y[-1:])
        last = last[: len(S)] + [length] + last[len(S) + 1 :]
        start = y.rfind(plan[keep - 1][5], *windows[keep - 1]) if keep else 0
        fresh, fresh_windows = _sized(y, plan[keep:], last, start)
        regions, windows = regions[:keep] + fresh, windows[:keep] + fresh_windows
        path[length:] = [(S, last, regions, windows)]
        yield y, S, last, regions


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
    for root, labels in sorted(labels_by_root(n).items()):
        # a canonical root's symbols are 0 .. max(root)
        total += perm(3, max(root) + 1) * _root_optimum(root, n, cache, lambda: labels)
    return total
