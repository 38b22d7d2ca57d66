"""Workload inputs made from a seed, and the checks on their outputs.

Each workload is a list of operations that one timed pass runs in order.
On ``decide`` an operation is a pair of words for ``tdcodes.confusable``;
on ``search`` it is an argument list for ``tdcodes.cli.main``.  Every
operation belongs to a group (``bounded``, ``root_1k`` ... on ``decide``;
``optimal`` and ``table`` on ``search``) that the report breaks down by.
Expected outputs are fixed here, outside any timer, either by construction
or by an independent route through the library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("decide", "search")
GROUPS = ("bounded", "root_1k", "root_2k", "root_4k", "optimal", "table")

WORD_SIZE = 1 << 20  # symbols per word of the bounded pairs
BOUNDED_REGIONS = (1, 2, 3, 4)
# (label, root length, roots): the pair cost grows with the square of the
# root length, so longer steps get fewer roots
LONG_ROOT_STEPS = (("root_1k", 1000, 4), ("root_2k", 2000, 2), ("root_4k", 4000, 1))
OPTIMAL_N = 12
OPTIMAL_TOTAL = 1887
TABLE_N_MAX = 24
# the table's lower column for n = 1..24, as computed at the commit that
# introduced this benchmark (before any optimisation of the prefix recursion)
TABLE_LOWER = (
    3, 9, 21, 39, 69, 117, 195, 315, 489, 747, 1143, 1749,
    2655, 4005, 6009, 9003, 13491, 20139, 29955, 44397, 65829, 97569, 144351, 213375,
)
CACHE_SLOT = "{cache}"  # replaced by a fresh cache file path on every pass


@dataclass
class Workload:
    name: str
    kind: str  # "decide" or "cli"
    ops: list
    expect: list  # per op: a bool for decide, a checker key for cli
    groups: list  # per op: the step label its per-layer counts are grouped by


def _random_root(rng: random.Random, td, length: int) -> bytes:
    # a prefix of an irreducible word is irreducible, and the root of a long
    # random ternary word is about 0.3 times as long as the word
    while True:
        r = td.root_le3(bytes(rng.randrange(3) for _ in range(4 * length + 20)))[:length]
        if len(r) == length:
            return r


def _bounded_root(rng: random.Random, td, regions: int) -> bytes:
    while True:
        r = _random_root(rng, td, rng.randint(3, 20))
        if td.count_regions(r) == regions:
            return r


def grow(rng: random.Random, word: bytes, target: int) -> bytes:
    """A descendant of ``word`` with at least ``target`` symbols.

    Each round repeats a factor of length 1-3 one to four more times at an
    eighth of the positions.  Taken from the rightmost position leftwards,
    each repeat is a tandem duplication of length at most three.
    """
    while len(word) < target:
        size = len(word)
        pieces = []
        prev = 0
        for i in sorted(rng.sample(range(size), max(1, size // 8))):
            k = 1 + int(rng.random() * 3)
            if i < prev or i + k > len(word):
                continue
            factor = word[i : i + k]
            pieces.append(word[prev : i + k])
            pieces.append(factor * (1 + int(rng.random() * 4)))
            prev = i + k
            size += len(pieces[-1])
            if size >= target:
                break
        pieces.append(word[prev:])
        word = b"".join(pieces)
    return word


def _disjoint_dups(rng: random.Random, td, w: bytes) -> tuple[bytes, bytes]:
    # two one-step descendants of w whose duplicated factors do not overlap:
    # applying each one's duplication to the other gives a common word
    k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
    i1 = rng.randrange(len(w) // 2 - k1)
    i2 = rng.randrange(len(w) // 2, len(w) - k2)
    x, y = td.tandem_duplicate(w, i1, k1), td.tandem_duplicate(w, i2, k2)
    return (x, y) if rng.random() < 0.5 else (y, x)


def _bounded_pairs(rng: random.Random, td):
    # one root for each region count, so every seed peels the same number
    # of regions in total
    roots = [_bounded_root(rng, td, m) for m in BOUNDED_REGIONS]
    words = [grow(rng, r, WORD_SIZE) for r in roots]
    size = WORD_SIZE + rng.randrange(1024)
    flat = b"\x00" + b"\x01" * (size // 2) + b"\x02" * (size - size // 2 - 1)
    pumped = td.pad_tail(b"\x00\x01\x02" * (size // 3), size % 3)
    # two one-step descendants of one word: confusable by construction
    ops = [_disjoint_dups(rng, td, w) for w in words]
    expect = [True] * len(words)
    # two descendants of one root grown apart: the label route decides
    j = rng.randrange(len(words))
    other = grow(rng, roots[j], WORD_SIZE)
    ops.append((words[j], other))
    expect.append(td.confusable_by_labels(words[j], other))
    # descendants of different roots are never confusable
    ops += [(words[0], words[1]), (words[2], words[3])]
    expect += [False, False]
    # one region copy with no surviving triple against the pumped triple
    ops.append((flat, pumped))
    expect.append(False)
    return ops, expect, ["bounded"] * len(ops)


def _long_root_pairs(rng: random.Random, td):
    ops, expect, groups = [], [], []
    for label, length, count in LONG_ROOT_STEPS:
        for _ in range(count):
            r = _random_root(rng, td, length)
            # one-step descendants of one word: confusable by construction
            ops.append(_disjoint_dups(rng, td, r))
            expect.append(True)
            # a triple pumped twice against a doubled symbol inside it: about
            # a quarter of these pairs are not confusable, so the label route
            # decides.  The edit sits in the last tenth of the root, so the
            # decision peels most regions whatever the answer.
            i = rng.randrange(length - length // 10, length - 3)
            x = td.tandem_duplicate(td.tandem_duplicate(r, i, 3), i, 3)
            y = td.tandem_duplicate(r, i + 1, 1)
            ops.append((x, y))
            expect.append(td.confusable_by_labels(x, y))
            groups += [label, label]
    return ops, expect, groups


def _optimal_calls(rng: random.Random, td):
    from tdcodes.codes import _iter_canonical_irreducible

    roots = [
        td.render_word(r)
        for r in _iter_canonical_irreducible(7)
        if len(r) >= 5 and td.count_regions(r) >= 2
    ]
    rng.shuffle(roots)  # the seed only orders the per-root calls
    ops = [["--cache", CACHE_SLOT, "optimal", "--n", str(OPTIMAL_N)]]
    ops += [["optimal", "--root", r, "--n", str(OPTIMAL_N)] for r in roots]
    expect = ["sweep"] + [("root", r) for r in roots]
    return ops, expect, ["optimal"] * len(ops)


def _table_calls(rng: random.Random, td):
    return [["table", "--n-max", str(TABLE_N_MAX)], ["verify"]], ["table", "verify"], ["table"] * 2


def build(name: str, seed: int, td) -> Workload:
    """The operations of workload ``name`` for ``seed``, with expected outputs."""
    rng = random.Random(f"{name}:{seed}")
    if name == "decide":
        parts = [_bounded_pairs(rng, td), _long_root_pairs(rng, td)]
    else:
        parts = [_optimal_calls(rng, td), _table_calls(rng, td)]
    ops, expect, groups = ([x for part in parts for x in part[k]] for k in range(3))
    if name == "decide":
        order = list(range(len(ops)))
        rng.shuffle(order)
        ops, expect, groups = ([seq[i] for i in order] for seq in (ops, expect, groups))
    return Workload(name, "decide" if name == "decide" else "cli", ops, expect, groups)


def _read_reference(src: Path) -> dict[int, dict[str, str]]:
    lines = (src / "tdcodes" / "fixtures" / "reference_table.tsv").read_text().splitlines()
    header = lines[0].split("\t")
    rows = [dict(zip(header, ln.split("\t"))) for ln in lines[1:] if ln.strip()]
    return {int(row["n"]): row for row in rows}


def read_cache_sizes(path: Path) -> dict[str, int]:
    """Per-root optimal sizes at ``OPTIMAL_N`` that a sweep wrote to a size cache."""
    sizes = {}
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            root, n, size, _ = line.split("\t")
            if int(n) == OPTIMAL_N:
                sizes[root] = int(size)
    return sizes


def check_cli(expect, code: int, text: str, src: Path, cache_sizes: dict[str, int]) -> bool:
    """True iff one CLI operation printed what it must."""
    if code != 0:
        return False
    if expect == "sweep":
        return text.strip() == str(OPTIMAL_TOTAL)
    if expect == "verify":
        rows = text.strip().splitlines()
        return len(rows) >= 4 and all(row.startswith("PASS\t") for row in rows)
    if expect == "table":
        ref = _read_reference(src)
        rows = text.rstrip("\n").split("\n")  # the optimal column is empty
        if rows[0].split("\t") != ["n", "constr1", "lower", "eq1", "prop4", "optimal"]:
            return False
        if len(rows) != TABLE_N_MAX + 1:
            return False
        for n, row in enumerate(rows[1:], start=1):
            got = row.split("\t")
            want = ref[n]
            if len(got) != 6 or got[0] != str(n) or got[5] != "":
                return False
            if (got[1], got[3], got[4]) != (want["constr1"], want["eq1"], want["prop4"]):
                return False
            if int(got[2]) < int(got[1]) or int(got[2]) != TABLE_LOWER[n - 1]:
                return False
        return True
    _, root = expect
    return root in cache_sizes and text.strip() == str(cache_sizes[root])
