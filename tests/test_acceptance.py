"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import os
import random
import time

import pytest

import tdcodes as td
from tdcodes.confusability import _cap_runs, _peel, _region_plan
from tdcodes.roots import root_le3_depths

from conftest import batched_descendant, w
from references import region_vector_upper_bound_bruteforce, remove_duplicates_pass

CONSTR1 = [
    3, 9, 21, 39, 69, 111, 171, 261, 393, 585,
    867, 1281, 1887, 2775, 4077, 5985, 8781, 12879, 18885, 27687,
]
EQ1 = [
    3, 9, 21, 39, 69, 117, 195, 315, 495, 777,
    1227, 1941, 3075, 4875, 7731, 12267, 19479, 30957, 49245, 78417,
]
PROP4 = [
    3, 9, 21, 39, 69, 117, 195, 321, 525, 855,
    1389, 2253, 3651, 5913, 9573, 15495, 25077, 40581, 65667, 106257,
]
OPTIMAL = [3, 9, 21, 39, 69, 117, 195, 315, 495, 777, 1221, 1887]
CONSTR1_21_30 = {
    21: 40587, 22: 59493, 23: 87201, 24: 127809, 25: 187323,
    26: 274545, 27: 402375, 28: 589719, 29: 864285, 30: 1266681,
}
# the assembled lower bounds with no size cache
LOWER_21_30 = {
    21: 65829, 22: 97569, 23: 144351, 24: 213375, 25: 314865,
    26: 464439, 27: 684777, 28: 1009113, 29: 1486143, 30: 2186955,
}


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def canonical_words(n: int):
    def rec(prefix: bytearray, used: int):
        if len(prefix) == n:
            yield bytes(prefix)
            return
        for s in range(min(used + 1, 3)):
            prefix.append(s)
            yield from rec(prefix, max(used, s + 1))
            prefix.pop()

    yield from rec(bytearray(), 0)


def test_criterion_1_worked_examples():
    t0 = time.perf_counter()
    assert td.tandem_duplicate(w("01210"), 1, 3) == w("01211210")
    assert td.tandem_duplicate(w("01211210"), 0, 2) == w("0101211210")
    assert td.root_le3(w("01012012")) == w("012")
    assert td.root_le_k(w("012012"), 2) == w("012012")
    assert td.confusable(w("012012"), w("011112")) is False
    desc = td.main_and_region(w("010201"))
    assert desc.main == w("102") and desc.reg == w("0102")
    x = w("01102021020120111")
    assert td.extended_prefix(desc, x) == w("0110202102")
    assert td.cut_prefix(w("010201"), x) == w("01102021")
    assert td.compute_label(w("01210210")).text() == "01210:(1,+)(2,+)"
    assert td.compute_label(w("01201210")).text() == "01210:(2,+)(1,+)"
    assert td.confusable(w("01210210"), w("01201210")) is True
    elapsed = time.perf_counter() - t0
    report("1 worked-examples", elapsed < 1.0, f"{elapsed:.3f}s < 1s, all values exact")


def test_criterion_2_irreducible_counts():
    t0 = time.perf_counter()
    counts3 = td.irreducible_counts(20, 3, 3)
    counts2 = td.irreducible_counts(20, 3, 2)
    cum3 = list(itertools.accumulate(counts3[1:]))
    cum2 = list(itertools.accumulate(counts2[1:]))
    ok = cum3 == CONSTR1 and cum2 == PROP4
    elapsed = time.perf_counter() - t0
    report(
        "2 irreducible-counts",
        ok and elapsed < 30.0,
        f"{elapsed:.2f}s < 30s, cumulative le3 ends {cum3[-1]}, le2 ends {cum2[-1]}",
    )


def test_criterion_3_bounds():
    t0 = time.perf_counter()
    eq1 = [td.refined_upper_bound(n) for n in range(1, 21)]
    ok = eq1 == EQ1
    for gap in range(0, 31):
        for m in range(1, 7):
            if td.region_vector_upper_bound(5 + gap, 5, m) != (
                region_vector_upper_bound_bruteforce(5 + gap, 5, m)
            ):
                ok = False
    for i in range(1, 13):
        by_m: dict[int, int] = {}
        for word in td.enumerate_irreducible(i, 3, 3):
            m = td.count_regions(word)
            by_m[m] = by_m.get(m, 0) + 1
        for m in range(i + 1):
            if td.irreducible_region_count(i, m) != by_m.get(m, 0):
                ok = False
    elapsed = time.perf_counter() - t0
    report(
        "3 bounds",
        ok and elapsed < 10.0,
        f"{elapsed:.2f}s < 10s; eq1(6)={eq1[5]}, eq1(11)={eq1[10]}, eq1(20)={eq1[19]}",
    )


def test_criterion_4_optimal_sizes():
    t0 = time.perf_counter()
    got_small = [td.optimal_size(n) for n in range(1, 11)]
    small_elapsed = time.perf_counter() - t0
    t1 = time.perf_counter()
    got_11_12 = [td.optimal_size(11), td.optimal_size(12)]
    mid_elapsed = time.perf_counter() - t1
    ok = (
        got_small == OPTIMAL[:10]
        and got_11_12 == OPTIMAL[10:]
        and small_elapsed < 600.0
        and mid_elapsed < 3600.0
    )

    t2 = time.perf_counter()
    lowers = td.assemble_lower_bounds(range(21, 31))
    lower_ok = lowers == LOWER_21_30 and all(lowers[n] >= CONSTR1_21_30[n] for n in range(21, 31))
    # validate a sample of the per-root codes feeding those bounds
    rng = random.Random(21)
    sample_roots = [
        td.root_le3(bytes(rng.randrange(3) for _ in range(rng.randint(6, 18))))
        for _ in range(12)
    ]
    for root in sample_roots:
        n = len(root) + rng.randint(3, 9)
        code = td.recursive_code(root, n)
        if not td.validate_code(code):
            lower_ok = False
    assemble_elapsed = time.perf_counter() - t2
    report(
        "4 optimal-code-sizes",
        ok and lower_ok,
        f"n1..10 {small_elapsed:.1f}s < 600s, n11..12 {mid_elapsed:.1f}s < 3600s, "
        f"values exact; lower bounds 21..30 as recorded and >= published baseline "
        f"(e.g. {lowers[21]} >= 40587) in {assemble_elapsed:.0f}s",
    )


@pytest.mark.skipif(
    not os.environ.get("TDCODES_STRETCH"), reason="stretch lengths; set TDCODES_STRETCH=1"
)
def test_stretch_optimal_13_14():
    assert td.optimal_size(13) == 2913
    assert td.optimal_size(14) == 4527


@pytest.mark.skipif(
    not os.environ.get("TDCODES_STRETCH"), reason="deeper exhaustive tier; set TDCODES_STRETCH=1"
)
def test_stretch_oracle_equivalence_len8():
    # same agreement checks as criterion 5, one length deeper
    horizon = 13
    groups = _share_root_groups(8)
    pairs = 0
    for root, members in groups.items():
        cones = {
            x: frozenset(td.descendant_cone(x, horizon, budget=6_000_000).members)
            for x in members
        }
        for x, y in itertools.combinations(members, 2):
            pairs += 1
            decided = td.confusable(x, y)
            assert decided == td.confusable_by_labels(x, y), (x, y)
            meet = not cones[x].isdisjoint(cones[y])
            if decided and not meet:
                assert td.oracle_confusable(x, y, 24, budget=16_000_000) is not None, (x, y)
            else:
                assert decided == meet, (x, y)
    assert pairs > 50_000


def _share_root_groups(max_len: int):
    groups: dict[bytes, list[bytes]] = {}
    for n in range(1, max_len + 1):
        for word in canonical_words(n):
            groups.setdefault(td.root_le3(word), []).append(word)
    return groups


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    horizon = 14
    groups = _share_root_groups(7)
    pairs = escalated = witnessed = disjoint_checked = 0
    ok = True
    problems: list[str] = []
    for root, members in groups.items():
        cones = {
            x: frozenset(td.descendant_cone(x, horizon, budget=4_000_000).members)
            for x in members
        }
        for x, y in itertools.combinations(members, 2):
            pairs += 1
            decided = td.confusable(x, y)
            by_label = td.confusable_by_labels(x, y)
            if decided != by_label:
                ok = False
                problems.append(f"route-mismatch {x!r} {y!r}")
                continue
            meet = not cones[x].isdisjoint(cones[y])
            if decided and not meet:
                # witness must still exist within the stated bound of 24
                escalated += 1
                if td.oracle_confusable(x, y, 24, budget=8_000_000) is None:
                    ok = False
                    problems.append(f"no-witness {x!r} {y!r}")
            elif decided:
                witnessed += 1
            elif meet:
                ok = False
                problems.append(f"false-negative {x!r} {y!r}")
            else:
                disjoint_checked += 1
    # deeper horizon on a seeded sample of the non-confusable pairs
    deep = [(w("012012"), w("011112"))]
    rng = random.Random(5)
    flat = [
        (x, y)
        for members in groups.values()
        for x, y in itertools.combinations(members, 2)
        if len(x) >= 5 and not td.confusable(x, y)
    ]
    deep += rng.sample(flat, 7)
    for x, y in deep:
        if td.oracle_confusable(x, y, 16, budget=4_000_000) is not None:
            ok = False
            problems.append(f"deep-false-negative {x!r} {y!r}")

    rng = random.Random(99)
    agree = 0
    for _ in range(10_000):
        n1, n2 = rng.randint(1, 12), rng.randint(1, 12)
        if rng.random() < 0.5:
            base = bytes(rng.randrange(3) for _ in range(rng.randint(1, 6)))
            x = _random_descendant_exact(rng, base, n1) if n1 >= len(base) else base
            y = _random_descendant_exact(rng, base, n2) if n2 >= len(base) else base
        else:
            x = bytes(rng.randrange(3) for _ in range(n1))
            y = bytes(rng.randrange(3) for _ in range(n2))
        if td.confusable(x, y) == td.confusable_by_labels(x, y):
            agree += 1
    ok = ok and agree == 10_000
    elapsed = time.perf_counter() - t0
    report(
        "5 oracle-equivalence",
        ok,
        f"{pairs} exhaustive pairs (max len 7): routes agree, {witnessed + escalated} "
        f"witnessed (bound 24, {escalated} beyond cone horizon {horizon}), "
        f"{disjoint_checked} verified cone-disjoint to {horizon} plus {len(deep)} to 16; "
        f"random agreement {agree}/10000; {elapsed:.0f}s"
        + ("; " + "; ".join(problems[:3]) if problems else ""),
    )


def _random_descendant_exact(rng: random.Random, start: bytes, target: int) -> bytes:
    word = start
    while len(word) < target:
        k = min(rng.randint(1, 3), target - len(word), len(word))
        i = rng.randrange(len(word) - k + 1)
        word = td.tandem_duplicate(word, i, k)
    return word


def test_criterion_6_invariant_suites():
    t0 = time.perf_counter()
    ok = True
    notes = []

    # pipeline equality and root uniqueness under every removal order
    roots_by_k: dict[int, dict[bytes, bytes]] = {1: {}, 2: {}, 3: {}}
    for n in range(1, 11):
        for tup in itertools.product(range(3), repeat=n):
            x = bytes(tup)
            for k, table in roots_by_k.items():
                children = [
                    x[:i] + x[i + j :]
                    for j in range(1, k + 1)
                    for i in range(n - 2 * j + 1)
                    if x[i : i + j] == x[i + j : i + 2 * j]
                ]
                if children:
                    results = {table[c] for c in children}
                    if len(results) != 1:
                        ok = False
                    table[x] = results.pop()
                else:
                    table[x] = x
                if table[x] != td.root_le_k(x, k):
                    ok = False
            stage12 = remove_duplicates_pass(remove_duplicates_pass(x, 1), 2)
            if stage12 != td.root_le_k(x, 2):
                ok = False
            if remove_duplicates_pass(stage12, 3) != td.root_le3(x):
                ok = False
    notes.append("uniqueness+pipeline len<=10")

    # region parse shape and the next-symbol restriction, roots of length <= 12
    for n in range(1, 13):
        for r in td.enumerate_irreducible(n, 3, 3):
            if len(set(r[:4])) < 3:
                continue
            desc = td.main_and_region(r)
            if desc.w + desc.abc * desc.ell + desc.abc[:2] != desc.reg:
                ok = False
            if len(r) > len(desc.reg) and r[len(desc.reg)] == desc.abc[2]:
                ok = False
    notes.append("region parse len<=12")

    # prefix cost audit and label length bound over random descendants
    rng = random.Random(6)
    for _ in range(4000):
        base = bytes(rng.randrange(3) for _ in range(rng.randint(1, 6)))
        x = _random_descendant_exact(rng, base, rng.randint(len(base), 14))
        y = _random_descendant_exact(rng, base, rng.randint(len(base), 14))
        # symbols read by full peels of both capped words, past their root
        # passes
        cx, cy = _cap_runs(x), _cap_runs(y)
        cost = 0
        for z in (cx, cy):
            r, last = root_le3_depths(z)
            cost += sum(j - i for _, i, j in _peel(z, _region_plan(r), last))
        if cost > 3 * (len(cx) + len(cy)):
            ok = False
        label = td.compute_label(x)
        slack = len(x) - (
            len(label.root) + sum(3 * (c - 1) for c, _ in label.entries)
        )
        if slack < 0:
            ok = False
        if slack == 0 and any(s != "+" for _, s in label.entries):
            ok = False
    # the same two label invariants, exhaustively at small lengths
    for n in range(1, 11):
        for word in canonical_words(n):
            label = td.compute_label(word)
            slack = n - (len(label.root) + sum(3 * (c - 1) for c, _ in label.entries))
            if slack < 0:
                ok = False
            if slack == 0 and any(s != "+" for _, s in label.entries):
                ok = False
    notes.append("prefix-cost + label length bound")

    # trace normalization preserves the final word
    rng = random.Random(7)
    for _ in range(10_000):
        start = bytes(rng.randrange(3) for _ in range(rng.randint(1, 6)))
        word = start
        steps = []
        for _ in range(rng.randint(0, 7)):
            k = rng.randint(1, min(3, len(word)))
            i = rng.randrange(len(word) - k + 1)
            steps.append((i, k))
            word = td.tandem_duplicate(word, i, k)
        nt = td.normalize_trace(td.DuplicationTrace(start, tuple(steps)))
        if nt.replay() != word:
            ok = False
        lengths = [k for _, k in nt.steps]
        if lengths != sorted(lengths, reverse=True):
            ok = False
        cur = start
        for i, k in nt.steps:
            if k >= 2 and len(set(cur[i : i + k])) < k:
                ok = False
            cur = td.tandem_duplicate(cur, i, k)
    notes.append("10000 traces normalized")

    elapsed = time.perf_counter() - t0
    report("6 invariant-suites", ok, f"{'; '.join(notes)}; {elapsed:.0f}s")


def test_criterion_7_construction_validity():
    t0 = time.perf_counter()
    ok = True
    # pairwise validation, within each root, for codes of length <= 12
    for n in range(1, 13):
        if not td.validate_code(td.irreducible_code(n, 3)):
            ok = False
    for pattern in td.ONE_REGION_PATTERNS:
        for n in range(len(pattern), 41):
            code_size = len(td.one_region_code(pattern, n))
            if code_size != td.one_region_size(pattern, n):
                ok = False
            if n <= 12 and not td.validate_code(td.one_region_code(pattern, n)):
                ok = False
    rng = random.Random(77)
    for _ in range(40):
        root = td.root_le3(bytes(rng.randrange(3) for _ in range(rng.randint(4, 10))))
        if len(root) >= 4 and not td.validate_code(td.pair_code(root)):
            ok = False
        n = len(root) + rng.randint(0, 8)
        if not td.validate_code(td.recursive_code(root, n)):
            ok = False
    # clique search must reproduce the closed form wherever both run
    for pattern in td.ONE_REGION_PATTERNS:
        for n in range(len(pattern), 13):
            if td.optimal_size_for_root(pattern, n) != td.one_region_size(pattern, n):
                ok = False
    assembled = td.assemble_lower_bound(8)
    if len(assembled) != td.assemble_lower_bounds([8])[8] or not td.validate_code(assembled):
        ok = False
    elapsed = time.perf_counter() - t0
    report(
        "7 construction-validity",
        ok,
        f"irreducible/one-region/pair/recursive/assembled all validate; "
        f"one-region closed form matches to n=40 and clique to n=12; {elapsed:.0f}s",
    )


def _spy_symbols(monkeypatch, totals: list) -> None:
    # wrap the run-capping, root-stack, scan and peeling functions the
    # decision calls, under every name that refers to them in any tdcodes
    # module, and add up the length of the word each call is handed; the
    # peel counts in place, so it adds the length of each region prefix
    # it reads
    import sys

    def peel_spy(fn):
        def wrapper(*args):
            for item in fn(*args):
                totals[0] += item[2] - item[1]
                yield item

        return wrapper

    def length_spy(fn, index):
        def wrapper(*args):
            totals[0] += len(args[index])
            return fn(*args)

        return wrapper

    spied = (
        ("confusability", "_cap_runs", lambda fn: length_spy(fn, 0)),
        ("confusability", "_peel", peel_spy),
        ("roots", "root_le3_depths", lambda fn: length_spy(fn, 0)),
        ("confusability", "extended_prefix", lambda fn: length_spy(fn, 1)),
    )
    for layer, attr, spy in spied:
        fn = getattr(sys.modules[f"tdcodes.{layer}"], attr)
        wrapper = spy(fn)
        for modname, mod in list(sys.modules.items()):
            if modname == "tdcodes" or modname.startswith("tdcodes."):
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, name, wrapper)


def _long_root_symbol_ratios(monkeypatch) -> list[tuple[int, float]]:
    # descendants of random roots of 2k-16k symbols, each against a one-step
    # descendant of itself (confusable, so every region is peeled) and
    # against another descendant of the same root
    rng = random.Random(8)
    pairs = []
    for length in (2000, 4000, 8000, 16000):
        while True:
            root = td.root_le3(bytes(rng.randrange(3) for _ in range(4 * length + 20)))[:length]
            if len(root) == length:
                break
        a = batched_descendant(rng, root, 2 * length)
        b = batched_descendant(rng, root, 2 * length)
        k = rng.randint(1, 3)
        i = rng.randrange(len(a) - k)
        pairs.append((length, (a, td.tandem_duplicate(a, i, k))))
        pairs.append((length, (a, b)))
    totals = [0]
    _spy_symbols(monkeypatch, totals)
    ratios = []
    for length, (x, y) in pairs:
        totals[0] = 0
        td.confusable(x, y)
        ratios.append((length, totals[0] / (len(x) + len(y))))
    monkeypatch.undo()
    return ratios


_ROUNDS = 15


def _doubling_ratios(cases):
    """Time ``confusable`` over each size's pairs, sizes doubling in order.

    Each round times every size once, in increasing order, so sizes ``s``
    and ``2s`` run back to back; a host stall then moves one round's ratio
    of the two, not the median over rounds of that ratio.  Returns the
    median time per size and, per doubling step, the median per-round
    ratio.
    """
    import gc

    timings = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(_ROUNDS):
            row = []
            for _, pairs in cases:
                t0 = time.perf_counter()
                for pair in pairs:
                    td.confusable(*pair)
                row.append(time.perf_counter() - t0)
            timings.append(row)
    finally:
        gc.enable()
    size_medians = [
        (size, sorted(row[i] for row in timings)[_ROUNDS // 2])
        for i, (size, _) in enumerate(cases)
    ]
    ratios = [
        sorted(row[i + 1] / row[i] for row in timings)[_ROUNDS // 2]
        for i in range(len(cases) - 1)
    ]
    return size_medians, ratios


def test_criterion_8_near_linear_time(monkeypatch):
    # deterministic part: on long roots the functions _spy_symbols wraps
    # are handed at most 4 (|x| + |y|) symbols per decision, exactly
    symbol_ratios = _long_root_symbol_ratios(monkeypatch)
    symbols_ok = all(ratio <= 4 for _, ratio in symbol_ratios)
    rng = random.Random(123)
    shared = td.root_le3(bytes(rng.randrange(3) for _ in range(16)))
    other = td.root_le3(bytes(rng.randrange(3) for _ in range(15)))
    if other == shared:
        other = td.root_le3(other + b"\x02\x00")
    sizes = [1000 * 2**j for j in range(11)]
    cases = []
    for size in sizes:
        a = batched_descendant(rng, shared, size)
        # a one-step duplication keeps the pair confusable at every size, so
        # every size peels every region of the shared root
        b = td.tandem_duplicate(a, size // 2, 3)
        # same root, never confusable: one side keeps a single region copy
        # with no surviving triple, the other pumps the triple many times
        flat = b"\x00" + b"\x01" * (size // 2) + b"\x02" * (size - size // 2 - 1)
        pumped = td.pad_tail(b"\x00\x01\x02" * (size // 3), size % 3)
        c = batched_descendant(rng, other, size)
        cases.append((size, (a, b), (flat, pumped), (a, c)))
    assert td.root_le3(cases[0][2][0]) == td.root_le3(cases[0][2][1]) == w("012")
    assert not td.confusable(*cases[0][2])
    size_medians, ratios = _doubling_ratios([(size, pairs) for size, *pairs in cases])
    ok = symbols_ok and all(r <= 2.5 for r in ratios)
    detail = ", ".join(f"{s // 1000}k:{t * 1000:.1f}ms" for s, t in size_medians)
    symbols = ", ".join(f"{n // 1000}k:{ratio:.2f}" for n, ratio in symbol_ratios)
    report(
        "8 near-linear-confusability",
        ok,
        f"median over {_ROUNDS} rounds of each round's doubling ratio, worst {max(ratios):.2f} "
        f"<= 2.5 [median per size {detail}]; "
        f"long-root symbols handed per input symbol <= 4 [{symbols}]",
    )
