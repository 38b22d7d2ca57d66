import itertools
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcodes import (
    DuplicationTrace,
    Label,
    MalformedWordError,
    NoRegionError,
    compute_label,
    confusable,
    confusable_by_labels,
    count_occurrences,
    count_regions,
    cut_prefix,
    enumerate_irreducible,
    extended_prefix,
    labels_confusable,
    main_and_region,
    normalize_trace,
    root_le3,
    root_le_k,
    tandem_duplicate,
)
from tdcodes.confusability import (
    _cap_runs,
    _expand_step,
    _peel,
    _region_plan,
    _regions,
    _swap_steps,
)
from tdcodes.oracle import _walk
from tdcodes.roots import root_le3_depths

from conftest import (
    iter_canonical_ternary,
    iter_ternary_words,
    random_descendant_steps,
    random_ternary,
    w,
)
from references import first_region_by_cases, region_plan_by_cases


def test_main_and_region_examples():
    desc = main_and_region(w("010201"))
    assert desc.main == w("102")
    assert desc.reg == w("0102")
    assert desc.w == w("01")
    assert desc.abc == w("021")
    assert desc.ell == 0

    desc = main_and_region(w("012"))
    assert (desc.main, desc.reg, desc.w, desc.abc, desc.ell) == (
        w("012"),
        w("012"),
        w("0"),
        w("120"),
        0,
    )

    desc = main_and_region(w("01201"))
    assert (desc.main, desc.reg, desc.w, desc.abc, desc.ell) == (
        w("012"),
        w("01201"),
        b"",
        w("012"),
        1,
    )


def test_main_and_region_needs_three_symbols():
    for word in ("0", "01", "010", "0101"):
        with pytest.raises(NoRegionError):
            main_and_region(w(word))


def _parse_candidates(reg: bytes):
    # all factorizations reg = prefix + abc*ell + abc[:2] with distinct
    # a, b, c, ell in {0, 1} and the prefix over {a, b, c} of length <= 3
    for ell in (0, 1):
        head = len(reg) - 3 * ell - 2
        if not 0 <= head <= 3:
            continue
        prefix = reg[:head]
        for abc in itertools.permutations(sorted(set(reg)), 3):
            abc_w = bytes(abc)
            if prefix + abc_w * ell + abc_w[:2] == reg and set(prefix) <= set(abc):
                yield prefix, abc_w, ell


def test_region_parse_table_against_search_oracle():
    # over every irreducible ternary word of length <= 12 with a region
    for n in range(1, 13):
        for r in enumerate_irreducible(n, 3, 3):
            if len(set(r[:4])) < 3:
                continue
            desc = main_and_region(r)
            assert r.startswith(desc.reg)
            assert 3 <= len(desc.reg) <= 6
            assert len(set(desc.abc)) == 3
            assert len(desc.w) <= 3 and set(desc.w) <= set(desc.abc)
            assert desc.w + desc.abc * desc.ell + desc.abc[:2] == desc.reg
            assert (desc.w, desc.abc, desc.ell) in set(_parse_candidates(desc.reg))
            # main is the first factor with three distinct symbols
            first = next(
                i for i in range(len(r) - 2) if len(set(r[i : i + 3])) == 3
            )
            assert desc.main == r[first : first + 3]
            # the symbol following the region is never c
            if len(r) > len(desc.reg):
                assert r[len(desc.reg)] != desc.abc[2]


def test_extended_prefix_examples():
    desc = main_and_region(w("010201"))
    assert extended_prefix(desc, w("01102021020120111")) == w("0110202102")
    desc012 = main_and_region(w("012"))
    assert extended_prefix(desc012, w("012")) == w("012")
    assert extended_prefix(desc012, w("0121")) == w("012")
    with pytest.raises(MalformedWordError):
        extended_prefix(desc012, w("102"))


def test_extended_prefix_is_longest_generated_prefix(rng):
    # oracle: a prefix is generated from the region iff its root is the region
    for _ in range(200):
        root = root_le3(random_ternary(rng, rng.randint(3, 8)))
        if len(set(root[:4])) < 3:
            continue
        _, x = random_descendant_steps(rng, root, rng.randint(0, 6))
        desc = main_and_region(root)
        p = extended_prefix(desc, x)
        assert root_le3(p) == desc.reg
        for longer in range(len(p) + 1, len(x) + 1):
            assert root_le3(x[:longer]) != desc.reg


def test_cut_prefix_examples():
    assert cut_prefix(w("010201"), w("01102021020120111")) == w("01102021")
    assert cut_prefix(w("012"), w("012")) == w("0")
    assert cut_prefix(w("012"), w("012012")) == w("0120")


def test_count_occurrences():
    assert count_occurrences(w("012"), w("0120120")) == 2
    assert count_occurrences(w("012"), w("2222")) == 0
    # counted in the le-2 root of the word, not in the word itself
    assert count_occurrences(w("012"), w("0112")) == 1
    assert count_occurrences(w("012"), w("011222")) == 1
    assert count_occurrences(w("012"), w("0111112")) == 1
    assert count_occurrences(w("012"), w("01111201112")) == 2
    with pytest.raises(ValueError):
        count_occurrences(w("011"), w("0120120"))


# byte symbols that are regex metacharacters, kept among the drawn symbols
_REGEX_SPECIAL = tuple(b"\n()*+.?[\\")


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_count_occurrences_matches_le2_root_over_byte_alphabets(data):
    symbol = st.sampled_from(_REGEX_SPECIAL) | st.integers(0, 255)
    alphabet = data.draw(
        st.lists(symbol, min_size=3, max_size=256, unique=True), label="alphabet"
    )
    x = bytes(data.draw(st.lists(st.sampled_from(alphabet), min_size=3, max_size=40), label="x"))
    # duplications give the word the runs and squares the le-2 root removes
    for _ in range(data.draw(st.integers(0, 6), label="dups")):
        k = data.draw(st.integers(1, min(3, len(x))), label="k")
        x = tandem_duplicate(x, data.draw(st.integers(0, len(x) - k), label="i"), k)
    symbols = sorted(set(x))
    if len(symbols) < 3:
        return
    triples = data.draw(
        st.lists(st.permutations(symbols).map(lambda s: bytes(s[:3])), min_size=1, max_size=6),
        label="triples",
    )
    root = root_le_k(x, 2)
    for t in triples:
        assert count_occurrences(t, x) == root.count(t)


def _cap_runs_by_loop(x):
    out = bytearray()
    for s in x:
        if not (len(out) >= 2 and out[-1] == out[-2] == s):
            out.append(s)
    return bytes(out)


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_cap_runs_matches_loop_over_byte_alphabets(data):
    kind = data.draw(
        st.sampled_from(("bytes", "all 256", "below 16", "one 16", "10 and 255")), label="kind"
    )
    full = kind == "all 256"
    if full:
        alphabet = list(range(256))
    elif kind == "bytes":
        alphabet = data.draw(
            st.lists(st.integers(0, 255), min_size=2, max_size=256, unique=True), label="alphabet"
        )
    else:
        # symbols below 16 with 15 among them (words._squeeze's packed
        # translate, up to the top of a half byte), or with exactly one
        # symbol, 16, that is not (the regex); or with 10, the newline byte,
        # and 255 (the regex, whose . must match every byte)
        alphabet = data.draw(
            st.lists(st.integers(0, 14), min_size=1, max_size=15, unique=True), label="alphabet"
        )
        alphabet += {"below 16": [15], "one 16": [16], "10 and 255": [10, 255]}[kind]
    runs = data.draw(
        st.lists(
            st.tuples(st.sampled_from(alphabet), st.integers(1, 50)), min_size=1, max_size=30
        ),
        label="runs",
    )
    x = b"".join(bytes((s,)) * k for s, k in runs)
    low = 1
    if full:
        # the cut keeps every byte value and the first run
        x = bytes(data.draw(st.permutations(alphabet), label="perm")) + x
        low = 256 + runs[0][1]
    x = x[: data.draw(st.integers(low, len(x)), label="length")]
    if kind in ("below 16", "one 16"):
        # a run of the top symbol anywhere, the ends included
        top = alphabet[-1]
        at = data.draw(st.integers(0, len(x)), label="at")
        x = x[:at] + bytes((top,)) * data.draw(st.integers(1, 4), label="top run") + x[at:]
        assert max(x) == top
    if kind == "10 and 255":
        # a run of three or more of each anywhere, the ends included
        for top in (10, 255):
            at = data.draw(st.integers(0, len(x)), label="at")
            x = x[:at] + bytes((top,)) * data.draw(st.integers(3, 6), label="run") + x[at:]
    got = _cap_runs(x)
    assert got == _cap_runs_by_loop(x)
    if got == x:
        assert got is x


def test_cap_runs_short_words():
    for symbols in ((0, 1, 255), (0, 1, 15), (0, 14, 16)):
        for n in range(1, 6):
            for word in itertools.product(symbols, repeat=n):
                x = bytes(word)
                assert _cap_runs(x) == _cap_runs_by_loop(x)


def test_region_plan_matches_cases_on_canonical_roots():
    # every canonical ternary root of length <= 12; the first region's
    # shape also against main_and_region
    for r in _walk(1, 12, 3, 3, canonical=True):
        assert _region_plan(r) == region_plan_by_cases(r), r
        if len(set(r[:4])) >= 3:
            d = main_and_region(r)
            assert (d.main, d.reg, d.abc) == first_region_by_cases(r), r


def test_region_plan_matches_cases_on_long_roots():
    # roots of random words over 3-12 symbols, cut to up to 4,000 symbols
    # (a prefix of a root is a root)
    rng = random.Random(30)
    for q in range(3, 13):
        for _ in range(4):
            r = root_le3(bytes(rng.randrange(q) for _ in range(rng.randint(1, 12_000))))
            r = r[: rng.randint(1, 4000)]
            assert _region_plan(r) == region_plan_by_cases(r), (q, r)
            assert count_regions(r) == len(_region_plan(r))


def test_confusable_examples():
    assert not confusable(w("012012"), w("011112"))
    assert confusable(w("01210210"), w("01201210"))
    assert confusable(w("0120"), w("0120"))
    assert not confusable(w("01210210"), w("01112110"))


def test_confusable_symmetry_reflexivity_stability(rng):
    for _ in range(400):
        start = random_ternary(rng, rng.randint(1, 5))
        _, x = random_descendant_steps(rng, start, rng.randint(0, 4))
        _, y = random_descendant_steps(rng, start, rng.randint(0, 4))
        assert confusable(x, x)
        assert confusable(x, y) == confusable(y, x)
        k = rng.randint(1, min(3, len(x)))
        i = rng.randint(0, len(x) - k)
        assert confusable(x, tandem_duplicate(x, i, k))


def test_prefix_cost_is_linear(rng):
    for _ in range(300):
        start = random_ternary(rng, rng.randint(1, 6))
        _, x = random_descendant_steps(rng, start, rng.randint(0, 6))
        _, y = random_descendant_steps(rng, start, rng.randint(0, 6))
        # a full peel of each word bounds what the decision reads per region
        cost = sum(j - i for z in (x, y) for _, i, j in _table_peel(z))
        assert cost <= 3 * (len(x) + len(y))


def test_compute_label_examples():
    assert compute_label(w("01210210")).text() == "01210:(1,+)(2,+)"
    assert compute_label(w("01201210")).text() == "01210:(2,+)(1,+)"
    assert compute_label(w("01112110")).text() == "01210:(1,-)(1,-)"
    assert compute_label(w("01210")).text() == "01210:(1,+)(1,+)"
    assert compute_label(w("000")).text() == "0:"


def test_label_text_roundtrip():
    for word in ("01210210", "01112110", "000", "012"):
        label = compute_label(w(word))
        assert Label.parse(label.text()) == label
    # symbols of two or more digits switch the root to comma-separated form
    for symbols in ((10, 11, 12, 11, 10, 12), (12, 12), (3, 12, 3), (0, 255, 1, 255, 2)):
        label = compute_label(bytes(symbols))
        assert Label.parse(label.text()) == label
    assert compute_label(bytes((10, 11, 12, 11, 10, 12))).text() == "10,11,12,11,10,12:(1,+)(1,+)"


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_label_text_roundtrip_over_byte_alphabets(data):
    alphabet = data.draw(
        st.lists(st.integers(0, 255), min_size=2, max_size=256, unique=True), label="alphabet"
    )
    x = bytes(data.draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=40), label="x"))
    label = compute_label(x)
    assert Label.parse(label.text()) == label


def test_labels_confusable():
    plus = Label(w("01210"), ((1, "+"), (2, "+")))
    swapped = Label(w("01210"), ((2, "+"), (1, "+")))
    minus = Label(w("01210"), ((1, "-"), (1, "-")))
    assert labels_confusable(plus, swapped)
    assert not labels_confusable(minus, plus)
    assert labels_confusable(minus, minus)
    assert not labels_confusable(plus, Label(w("012"), ((1, "+"),)))
    with pytest.raises(ValueError):
        labels_confusable(plus, Label(w("01210"), ((1, "+"),)))


def test_count_regions():
    assert count_regions(w("01210")) == 2
    assert count_regions(w("012")) == 1
    assert count_regions(w("010")) == 0
    assert count_regions(w("0")) == 0


def test_count_regions_matches_label_length(rng):
    for _ in range(200):
        root = root_le3(random_ternary(rng, rng.randint(1, 10)))
        _, x = random_descendant_steps(rng, root, rng.randint(0, 5))
        assert len(compute_label(x).entries) == count_regions(root)


def _check_rounds(x, r, rounds):
    # every round's prefix, found by lookup in the depth table, is the one
    # the reference scan extended_prefix finds in the suffix the round
    # starts; that suffix keeps the root minus the regions peeled so far,
    # and the next round starts at the last a of the prefix
    start = 0
    for (_, begin, end), (offset, desc) in zip(rounds, _regions(r)):
        assert begin == start
        suffix = x[start:]
        assert root_le3(suffix) == r[offset:]
        assert r[offset:].startswith(desc.reg)
        p = extended_prefix(desc, suffix)
        assert x[start:end] == p
        start += p.rfind(desc.abc[0])


def test_peeled_suffixes_keep_the_peeled_root(monkeypatch, rng):
    # on the decision route (two words peeled in lockstep) and on the label
    # route, every round _peel yields agrees with the reference scan
    from tdcodes import confusability

    peel = confusability._peel
    calls = []

    def spy(x, plan, last):
        rounds = []
        calls.append((x, plan, rounds))

        def recorded():
            for item in peel(x, plan, last):
                rounds.append(item)
                yield item

        return recorded()

    monkeypatch.setattr(confusability, "_peel", spy)

    for _ in range(300):
        root = root_le3(random_ternary(rng, rng.randint(3, 14)))
        _, x = random_descendant_steps(rng, root, rng.randint(0, 6))
        _, y = random_descendant_steps(rng, root, rng.randint(0, 6))
        # _peel is handed the capped words
        capped_x, capped_y = _cap_runs(x), _cap_runs(y)
        # with the region plan of the root, which the decision builds once
        # for both words
        plan = _region_plan(root)
        calls.clear()
        compute_label(x)
        assert [(cx, cp) for cx, cp, _ in calls] == [(capped_x, plan)]
        assert len(calls[0][2]) == count_regions(root)
        _check_rounds(calls[0][0], root, calls[0][2])
        calls.clear()
        verdict = confusable(x, y)
        assert [(cx, cp) for cx, cp, _ in calls] == [(capped_x, plan), (capped_y, plan)]
        assert calls[0][1] is calls[1][1]
        if verdict:
            assert len(calls[0][2]) == len(calls[1][2]) == count_regions(root)
        for cx, _, rounds in calls:
            _check_rounds(cx, root, rounds)


def _reference_peel(x):
    # the per-region rescan the depth table replaces: each round scans the
    # whole remaining word and continues on a re-sliced suffix
    r = root_le3(x)
    out = []
    start = 0
    while len(set(r[:4])) >= 3:
        desc = main_and_region(r)
        p = extended_prefix(desc, x[start:])
        count = root_le_k(p, 2).count(desc.main)
        t = desc.main
        sign = "+" if any(rot in p for rot in (t, t[1:] + t[:1], t[2:] + t[:2])) else "-"
        out.append(((count, sign), start, start + len(p)))
        start += p.rfind(desc.abc[0])
        r = r[len(desc.reg) - 2 :]
    return out


def _table_peel(x):
    # _peel on the capped word, as the decision and labels run it
    x = _cap_runs(x)
    r, last = root_le3_depths(x)
    return list(_peel(x, _region_plan(r), last))


def test_depth_table_matches_scan_exhaustive():
    # every ternary word of length <= 11
    for word in iter_ternary_words(1, 11):
        assert _table_peel(word) == _reference_peel(_cap_runs(word)), word


def test_capping_runs_keeps_the_peeled_entries_exhaustive():
    # every ternary word of length <= 11: the rescan reference, which counts
    # in the le-2 root of each prefix, gives every region the same (count,
    # sign) on the word and on its capped word
    for word in iter_ternary_words(1, 11):
        capped = _cap_runs(word)
        if capped is not word:
            assert [e for e, _, _ in _reference_peel(word)] == [
                e for e, _, _ in _reference_peel(capped)
            ], word


@pytest.mark.skipif(
    not os.environ.get("TDCODES_STRETCH"), reason="deeper exhaustive tier; set TDCODES_STRETCH=1"
)
def test_stretch_depth_table_matches_scan_len14():
    # every ternary word of length <= 14 up to relabeling: the root stack,
    # the region parse and the scan all commute with permuting symbols
    for word in iter_canonical_ternary(1, 14):
        assert _table_peel(word) == _reference_peel(_cap_runs(word)), word


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_depth_table_matches_scan_on_random_descendants(data):
    q = data.draw(st.integers(3, 5), label="q")
    seed = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=180), label="seed")
    root = root_le3(bytes(seed))[:60]
    x = root
    for _ in range(data.draw(st.integers(0, 12), label="steps")):
        k = data.draw(st.integers(1, min(3, len(x))), label="k")
        i = data.draw(st.integers(0, len(x) - k), label="i")
        x = tandem_duplicate(x, i, k)
    assert root_le3(x) == root
    assert _table_peel(x) == _reference_peel(_cap_runs(x))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_long_runs_keep_decision_labels_and_le2_counts(data):
    # descendants of one root with long runs injected (each a chain of
    # length-1 duplications): the decision, the label route and labels
    # counted the old way, in the le-2 root of each uncapped region prefix,
    # all agree
    q = data.draw(st.sampled_from((3, 4, 5, 256)), label="q")
    seed = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=40), label="seed")
    root = root_le3(bytes(seed))

    def descend(label):
        x = root
        for _ in range(data.draw(st.integers(0, 8), label=f"{label} steps")):
            k = data.draw(st.integers(1, min(3, len(x))), label="k")
            i = data.draw(st.integers(0, len(x) - k), label="i")
            x = tandem_duplicate(x, i, k)
        for _ in range(data.draw(st.integers(0, 4), label=f"{label} runs")):
            i = data.draw(st.integers(0, len(x) - 1), label="at")
            x = x[:i] + x[i : i + 1] * data.draw(st.integers(1, 9), label="extra") + x[i:]
        return x

    x, y = descend("x"), descend("y")
    old_x = Label(root, tuple(e for e, _, _ in _reference_peel(x)))
    old_y = Label(root, tuple(e for e, _, _ in _reference_peel(y)))
    assert compute_label(x) == old_x
    assert compute_label(y) == old_y
    verdict = confusable(x, y)
    assert verdict == confusable_by_labels(x, y) == labels_confusable(old_x, old_y)


def test_label_route_agrees_with_decision(rng):
    for _ in range(500):
        start = random_ternary(rng, rng.randint(1, 5))
        _, x = random_descendant_steps(rng, start, rng.randint(0, 5))
        _, y = random_descendant_steps(rng, start, rng.randint(0, 5))
        assert confusable(x, y) == confusable_by_labels(x, y)


def test_alphabet_generic_agreement(rng):
    # the decision, the label route, and the bounded brute-force search
    # agree over alphabets beyond the ternary one
    from tdcodes import oracle_confusable

    for _ in range(200):
        q = rng.choice([4, 5, 8])
        base = bytes(rng.randrange(q) for _ in range(rng.randint(1, 5)))

        def descend(word, cap=9):
            for _ in range(rng.randint(0, 5)):
                if len(word) >= cap:
                    break
                k = rng.randint(1, min(3, len(word)))
                i = rng.randint(0, len(word) - k)
                word = tandem_duplicate(word, i, k)
            return word

        x, y = descend(base), descend(base)
        got = confusable(x, y)
        assert got == confusable_by_labels(x, y)
        witness = oracle_confusable(x, y, max(len(x), len(y)) + 7, budget=3_000_000)
        assert got == (witness is not None)


def _all_distinct_word(length: int) -> bytes:
    return bytes(range(length))


def test_swap_rules_replay_identically():
    # every case of the reorder table, on fully distinct symbols, across
    # all index offsets that fit a small word
    n = 12
    base = _all_distinct_word(n)
    for k1, k2 in ((1, 2), (1, 3), (2, 3)):
        for i1 in range(n - k1 + 1):
            mid = tandem_duplicate(base, i1, k1)
            for i2 in range(len(mid) - k2 + 1):
                expect = tandem_duplicate(mid, i2, k2)
                replacement = _swap_steps(i1, k1, i2, k2)
                got = base
                for i, k in replacement:
                    got = tandem_duplicate(got, i, k)
                assert got == expect, (k1, i1, k2, i2, replacement)
                lengths = [k for _, k in replacement]
                assert sorted(lengths, reverse=True) != [k2, k1] or lengths == sorted(
                    lengths, reverse=True
                )


def test_swap_rules_replay_on_random_symbols(rng):
    for _ in range(1500):
        base = random_ternary(rng, rng.randint(4, 10))
        k1 = rng.randint(1, 2)
        k2 = rng.randint(k1 + 1, 3)
        if k1 > len(base):
            continue
        i1 = rng.randint(0, len(base) - k1)
        mid = tandem_duplicate(base, i1, k1)
        i2 = rng.randint(0, len(mid) - k2)
        expect = tandem_duplicate(mid, i2, k2)
        got = base
        for i, k in _swap_steps(i1, k1, i2, k2):
            got = tandem_duplicate(got, i, k)
        assert got == expect


def test_expand_rules_replay_identically():
    patterns = {
        2: ["00", "11"],
        3: ["010", "001", "011", "000", "121", "112", "122", "111"],
    }
    for k, words in patterns.items():
        for word in words:
            v = w(word)
            for pad_left in range(3):
                for pad_right in range(3):
                    base = bytes(range(10, 10 + pad_left)) + v + bytes(
                        range(20, 20 + pad_right)
                    )
                    i = pad_left
                    expect = tandem_duplicate(base, i, k)
                    got = base
                    for ii, kk in _expand_step(i, v):
                        got = tandem_duplicate(got, ii, kk)
                    assert got == expect, (word, pad_left, pad_right)


def test_normalize_trace_examples():
    t = DuplicationTrace(w("012"), ((0, 1), (0, 3)))
    nt = normalize_trace(t)
    assert nt.replay() == t.replay()
    assert [k for _, k in nt.steps] == sorted((k for _, k in nt.steps), reverse=True)

    t = DuplicationTrace(w("012"), ((0, 3),))
    assert normalize_trace(t).steps == ((0, 3),)

    t = DuplicationTrace(w("00"), ((0, 2),))
    assert normalize_trace(t).steps == ((0, 1), (0, 1))


def test_normalize_trace_rejects_invalid():
    with pytest.raises(ValueError):
        normalize_trace(DuplicationTrace(w("01"), ((3, 1),)))
    with pytest.raises(ValueError):
        normalize_trace(DuplicationTrace(b"", ()))


def test_normalized_three_phase_reaches_le2_root(rng):
    # starting from an irreducible word, the word after the length-3 phase
    # of a normalized trace is the le-2 root of the final word
    for _ in range(300):
        root = root_le3(random_ternary(rng, rng.randint(1, 8)))
        steps, word = random_descendant_steps(rng, root, rng.randint(0, 6))
        nt = normalize_trace(DuplicationTrace(root, tuple(steps)))
        cur = root
        for i, k in nt.steps:
            if k < 3:
                break
            cur = tandem_duplicate(cur, i, k)
        assert cur == root_le_k(word, 2)
        cur2 = root
        for i, k in nt.steps:
            if k < 2:
                break
            cur2 = tandem_duplicate(cur2, i, k)
        assert cur2 == root_le_k(word, 1)
