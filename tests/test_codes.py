import os
import random

import pytest

from tdcodes import (
    Code,
    ONE_REGION_PATTERNS,
    UnsupportedRootError,
    assemble_lower_bound,
    assemble_lower_bounds,
    compute_label,
    count_regions,
    enumerate_irreducible,
    find_confusable_pair,
    irreducible_code,
    le2_upper_bound,
    one_region_code,
    one_region_size,
    one_region_words,
    pair_code,
    recursive_code,
    recursive_size,
    validate_code,
)

from conftest import w
from references import (
    assemble_lower_bounds_per_root,
    find_confusable_pair_pairwise,
    recursion_sizes,
    recursive_size_reference,
)


def test_irreducible_code_sizes():
    assert len(irreducible_code(6, 3)) == 111
    assert len(irreducible_code(5, 3)) == 69
    code = irreducible_code(1, 2)
    assert code.words == frozenset((w("0"), w("1"), w("2")))


def test_irreducible_code_le2_is_optimal_bound():
    for n in range(1, 15):
        assert len(irreducible_code(n, 2)) == le2_upper_bound(n)


def test_irreducible_code_valid():
    assert validate_code(irreducible_code(7, 3))


def test_irreducible_code_le2_pairwise_nonconfusable_under_le2():
    # the k=2 code is a code with respect to duplications of length <= 2,
    # where non-confusability is exactly distinctness of le-2 roots
    from tdcodes import root_le_k

    code = irreducible_code(6, 2)
    roots = {root_le_k(word, 2) for word in code.words}
    assert len(roots) == len(code.words)


def test_pair_code_examples():
    assert pair_code(w("0120")).words == frozenset((w("0120120"), w("0112200")))
    assert pair_code(w("0102")).words == frozenset((w("0102102"), w("0100222")))
    with pytest.raises(UnsupportedRootError):
        pair_code(w("012"))


def test_pair_code_matches_hand_built_words():
    # the rule pair_code replaced: words spelled out from r's first symbols
    def reference(r):
        r1, r2, r3, r4 = r[0], r[1], r[2], r[3]
        if r1 != r3:
            return r[:3] + r[:3] + r[3:], bytes((r1, r2, r2, r3, r3, r4, r4)) + r[4:]
        if len(r) >= 5:
            first = bytes((r1, r2, r1, r4, r2, r1, r4)) + r[4:]
            return first, bytes((r1, r2, r1, r1, r4, r4, r[4], r[4])) + r[5:]
        return bytes((r1, r2, r1, r4, r2, r1, r4)), bytes((r1, r2, r1, r1, r4, r4, r4))

    for q in (3, 4):
        for n in range(4, 9):
            for r in enumerate_irreducible(n, q):
                assert pair_code(r).words == frozenset(reference(r)), r


def test_pair_code_label_shape():
    # the two words always carry first entries (2,+) and (1,-)
    for root in ("0120", "0102", "01021", "012010", "010212"):
        code = pair_code(w(root))
        firsts = {compute_label(word).entries[0] for word in code.words}
        assert firsts == {(2, "+"), (1, "-")}
        assert validate_code(code)


def test_one_region_words_table():
    x1, z1 = one_region_words(w("012"), 1)
    assert (x1, z1) == (w("0112"), w("012"))
    x2, z2 = one_region_words(w("012"), 2)
    assert (x2, z2) == (w("0112200112"), w("012012"))
    x1, z1 = one_region_words(w("1012010"), 1)
    assert (x1, z1) == (w("1011220010"), w("1012010"))


def test_one_region_code_examples():
    assert len(one_region_code(w("012"), 10)) == 3
    code6 = one_region_code(w("012"), 6)
    assert code6.words == frozenset((w("011222"), w("012012")))
    assert len(one_region_code(w("012"), 4)) == 1


def test_one_region_code_closed_form_all_patterns():
    for pattern in ONE_REGION_PATTERNS:
        for n in range(len(pattern), 41):
            assert len(one_region_code(pattern, n)) == one_region_size(pattern, n), (
                pattern,
                n,
            )


def test_one_region_code_valid_all_patterns():
    for pattern in ONE_REGION_PATTERNS:
        for n in range(len(pattern), len(pattern) + 12):
            assert validate_code(one_region_code(pattern, n)), (pattern, n)


def test_one_region_relabeled_roots():
    from itertools import permutations

    from tdcodes import parse_word

    # 0102 is the first-occurrence relabeling of the pattern 1012
    code = one_region_code(w("0102"), 8)
    assert validate_code(code)
    assert len(code) == one_region_size(w("0102"), 8)
    # every injection of a pattern onto (5, 7, 9) relabels its code
    for pattern in ONE_REGION_PATTERNS:
        for image in permutations((5, 7, 9)):
            relabel = bytes.maketrans(bytes((0, 1, 2)), bytes(image))
            r = pattern.translate(relabel)
            for n in range(len(r), 41):
                code = one_region_code(r, n)
                assert len(code) == one_region_size(r, n), (r, n)
                want = {x.translate(relabel) for x in one_region_code(pattern, n).words}
                assert code.words == want, (r, n)
    # 5790 relabels onto the pattern 0120 only if its last 0 is taken for a 5
    for text in ("5790", "0123", "01210"):
        r = parse_word(text, 10)
        for fn in (one_region_size, one_region_code):
            with pytest.raises(UnsupportedRootError):
                fn(r, len(r) + 6)


def test_recursive_code_and_size():
    for root, n in (("01210", 9), ("01021", 10), ("012010", 12), ("01202", 11)):
        code = recursive_code(w(root), n)
        assert len(code) == recursive_size(w(root), n)
        assert validate_code(code), (root, n)


def test_recursion_over_more_than_three_symbols():
    from tdcodes import canonical_form, parse_word

    # the prefix recursion is ternary: four- and five-symbol roots are refused
    for text in ("0123", "01230", "010203", "012301", "0120310", "01234", "0123401"):
        r = parse_word(text, 5)
        for fn in (recursive_size, recursive_code):
            with pytest.raises(UnsupportedRootError):
                fn(r, len(r) + 6)
    # a ternary root over large symbol values is its canonical relabeling
    relabel = bytes.maketrans(bytes((0, 1, 2)), bytes((7, 200, 3)))
    for text in ("01210", "0102010", "012021", "01202", "0120102", "0120"):
        canon = w(text)
        r = canon.translate(relabel)
        assert canonical_form(r)[0] == canon
        for n in range(len(r), len(r) + 11):
            assert recursive_size(r, n) == recursive_size(canon, n), (text, n)
            code = recursive_code(r, n)
            assert code.words == {x.translate(relabel) for x in recursive_code(canon, n).words}


def test_prefix_case_follows_first_region():
    from tdcodes.codes import _PREFIX_CASES, _iter_canonical_irreducible
    from tdcodes import main_and_region

    def reference_key(r):
        # the case read off r1..r5, a missing position comparing as
        # different: r1 = r3; r1 != r4; r2 != r5; otherwise, named by one
        # first region of that case
        if r[0] == r[2]:
            return w("0102")
        if r[:1] != r[3:4]:
            return w("012")
        if r[1:2] != r[4:5]:
            return w("0120")
        return w("01201")

    roots = [r for r in _iter_canonical_irreducible(20) if count_regions(r) >= 2]
    assert len(roots) == 4600
    regions = set()
    for r in roots:
        reg = main_and_region(r).reg
        regions.add(reg)
        assert _PREFIX_CASES[reg] == _PREFIX_CASES[reference_key(r)], r
    assert regions == set(_PREFIX_CASES)


def test_recursive_code_rejects_four_symbols():
    from tdcodes import parse_word

    # over four symbols the prefix options can join confusable words: at
    # n = 13, 0100020210213 and 0102100210213 share the descendant
    # 01000202100210213
    with pytest.raises(UnsupportedRootError, match="more than three symbols"):
        recursive_code(parse_word("010213", 4), 13)


def test_constructions_reject_non_roots():
    for fn in (pair_code, lambda r: recursive_code(r, 8), lambda r: recursive_size(r, 8)):
        with pytest.raises(ValueError):
            fn(w("0100"))


def test_recursive_code_every_canonical_root_to_len8():
    from tdcodes import canonical_form, enumerate_irreducible

    seen = set()
    for n in range(1, 9):
        for root in enumerate_irreducible(n, 3, 3):
            canon, _ = canonical_form(root)
            if canon in seen:
                continue
            seen.add(canon)
            for target in (n, n + 2, n + 5):
                code = recursive_code(canon, target)
                assert len(code) == recursive_size(canon, target)
                assert validate_code(code), (canon, target)
            # long enough for sizes above 2 on every multi-region root
            target = n + 13
            assert len(recursive_code(canon, target)) == recursive_size(canon, target)


def test_recursive_size_properties():
    r = w("01210")
    sizes = [recursive_size(r, n) for n in range(5, 20)]
    assert sizes == sorted(sizes)  # padding rule: nondecreasing in n
    assert recursive_size(r, 5) == 1
    assert recursive_size(r, 8) == 2
    assert recursive_size(w("012"), 10) == one_region_size(w("012"), 10)
    assert recursive_size(r, 12) == recursive_size(r[::-1], 12)


def test_validate_code_negative():
    bad = Code(6, 3, frozenset((w("012012"), w("012222"))), "manual")
    assert not validate_code(bad)
    pair = find_confusable_pair(bad)
    assert set(pair) == {w("012012"), w("012222")}
    with pytest.raises(ValueError):
        validate_code(Code(6, 3, frozenset((w("012"), w("012012"))), "manual"))


@pytest.mark.parametrize("n", [6, 8, 10])
def test_find_confusable_pair_matches_pairwise_reference(n):
    # random parts of the assembled code, which span many roots, with up
    # to three random words of the same length added: the labelled search
    # returns the pair the pairwise decision finds first
    rng = random.Random(n)
    words = sorted(assemble_lower_bound(n).words)
    found = set()
    for _ in range(100):
        part = set(rng.sample(words, rng.randint(2, 40)))
        part |= {bytes(rng.randrange(3) for _ in range(n)) for _ in range(rng.randint(0, 3))}
        code = Code(n, 3, frozenset(part), "sample")
        pair = find_confusable_pair(code)
        assert pair == find_confusable_pair_pairwise(code)
        found.add(pair is None)
    assert found == {False, True}


def test_assemble_lower_bound_small():
    assert len(assemble_lower_bound(1)) == 3
    assert len(assemble_lower_bound(5)) == 69
    assert len(assemble_lower_bound(6)) == 117


@pytest.mark.parametrize("n", [0, -1])
def test_assemble_lower_bound_refuses_nonpositive_length(n):
    with pytest.raises(ValueError, match="lengths must be positive"):
        assemble_lower_bound(n)
    with pytest.raises(ValueError, match="lengths must be positive"):
        assemble_lower_bounds([n])


def test_assemble_lower_bounds_without_cache():
    # the table's lower column for n = 1..24 with no size cache
    lower = [
        3, 9, 21, 39, 69, 117, 195, 315, 489, 747, 1143, 1749,
        2655, 4005, 6009, 9003, 13491, 20139, 29955, 44397, 65829, 97569, 144351, 213375,
    ]
    assert assemble_lower_bounds(range(1, 25)) == dict(enumerate(lower, start=1))


_TARGET_SETS = [{1}, {1, 2, 3}, {4}, {3, 7, 19}, set(range(1, 25))]


@pytest.fixture(scope="module")
def warm_cache():
    from tdcodes import optimal_size
    from tdcodes.optimal import SizeCache

    cache = SizeCache(None)
    for n in range(1, 13):
        optimal_size(n, cache)
    return cache


@pytest.mark.parametrize("targets", _TARGET_SETS, ids=lambda t: ",".join(map(str, sorted(t))))
@pytest.mark.parametrize("warm", [False, True], ids=["no-cache", "warm-cache"])
def test_assemble_lower_bounds_equals_the_per_root_sum(targets, warm, request):
    # the near-root part added from irreducible counts against every root
    # adding its orbit within two symbols of it
    cache = request.getfixturevalue("warm_cache") if warm else None
    assert assemble_lower_bounds(targets, cache) == assemble_lower_bounds_per_root(targets, cache)


@pytest.mark.parametrize("warm", [False, True], ids=["no-cache", "warm-cache"])
def test_size_rows_equal_the_reference_recursion(warm, request):
    # every canonical root up to length 14 at every length up to 24: the
    # shared rows against one memoised call per (root, length)
    from tdcodes.codes import _iter_canonical_irreducible, _size_table

    cache = request.getfixturevalue("warm_cache") if warm else None
    row, _ = _size_table(24, cache)
    value = recursion_sizes(cache)
    roots = list(_iter_canonical_irreducible(14))
    assert len(roots) == 463
    for root in roots:
        assert row(root) == tuple(value(root, n) for n in range(25)), root


@pytest.mark.parametrize(
    "root", ["01210", "01021", "012010", "01202", "0102010", "012021", "0120102", "0120"]
)
def test_recursive_size_and_code_equal_the_reference_recursion(root):
    r = w(root)
    value = recursion_sizes()
    for n in range(len(r), 25):
        want = recursive_size_reference(value, r, n)
        assert recursive_size(r, n) == want, n
        assert len(recursive_code(r, n)) == want, n


def test_relabel_by_the_first_two_symbols_is_the_canonical_form():
    # every word the prefix recursion relabels: each canonical root up to
    # length 14, its reversal and every suffix of either
    from tdcodes import canonical_form
    from tdcodes.codes import _canon, _iter_canonical_irreducible

    roots = list(_iter_canonical_irreducible(14))
    assert len(roots) == 463
    for root in roots:
        for x in (root, root[::-1]):
            for i in range(len(x)):
                assert _canon(x[i:]) == canonical_form(x[i:])[0], (root, x, i)


def test_shape_is_fixed_by_the_first_eight_symbols():
    # the lemma behind the shape memo: for every canonical irreducible
    # ternary word of length 9..16, parsing the word and parsing its first
    # eight symbols give one region count (capped at two) and one case;
    # each shape comes from a fresh table, so no memo is shared
    from tdcodes.codes import _size_table
    from tdcodes.oracle import _walk

    words = list(_walk(9, 16, 3, 3, canonical=True))
    assert len(words) == 954
    for x in words:
        assert _size_table(16)[1](x) == _size_table(16)[1](x[:8]), x


@pytest.mark.skipif(
    not os.environ.get("TDCODES_STRETCH"), reason="stretch lengths; set TDCODES_STRETCH=1"
)
def test_stretch_lower_bounds_match_reference_recursion_n30():
    targets = range(1, 31)
    assert assemble_lower_bounds(targets) == assemble_lower_bounds_per_root(targets)


@pytest.mark.skipif(
    not os.environ.get("TDCODES_STRETCH"), reason="stretch lengths; set TDCODES_STRETCH=1"
)
def test_stretch_lower_bounds_past_n24():
    # the table's lower column for n = 25..30 with no size cache
    lower = assemble_lower_bounds(range(1, 31))
    assert [lower[n] for n in range(25, 31)] == [
        314865, 464439, 684777, 1009113, 1486143, 2186955,
    ]


def test_assemble_lower_bound_monotone():
    values = [len(assemble_lower_bound(n)) for n in range(1, 10)]
    assert values == sorted(values)


def test_assemble_lower_bound_materialized():
    code = assemble_lower_bound(7)
    assert len(code) == assemble_lower_bounds([7])[7]
    assert validate_code(code)


def test_recursion_reads_size_cache_across_relabeling_and_reversal():
    from tdcodes import assemble_lower_bounds, optimal_size
    from tdcodes.codes import _iter_canonical_irreducible
    from tdcodes.optimal import SizeCache

    cache = SizeCache(None)
    for m in range(1, 11):
        optimal_size(m, cache)
    # every root at every length is cached, so the recursion returns the optima
    for n in range(1, 11):
        assert assemble_lower_bounds([n], cache)[n] == optimal_size(n)
        for root in _iter_canonical_irreducible(n):
            want = cache.get(root, n)[0]
            assert recursive_size(root, n, cache) == want, (root, n)
            assert recursive_size(root[::-1], n, cache) == want, (root, n)
    # past the cache, suffixes and reversals of every relabeling reach it
    # (without the cache: 1143, 1749, 2655, 4005, 6009, 9003)
    assert assemble_lower_bounds(range(11, 17), cache) == {
        11: 1197,
        12: 1779,
        13: 2655,
        14: 4041,
        15: 6165,
        16: 9255,
    }


@pytest.mark.parametrize(
    "function, args, error, message",
    [
        (irreducible_code, (5, 1), ValueError, "k must be 2 or 3, got 1"),
        (irreducible_code, (0, 3), ValueError, "length must be positive, got 0"),
        (one_region_words, (w("012"), 0), ValueError, "family index must be >= 1, got 0"),
        (one_region_words, (w("01"), 1), UnsupportedRootError, "01 is not a normalized one-region root"),
        (one_region_code, (w("012"), 2), ValueError, "target length 2 below root length 3"),
        (recursive_code, (w("01210"), 4), ValueError, "target length 4 below root length 5"),
    ],
)
def test_input_checks(function, args, error, message):
    with pytest.raises(error) as exc:
        function(*args)
    assert str(exc.value) == message


@pytest.mark.parametrize("pattern", ONE_REGION_PATTERNS)
def test_one_region_size_below_the_root_is_zero(pattern):
    assert one_region_size(pattern, len(pattern) - 1) == 0
