from itertools import count
from math import comb

import pytest

from tdcodes import (
    ResourceBudgetError,
    canonical_form,
    compute_label,
    descendant_cone,
    enumerate_irreducible,
    enumerate_labels,
    irreducible_counts,
    is_irreducible,
    oracle_confusable,
    root_le3,
)
from tdcodes import oracle
from tdcodes.confusability import _region_plan
from tdcodes.oracle import _walk

from conftest import iter_ternary_words, random_descendant_steps, random_ternary, w
from references import run_capped_cone


def test_enumerate_irreducible_small():
    words = set(enumerate_irreducible(3, 3, 3))
    assert len(words) == 12
    assert set(enumerate_irreducible(1, 3, 3)) == {w("0"), w("1"), w("2")}
    assert all(is_irreducible(x, 3) for x in words)


def test_enumerate_matches_filter_oracle():
    for k in (1, 2, 3):
        for n in range(1, 9):
            got = set(enumerate_irreducible(n, 3, k))
            expect = {x for x in iter_ternary_words(n, n) if is_irreducible(x, k)}
            assert got == expect


@pytest.mark.parametrize("canonical", [False, True])
@pytest.mark.parametrize("n_min", [1, 3])
def test_walk_yields_each_word_once_in_sorted_order(n_min, canonical):
    # a preorder walk that visits smaller siblings first is lexicographic
    # order; `tdcodes irr` prints the words in this order
    for k in range(4):
        for q in range(2, 5):
            words = list(_walk(n_min, 8, q, k, canonical))
            assert words == sorted(set(words)), (k, q)


def test_irreducible_counts_match_enumeration():
    for q, n_max in ((2, 10), (3, 12), (4, 8)):
        for k in (1, 2, 3):
            counts = irreducible_counts(n_max, q, k)
            for n in range(1, n_max + 1):
                assert counts[n] == sum(1 for _ in enumerate_irreducible(n, q, k)), (q, k, n)


def test_descendant_cone_examples():
    assert descendant_cone(w("012"), 3).members == {w("012")}
    assert descendant_cone(w("0"), 3).members == {w("0"), w("00"), w("000")}
    members = descendant_cone(w("012"), 6).members
    assert w("012012") in members and w("011112") in members


def test_descendant_cone_members_share_root():
    cone = descendant_cone(w("0120"), 8)
    assert all(root_le3(x) == w("0120") for x in cone.members)


def test_descendant_cone_budget():
    with pytest.raises(ResourceBudgetError):
        descendant_cone(w("012"), 14, budget=1000)


def test_descendant_cone_complete_against_filter():
    # every ternary word of length <= 7 with root 012 lies in the cone
    cone = descendant_cone(w("012"), 7).members
    expect = {x for x in iter_ternary_words(3, 7) if root_le3(x) == w("012")}
    assert cone == expect


def test_oracle_confusable():
    witness = oracle_confusable(w("01210210"), w("01201210"), 24)
    assert witness is not None
    assert root_le3(witness) == w("01210")
    assert oracle_confusable(w("012012"), w("011112"), 14) is None
    assert oracle_confusable(w("0120"), w("0120"), 4) == w("0120")
    # default bound is longer input + 16
    assert oracle_confusable(w("012"), w("0112")) is not None


def test_oracle_budget_covers_both_cones():
    # each cone alone holds 87 words up to length 7, its origin included;
    # the oracle counts the words of both cones against its one budget
    for word in ("012", "021"):
        assert len(descendant_cone(w(word), 7, budget=87).members) == 87
        with pytest.raises(ResourceBudgetError):
            descendant_cone(w(word), 7, budget=86)
    with pytest.raises(ResourceBudgetError) as exc:
        oracle_confusable(w("012"), w("021"), 7, budget=173)
    assert str(exc.value) == "descendant cone of 021 exceeded 173 states"
    assert oracle_confusable(w("012"), w("021"), 7, budget=174) is None


def test_oracle_witness_is_common_descendant(rng):
    for _ in range(30):
        start = random_ternary(rng, rng.randint(1, 4))
        _, x = random_descendant_steps(rng, start, rng.randint(0, 3))
        _, y = random_descendant_steps(rng, start, rng.randint(0, 3))
        witness = oracle_confusable(x, y, max(len(x), len(y)) + 8)
        if witness is None:
            continue
        assert witness in descendant_cone(x, len(witness)).members
        assert witness in descendant_cone(y, len(witness)).members


@pytest.mark.parametrize("root", list(_walk(1, 7, 3, 3, canonical=True)), ids=lambda r: r.hex())
def test_run_free_walk_makes_the_run_free_cone(root):
    # the lemma behind enumerate_labels: the run-free walk makes exactly the
    # cone's members with no run ss (its point B), and the run-capped
    # members are those words with any set of positions doubled (point A)
    cone = descendant_cone(root, 12).members
    for n in range(len(root), 13):
        walked = set().union(*oracle._cone(root, n, 10**9, count(), run_free=True))
        assert walked == {x for x in cone if len(x) <= n and all(a != b for a, b in zip(x, x[1:]))}, n
        doubled = sum(comb(len(y), j) for y in walked for j in range(n - len(y) + 1))
        assert doubled == len(run_capped_cone(root, n)), n


def test_enumerate_labels_examples():
    assert {l.text() for l in enumerate_labels(w("01210"), 5)} == {"01210:(1,+)(1,+)"}
    assert {l.text() for l in enumerate_labels(w("012"), 3)} == {"012:(1,+)"}
    assert {l.text() for l in enumerate_labels(w("0"), 5)} == {"0:"}


def test_enumerate_labels_root_invariant():
    for label in enumerate_labels(w("0120"), 8):
        assert label.root == w("0120")


def test_enumerate_labels_parses_its_root_once(monkeypatch):
    # every cone word has the root's regions, so one plan serves them all
    calls = []

    def spy(r):
        calls.append(r)
        return _region_plan(r)

    monkeypatch.setattr(oracle, "_region_plan", spy)
    labels = enumerate_labels(w("0120"), 12)
    assert calls == [w("0120")]
    assert len(labels) > 1


def test_canonical_form():
    assert canonical_form(w("102")) == (w("012"), 6)
    assert canonical_form(w("000")) == (w("000"), 3)
    assert canonical_form(w("2121")) == (w("0101"), 6)
    assert canonical_form(bytes((3, 1, 0, 2)), q=4) == (bytes((0, 1, 2, 3)), 24)
    assert canonical_form(w("10"), q=5) == (w("01"), 20)
    with pytest.raises(ValueError, match="word uses 4 symbols, alphabet has 3"):
        canonical_form(bytes((0, 1, 2, 3)), q=3)
    for word in ("0120", "2101", "111"):
        canon, _ = canonical_form(w(word))
        assert canonical_form(canon)[0] == canon


def test_canonical_form_label_compatible(rng):
    for _ in range(100):
        x = random_ternary(rng, rng.randint(1, 10))
        canon, _ = canonical_form(x)
        assert compute_label(x).entries == compute_label(canon).entries


@pytest.mark.parametrize(
    "function, args, message",
    [
        (enumerate_irreducible, (0,), "length must be positive, got 0"),
        (irreducible_counts, (5, 3, 4), "k must be 1..3, got 4"),
        (descendant_cone, (w("012"), 2), "max_len 2 below word length 3"),
        (oracle_confusable, (w("012"), w("0"), 2), "max_len 2 below longer input"),
        (enumerate_labels, (w("012"), 2), "target length 2 below root length 3"),
    ],
)
def test_input_checks(function, args, message):
    with pytest.raises(ValueError) as exc:
        function(*args)
    assert str(exc.value) == message
