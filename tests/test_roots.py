import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcodes import (
    confusable,
    descendant_cone,
    is_irreducible,
    root_exact_k,
    root_le3,
    root_le_k,
    tandem_duplicate,
)
from tdcodes import roots
from tdcodes.confusability import _cap_runs
from tdcodes.roots import _PREPASS_FLOOR, _prepass_stack, _stack, root_le3_depths
from tdcodes.words import _narrow

from conftest import (
    batched_descendant,
    iter_ternary_words,
    random_descendant_steps,
    random_ternary,
    w,
)
from references import remove_duplicates_pass


def test_root_le_k_examples():
    assert root_le_k(w("01012012"), 3) == w("012")
    assert root_le_k(w("012012"), 2) == w("012012")
    assert root_le_k(w("0"), 3) == w("0")


def test_root_le_k_rejects_bad_args():
    with pytest.raises(ValueError):
        root_le_k(b"", 3)
    with pytest.raises(ValueError):
        root_le_k(w("01"), 4)


def test_root_exact_k_examples():
    assert root_exact_k(w("01211210"), 3) == w("01210")
    assert root_exact_k(w("0101"), 2) == w("01")
    assert root_exact_k(w("012"), 5) == w("012")


def _pipeline_roots(x: bytes) -> list[bytes]:
    # the roots of x for k = 1, 2, 3 by definition: remove every length-1,
    # then every length-2, then every length-3 duplicate
    roots = []
    for k in (1, 2, 3):
        x = remove_duplicates_pass(x, k)
        roots.append(x)
    return roots


def _check_kernel(x: bytes, k: int, prefix_roots) -> None:
    # prefix_roots(j) is the le-k root of x[:j] for 1 <= j <= len(x)
    r, last = _stack(x, k)
    assert r == prefix_roots(len(x)), (x, k)
    depths = [0] + [len(prefix_roots(j)) for j in range(1, len(x) + 1)]
    assert len(last) == max(depths) + 1, (x, k)
    for d, end in enumerate(last):
        assert end == max(j for j, depth in enumerate(depths) if depth == d), (x, k, d)


def test_pipeline_property():
    # removing all length-1, then length-2, then length-3 duplicates gives
    # the same roots as the single-pass computation, and the depth table
    # matches the roots of every prefix; every ternary word of length <= 10
    roots: dict[bytes, list[bytes]] = {}
    for x in iter_ternary_words(1, 10):
        roots[x] = _pipeline_roots(x)
        assert roots[x] == [root_le_k(x, 1), root_le_k(x, 2), root_le3(x)]
        for k in (1, 2, 3):
            _check_kernel(x, k, lambda j: roots[x[:j]][k - 1])


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_kernel_matches_definitions_on_long_runs(data):
    # words of runs of 1-50 equal symbols over q = 2..6 arbitrary byte
    # values, so runs, the -1 sentinel and symbols above 2 all occur
    q = data.draw(st.integers(2, 6), label="q")
    alphabet = data.draw(
        st.lists(st.integers(0, 255), min_size=q, max_size=q, unique=True), label="alphabet"
    )
    runs = data.draw(
        st.lists(st.tuples(st.sampled_from(alphabet), st.integers(1, 50)), min_size=1, max_size=10),
        label="runs",
    )
    x = b"".join(bytes([s]) * m for s, m in runs)
    prefix_roots = [None] + [_pipeline_roots(x[:j]) for j in range(1, len(x) + 1)]
    for k in (1, 2, 3):
        _check_kernel(x, k, lambda j: prefix_roots[j][k - 1])


# Settings of roots._COLLAPSE_SHARE that force the pre-pass's paths on
# any word: the collapse runs whenever it applies and then the pair and
# triple drops, or it never runs and only the triples of the word itself
# are dropped.
_FORCED = [1 << 40, 0]
# Relabelings of ternary words: symbols below 16 (the packed translates of
# words._squeeze, words._sides and words._keep) and, on every word that
# holds its third symbol, one of 16 or more, which root_le3_depths hands
# to the stack.
_RELABEL = [bytes.maketrans(b"\0\1\2", alphabet) for alphabet in (b"\0\1\2", b"\x0f\x00\x10")]


def _prepass_or_stack(x: bytes) -> tuple[bytes, list[int]]:
    # the pre-pass itself on a narrow word (root_le3_depths skips it below
    # the floor), and root_le3_depths on a wide one
    return _prepass_stack(x) if _narrow(x) else root_le3_depths(x)


def test_triple_prepass_keeps_root_and_depth_table_exhaustive():
    # every ternary word of length <= 11 on each forced path, over a
    # narrow and a wide alphabet
    for share in _FORCED:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(roots, "_COLLAPSE_SHARE", share)
            for word in iter_ternary_words(1, 11):
                for table in _RELABEL:
                    x = word.translate(table)
                    assert _prepass_or_stack(x) == _stack(x, 3), (x, share)


@pytest.mark.parametrize("kind", [bytes, bytearray])
def test_fresh_stack_does_not_copy_the_word(kind):
    # one run of 64 KiB: the stack holds one symbol and the table two entries
    import tracemalloc

    x = kind(1 << 16)
    tracemalloc.start()
    try:
        for k in (1, 2, 3):
            assert _stack(x, k) == (b"\0", [0, len(x)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(x) // 4


@pytest.mark.skipif(
    not os.environ.get("TDCODES_STRETCH"), reason="deeper exhaustive tier; set TDCODES_STRETCH=1"
)
def test_stretch_triple_prepass_len13():
    # every ternary word of length 12 and 13; the tier-1 test covers the
    # shorter ones
    for share in _FORCED:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(roots, "_COLLAPSE_SHARE", share)
            for word in iter_ternary_words(12, 13):
                for table in _RELABEL:
                    x = word.translate(table)
                    assert _prepass_or_stack(x) == _stack(x, 3), (x, share)


def _pumped_word(data) -> tuple[bytes, int]:
    # a word over 3, 4, 5 or 256 byte values (the first three sizes drawn
    # all below 16, or with one of 16 or more: see _RELABEL) of a length on
    # either side of the floor, built from pieces that pump a triple, a
    # pair or one symbol between plain stretches, so that runs of equal
    # aligned blocks start at every phase; with the length of its head
    # (below)
    q = data.draw(st.sampled_from((3, 4, 5, 256)), label="q")
    narrow = q < 256 and data.draw(st.booleans(), label="narrow")
    alphabet = data.draw(
        st.lists(st.integers(0, 15 if narrow else 255), min_size=q, max_size=q, unique=True).filter(
            lambda symbols: narrow or max(symbols) >= 16
        ),
        label="alphabet",
    )
    every = q == 256 and data.draw(st.booleans(), label="every byte value")
    n = data.draw(st.integers(_PREPASS_FLOOR if every else 1, 3 * _PREPASS_FLOOR), label="length")
    pieces = []
    if every:
        # every byte value, then five or more copies of a triple: at least
        # three equal aligned blocks.  Both end within 256 + 600 <
        # _PREPASS_FLOOR symbols, so the cut keeps them
        pieces.append(bytes(data.draw(st.permutations(alphabet), label="permutation")))
        triple = bytes(data.draw(st.lists(st.sampled_from(alphabet), min_size=3, max_size=3)))
        pieces.append(triple * data.draw(st.integers(5, 200), label="copies"))
    head = len(pieces)
    size = sum(map(len, pieces))
    while size < n:
        kind = data.draw(st.sampled_from((3, 2, 1, 0)), label="period")
        if kind:
            factor = data.draw(st.lists(st.sampled_from(alphabet), min_size=kind, max_size=kind))
            piece = bytes(factor) * data.draw(st.integers(2, 200), label="copies")
        else:
            piece = bytes(data.draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=30)))
        pieces.insert(data.draw(st.integers(head, len(pieces)), label="at"), piece)
        size += len(piece)
    return b"".join(pieces)[:n], sum(map(len, pieces[:head]))


def _repeat_symbols(data, x: bytes, start: int, most: int) -> bytes:
    # x with each symbol from start on, at a drawn rate, repeated 2 to most
    # times
    rate = data.draw(st.sampled_from((0, 1 / 64, 1 / 8, 1 / 3, 1)), label="rate")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    return x[:start] + bytes(
        b for s in x[start:] for b in [s] * (rng.randint(2, most) if rng.random() < rate else 1)
    )


def _check_prepass(x: bytes) -> None:
    # the public function, and on a narrow word the pre-pass with its share
    # as it is and on each forced path, all give the stack's root and table
    expected = _stack(x, 3)
    assert root_le3_depths(x) == expected
    if not _narrow(x):
        return
    assert _prepass_stack(x) == expected
    for share in _FORCED:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(roots, "_COLLAPSE_SHARE", share)
            assert _prepass_stack(x) == expected, share


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_triple_prepass_on_pumped_words(data):
    # pumped words with symbols doubled at random past the head and then
    # run-capped, so that the collapse applies, as on the decision's words
    x, head = _pumped_word(data)
    x = _cap_runs(_repeat_symbols(data, x, head, 2))
    _check_prepass(x)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_prepass_on_words_with_runs_of_three(data):
    # pumped words as drawn, and with symbols repeated up to five times,
    # with no capping: runs of three or more, which root_le3_depths, being
    # public, may be handed, and on which the collapse must not run
    x, head = _pumped_word(data)
    _check_prepass(x)
    _check_prepass(_repeat_symbols(data, x, head, 5))


def test_prepass_leaves_the_stack_a_small_share_of_grown_words(monkeypatch):
    # a deterministic work counter: the symbols handed to the stack loop,
    # as a share of each run-capped word.  On descendants of a 16-symbol
    # root of 64k-1M symbols it is 0.7-2.0% (the triple drop alone leaves
    # 77-80%); on descendants of 2k-8k-symbol roots, where only the triple
    # drop runs, 97.0-98.2%, as with the triple drop alone
    rng = random.Random(29)
    handed = [0]

    def counted(x, k):
        handed[0] += len(x)
        return stack(x, k)

    stack = roots._stack
    monkeypatch.setattr(roots, "_stack", counted)

    def share(word):
        c = _cap_runs(word)
        handed[0] = 0
        root_le3_depths(c)
        return handed[0] / len(c)

    root = root_le3(bytes(rng.randrange(3) for _ in range(80)))[:16]
    grown = [share(batched_descendant(rng, root, size)) for size in (1 << 16, 1 << 18, 1 << 20)]
    assert max(grown) <= 0.04, grown
    long_roots = []
    for length in (2000, 4000, 8000):
        while True:
            long_root = root_le3(bytes(rng.randrange(3) for _ in range(4 * length + 20)))[:length]
            if len(long_root) == length:
                break
        long_roots += [share(batched_descendant(rng, long_root, 2 * length)) for _ in range(2)]
    assert max(long_roots) <= 0.985, long_roots


def test_root_uniqueness_all_removal_orders():
    # every maximal deduplication order reaches the same root; bottom-up
    # over all ternary words of length <= 10
    for k in (1, 2, 3):
        roots: dict[bytes, bytes] = {}
        for x in iter_ternary_words(1, 10):
            n = len(x)
            children = [
                x[:i] + x[i + j :]
                for j in range(1, k + 1)
                for i in range(n - 2 * j + 1)
                if x[i : i + j] == x[i + j : i + 2 * j]
            ]
            if not children:
                roots[x] = x
            else:
                candidates = {roots[c] for c in children}
                assert len(candidates) == 1, (x, k, candidates)
                roots[x] = candidates.pop()
            assert roots[x] == root_le_k(x, k)


def test_idempotence_and_duplication_invariance(rng):
    for _ in range(300):
        x = random_ternary(rng, rng.randint(1, 14))
        for k in (1, 2, 3):
            r = root_le_k(x, k)
            assert root_le_k(r, k) == r
            dup_k = rng.randint(1, min(k, len(x)))
            i = rng.randint(0, len(x) - dup_k)
            assert root_le_k(tandem_duplicate(x, i, dup_k), k) == r


def test_exact_root_of_duplicate_is_preserved(rng):
    for _ in range(300):
        x = random_ternary(rng, rng.randint(1, 12))
        k = rng.randint(1, min(3, len(x)))
        i = rng.randint(0, len(x) - k)
        y = tandem_duplicate(x, i, k)
        assert root_exact_k(remove_duplicates_pass(y, k), k) == root_exact_k(x, k)


def test_root_is_ancestor(rng):
    # a duplication path from the root back up to the word exists
    for _ in range(25):
        start = random_ternary(rng, rng.randint(1, 4))
        _, x = random_descendant_steps(rng, start, rng.randint(0, 4))
        r = root_le3(x)
        cone = descendant_cone(r, len(x))
        assert x in cone.members


def test_confusable_by_roots():
    # for duplications of length exactly k, or at most 1 or 2, two words are
    # confusable exactly when their roots are equal
    assert root_le_k(w("012012"), 2) != root_le_k(w("011112"), 2)
    assert root_le_k(w("0100"), 1) == root_le_k(w("0100"), 1)
    assert root_le_k(w("01012012"), 1) != root_le_k(w("012"), 1)
    assert root_exact_k(w("012012"), 3) == root_exact_k(w("012"), 3)
    # at most 3, equal roots are necessary but not sufficient
    assert root_le3(w("012012")) == root_le3(w("011112"))
    assert not confusable(w("012012"), w("011112"))


@pytest.mark.parametrize(
    "function, args",
    [(root_le3_depths, (b"",)), (root_exact_k, (b"", 1))],
)
def test_input_checks(function, args):
    with pytest.raises(ValueError) as exc:
        function(*args)
    assert str(exc.value) == "empty word has no root"
