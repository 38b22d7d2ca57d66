import pytest

from tdcodes import (
    confusable_by_roots,
    descendant_cone,
    is_irreducible,
    remove_duplicates_pass,
    root_exact_k,
    root_le2,
    root_le3,
    root_le_k,
    tandem_duplicate,
)

from conftest import iter_ternary_words, random_descendant_steps, random_ternary, w


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


def test_pipeline_property():
    # removing all length-1, then length-2, then length-3 duplicates gives
    # the same roots as the single-pass computation
    for x in iter_ternary_words(1, 10):
        stage1 = remove_duplicates_pass(x, 1)
        stage2 = remove_duplicates_pass(stage1, 2)
        stage3 = remove_duplicates_pass(stage2, 3)
        assert stage1 == root_le_k(x, 1)
        assert stage2 == root_le2(x)
        assert stage3 == root_le3(x)


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
    assert not confusable_by_roots(w("012012"), w("011112"), "le2")
    assert confusable_by_roots(w("0100"), w("0100"), "le1")
    assert not confusable_by_roots(w("01012012"), w("012"), "le1")
    assert confusable_by_roots(w("012012"), w("012"), 3)
    with pytest.raises(ValueError):
        confusable_by_roots(w("012"), w("012"), "le3")
