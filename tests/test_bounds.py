import pytest

from tdcodes import (
    count_regions,
    enumerate_irreducible,
    irreducible_counts,
    irreducible_region_count,
    le2_upper_bound,
    refined_upper_bound,
    region_vector_upper_bound,
)

from references import region_vector_upper_bound_bruteforce

# published reference values at lengths 1..20
EQ1_COLUMN = [
    3, 9, 21, 39, 69, 117, 195, 315, 495, 777,
    1227, 1941, 3075, 4875, 7731, 12267, 19479, 30957, 49245, 78417,
]
PROP4_COLUMN = [
    3, 9, 21, 39, 69, 117, 195, 321, 525, 855,
    1389, 2253, 3651, 5913, 9573, 15495, 25077, 40581, 65667, 106257,
]


def test_region_vector_upper_bound_examples():
    for i, m in ((3, 1), (5, 2), (7, 3)):
        assert region_vector_upper_bound(i, i, m) == 1
        assert region_vector_upper_bound(i + 3, i, m) == 2
    assert region_vector_upper_bound(10, 3, 1) == 3


def test_region_vector_upper_bound_errors():
    with pytest.raises(ValueError):
        region_vector_upper_bound(5, 6, 1)
    with pytest.raises(ValueError):
        region_vector_upper_bound(5, 3, 0)


def test_region_vector_upper_bound_matches_bruteforce():
    for gap in range(0, 31):
        for m in range(1, 7):
            i = 5
            assert region_vector_upper_bound(i + gap, i, m) == (
                region_vector_upper_bound_bruteforce(i + gap, i, m)
            ), (gap, m)


def test_irreducible_region_count_bases():
    assert irreducible_region_count(3, 1) == 6
    assert irreducible_region_count(3, 0) == 6
    assert irreducible_region_count(5, 2) == 6
    assert irreducible_region_count(6, 2) == 24
    assert irreducible_region_count(1, 0) == 3
    assert irreducible_region_count(2, 0) == 6


def test_irreducible_region_count_matches_enumeration():
    for i in range(1, 13):
        by_m: dict[int, int] = {}
        for word in enumerate_irreducible(i, 3, 3):
            m = count_regions(word)
            by_m[m] = by_m.get(m, 0) + 1
        for m in range(0, i + 1):
            assert irreducible_region_count(i, m) == by_m.get(m, 0), (i, m)


def test_region_count_rows_sum_to_irreducible_counts():
    counts = irreducible_counts(14, 3, 3)
    for i in range(1, 15):
        assert sum(irreducible_region_count(i, m) for m in range(i + 1)) == counts[i]


def test_le2_upper_bound_column():
    for n in range(1, 21):
        assert le2_upper_bound(n) == PROP4_COLUMN[n - 1]


def test_refined_upper_bound_column():
    for n in range(1, 21):
        assert refined_upper_bound(n) == EQ1_COLUMN[n - 1]


def test_refined_upper_bound_never_exceeds_le2_bound():
    for n in range(1, 21):
        assert refined_upper_bound(n) <= le2_upper_bound(n)


@pytest.mark.parametrize(
    "function, args, message",
    [
        (le2_upper_bound, (0,), "length must be positive, got 0"),
        (refined_upper_bound, (0,), "length must be positive, got 0"),
        (irreducible_region_count, (0, 0), "need i >= 1 and m >= 0, got (0, 0)"),
        (irreducible_region_count, (3, -1), "need i >= 1 and m >= 0, got (3, -1)"),
    ],
)
def test_input_checks(function, args, message):
    with pytest.raises(ValueError) as exc:
        function(*args)
    assert str(exc.value) == message
