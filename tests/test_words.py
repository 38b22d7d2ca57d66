import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcodes import (
    check_word,
    is_irreducible,
    pad_tail,
    parse_word,
    render_word,
    tandem_duplicate,
)

from tdcodes.words import _sides, _squeeze

from conftest import iter_ternary_words, random_ternary, w
from references import remove_duplicates_pass


def test_parse_render_roundtrip():
    assert parse_word("01210") == bytes((0, 1, 2, 1, 0))
    assert render_word(bytes((0, 1, 2, 1, 0))) == "01210"
    assert parse_word("0,1,2,10", q=11) == bytes((0, 1, 2, 10))
    assert render_word(bytes((0, 1, 2, 10)), q=11) == "0,1,2,10"
    with pytest.raises(ValueError, match="symbol 12 out of range for alphabet size 3"):
        render_word(bytes((0, 12, 1)), 3)  # not "0121", another word


def test_parse_render_roundtrip_large_alphabets():
    # over q > 10 a one-symbol word renders without a comma and must parse back
    for q in (11, 13, 256):
        for word in (bytes((q - 1,)), bytes((0,)), bytes((q - 1, q - 1)), bytes((0, q - 1, 1))):
            assert parse_word(render_word(word, q), q) == word
    assert render_word(bytes((12,)), 13) == "12"
    with pytest.raises(ValueError):
        parse_word("012", q=13)  # a leading zero is no rendering of one symbol
    with pytest.raises(ValueError):
        parse_word("13", q=13)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_rendered_words_parse_back(data):
    # a word renders exactly when its symbols are below q, and its text
    # then parses back to it
    q = data.draw(st.sampled_from((1, 2, 3, 10, 11, 13, 256)), label="q")
    x = bytes(data.draw(st.lists(st.integers(0, min(q, 255)), min_size=1, max_size=8), label="x"))
    if max(x) < q:
        assert parse_word(render_word(x, q), q) == x
    else:
        with pytest.raises(ValueError, match=f"symbol {q} out of range for alphabet size {q}"):
            render_word(x, q)


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_word("")
    with pytest.raises(ValueError):
        parse_word("013")  # symbol 3 out of range for q=3
    with pytest.raises(ValueError):
        parse_word("01x")
    with pytest.raises(ValueError):
        parse_word("012", q=11)  # digit syntax only up to q=10
    for text in ("1,,2", "1,2,"):
        with pytest.raises(ValueError, match=f"empty symbol in '{text}'"):
            parse_word(text, q=13)


@pytest.mark.parametrize(
    "text, q, message",
    [
        ("", 3, "empty word"),
        (" \n", 3, "empty word"),
        ("1,,2", 13, "empty symbol in '1,,2'"),
        ("1, ,2", 3, "empty symbol in '1, ,2'"),
        ("0,x", 13, "invalid literal for int() with base 10: 'x'"),
        ("01x", 3, "not a digit string: '01x'"),
        ("-1", 3, "not a digit string: '-1'"),
        ("012", 11, "alphabet size 11 needs comma-separated symbols"),
        ("013", 3, "symbol 3 out of range for alphabet size 3"),
        ("0193", 9, "symbol 9 out of range for alphabet size 9"),
        ("0", 0, "symbol 0 out of range for alphabet size 0"),
        ("0,1,13", 13, "symbol 13 out of range for alphabet size 13"),
        ("13", 13, "symbol 13 out of range for alphabet size 13"),
        ("0,-1", 13, "symbol -1 out of range for alphabet size 13"),
    ],
)
def test_parse_word_messages(text, q, message):
    with pytest.raises(ValueError) as exc:
        parse_word(text, q)
    assert str(exc.value) == message


def test_digit_text_over_every_small_alphabet():
    # the digit form round-trips at every q <= 10
    for q in range(1, 11):
        x = bytes(range(q)) * 3
        text = "".join(map(str, x))
        assert render_word(x, q) == text
        assert parse_word(f" {text}\n", q) == x
    assert render_word(b"", 3) == ""


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_squeeze_and_sides_match_loops(data):
    # narrow words: symbols below 16 with a run of 15, the top of a half
    # byte, among them
    top = 15
    alphabet = data.draw(st.lists(st.integers(0, 14), min_size=1, max_size=4, unique=True)) + [top]
    runs = data.draw(st.lists(st.tuples(st.sampled_from(alphabet), st.integers(1, 5))))
    runs.insert(data.draw(st.integers(0, len(runs))), (top, data.draw(st.integers(1, 5))))
    x = b"".join(bytes((s,)) * k for s, k in runs)
    for run in (2, 3, 4):
        kept = bytes(s for j, s in enumerate(x) if j < run - 1 or len(set(x[j - run + 1 : j + 1])) > 1)
        assert _squeeze(x, run) == kept, run
    n = len(x)
    sides = _sides(x)
    assert len(sides) == n
    for j, b in enumerate(sides):
        assert (b & 15 == 0, b >> 4 == 0) == (0 < j and x[j - 1] == x[j], j < n - 1 and x[j] == x[j + 1])


def test_tandem_duplicate_examples():
    assert tandem_duplicate(w("01210"), 1, 3) == w("01211210")
    assert tandem_duplicate(w("01211210"), 0, 2) == w("0101211210")
    assert tandem_duplicate(w("0"), 0, 1) == w("00")


def test_tandem_duplicate_range_errors():
    with pytest.raises(ValueError):
        tandem_duplicate(w("012"), 1, 3)
    with pytest.raises(ValueError):
        tandem_duplicate(w("012"), -1, 1)
    with pytest.raises(ValueError):
        tandem_duplicate(w("012"), 0, 0)


def test_tandem_duplicate_shape(rng):
    for _ in range(300):
        x = random_ternary(rng, rng.randint(1, 12))
        k = rng.randint(1, min(3, len(x)))
        i = rng.randint(0, len(x) - k)
        y = tandem_duplicate(x, i, k)
        assert len(y) == len(x) + k
        assert y[:i] == x[:i]
        assert y[i : i + k] == y[i + k : i + 2 * k] == x[i : i + k]
        assert y[i + 2 * k :] == x[i + k :]


def _naive_full_scan_removal(x: bytes, k: int) -> bytes:
    # fixpoint oracle: repeat whole scans until no k-duplicate remains
    r = bytes(x)
    while True:
        for i in range(len(r) - 2 * k + 1):
            if r[i : i + k] == r[i + k : i + 2 * k]:
                r = r[:i] + r[i + k :]
                break
        else:
            return r


def test_remove_duplicates_pass_examples():
    assert remove_duplicates_pass(w("0011"), 1) == w("01")
    assert remove_duplicates_pass(w("012012"), 3) == w("012")
    assert remove_duplicates_pass(w("0101"), 2) == w("01")


def test_remove_duplicates_pass_matches_fixpoint_oracle(rng):
    for x in iter_ternary_words(1, 8):
        for k in (1, 2, 3):
            got = remove_duplicates_pass(x, k)
            assert is_irreducible(got, k, exact=True)
            assert got == _naive_full_scan_removal(x, k)
    for _ in range(200):
        x = random_ternary(rng, rng.randint(9, 16))
        for k in (1, 2, 3):
            assert remove_duplicates_pass(x, k) == _naive_full_scan_removal(x, k)


def test_is_irreducible_examples():
    assert is_irreducible(w("012012"), 2)
    assert not is_irreducible(w("012012"), 3)
    assert is_irreducible(w("0"), 1)
    assert not is_irreducible(w("00"), 1)
    assert is_irreducible(w("0101"), 1)
    assert not is_irreducible(w("0101"), 2, exact=True)


def test_is_irreducible_at_most_equals_all_exact():
    for x in iter_ternary_words(1, 7):
        for k in (1, 2, 3):
            expect = all(is_irreducible(x, j, exact=True) for j in range(1, k + 1))
            assert is_irreducible(x, k) == expect


def test_irreducible_factors_are_irreducible():
    # factors of an irreducible word are irreducible
    for x in iter_ternary_words(1, 9):
        if not is_irreducible(x, 3):
            continue
        for i in range(len(x)):
            for j in range(i + 1, len(x) + 1):
                assert is_irreducible(x[i:j], 3)


def test_pad_tail():
    assert pad_tail(w("012"), 3) == w("012222")
    assert pad_tail(w("0"), 0) == w("0")
    assert pad_tail(w("01"), 2) == w("0111")
    with pytest.raises(ValueError):
        pad_tail(b"", 1)


@pytest.mark.parametrize(
    "function, args, message",
    [
        (check_word, ("012",), "expected bytes word, got str"),
        (check_word, (b"\x03", 3), "symbol 3 out of range for alphabet size 3"),
        (is_irreducible, (b"\x00", 0), "duplicate length must be positive, got 0"),
        (is_irreducible, (b"", 1), "empty word"),
        (pad_tail, (b"\x00", -1), "negative padding -1"),
    ],
)
def test_input_checks(function, args, message):
    with pytest.raises(ValueError) as exc:
        function(*args)
    assert str(exc.value) == message
