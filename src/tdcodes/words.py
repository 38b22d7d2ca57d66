"""Alphabet-generic words and the elementary tandem-duplication operations.

A word is an immutable ``bytes`` value whose byte values are the symbols
(integers ``0 .. q-1``).  The text form is a plain digit string for
alphabets of at most ten symbols ("01210") and a comma-separated list of
integers beyond that ("0,1,2,10"), where a comma-free string is a
one-symbol word ("12").  The empty word is rejected by every
public entry point; it only ever appears as an internal intermediate.
"""

from __future__ import annotations

Word = bytes

__all__ = [
    "Word",
    "ResourceBudgetError",
    "parse_word",
    "render_word",
    "check_word",
    "tandem_duplicate",
    "is_irreducible",
    "pad_tail",
]


class ResourceBudgetError(RuntimeError):
    """An enumeration or search exceeded its configured state budget."""


def parse_word(text: str, q: int = 3) -> Word:
    """Parse the text form of a word over ``0..q-1``."""
    text = text.strip()
    if not text:
        raise ValueError("empty word")
    if "," in text:
        parts = text.split(",")
        if not all(part.strip() for part in parts):
            raise ValueError(f"empty symbol in {text!r}")
        symbols = [int(part) for part in parts]
    elif not text.isdigit():
        raise ValueError(f"not a digit string: {text!r}")
    elif q <= 10:
        symbols = [int(ch) for ch in text]
    elif text == str(int(text)):
        # render_word writes a one-symbol word over q > 10 without a comma
        symbols = [int(text)]
    else:
        raise ValueError(f"alphabet size {q} needs comma-separated symbols")
    for s in symbols:
        if not 0 <= s < q:
            raise ValueError(f"symbol {s} out of range for alphabet size {q}")
    return bytes(symbols)


def render_word(x: Word, q: int = 3) -> str:
    """Write the text form of a word over ``0..q-1``, which parses back."""
    if x and max(x) >= q:
        raise ValueError(f"symbol {max(x)} out of range for alphabet size {q}")
    if q <= 10:
        return "".join(str(s) for s in x)
    return ",".join(str(s) for s in x)


def _root_text(root: Word) -> str:
    # one digit per symbol, or comma-separated once a symbol needs two
    # digits; a one-symbol root then keeps a trailing comma
    if max(root, default=0) < 10:
        return "".join(str(v) for v in root)
    return ",".join(str(v) for v in root) + ("," if len(root) == 1 else "")


def _parse_root(text: str) -> Word:
    # exactly what _root_text writes: the root must write back as text
    root = bytes(int(v) for v in (text.split(",") if "," in text else text) if v)
    if _root_text(root) != text:
        raise ValueError(f"malformed root {text!r}")
    return root


def check_word(x: Word, q: int | None = None) -> Word:
    """Validate a word: nonempty, and all symbols below ``q`` when given."""
    if not isinstance(x, (bytes, bytearray)):
        raise ValueError(f"expected bytes word, got {type(x).__name__}")
    if len(x) == 0:
        raise ValueError("empty word")
    if q is not None and max(x) >= q:
        raise ValueError(f"symbol {max(x)} out of range for alphabet size {q}")
    return bytes(x)


def tandem_duplicate(x: Word, i: int, k: int) -> Word:
    """Duplicate the length-``k`` factor of ``x`` at offset ``i`` in place.

    The factor ``x[i:i+k]`` is repeated immediately after itself, so the
    result is ``x[:i+k] + x[i:i+k] + x[i+k:]`` and is ``k`` symbols longer.
    """
    if k < 1:
        raise ValueError(f"duplication length must be positive, got {k}")
    if i < 0 or i + k > len(x):
        raise ValueError(
            f"window [{i}, {i + k}) out of range for word of length {len(x)}"
        )
    return x[: i + k] + x[i : i + k] + x[i + k :]


def is_irreducible(x: Word, k: int, exact: bool = False) -> bool:
    """True iff ``x`` contains no factor ``vv`` with ``|v| = k``.

    With ``exact=False`` (the default) every duplicate length ``1..k`` is
    forbidden, i.e. the word admits no deduplication of length at most k.
    """
    if k < 1:
        raise ValueError(f"duplicate length must be positive, got {k}")
    if len(x) == 0:
        raise ValueError("empty word")
    lengths = (k,) if exact else range(1, k + 1)
    n = len(x)
    for j in lengths:
        for i in range(n - 2 * j + 1):
            if x[i : i + j] == x[i + j : i + 2 * j]:
                return False
    return True


def pad_tail(x: Word, count: int) -> Word:
    """Repeat the last symbol of ``x`` another ``count`` times."""
    if not x:
        raise ValueError("empty word")
    if count < 0:
        raise ValueError(f"negative padding {count}")
    return x + x[-1:] * count


# The helpers below edit a word with C-level integer and byte operations
# only (int.from_bytes, shift, xor, or, to_bytes, translate), one pass per
# step.  The word itself is read as a little-endian integer a, byte j
# standing for its symbol j.  They take narrow words, whose symbols are
# all below 16: then a symbol and the xor of two fit in half a byte, and
# one translate of a word that packs flags above each symbol deletes the
# unflagged symbols (_keep) or classifies them (_sides).

# the bytes with a zero high half; and each byte -> its low half
_LOW_ONLY = bytes(range(16))
_LOW_HALF = bytes(b & 15 for b in range(256))
# byte 0 -> 1, every other byte -> 0
_EQ = b"\x01" + bytes(255)


def _narrow(x: Word) -> bool:
    # every symbol of x is below 16
    return not x.translate(None, _LOW_ONLY)


def _left_xor(x: Word, a: int) -> int:
    # byte j is x[j] ^ x[j - 1], and 1 at j = 0, where x[-1] reads as
    # x[0] ^ 1; byte n = len(x) is x[n - 1]
    return a ^ ((a << 8) | (x[0] ^ 1))


def _keep(a: int, f: int, n: int) -> Word:
    # the symbols j < n of the narrow n-symbol word read as a whose byte j
    # of f is nonzero, every byte of f being below 16.  Byte j of
    # a | f << 4 packs symbol j below f_j, and one translate deletes the
    # bytes whose high half is zero and unpacks the rest; the bytes from n
    # on hold only the tail of f and are cut off.  The packed integer is
    # never named, so it is freed once read.
    size = max(n, (f.bit_length() + 11) // 8)
    return (a | f << 4).to_bytes(size, "little")[:n].translate(_LOW_HALF, _LOW_ONLY)


def _squeeze(x: Word, run: int) -> Word:
    # the narrow x without every symbol equal to the run - 1 symbols before
    # it, which cuts each run of equal symbols to at most run - 1 of them
    # (run >= 2): byte j of the OR of _left_xor shifted up by 0 to run - 2
    # bytes is zero exactly when x[j] is such a symbol, and never at
    # j < run - 1.
    a = int.from_bytes(x, "little")
    d = _left_xor(x, a)
    f = d
    for i in range(1, run - 1):
        f |= d << 8 * i
    del d
    return _keep(a, f, len(x))


def _sides(x: Word) -> bytes:
    # one byte per symbol of the narrow x: its low half is zero exactly
    # when the symbol equals the one before it, and its high half exactly
    # when it equals the one after it; the first symbol has none before it
    # and the last none after it.  The halves are _left_xor at j and at
    # j + 1 (a shift by 4 moves each byte's low half into the high half of
    # the byte below), with byte n set nonzero for the last symbol.
    n = len(x)
    a = int.from_bytes(x, "little")
    d = _left_xor(x, a)
    del a
    d |= 1 << 8 * n
    return (d | d >> 4).to_bytes(n + 1, "little")[:n]
