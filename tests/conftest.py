import random

import pytest

from tdcodes import parse_word, tandem_duplicate


def w(text: str) -> bytes:
    return parse_word(text)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0DE)


def random_ternary(rng: random.Random, n: int) -> bytes:
    return bytes(rng.randrange(3) for _ in range(n))


def random_descendant_steps(rng: random.Random, start: bytes, steps: int):
    """Random duplication steps applied to ``start``; returns (steps, word)."""
    word = start
    out = []
    for _ in range(steps):
        k = rng.randint(1, min(3, len(word)))
        i = rng.randint(0, len(word) - k)
        out.append((i, k))
        word = tandem_duplicate(word, i, k)
    return out, word


def batched_descendant(rng: random.Random, root: bytes, target: int) -> bytes:
    """A descendant of ``root`` with ``target`` symbols, grown in rounds.

    Each round duplicates a factor of length 1-3 at up to an eighth of the
    positions, left to right and not overlapping.
    """
    word = bytearray(root)
    while len(word) < target:
        batch = max(8, len(word) // 8)
        positions = sorted(rng.sample(range(len(word)), min(batch, len(word))))
        pieces = []
        prev = 0
        grown = 0
        for i in positions:
            if i < prev or len(word) + grown >= target:
                continue
            k = min(rng.randint(1, 3), len(word) - i, target - len(word) - grown)
            if k <= 0:
                continue
            pieces.append(word[prev : i + k])
            pieces.append(word[i : i + k])
            prev = i + k
            grown += k
        pieces.append(word[prev:])
        word = bytearray(b"".join(pieces))
    return bytes(word)


def iter_ternary_words(n_min: int, n_max: int):
    from itertools import product

    for n in range(n_min, n_max + 1):
        for tup in product(range(3), repeat=n):
            yield bytes(tup)


def iter_canonical_ternary(n_min: int, n_max: int):
    """Words whose symbols appear in first-occurrence order 0, 1, 2."""
    for word in iter_ternary_words(n_min, n_max):
        seen: list[int] = []
        ok = True
        for s in word:
            if s not in seen:
                if s != len(seen):
                    ok = False
                    break
                seen.append(s)
        if ok:
            yield word
