"""Unique duplication roots.

Every word has exactly one root under deduplications of one fixed length k,
and exactly one root under deduplications of length at most k for k in
{1, 2, 3}.  Because the root is unique, any maximal removal order reaches
it; the implementations here consume the word left to right and keep the
root of the consumed prefix on a stack.
"""

from __future__ import annotations

from .words import Word

__all__ = [
    "root_le_k",
    "root_le3",
    "root_le3_depths",
    "root_exact_k",
]


def root_le_k(x: Word, k: int) -> Word:
    """Return the unique root of ``x`` under deduplications of length <= k."""
    if len(x) == 0:
        raise ValueError("empty word has no root")
    if k not in (1, 2, 3):
        raise ValueError(f"roots under length-at-most-k deduplication need k in 1..3, got {k}")
    return _stack(x, k)[0]


def root_le3_depths(x: Word) -> tuple[Word, list[int]]:
    """Return the le-3 root of ``x`` and its depth table ``last``.

    ``last[d]`` is the end of the last prefix of ``x`` whose root has ``d``
    symbols, for every ``d`` from 0 to the deepest the stack ever got.
    """
    if len(x) == 0:
        raise ValueError("empty word has no root")
    return _stack(x, 3)


def _stack(x: Word, k: int) -> tuple[Word, list[int]]:
    # the stack st holds the le-k root of the prefix read so far.  A pushed
    # symbol can only complete a duplicate that ends at the top of the
    # stack, and removing that duplicate leaves a prefix of the previous
    # stack, which is already irreducible; so at most one removal per symbol
    # is needed.
    #
    # n is the depth and t1, t2, t3 the top three symbols, -1 below the
    # bottom (no byte equals it).  s == t1 is exactly the run test: whichever
    # branch processes a symbol s leaves s on top (a push puts it there, and
    # each removal needs st[-2] == s or st[-3] == s and drops what lies
    # above it), so t1 is the previous symbol and a repeat of it is a
    # length-1 duplicate.  For k = 1 that is the only rule.  The length-2
    # rule removes (ab)(ab) when the stack ends in a b a and s = b; the
    # length-3 rule removes (abc)(abc) when it ends in a b c a b and s = c,
    # and only it reads below t3.  Every branch but the first changes the
    # depth, so x[:i] is the last prefix at the old depth n exactly when one
    # of them runs at symbol i.
    st = bytearray()
    push = st.append
    last = [0]
    n = 0
    t1 = t2 = t3 = -1
    two = k >= 2
    three = k == 3
    for i, s in enumerate(x):
        if s == t1:
            continue
        last[n] = i
        if s == t2 and t3 == t1 and two:
            del st[-1]
            n -= 1
            t1, t2, t3 = s, t3, st[n - 3] if n >= 3 else -1
        elif s == t3 and three and n >= 5 and st[n - 4] == t1 and st[n - 5] == t2:
            del st[-2:]
            n -= 2
            t1, t2, t3 = s, t1, t2
        else:
            push(s)
            n += 1
            t1, t2, t3 = s, t1, t2
            if n == len(last):
                last.append(0)
    last[n] = len(x)
    return bytes(st), last


def root_le3(x: Word) -> Word:
    return root_le_k(x, 3)


def root_exact_k(x: Word, k: int) -> Word:
    """Return the unique root of ``x`` under deduplications of length exactly k."""
    if len(x) == 0:
        raise ValueError("empty word has no root")
    if k < 1:
        raise ValueError(f"duplicate length must be positive, got {k}")
    st = bytearray()
    for s in x:
        st.append(s)
        if len(st) >= 2 * k and st[-k:] == st[-2 * k : -k]:
            del st[-k:]
    return bytes(st)
