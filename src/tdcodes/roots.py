"""Unique duplication roots.

Every word has exactly one root under deduplications of one fixed length k,
and exactly one root under deduplications of length at most k for k in
{1, 2, 3}.  Because the root is unique, any maximal removal order reaches
it; the implementations here consume the word left to right and keep the
root of the consumed prefix on a stack.  On long words the le-3 depth
table first drops the inner copies of every run of three or more equal
aligned triples with C-level byte operations, so the stack reads at most
ten symbols of a pumped period-3 factor, whatever its length.
"""

from __future__ import annotations

from itertools import compress

from .words import _EQ, Word, _delete, _equal_next, _free_byte, _root_text, check_word

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
    if len(x) < _TRIPLE_FLOOR:
        return _stack(x, 3)
    return _stack_triples(x)


# Words shorter than this go straight to the stack.  Finding the repeated
# blocks costs about 5 us per call plus 8 ns per symbol, a twentieth of the
# stack's cost per symbol, whatever it drops.  On descendants of short
# roots grown by duplications and run-capped, the pre-pass broke even
# between 768 and 1,024 symbols (2-vCPU Xeon, Python 3.11); below the
# floor fall the label sweep's and the cone's words, of at most a few
# dozen symbols.
_TRIPLE_FLOOR = 1024


def _stack_triples(y: Word) -> tuple[Word, list[int]]:
    # _stack(y, 3) after dropping repeated aligned triples.  Cut y into
    # aligned blocks y[3k:3k + 3]; in every run of three or more equal
    # blocks keep the first and the last and drop the inner ones, then run
    # the stack on what is left, z, and map its depth table back.
    #
    # Block k equals block k + 1 exactly when the phase slices y[i::3] all
    # have equal symbols at k and k + 1, so the AND e of their three
    # equal-neighbour masks (words._equal_next) marks the blocks equal to
    # the next one, and e & (e << 8) the inner blocks of each run.
    #
    # This leaves the root and the depth table unchanged.  Write phi(j) for
    # the position in y of the j-th symbol of z, and phi(len(z)) = len(y).
    # (a) Each dropped block is followed by an equal block, so dropping it
    #     is a length-3 deduplication and z has the root of y.
    # (b) If y[j - 3:j] == y[j:j + 3], then y[:j + 3] deduplicates to
    #     y[:j], and the stack after j + 3 symbols, the root of that
    #     prefix, equals the stack after j.  Inside a run of equal blocks
    #     y[3s:3t + 3] this holds for every j with 3s + 3 <= j <= 3t, so
    #     each prefix length that ends inside a dropped block has the stack
    #     of a prefix length three symbols later, and in the end that of a
    #     length ending in the kept last block t.
    # (c) last[d] is the largest prefix length whose stack has depth d, so
    #     by (b) it is never a length that ends inside a dropped block, and
    #     every depth reached at such a length is reached again later.
    # (d) For every other length phi(j), z[:j] is y[:phi(j)] with each
    #     dropped block of it deleted as the second copy of the block
    #     before it, so both prefixes have one root.  phi is increasing,
    #     hence last_y[d] = phi(last_z[d]) for every depth d.
    nb = len(y) // 3
    phases = [y[i : 3 * nb : 3] for i in range(3)]
    ints = [int.from_bytes(p, "little") for p in phases]
    e = _equal_next(ints[0], nb) & _equal_next(ints[1], nb) & _equal_next(ints[2], nb)
    drop = e & (e << 8)
    if not drop:
        return _stack(y, 3)
    c = _free_byte(y)
    kept = 3 * (nb - drop.bit_count())
    z = bytearray(kept)
    for i in range(3):
        z[i::3] = _delete(phases[i], ints[i], drop, c)
    z += y[3 * nb :]
    r, last = _stack(z, 3)
    starts = list(compress(range(0, 3 * nb, 3), drop.to_bytes(nb, "little").translate(_EQ)))
    shift = len(y) - len(z)
    return r, [starts[j // 3] + j % 3 if j < kept else j + shift for j in last]


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
    st, last, n = bytearray(), [0], 0
    t1 = t2 = t3 = -1
    push = st.append
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


def _check_root(r: Word, error: type[ValueError] = ValueError) -> None:
    # a root is an irreducible word, which is exactly its own le-3 root: a
    # stack that has removed nothing holds the word read so far, and it
    # removes the first square to appear
    if root_le3(check_word(r)) != r:
        raise error(f"{_root_text(r)} is not irreducible, so it is not a root")


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
