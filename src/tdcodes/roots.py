"""Unique duplication roots.

Every word has exactly one root under deduplications of one fixed length k,
and exactly one root under deduplications of length at most k for k in
{1, 2, 3}.  Because the root is unique, any maximal removal order reaches
it; the implementations here consume the word left to right and keep the
root of the consumed prefix on a stack.  On long words the le-3 depth
table first shortens the word, where that pays, with C-level integer and
byte operations: it collapses every run ss to s, then drops the inner
copies of every run of three or more equal aligned pairs, then of
triples.  Each step is a chain of deduplications that leaves the root
and the depth table unchanged, so the table is mapped back through each
step.  On a word grown from a short root by duplications and run-capped,
the stack then reads about one symbol in a hundred, or fewer.
"""

from __future__ import annotations

from itertools import accumulate, pairwise

from .words import Word, _delete, _equal_next, _free_byte, _root_text, _sides, _squeeze, check_word

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
    if len(x) < _PREPASS_FLOOR:
        return _stack(x, 3)
    return _prepass_stack(x)


# Words shorter than this go straight to the stack.  On descendants of
# short roots grown by duplications and run-capped, the pre-pass broke
# even with the stack between about 620 and 850 symbols (twelve words per
# length, median of 21 alternated rounds, 2-vCPU Xeon, Python 3.11; the
# machine's noise is about a tenth either way).  Below the floor fall the
# label sweep's and the cone's words, of at most a few dozen symbols, and
# the benchmark's descendants of 1,000-symbol roots, where no step would
# run.
_PREPASS_FLOOR = 1024

# The collapse runs only when more than one symbol in _COLLAPSE_SHARE is
# doubled.  It costs a few C-level passes over the word and a Python step
# per table entry to map back.  On irreducible words with some symbols
# doubled, which the drops barely shorten, the table is as long as the
# root, and the pre-pass with the collapse took 2.6-3.7 times as long as
# without it at every doubled share from 1/32 to 1/3 (4,000 and 32,000
# symbols).  The share keeps it off the descendants of long roots, where
# at most 1 symbol in 2,000 is doubled, and on the grown descendants of
# short roots, where a sixth to a third of the symbols are doubled, the
# collapse and the drops remove most of the word and the pre-pass takes
# half the time it takes without the collapse.  On run-capped random
# words it runs too, but the drops then remove little, and the pre-pass
# takes about 1.9 times as long as the triple drop alone.
_COLLAPSE_SHARE = 8

# for mask: a byte of sides with a zero high half -> 1, any other -> 0;
# and the bytes with a zero low half, which it deletes
_DOUBLED = b"\x01" * 16 + bytes(240)
_SECOND = bytes(range(0, 256, 16))


def _prepass_stack(c: Word) -> tuple[Word, list[int]]:
    # _stack(c, 3) after C-level steps that shorten c and leave the root
    # and the depth table unchanged: collapse c to its run-free word u,
    # drop repeated aligned pairs and then triples of u (_drop_blocks),
    # run the stack, and map its depth table back through each step.  When
    # the collapse does not run, only the triples of c are dropped.
    #
    # The collapse deletes the second symbol of every ss.  It applies when
    # c has no run of three, so that no symbol equals both its neighbours.
    # (a) Each deleted symbol is a length-1 duplicate, so u has the root
    #     of c.
    # (b) The stack skips every symbol equal to its top, and only those
    #     (_stack); its top is the symbol read last, so on c it skips
    #     exactly the deleted symbols and makes the moves it makes on u,
    #     in the same order.  Write phi(j) for the position in c of u[j],
    #     and phi(len(u)) = len(c).  Every assignment to last reads i =
    #     phi(j) on c where it reads j on u, so last_c[d] = phi(last_u[d])
    #     for every depth d.
    # (c) Byte j of sides (words._sides) has a zero low half exactly when
    #     c[j] is the second symbol of an ss, and a zero high half exactly
    #     when it is the first.  Deleting the bytes with a zero low half
    #     leaves one byte per symbol of u, and mapping each to 1 when its
    #     high half is zero, else to 0, gives mask, whose byte j is 1
    #     exactly when c doubles u[j].  So phi(j) = j + mask.count(1, 0, j);
    #     for j = len(u) this counts every deleted symbol and gives len(c).
    #     The table is mapped in increasing order of its entries, one count
    #     per gap between them.  A zero byte of sides is a symbol equal to
    #     both its neighbours, the middle of a run of three, and
    #     n - len(mask) is the number of deleted symbols.
    n = len(c)
    sides = _sides(c)
    mask = sides.translate(_DOUBLED, _SECOND)
    collapse = b"\0" not in sides and _COLLAPSE_SHARE * (n - len(mask)) > n
    # word-sized: freed before the drops, mask too unless it maps back
    del sides
    if not collapse:
        del mask
    y = _squeeze(c, 2) if collapse else c
    z, maps = _drop_blocks(y, (2, 3) if collapse else (3,))
    r, last = _stack(z, 3)
    for p, starts in reversed(maps):
        last = [p * starts[j // p] + j % p for j in last]
    if collapse:
        ends = sorted(set(last))
        rank = dict(zip(ends, accumulate(mask.count(1, i, j) for i, j in pairwise([0, *ends]))))
        last = [j + rank[j] for j in last]
    return r, last


def _drop_blocks(y: Word, periods: tuple[int, ...]) -> tuple[Word, list[tuple[int, list[int]]]]:
    # y after, for each p in periods in turn, dropping the inner blocks of
    # every run of three or more equal aligned p-blocks y[p*k:p*k + p]
    # (the first and the last block of each run are kept); and, per p that
    # dropped blocks, (p, starts) with starts[k] the index among the step's
    # input blocks of its k-th kept block, and one more entry, the number
    # of blocks, so that p * starts[j // p] + j % p maps every position j
    # of the step's output, its end included, to its position in the
    # input.
    #
    # Block k equals block k + 1 exactly when the phase slices y[i::p] all
    # have equal symbols at k and k + 1, so the AND e of their p
    # equal-neighbour masks (words._equal_next) marks the blocks equal to
    # the next one, and e & (e << 8) the inner blocks of each run.
    #
    # Dropping leaves the root and the depth table of the stack unchanged.
    # Write z for what is left, phi(j) for the position in y of the j-th
    # symbol of z, and phi(len(z)) = len(y).
    # (a) Each dropped block is followed by an equal block, so dropping it
    #     is a length-p deduplication and z has the root of y.
    # (b) If y[j - p:j] == y[j:j + p], then y[:j + p] deduplicates to
    #     y[:j], and the stack after j + p symbols, the root of that
    #     prefix, equals the stack after j.  Inside a run of equal blocks
    #     y[ps:pt + p] this holds for every j with ps + p <= j <= pt, so
    #     each prefix length that ends inside a dropped block has the stack
    #     of a prefix length p symbols later, and in the end that of a
    #     length ending in the kept last block t.
    # (c) last[d] is the largest prefix length whose stack has depth d, so
    #     by (b) it is never a length that ends inside a dropped block, and
    #     every depth reached at such a length is reached again later.
    # (d) For every other length phi(j), z[:j] is y[:phi(j)] with each
    #     dropped block of it deleted as the second copy of the block
    #     before it, so both prefixes have one root.  phi is increasing,
    #     hence last_y[d] = phi(last_z[d]) for every depth d.
    maps = []
    for p in periods:
        nb = len(y) // p
        phases = [y[i : p * nb : p] for i in range(p)]
        ints = [int.from_bytes(phase, "little") for phase in phases]
        e = _equal_next(ints[0], nb)
        for a in ints[1:]:
            e &= _equal_next(a, nb)
        drop = e & (e << 8)
        if not drop:
            continue
        c = _free_byte(y)
        z = bytearray(p * (nb - drop.bit_count()))
        for i in range(p):
            z[i::p] = _delete(phases[i], ints[i], drop, c)
        z += y[p * nb :]
        # in the block mask (1 dropped, 0 kept) write each 0 as 0 1 and cut
        # at the 0s: piece k > 0 is the 1 after kept block k - 1 and the
        # blocks dropped after it, so the lengths of pieces 0..k sum to the
        # index of kept block k, and all of them to nb
        pieces = drop.to_bytes(nb, "little").replace(b"\0", b"\0\1").split(b"\0")
        maps.append((p, list(accumulate(map(len, pieces)))))
        y = z
    return y, maps


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
