"""Slow reference implementations that only the tests use.

Each one checks a library function against a direct, independent
computation of the same thing.
"""

from bisect import bisect_left
from functools import cache
from itertools import permutations

from tdcodes.confusability import Label, _region_plan, compute_label
from tdcodes.roots import _stack

Word = bytes


def remove_duplicates_pass(x: Word, k: int) -> Word:
    """Remove every factor ``vv`` with ``|v| = k`` by a left-to-right scan.

    After each removal the scan index backtracks by ``2k - 1`` positions
    (floored at zero): a removal can only create a new k-duplicate spanning
    the junction, and any such duplicate starts within that window.
    """
    if k < 1:
        raise ValueError(f"duplicate length must be positive, got {k}")
    if len(x) == 0:
        raise ValueError("empty word")
    r = bytearray(x)
    i = 0
    back = 2 * k - 1
    while i + 2 * k <= len(r):
        if r[i : i + k] == r[i + k : i + 2 * k]:
            del r[i : i + k]
            i = i - back if i > back else 0
        else:
            i += 1
    return bytes(r)


def first_region_by_cases(r: Word) -> tuple[Word, Word, Word]:
    """``(main, reg, abc)`` of the first region of ``r``, case by case.

    The region shapes written out as ``main_and_region`` wrote them before
    the library parsed every region through one table, so the plan below
    does not share the parser it is checked against.  Missing positions
    compare as different; the first four symbols must hold three distinct
    ones.
    """
    n = len(r)
    assert len(set(r[:4])) >= 3, r
    if r[0] == r[2]:
        main = r[1:4]
        if n < 5 or r[1] != r[4]:
            return main, r[:4], bytes((r[0], r[3], r[1]))
        if n < 6 or r[2] != r[5]:
            return main, r[:5], bytes((r[3], r[1], r[0]))
        return main, r[:6], bytes((r[1], r[0], r[3]))
    main = r[:3]
    if n < 4 or r[0] != r[3]:
        return main, r[:3], bytes((r[1], r[2], r[0]))
    if n < 5 or r[1] != r[4]:
        return main, r[:4], bytes((r[2], r[0], r[1]))
    return main, r[:5], r[:3]


def region_plan_by_cases(r: Word):
    """``confusability._region_plan`` built region by region.

    Each round parses the first region of the rest of the root with
    ``first_region_by_cases`` and peels it, keeping its last two symbols,
    until the first four symbols left hold fewer than three distinct ones.
    """
    plan = []
    offset = 0
    while len(set(r[offset : offset + 4])) >= 3:
        main, reg, abc = first_region_by_cases(r[offset : offset + 6])
        rotations = (main[:2] + main[1:], main[1:] + main[:1], main[2:] + main[:2])
        plan.append((offset + len(reg), main, *rotations, abc[0]))
        offset += len(reg) - 2
    return tuple(plan)


def region_vector_upper_bound_bruteforce(n: int, i: int, m: int) -> int:
    """Independent count of the vectors ``region_vector_upper_bound`` counts,
    by explicit enumeration."""
    if m < 1 or i > n:
        raise ValueError("need m >= 1 and i <= n")
    budget = n - i
    total = 0
    boundary = 0

    def rec(left: int, used: int) -> None:
        nonlocal total, boundary
        if left == 0:
            total += 1
            if used == budget:
                boundary += 1
            return
        # c_j >= 1 contributes 3*(c_j - 1) to the used length
        extra = 0
        while used + extra <= budget:
            rec(left - 1, used + extra)
            extra += 3

    rec(m, 0)
    if boundary:  # only possible when 3 divides n - i; one slot for all of them
        return total - boundary + 1
    return total


def recursion_sizes(cache=None):
    """The prefix recursion behind ``codes._size_table``, one memoised call
    per (word, length).

    Returns ``value(rr, nn)``: the best known code size for the canonical
    word ``rr`` at length ``nn``, by the prefix recursion over the padded
    baseline, with closed forms for zero- and one-region words and a size
    cache hit taking precedence.  Every suffix is looked up by its
    canonical form, in the cache and in the memo.  Each call lowers the
    length, so the recursion is at most ``nn`` calls deep.
    """
    from functools import lru_cache
    from itertools import islice

    from tdcodes.codes import _PREFIX_CASES, one_region_size
    from tdcodes.confusability import _regions
    from tdcodes.oracle import canonical_form

    @lru_cache(None)
    def shape(rr):
        # (region count capped at two, canonical tail left after the cut,
        # prefix options)
        regions = tuple(islice(_regions(rr), 2))
        if len(regions) < 2:
            return len(regions), b"", ()
        cut, options = _PREFIX_CASES[regions[0][1].reg]
        return 2, canonical_form(rr[cut:])[0], options

    memo = {}

    def value(rr, nn):
        if nn < len(rr):
            return 0
        if (rr, nn) in memo:
            return memo[rr, nn]
        hit = None if cache is None else cache.get(rr, nn)
        if hit is not None:
            return hit[0]
        if nn <= len(rr) + 2:
            return 1
        m, tail, options = shape(rr)
        if m == 0:
            return 1
        if m == 1:
            return one_region_size(rr, nn)
        best = max(2, value(rr, nn - 1))
        for drop, prefixes in options:
            best = max(best, len(prefixes) * value(tail, nn - drop))
        memo[rr, nn] = best
        return best

    return value


def recursive_size_reference(value, r, n):
    """``codes.recursive_size`` from a :func:`recursion_sizes` table: the
    larger of the sizes of ``r`` and of its reversal."""
    from tdcodes.oracle import canonical_form

    return max(value(canonical_form(x)[0], n) for x in (r, r[::-1]))


def assemble_lower_bounds_per_root(targets, cache=None) -> dict[int, int]:
    """``codes.assemble_lower_bounds`` summed root by root over every
    canonical root up to the largest target, each root adding its orbit
    at the lengths within two symbols of it and its best per-root size
    from :func:`recursion_sizes` beyond."""
    from math import perm

    from tdcodes.codes import _iter_canonical_irreducible

    targets = sorted(set(targets))
    value = recursion_sizes(cache)
    totals = {t: 0 for t in targets}
    for root in _iter_canonical_irreducible(targets[-1]):
        orbit = perm(3, max(root) + 1)
        for t in targets:
            if len(root) <= t <= len(root) + 2:
                totals[t] += orbit
            elif t > len(root) + 2:
                totals[t] += orbit * recursive_size_reference(value, root, t)
    return totals


def walk_per_node(n_min: int, n_max: int, q: int, k: int, canonical: bool = False):
    """``oracle._walk`` asking ``oracle._extensions`` at every word.

    A preorder walk over the words of length ``n_min..n_max`` (``n_min >=
    1``) that ``_extensions`` admits symbol by symbol, pushing each word's
    extensions in reverse; with ``canonical`` a word's extensions are
    bounded by one more than the symbols it uses.  ``_walk`` looks the
    extensions up by the word's last ``2k - 1`` symbols instead.
    """
    from tdcodes.oracle import _extensions

    stack = [(b"", 0)]
    while stack:
        word, used = stack.pop()
        if len(word) >= n_min:
            yield word
        if len(word) < n_max:
            grown = _extensions(word, min(used + 1, q) if canonical else q, k)
            stack += [(word + bytes((s,)), max(used, s + 1)) for s in reversed([*grown])]


def words_without_runs_of_three(n_min: int, n_max: int):
    """The canonical ternary words of length ``n_min..n_max`` (``n_min >=
    1``) with no run of three symbols, in lexicographic order: a preorder
    walk that pushes each word's extensions in reverse."""
    stack = [b""]
    while stack:
        x = stack.pop()
        if len(x) >= n_min:
            yield x
        if len(x) < n_max:
            symbols = range(min(max(x, default=-1) + 2, 3))
            stack += [x + bytes((s,)) for s in reversed(symbols) if not x.endswith(bytes((s, s)))]


def labelled(length: int, n: int, tail: Word, pair: bool) -> bool:
    # whether the word sweeps (labels_by_root_words, labels_by_root_states,
    # enumerate_labels_capped) label a word w with no run of three, length
    # at most n, last symbols tail (two at least, when w has them) and pair
    # telling whether w[:-1] holds a run ss: w has length n or holds a run
    # ss (it is the cap of a length-n word, points 1-4 of
    # optimal.labels_by_root), and it is not u + ss with ss in u (the tail
    # rule).  With no run of three, w ends in ss and u holds ss exactly
    # when w ends in ss and w[:-1] holds ss.  Such a word w = u + s + s has
    # the label of u + s, which holds ss, does not end in ss, and is a
    # shorter word the sweep labels already.  Appending s to a word x
    # ending in s keeps its label:
    # 1. In both words every run is capped the same way but the last, and
    #    the cap of x + s is that of x or that plus one s.
    # 2. The root stack's top is the symbol last read (roots._stack), so
    #    it skips the extra s: the root is the same, and of the depth
    #    table only the entry of the final depth moves, by one.
    # 3. Region end depths increase, so only the last region can end at
    #    that depth, and only its prefix grows, by the extra s.  No abc,
    #    abbc or rotation of a distinct triple ends at it: their last two
    #    symbols differ, and the grown prefix ends in ss.  So every count
    #    and sign stays the same.
    ends_in_pair = len(tail) >= 2 and tail[-1] == tail[-2]
    return (length == n or pair or ends_in_pair) and not (pair and ends_in_pair)


def labels_by_root_words(n: int):
    """``optimal.labels_by_root`` by labelling words one by one.

    It walks the canonical words with no run of three up to length ``n``
    (:func:`words_without_runs_of_three`) and labels each word
    :func:`labelled` picks with ``compute_label``.  These words give every
    label by points 1-4 of ``labels_by_root``'s docstring, and capping and
    pumping keep the order in which symbols first occur, so canonical
    words map to canonical words.
    """
    buckets = {}
    for w in words_without_runs_of_three(1, n):
        pair = any(w[i] == w[i + 1] for i in range(len(w) - 2))
        if labelled(len(w), n, w[-2:], pair):
            label = compute_label(w)
            buckets.setdefault(label.root, set()).add(label)
    return buckets


# The six distinct ternary triples, numbered, and for each the bit of its
# rotation class: 012, 120 and 201 are rotations of each other, and so are
# the other three
TRIPLE_INDEX = {bytes(t): i for i, t in enumerate(permutations(range(3)))}
ROTATION_BIT = tuple(1 << ((t[1] - t[0]) % 3) for t in permutations(range(3)))

# A sweep record: six match counts, one per triple, and the rotation
# classes that occur literally.  A sweep state: ((S, tail, pair), entries,
# records), see sweep.
START = ((b"", b"", False), (), ((0,) * 7,))


def grow_record(record, match):
    # the record after one more symbol s; match is -1 when no abc or abbc
    # ends at s, else 2 * t + 1 for a literal abc of triple t and 2 * t
    # for an abbc
    if match < 0:
        return record
    t = match >> 1
    *counts, literal = record
    counts[t] += 1
    if match & 1:
        literal |= ROTATION_BIT[t]
    return (*counts, literal)


def labels_by_root_states(n: int):
    """``optimal.labels_by_root`` by a sweep over merged prefix states.

    It labels the words :func:`labels_by_root_words` labels, but not one by
    one: it walks their prefixes length by length and merges the prefixes
    that reach the same state.  Two prefixes with one state get the same
    label after every extension, so each distinct state is extended once.
    The state, its step and the proof are at :func:`sweep`.  It shares no
    step with the library's run-free walk but the root stack and the
    region plans: no kill sets, no middle sets, no ``_peel``.
    """
    extend = sweep(n)
    buckets = {}
    states = {START}
    for length in range(1, n + 1):
        grown = set()
        for state in states:
            for new, label in extend(state, length):
                if label is not None:
                    buckets.setdefault(new[0][0], set()).add(label)
                if length < n:
                    grown.add(new)
        states = grown
    return {root: {Label(root, e) for e in entries} for root, entries in buckets.items()}


def sweep(n: int):
    # the step of the state sweep to length n: extend(state, length) takes
    # the state of a prefix x of length - 1 and yields (state of x + s,
    # label entries of x + s or None) for each symbol s that keeps x + s
    # canonical with no run of three, the entries when labelled picks
    # x + s.  The memos are the function's own, region plans included.  The
    # part of a state that the symbols alone decide, (S, tail, pair), is
    # built once per step of it, and equal entry and record tuples are kept
    # once: merged states share what they hold, and a finished sweep leaves
    # nothing behind.
    #
    # The state of a run-capped canonical prefix x of length L, with
    # h = n - L symbols left (_peel's notation: S is the root stack of x,
    # last its depth table; region i ends at depth D_i and reads the
    # window x[start_i:last[D_i]]):
    #   S, the le-3 root stack of x, and d = len(S);
    #   tail, the last two symbols of x, and the third last too when the
    #     last two are equal: a b^m with m <= 2, where b is the stack's top
    #     and a the symbol below it (the top is the symbol last read, and
    #     the one below it the last symbol read before that run,
    #     roots._stack), so beyond S the tail tells only whether m is 2;
    #   pair, whether x[:-1] holds a run ss;
    #   entries, the entries of the closed regions of S, those with
    #     D_i < d;
    #   records, one per closed region and one for the first open region
    #     (the one after the closed ones, whether S holds it yet or not).
    #     Record i summarises x[start_i:]: per distinct triple t the
    #     number of matches of abc and abbc (t = abc, count_occurrences),
    #     and which rotation classes occur literally (a sign asks only
    #     whether some rotation of the region's triple does).  The record
    #     of a closed region with D_i < d - 2h is dropped (None).
    # The symbols x uses are those of S, and the run check needs tail.
    #
    # Facts:
    # 1. Whether a region ends at depth D, and its parse, read only
    #    S[:D + 1] (main_and_region reads one symbol past the region, and
    #    whether the next region exists reads S[D - 2:D + 2]).  So a
    #    stack that starts with S[:e] has the regions of S that end below
    #    e, and no other region ending below e.
    # 2. last[D] is the length at which the depth last rose from D, and
    #    the stack keeps S[:D + 1] while the depth stays above D: while it
    #    does, no symbol moves a closed region's window or parse.
    # 3. A window ends in a b^m, m <= 2, its stack's last two symbols
    #    (_peel), so the next window starts at that a, in the tail.
    # 4. Each abc, abbc and literal triple of x is counted once, by the
    #    symbol that ends it, in every record that starts at or before
    #    its first symbol.
    # 5. Every match that ends at a symbol starts inside every live
    #    record.  The first record starts at 0.  A record opened when a
    #    region closes covers the tail a b^m of the prefix (the push step
    #    below).  An abc that ends at the next symbol starts two symbols
    #    back and needs m = 1, an abbc starts three symbols back and needs
    #    m = 2, so either starts at that a, and later matches start later.
    #
    # The step from x to x + s, with S' the stack after s and d' = len(S'):
    # - s repeats the last symbol: S' = S, no region closes and no match
    #   ends at s; the records stay as they are.
    # - Push, S' = S + s: last[d] = L.  By fact 1 the only region that can
    #   close is the first open one, when S' parses it as ending at d; its
    #   window is then x[start:L], so its entry is read from its record
    #   before s is added.  The next record opens at the last a of that
    #   window, which by fact 3 is the tail a b^m itself: no triple yet.
    # - Pop, S' = S[:d']: last[D] is unchanged below d'.  The entries and
    #   records of regions with D >= d' go, but the record of the first of
    #   them, now the first open region, stays: its window will end at or
    #   after L + 1, and the record already holds x[start:].
    # - Each record then adds the match that ends at s (facts 4 and 5).
    # Horizon rule: a step pops at most two symbols, so with h symbols
    # left the depth stays at or above d - 2h.  A closed region with
    # D < d - 2h can never be open again, so its entry is final and its
    # record is never read.  The bound d - 2h never decreases, because
    # d' >= d - 2 and h falls by one.
    #
    # The label of x, read out when labelled picks it: the root is S, and
    # the entries are those of the closed regions, plus the entry of the
    # region ending at d, read from the first open record (its window is
    # x[start:L], last[d] being L), if S has such a region.
    #
    # By induction on y, the label of x + y is a function of the state of
    # x and of y: each step's state is a function of the state and the
    # symbol, and each label of the state alone.  That is the merge.  The
    # last length is not stored: each of its extensions is read out.

    @cache
    def step(S, s):
        return _stack(S + bytes((s,)), 3)[0]

    @cache
    def regions(S):
        # end depths and triple numbers of the regions of S, how many are
        # closed, and whether the last one ends at len(S)
        plan = _region_plan(S)
        opens = bool(plan) and plan[-1][0] == len(S)
        ends = tuple(region[0] for region in plan)
        return ends, tuple(TRIPLE_INDEX[region[1]] for region in plan), len(plan) - opens, opens

    @cache
    def moves(word):
        # ((S', tail', pair'), match) for each symbol s that keeps x + s
        # canonical and free of runs of three; the match ending at s is the
        # a b s or a b b s of a tail a b or a b b, when a b s is a distinct
        # triple
        S, tail, pair = word
        pair2 = pair or len(tail) >= 2 and tail[-1] == tail[-2]
        out = []
        for s in range(min(max(S, default=-1) + 2, 3)):
            if tail.endswith(bytes((s, s))):
                continue
            sym = bytes((s,))
            if tail[-1:] == sym:
                out.append(((S, tail + sym, pair2), -1))
                continue
            t = TRIPLE_INDEX.get(tail[:2] + sym)
            match = -1 if t is None else 2 * t + (len(tail) == 2)
            out.append(((step(S, s), tail[-1:] + sym, pair2), match))
        return tuple(out)

    grow = cache(grow_record)
    shared = {}

    @cache
    def entry(record, t):
        return record[t], "+" if record[6] & ROTATION_BIT[t] else "-"

    def extend(state, length):
        word, entries, records = state
        reach = 2 * (n - length)
        c = len(entries)
        for word2, match in moves(word):
            S2, tail2, pair2 = word2
            ends, triples, closed, opens = regions(S2)
            if closed > c:
                entries2 = entries + (entry(records[c], triples[c]),)
                # the next record holds the tail a b^m: no triple yet
                records2 = records + ((0,) * 7,)
            else:
                entries2 = entries[:closed]
                records2 = records[: closed + 1]
            dropped = min(bisect_left(ends, len(S2) - reach), closed)
            records2 = (None,) * dropped + tuple(grow(r, match) for r in records2[dropped:])
            records2 = shared.setdefault(records2, records2)
            entries2 = shared.setdefault(entries2, entries2)
            label = None
            if labelled(length, n, tail2, pair2):
                label = entries2
                if opens:
                    label += (entry(records2[closed], triples[closed]),)
            yield (word2, entries2, records2), label

    return extend


def run_capped_cone(r: Word, n: int) -> set[Word]:
    """The members of the cone of ``r`` up to length ``n`` with no run of
    three symbols, by a walk over them alone.

    Every duplication is made but those that leave a run of three.  Every
    such member is reached, by induction over a duplication path from
    ``r``: if ``w'`` is ``w`` with one duplication, ``_cap_runs(w')`` is
    ``_cap_runs(w)`` or the cap of that word with one duplication of the
    same length.  A duplication inside a run only lengthens the run, which
    leaves the cap unchanged; any other duplication copies a factor that
    keeps its symbols in the capped word, and duplicating it there gives a
    word with the cap of ``w'``.  That word is a child the walk keeps, its
    own cap, or one it refuses, which caps back to its parent.
    """
    words, frontier = {r}, [r]
    while frontier:
        x = frontier.pop()
        for k in range(1, min(3, n - len(x)) + 1):
            for i in range(len(x) - k + 1):
                child = x[: i + k] + x[i : i + k] + x[i + k :]
                if child not in words and all(
                    not child[j] == child[j + 1] == child[j + 2] for j in range(len(child) - 2)
                ):
                    words.add(child)
                    frontier.append(child)
    return words


def enumerate_labels_capped(r: Word, n: int):
    """``oracle.enumerate_labels`` by labelling run-capped cone words one by one.

    The words of :func:`run_capped_cone` that :func:`labelled` picks
    are those of length ``n`` and the shorter ones holding a run ``ss``,
    each the cap of the length-``n`` word that pumps that run (points 1-4
    of ``labels_by_root``), less those the tail rule shows to repeat a
    shorter word's label; each is labelled with ``compute_label``.
    """
    return {
        compute_label(x)
        for x in run_capped_cone(r, n)
        if labelled(len(x), n, x[-2:], any(x[j] == x[j + 1] for j in range(len(x) - 2)))
    }


def find_confusable_pair_pairwise(code):
    """``codes.find_confusable_pair`` by deciding every pair with ``confusable``.

    Words are grouped by root in sorted order and each pair of a group is
    decided in turn, so the first confusable pair is the one the library
    returns.
    """
    from tdcodes import confusable, root_le3

    groups = {}
    for w in code.sorted_words():
        groups.setdefault(root_le3(w), []).append(w)
    for group in groups.values():
        for i, x in enumerate(group):
            for y in group[i + 1 :]:
                if confusable(x, y):
                    return x, y
    return None


def graph_from_labels_pairwise(labels):
    """``optimal.graph_from_labels`` deciding each ordered pair of labels
    with ``labels_confusable``, both ways round."""
    from tdcodes.confusability import labels_confusable
    from tdcodes.optimal import LabelGraph

    ordered = sorted(set(labels))
    nbrs = [
        {j for j, lj in enumerate(ordered) if i != j and not labels_confusable(li, lj)}
        for i, li in enumerate(ordered)
    ]
    order = sorted(range(len(ordered)), key=lambda v: -len(nbrs[v]))
    adjacency = tuple(sum(1 << p for p, u in enumerate(order) if u in nbrs[v]) for v in order)
    return LabelGraph(tuple(ordered[v] for v in order), adjacency)
