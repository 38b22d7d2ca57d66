import functools
import itertools
import multiprocessing
import os
import random
import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcodes import (
    Code,
    Label,
    LabelGraph,
    ResourceBudgetError,
    compute_label,
    confusable,
    descendant_cone,
    enumerate_labels,
    graph_from_labels,
    labels_by_root,
    labels_confusable,
    max_clique,
    one_region_size,
    optimal_size,
    optimal_size_for_root,
    region_vector_upper_bound,
    count_regions,
    root_le3,
    validate_code,
)
from tdcodes.confusability import _cap_runs, _region_plan
from tdcodes.optimal import SizeCache, _check_line, _max_clique_masks, _run_free_walk
from tdcodes.oracle import _sized, _walk, canonical_form
from tdcodes.roots import root_le3_depths

import references
from conftest import iter_canonical_ternary, w
from references import (
    START,
    enumerate_labels_capped,
    labels_by_root_states,
    labels_by_root_words,
    sweep,
    words_without_runs_of_three,
)


def test_graph_examples():
    g = graph_from_labels(enumerate_labels(w("0"), 6))
    assert len(g.vertices) == 1 and g.adjacency == (0,)
    g = graph_from_labels(enumerate_labels(w("01210"), 5))
    assert len(g.vertices) == 1
    g = graph_from_labels(enumerate_labels(w("012"), 6))
    texts = [label.text() for label in g.vertices]
    assert "012:(1,-)" in texts and "012:(2,+)" in texts
    i = texts.index("012:(1,-)")
    j = texts.index("012:(2,+)")
    assert g.adjacency[i] >> j & 1 and g.adjacency[j] >> i & 1


def test_graph_in_degree_order_and_witness_in_label_order():
    # in label order the degrees of 012 at n = 9 are [0, 2, 1, 1]; the graph
    # puts the degree-2 label first and keeps label order among the rest
    labels = sorted(enumerate_labels(w("012"), 9))
    g = graph_from_labels(labels)
    degrees = [bin(mask).count("1") for mask in g.adjacency]
    assert degrees == [2, 1, 1, 0]
    assert g.vertices == (labels[1], labels[2], labels[3], labels[0])
    for v, mask in enumerate(g.adjacency):
        for u, label in enumerate(g.vertices):
            expect = u != v and not labels_confusable(g.vertices[v], label)
            assert bool(mask >> u & 1) == expect
    # the witness comes back in label order, as the size cache stores it
    assert max_clique(g) == (2, (labels[1], labels[3]))


def test_graph_from_labels_matches_pairwise_reference():
    # the graph decides each unordered pair once; the reference decides both orders
    for n in range(1, 13):
        for root, labels in labels_by_root(n).items():
            expect = references.graph_from_labels_pairwise(labels)
            assert graph_from_labels(labels) == expect, (n, root)


def _brute_force_clique(adjacency) -> int:
    nv = len(adjacency)
    best = 1 if nv else 0
    for size in range(2, nv + 1):
        for combo in itertools.combinations(range(nv), size):
            if all(
                adjacency[a] >> b & 1 for a, b in itertools.combinations(combo, 2)
            ):
                best = size
                break
    return best


def test_max_clique_trivial_graphs():
    empty = LabelGraph(tuple(), tuple())
    assert max_clique(empty) == (0, ())
    labels = tuple(Label(w("012"), ((c, "+"),)) for c in range(1, 6))
    no_edges = LabelGraph(labels, (0,) * 5)
    assert max_clique(no_edges)[0] == 1
    full = LabelGraph(labels, tuple(31 ^ (1 << v) for v in range(5)))
    size, witness = max_clique(full)
    assert size == 5 and set(witness) == set(labels)


def test_max_clique_random_graphs_vs_bruteforce():
    rng = random.Random(11)
    for trial in range(60):
        nv = rng.randint(1, 13)
        adjacency = [0] * nv
        for a in range(nv):
            for b in range(a + 1, nv):
                if rng.random() < 0.5:
                    adjacency[a] |= 1 << b
                    adjacency[b] |= 1 << a
        expect = _brute_force_clique(adjacency)
        size, mask = _max_clique_masks(tuple(adjacency))
        assert size == expect
        chosen = [v for v in range(nv) if mask >> v & 1]
        assert len(chosen) == size
        for a, b in itertools.combinations(chosen, 2):
            assert adjacency[a] >> b & 1


def test_max_clique_order_independent():
    rng = random.Random(5)
    nv = 12
    adjacency = [0] * nv
    for a in range(nv):
        for b in range(a + 1, nv):
            if rng.random() < 0.6:
                adjacency[a] |= 1 << b
                adjacency[b] |= 1 << a
    base, _ = _max_clique_masks(tuple(adjacency))
    for _ in range(10):
        perm = list(range(nv))
        rng.shuffle(perm)
        shuffled = [0] * nv
        for a in range(nv):
            for b in range(nv):
                if adjacency[a] >> b & 1:
                    shuffled[perm[a]] |= 1 << perm[b]
        assert _max_clique_masks(tuple(shuffled))[0] == base


def test_optimal_size_for_root_small():
    assert optimal_size_for_root(w("012"), 10) == 3
    for root in ("0120", "0102", "01021"):
        assert optimal_size_for_root(w(root), len(root)) == 1
        assert optimal_size_for_root(w(root), len(root) + 3) == 2
    for n in range(3, 13):
        assert optimal_size_for_root(w("012"), n) == one_region_size(w("012"), n)


def test_optimal_size_for_root_reversal_and_monotone():
    root = w("01210")
    rev = root[::-1]
    values = []
    for n in range(5, 12):
        v = optimal_size_for_root(root, n)
        assert v == optimal_size_for_root(rev, n)
        assert v <= region_vector_upper_bound(n, len(root), count_regions(root))
        values.append(v)
    assert values == sorted(values)


def test_clique_witness_realizes_word_code():
    root, n = w("01210"), 9
    graph = graph_from_labels(enumerate_labels(root, n))
    size, witness = max_clique(graph)
    by_label = {}
    for word in descendant_cone(root, n).by_length.get(n, ()):
        by_label.setdefault(compute_label(word), word)
    words = frozenset(by_label[label] for label in witness)
    assert len(words) == size
    assert validate_code(Code(n, 3, words, "clique-witness"))


@pytest.mark.parametrize("n", [0, -1])
def test_nonpositive_lengths_are_refused(n):
    for f in (labels_by_root, optimal_size):
        with pytest.raises(ValueError, match=f"length must be positive, got {n}"):
            f(n)


def test_optimal_size_small_lengths():
    assert optimal_size(1) == 3
    assert optimal_size(2) == 9
    assert optimal_size(3) == 21
    assert optimal_size(6) == 117


def _matches_the_state_sweep_and_every_cone(n: int) -> None:
    # the run-free walk against the sweep over merged prefix states, which
    # labels words it walks symbol by symbol with no kill sets, and against
    # the cone route, which walks each root's run-free members by
    # duplications and shares the kill sets (points C-D).  Every canonical
    # root up to length n has a label set
    buckets = labels_by_root(n)
    assert buckets == labels_by_root_states(n)
    assert set(buckets) == set(_walk(1, n, 3, 3, canonical=True))
    for root, labels in buckets.items():
        assert enumerate_labels(root, n) == labels, root


def test_labels_by_root_matches_cone_enumeration():
    for n in range(1, 15):
        _matches_the_state_sweep_and_every_cone(n)


@pytest.mark.skipif(
    not os.environ.get("TDCODES_STRETCH"), reason="stretch lengths; set TDCODES_STRETCH=1"
)
@pytest.mark.parametrize("n", [16, 18])
def test_stretch_labels_by_root_matches_cone_enumeration(n):
    _matches_the_state_sweep_and_every_cone(n)


@pytest.mark.skipif(
    not os.environ.get("TDCODES_STRETCH"), reason="stretch lengths; set TDCODES_STRETCH=1"
)
def test_stretch_labels_by_root_matches_cone_enumeration_at_n21():
    # every 97th of the 6,765 roots and a 13-symbol root, whose slack of 8
    # the run-capped walk could not reach, against the state sweep and the
    # cone route
    buckets = labels_by_root(21)
    states = labels_by_root_states(21)
    longest = w("0121012101210")
    assert len(buckets[longest]) == 553
    for root in sorted(buckets)[::97] + [longest]:
        assert states[root] == enumerate_labels(root, 21) == buckets[root], root


@pytest.mark.parametrize("n", [1, 2, 14])
def test_run_free_walk_carries_each_words_root_and_depth_table(n):
    # each canonical run-free word up to length n once, with the root, the
    # depth table and the regions a word computed from scratch has: 1 word
    # of length 1 and 2^(L - 2) of each length L >= 2, which is all of
    # them (after 01 each symbol is one of the two that differ from the
    # last, and either keeps the word canonical)
    words = []
    for y, root, last, regions in _run_free_walk(n):
        assert (root, last) == root_le3_depths(y), y
        assert regions == _sized(y, _region_plan(root), last)[0], y
        assert canonical_form(y)[0] == y and all(a != b for a, b in zip(y, y[1:])), y
        words.append(y)
    assert len(set(words)) == len(words)
    lengths = [len(y) for y in words]
    expect = [1] + [2 ** (m - 2) for m in range(2, n + 1)] + [0]
    assert [lengths.count(m) for m in range(1, n + 2)] == expect


def _labels_of_every_word(n: int) -> dict[bytes, set[Label]]:
    # compute_label over every canonical ternary word of length n, from
    # itertools.product with a first-occurrence filter, not from the walk
    # the sweep uses
    buckets: dict[bytes, set[Label]] = {}
    for x in iter_canonical_ternary(n, n):
        label = compute_label(x)
        buckets.setdefault(label.root, set()).add(label)
    return buckets


@pytest.mark.parametrize("n", range(1, 12))
def test_labels_by_root_equals_every_word_reference(n):
    assert labels_by_root(n) == _labels_of_every_word(n)


@pytest.mark.skipif(
    not os.environ.get("TDCODES_STRETCH"), reason="stretch lengths; set TDCODES_STRETCH=1"
)
@pytest.mark.parametrize("n", [12, 13])
def test_stretch_labels_by_root_equals_every_word_reference(n):
    assert labels_by_root(n) == _labels_of_every_word(n)


@pytest.mark.parametrize("n", range(1, 14))
def test_labels_by_root_equals_the_word_sweep(n):
    # the sweep over merged prefix states against the reference that labels
    # every word it walks
    assert labels_by_root(n) == labels_by_root_words(n)


@pytest.mark.skipif(
    not os.environ.get("TDCODES_STRETCH"), reason="stretch lengths; set TDCODES_STRETCH=1"
)
@pytest.mark.parametrize("n", [14, 15, 16])
def test_stretch_labels_by_root_equals_the_word_sweep(n):
    assert labels_by_root(n) == labels_by_root_words(n)


@pytest.mark.parametrize("n", range(1, 12))
def test_prefixes_with_one_sweep_state_get_the_same_labels(n):
    # every canonical prefix with no run of three up to length 9, grouped by
    # its length and sweep state: within a group, x + y has the same label
    # for every extension y up to length n, computed word by word
    @functools.cache
    def extension_labels(x):
        grown = ()
        if len(x) < n:
            grown = tuple(
                extension_labels(x + bytes((s,)))
                for s in range(min(max(x) + 2, 3))
                if not x.endswith(bytes((s, s)))
            )
        return compute_label(x), grown

    extend = sweep(n)
    states = {b"": START}
    groups = {}
    for x in words_without_runs_of_three(1, min(n, 9)):
        states[x] = next(state for state, _ in extend(states[x[:-1]], len(x)) if state[0][1][-1] == x[-1])
        groups.setdefault((len(x), states[x]), []).append(x)
    for first, *rest in groups.values():
        for x in rest:
            assert extension_labels(x) == extension_labels(first), (first, x)
    if n >= 6:
        assert len(groups) < len(states) - 1  # the sweep merges prefixes


def _tail_rule_words(words):
    # the words u + ss with a run ss in u, whose label is that of u + s
    return {
        x
        for x in words
        if len(x) >= 3 and x[-1] == x[-2] and any(x[i] == x[i + 1] for i in range(len(x) - 3))
    }


@pytest.mark.parametrize("n", range(1, 11))
def test_sweep_labels_exactly_the_run_capped_images(n, monkeypatch):
    # the words the reference word sweep labels are the caps of the
    # canonical length-n words, but for the tail rule's words, each once
    labelled = []

    def recording(x):
        labelled.append(x)
        return compute_label(x)

    monkeypatch.setattr(references, "compute_label", recording)
    labels_by_root_words(n)
    caps = {_cap_runs(x) for x in iter_canonical_ternary(n, n)}
    assert len(labelled) == len(set(labelled))
    assert set(labelled) == caps - _tail_rule_words(caps)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(st.sampled_from((3, 4, 5, 256)).flatmap(
    lambda q: st.tuples(st.binary(max_size=14).map(lambda b: bytes(c % q for c in b)), st.integers(0, q - 1))
))
def test_tail_rule_appending_the_last_symbol_keeps_the_label(case):
    # compute_label(u + s + s) == compute_label(u + s) for every word u + s
    u, s = case
    x = u + bytes((s,))
    assert compute_label(x + x[-1:]) == compute_label(x)


def _cone_labels(cone, n: int) -> set[Label]:
    return {compute_label(x) for x in cone.by_length.get(n, ())}


@pytest.mark.parametrize("root", list(_walk(1, 7, 3, 3, canonical=True)), ids=lambda r: r.hex())
def test_enumerate_labels_equals_the_full_cone_labels(root):
    # the run-free route against every member of the brute-force cone, and
    # against the run-capped walk it replaced, which labels the words it
    # picks one by one, for every canonical ternary root up to length 7
    cone = descendant_cone(root, 12)
    for n in range(len(root), 13):
        assert enumerate_labels(root, n) == _cone_labels(cone, n) == enumerate_labels_capped(root, n), n


@pytest.mark.parametrize("root, n_max", [("0123", 8), ("01023", 8), ("01230", 9)])
def test_enumerate_labels_equals_the_full_cone_labels_over_more_symbols(root, n_max):
    r = bytes(map(int, root))
    cone = descendant_cone(r, n_max)
    for n in range(len(r), n_max + 1):
        assert enumerate_labels(r, n) == _cone_labels(cone, n), n


@pytest.mark.skipif(
    not os.environ.get("TDCODES_STRETCH"), reason="stretch lengths; set TDCODES_STRETCH=1"
)
@pytest.mark.parametrize("root", list(_walk(1, 7, 3, 3, canonical=True)), ids=lambda r: r.hex())
def test_stretch_enumerate_labels_equals_the_full_cone_labels(root):
    assert enumerate_labels(root, 13) == _cone_labels(descendant_cone(root, 13), 13)


@pytest.mark.parametrize("q", [4, 5])
def test_enumerate_labels_equals_the_run_capped_walk_over_more_symbols(q):
    # every canonical root up to length 6 using all q symbols
    for root in _walk(q, 6, q, 3, canonical=True):
        if max(root) == q - 1:
            for n in range(len(root), 11):
                assert enumerate_labels(root, n) == enumerate_labels_capped(root, n), (root, n)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.sampled_from((4, 5, 256)).flatmap(
    lambda q: st.tuples(st.binary(min_size=1, max_size=30).map(lambda b: bytes(c % q for c in b)), st.integers(0, 4))
))
def test_enumerate_labels_equals_the_run_capped_walk_over_byte_alphabets(case):
    # a prefix of a root is a root; up to ten symbols, slack up to four
    x, slack = case
    root = root_le3(x)[:10]
    n = len(root) + slack
    assert enumerate_labels(root, n) == enumerate_labels_capped(root, n)


def test_enumerate_labels_budget_counts_run_free_words():
    # the budget counts the run-free walk: the 4 members of the cone of 012
    # up to length 6 with no run ss
    expect = {x for x in descendant_cone(w("012"), 6).members if all(a != b for a, b in zip(x, x[1:]))}
    assert expect == {w("012"), w("01012"), w("01212"), w("012012")}
    assert enumerate_labels(w("012"), 6, budget=4)
    with pytest.raises(ResourceBudgetError, match="descendant cone of 012 exceeded 3 states"):
        enumerate_labels(w("012"), 6, budget=3)


@pytest.mark.parametrize("m", range(1, 10))
def test_walk_k0_yields_canonical_words_without_runs_of_three(m):
    # the walk behind the references' word sweep, in order
    walked = list(words_without_runs_of_three(1, m))
    expect = {
        x
        for x in iter_canonical_ternary(1, m)
        if not any(x[i] == x[i + 1] == x[i + 2] for i in range(len(x) - 2))
    }
    assert walked == sorted(expect)


@pytest.mark.parametrize(
    "root, n, size", [("0123", 7, 2), ("0123", 8, 3), ("01023", 8, 2), ("01230", 9, 4)]
)
def test_optimal_size_for_root_over_more_than_three_symbols(root, n, size):
    # the label route against a brute-force clique on the cone's words
    nx = pytest.importorskip("networkx")
    r = bytes(map(int, root))
    words = sorted(descendant_cone(r, n).by_length[n])
    graph = nx.Graph()
    graph.add_nodes_from(range(len(words)))
    graph.add_edges_from(
        (i, j)
        for i, j in itertools.combinations(range(len(words)), 2)
        if not confusable(words[i], words[j])
    )
    assert nx.max_weight_clique(graph, weight=None)[1] == size
    assert optimal_size_for_root(r, n) == size


def _paper_optima() -> dict[int, int]:
    # the reference table's lower_known column on the rows its optimal
    # flag marks as exact
    text = resources.files("tdcodes").joinpath("fixtures", "reference_table.tsv").read_text()
    header, *lines = text.splitlines()
    rows = [dict(zip(header.split("\t"), line.split("\t"))) for line in lines if line.strip()]
    return {int(row["n"]): int(row["lower_known"]) for row in rows if row["optimal"] == "1"}


@pytest.mark.parametrize("n", range(13, 17))
def test_optimal_size_equals_the_paper_optimum(n):
    assert optimal_size(n) == _paper_optima()[n]


@pytest.mark.skipif(
    not os.environ.get("TDCODES_STRETCH"), reason="stretch lengths; set TDCODES_STRETCH=1"
)
@pytest.mark.parametrize("n", range(17, 21))
def test_stretch_optimal_size_equals_the_paper_optimum(n):
    assert optimal_size(n) == _paper_optima()[n]


@pytest.mark.skipif(
    not os.environ.get("TDCODES_STRETCH"), reason="stretch lengths; set TDCODES_STRETCH=1"
)
def test_stretch_max_clique_equals_networkx_on_the_largest_label_graphs():
    # the five n = 18 roots with the most labels (182 down to 122), whose
    # graphs hold thousands of edges
    nx = pytest.importorskip("networkx")
    by_root = labels_by_root(18)
    for root in sorted(by_root, key=lambda r: (-len(by_root[r]), r))[:5]:
        graph = graph_from_labels(by_root[root])
        g = nx.Graph()
        g.add_nodes_from(range(len(graph.vertices)))
        g.add_edges_from(
            (u, v) for u, mask in enumerate(graph.adjacency) for v in range(u) if mask >> v & 1
        )
        size, witness = max_clique(graph)
        assert nx.max_weight_clique(g, weight=None)[1] == size, root
        assert all(not labels_confusable(a, b) for a, b in itertools.combinations(witness, 2))


def test_size_cache_roundtrip(tmp_path):
    path = tmp_path / "cache.tsv"
    cache = SizeCache(str(path))
    value = optimal_size_for_root(w("012"), 9, cache=cache)
    witness = cache.get(w("012"), 9)[1]
    assert cache.get(w("012"), 9)[0] == value
    reloaded = SizeCache(str(path))
    assert reloaded.get(w("012"), 9) == (value, witness)
    # a cache hit short-circuits recomputation: a valid but deliberately
    # small witness is returned as it stands
    small = (compute_label(w("012")),)
    reloaded.put(w("012"), 11, 1, small)
    assert optimal_size_for_root(w("012"), 11, cache=reloaded) == 1
    assert SizeCache(str(path)).get(w("012"), 11) == (1, small)


def test_size_cache_writes_only_loadable_lines(tmp_path):
    path = tmp_path / "cache.tsv"
    cache = SizeCache(str(path))
    # an empty witness (size 0) survives the round trip
    cache.put(w("012"), 5, 0, ())
    assert SizeCache(str(path)).get(w("012"), 5) == (0, ())
    # a witness the loader would reject is neither stored nor written
    text = path.read_text(encoding="utf-8")
    label = compute_label(w("012"))
    for size, witness in ((99, ()), (2, (label, label)), (1, (compute_label(w("0121")),))):
        with pytest.raises(ValueError):
            cache.put(w("012"), 11, size, witness)
        assert cache.get(w("012"), 11) is None
    assert path.read_text(encoding="utf-8") == text


def test_size_cache_roundtrip_over_eleven_symbols(tmp_path):
    # a root with two-digit symbols is written comma-separated, as in labels
    path = tmp_path / "cache.tsv"
    root = bytes(range(11))
    size = optimal_size_for_root(root, 12, cache=SizeCache(str(path)))
    assert path.read_text(encoding="utf-8").startswith("0,1,2,3,4,5,6,7,8,9,10\t12\t")
    assert SizeCache(str(path)).get(root, 12)[0] == size


def test_optimal_size_uses_cache(tmp_path):
    cache = SizeCache(str(tmp_path / "cache.tsv"))
    assert optimal_size(4, cache=cache) == 39
    assert len(cache) > 0
    assert optimal_size(4, cache=cache) == 39


def test_size_cache_reports_malformed_line(tmp_path, capsys):
    from tdcodes.cli import main

    path = tmp_path / "cache.tsv"
    # a comment and a blank line are skipped, but counted
    path.write_text("# sizes\n\n012\t9\t2\t012:(1,-);012:(2,+)\n012\t7\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: malformed size-cache line")):
        SizeCache(str(path))
    assert main(["--cache", str(path), "optimal", "--n", "4"]) == 2
    assert f"error: {path}:4: malformed size-cache line" in capsys.readouterr().err


@pytest.fixture(scope="module")
def cache_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("corrupt") / "cache.tsv"
    cache = SizeCache(str(path))
    for root, n in ((w("012"), 9), (w("01210"), 9), (w("0102"), 8), (bytes(range(11)), 12)):
        optimal_size_for_root(root, n, cache=cache)
    return path, path.read_bytes()


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_size_cache_corrupted_byte_is_reported_or_checked(cache_file, data):
    # one replaced byte anywhere in a cache file either names its line or
    # leaves only entries whose witnesses still check
    path, raw = cache_file
    at = data.draw(st.integers(0, len(raw) - 1), label="position")
    byte = data.draw(st.integers(0, 255), label="byte")
    path.write_bytes(raw[:at] + bytes((byte,)) + raw[at + 1 :])
    try:
        cache = SizeCache(str(path))
    except ValueError as exc:
        assert re.match(re.escape(str(path)) + r":\d+: malformed size-cache line", str(exc)), exc
        return
    for (root, n), (size, witness) in cache._mem.items():
        _check_line(root, n, size, witness)


def _append_entries(path, root, witness, ns, barrier):
    cache = SizeCache(path)
    barrier.wait()
    for n in ns:
        cache.put(root, n, len(witness), witness)


def test_size_cache_concurrent_writers(tmp_path):
    # writers sharing one file each append whole lines: put opens the file
    # in append mode (O_APPEND) and sends each line in one write, so lines
    # of about 18 KB from three processes never interleave
    path = str(tmp_path / "cache.tsv")
    # an irreducible root, written at lengths it fits in, with a witness of
    # two labels that differ in the first of its 1,124 regions
    root = bytes((0, 1, 2, 1)[i % 4] for i in range(2250))
    rest = ((1, "-"),) * (count_regions(root) - 1)
    witness = (Label(root, ((1, "-"),) + rest), Label(root, ((2, "+"),) + rest))
    writers, lines = 3, 300
    lengths = range(len(root), len(root) + writers * lines)
    barrier = multiprocessing.Barrier(writers)
    procs = [
        multiprocessing.Process(
            target=_append_entries,
            args=(path, root, witness, lengths[k * lines : (k + 1) * lines], barrier),
        )
        for k in range(writers)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    cache = SizeCache(path)
    assert len(cache) == writers * lines
    assert all(cache.get(root, n) == (2, witness) for n in lengths)


@pytest.mark.parametrize(
    "line",
    [
        "012\t9\t3\t012:(1,-);012:(2,+)",  # hand-edited size
        "012\t9\t2\t012:(1,+);012:(2,+)",  # confusable witness labels
        "012\t9\t2\t012:(1,-);0120:(2,+)",  # a label of another root
        # two entries per label for the one region of 012
        "012\t9\t3\t012:(1,-)(1,-);012:(1,-)(2,+);012:(2,+)(2,+)",
        "0110\t5\t1\t0110:",  # a word that is not a root
        "012\t2\t1\t012:",  # a length below the root's
        # label text that Label.text never writes
        "012\t9\t2\t012:1,-;012:(2,+)",
        "012\t9\t2\t012:((1,-);012:(2,+)",
        "012\t9\t2\t012:(1,-);012:(2,+",
        "012\t9\t2\t012:)(1,-);012:(2,+)",
        "012\t9\t2\t012:( 1,-);012:(2,+)",
        "012\t9\t2\t012:(01,-);012:(2,+)",
        "012\t9\t2\t012:(0,-);012:(2,+)",
        "012\t9\t2\t012:(-1,-);012:(2,+)",
        "01\t5\t1\t01",  # no ":", for a root with no region
        # root, length and size text that SizeCache.put never writes
        "0,1,2\t9\t2\t012:(1,-);012:(2,+)",
        "0,,1,2\t9\t2\t012:(1,-);012:(2,+)",
        " 0, 1,2\t9\t2\t012:(1,-);012:(2,+)",
        "012\t+6\t2\t012:(1,-);012:(2,+)",
        "012\t06\t2\t012:(1,-);012:(2,+)",
        "012\t9\t 2\t012:(1,-);012:(2,+)",
        "012\t9\t2\t0,1,2:(1,-);012:(2,+)",
    ],
)
def test_size_cache_rejects_bad_witness(tmp_path, capsys, line):
    from tdcodes.cli import main

    path = tmp_path / "cache.tsv"
    path.write_text(f"012\t9\t2\t012:(1,-);012:(2,+)\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: malformed size-cache line")):
        SizeCache(str(path))
    assert main(["--cache", str(path), "optimal", "--n", "4"]) == 2
    assert f"error: {path}:2: malformed size-cache line" in capsys.readouterr().err


def test_non_irreducible_root_rejected():
    with pytest.raises(ValueError):
        optimal_size_for_root(w("0100"), 6)
    with pytest.raises(ValueError):
        graph_from_labels(enumerate_labels(w("0101"), 6))
