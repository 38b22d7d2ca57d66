import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tdcodes import le2_upper_bound
from tdcodes.cli import _bound_rows, main, verify_fixtures
from tdcodes.optimal import SizeCache


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_root_command(capsys):
    code, out, _ = run(capsys, "root", "01012012")
    assert code == 0 and out.strip() == "012"
    code, out, _ = run(capsys, "root", "01211210", "--exact", "3")
    assert code == 0 and out.strip() == "01210"
    code, out, _ = run(capsys, "root", "012012", "--k", "2")
    assert code == 0 and out.strip() == "012012"
    # --exact 0 is a duplication length, not "no --exact"
    code, out, err = run(capsys, "root", "0120", "--exact", "0")
    assert code == 2 and out == "" and "duplicate length must be positive" in err

    # a one-symbol root over q > 10 prints without a comma and reads back
    code, out, _ = run(capsys, "--q", "13", "root", "12,12")
    assert code == 0 and out.strip() == "12"
    code, out, _ = run(capsys, "--q", "13", "root", out.strip())
    assert code == 0 and out.strip() == "12"


def test_confuse_command(capsys):
    code, out, _ = run(capsys, "confuse", "012012", "011112")
    assert code == 0 and out.strip() == "not-confusable"
    code, out, _ = run(capsys, "confuse", "01210210", "01201210")
    assert code == 0 and out.strip() == "confusable"


def test_label_command_text_and_json(capsys):
    code, out, _ = run(capsys, "label", "01210210")
    assert code == 0 and out.strip() == "01210:(1,+)(2,+)"
    code, out, _ = run(capsys, "--format", "json", "label", "01210210")
    payload = json.loads(out)
    assert payload == {"root": "01210", "entries": [[1, "+"], [2, "+"]]}
    from tdcodes import Label, compute_label, parse_word

    rebuilt = Label(
        parse_word(payload["root"]), tuple((c, s) for c, s in payload["entries"])
    )
    assert rebuilt == compute_label(parse_word("01210210"))


def test_region_command(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "region", "010201", "--in-word", "01102021020120111"
    )
    payload = json.loads(out)
    assert payload["main"] == "102"
    assert payload["region"] == "0102"
    assert payload["extended"] == "0110202102"
    assert payload["cut"] == "01102021"


def test_region_command_text(capsys):
    lines = ["main\t102", "region\t0102", "w\t01", "abc\t021", "ell\t0"]
    code, out, err = run(capsys, "region", "010201")
    assert (code, out, err) == (0, "\n".join(lines) + "\n", "")
    lines += ["extended\t0110202102", "cut\t01102021"]
    code, out, err = run(capsys, "region", "010201", "--in-word", "01102021020120111")
    assert (code, out, err) == (0, "\n".join(lines) + "\n", "")


def test_dup_and_irr_commands(capsys):
    code, out, _ = run(capsys, "dup", "01210", "1", "3")
    assert code == 0 and out.strip() == "01211210"
    code, out, _ = run(capsys, "irr", "3", "--count")
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert rows == {"1": "3", "2": "6", "3": "12"}
    code, out, _ = run(capsys, "--format", "json", "irr", "4", "--count")
    assert (code, out) == (0, '{"counts": {"1": 3, "2": 6, "3": 12, "4": 18}}\n')


def test_cone_and_oracle_commands(capsys):
    code, out, _ = run(capsys, "cone", "0", "--max-len", "3")
    assert code == 0 and out.split() == ["0", "00", "000"]
    code, out, _ = run(capsys, "oracle", "012012", "011112", "--max-len", "12")
    assert code == 0 and out.strip() == "no-witness-up-to-bound"
    code, out, _ = run(capsys, "oracle", "0120", "0120", "--max-len", "4")
    assert code == 0 and out.strip() == "0120"


def test_code_command_text_and_json(capsys):
    code, out, _ = run(capsys, "code", "one-region", "--root", "012", "--n", "6", "--validate")
    lines = out.strip().splitlines()
    assert lines[0].startswith("6 3 2")
    assert lines[1:] == ["011222", "012012"]
    code, out, _ = run(capsys, "--format", "json", "code", "pair", "--root", "0120")
    payload = json.loads(out)
    assert sorted(payload["words"]) == ["0112200", "0120120"]
    # the pair code's length is fixed at len(root) + 3
    code, out, err = run(capsys, "code", "pair", "--root", "0120", "--n", "40")
    assert code == 2 and out == "" and "fixed length len(root) + 3 = 7" in err
    code, out, _ = run(capsys, "code", "pair", "--root", "0120", "--n", "7")
    assert code == 0 and out.splitlines()[0] == "7 3 2 pair"
    # the recursion is ternary: a root over four symbols is refused, and a
    # three-symbol root over a larger alphabet is built as its relabeling
    code, out, err = run(capsys, "--q", "4", "code", "recursive", "--root", "0123", "--n", "12")
    assert code == 2 and out == "" and "more than three symbols" in err
    code, out, _ = run(capsys, "--q", "4", "code", "recursive", "--root", "0130", "--n", "12", "--validate")
    assert code == 0
    assert out.strip().splitlines() == ["12 4 3 recursive", "011330000000", "011330011330", "013013013000"]
    # each construction takes exactly its own options
    for argv in (
        ("irr", "--n", "3", "--root", "0120"),
        ("assemble", "--n", "6", "--root", "012"),
        ("recursive", "--root", "01210", "--n", "9", "--k", "2"),
        ("one-region", "--root", "0120", "--n", "9", "--k", "1"),
        ("pair", "--root", "0120", "--k", "2"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["code", *argv])
        assert exc.value.code == 2


def test_code_irr_command(capsys):
    from tdcodes import irreducible_code, render_word

    code, out, err = run(capsys, "code", "irr", "--n", "4", "--validate")
    want = [render_word(x) for x in irreducible_code(4, 3).sorted_words()]
    assert (code, err) == (0, "")
    assert out.splitlines() == ["4 3 39 irreducible(k<=3)", *want]
    # the k = 2 code keeps words holding a duplicate of length 3, such as 012012
    code, out, err = run(capsys, "code", "irr", "--n", "6", "--k", "2", "--validate")
    assert (code, out, err) == (2, "", "invalid: 012012 ~ 012222\n")


def test_code_command_output_bytes(capsys):
    code, out, err = run(capsys, "code", "one-region", "--root", "012", "--n", "6")
    assert (code, out, err) == (0, "6 3 2 one-region\n011222\n012012\n", "")
    code, out, err = run(capsys, "--format", "json", "code", "one-region", "--root", "012", "--n", "6")
    want = '{"n": 6, "q": 3, "size": 2, "provenance": "one-region", "words": ["011222", "012012"]}\n'
    assert (code, out, err) == (0, want, "")


def test_bound_rows_le2_column_is_the_le2_upper_bound():
    # the running sum of one count vector against a fresh count per row
    assert [row[3] for row in _bound_rows(30)] == [le2_upper_bound(n) for n in range(1, 31)]


def test_bounds_and_optimal_commands(capsys):
    code, out, _ = run(capsys, "--format", "json", "bounds", "--n", "6", "--i", "3", "--m", "1")
    payload = json.loads(out)
    assert payload["refined_upper"] == 117
    assert payload["le2_upper"] == 117
    assert payload["region_vector_upper"] == 2
    code, out, _ = run(capsys, "bounds", "--n", "12", "--i", "5", "--m", "2")
    assert (code, out) == (0, "refined_upper\t1941\nle2_upper\t2253\nregion_vector_upper\t6\n")
    # --i and --m come together; with one of them the other is named
    code, out, err = run(capsys, "bounds", "--n", "12", "--i", "5")
    assert code == 2 and out == "" and "--m is missing" in err
    code, out, err = run(capsys, "bounds", "--n", "12", "--m", "2")
    assert code == 2 and out == "" and "--i is missing" in err
    code, out, _ = run(capsys, "optimal", "--n", "4")
    assert code == 0 and out.strip() == "39"
    code, out, _ = run(capsys, "optimal", "--n", "9", "--root", "012")
    assert code == 0 and out.strip() == "2"
    # the cone search needs no alphabet bound: a four-symbol root works
    code, out, _ = run(capsys, "--q", "4", "optimal", "--root", "0123", "--n", "7")
    assert code == 0 and out.strip() == "2"


def test_table_command(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "6", "--optimal-up-to", "6")
    lines = out.strip().splitlines()
    assert lines[0] == "n\tconstr1\tlower\teq1\tprop4\toptimal"
    assert lines[6].split("\t") == ["6", "111", "117", "117", "117", "117"]
    code, out, _ = run(capsys, "table", "--n-max", "0")
    assert code == 0 and out == "n\tconstr1\tlower\teq1\tprop4\toptimal\n"
    code, out, err = run(capsys, "table", "--n-max", "-3")
    assert (code, out, err) == (2, "", "error: --n-max must be at least 0, got -3\n")


def test_cache_path_from_environment(tmp_path, monkeypatch, capsys):
    from tdcodes import parse_word
    from tdcodes.optimal import SizeCache

    path = tmp_path / "env-cache.tsv"
    monkeypatch.setenv("TDCODES_CACHE", str(path))
    code, out, _ = run(capsys, "optimal", "--root", "012", "--n", "7")
    assert code == 0 and out.strip() == "2"
    assert SizeCache(str(path)).get(parse_word("012"), 7)[0] == 2


def test_cache_path_that_is_a_directory_is_an_error(tmp_path, capsys):
    code, out, err = run(capsys, "--cache", str(tmp_path), "optimal", "--n", "3")
    assert code == 2 and out == "" and err.startswith("error: ") and str(tmp_path) in err


@pytest.mark.parametrize(
    "line, argv, message",
    [
        (
            "0110\t5\t1\t0110:",
            ("optimal", "--root", "0110", "--n", "5"),
            "0110 is not irreducible, so it is not a root",
        ),
        ("012\t2\t1\t012:", ("optimal", "--root", "012", "--n", "2"), "target length 2 below root length 3"),
    ],
    ids=["not-a-root", "below-root-length"],
)
def test_cache_lines_for_no_root_are_errors(tmp_path, capsys, line, argv, message):
    # a hand-edited line cannot answer for a word that is not a root, or
    # for a length its root does not fit in
    path = tmp_path / "cache.tsv"
    path.write_text(line + "\n", encoding="utf-8")
    code, out, err = run(capsys, "--cache", str(path), *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {path}:1: malformed size-cache line: {message}\n"


def test_cache_line_with_entries_for_other_regions_is_an_error(tmp_path, capsys):
    # a witness whose labels carry two entries for the one region of 012
    # would let the line answer 3, where the clique over the root's labels
    # gives 2
    path = tmp_path / "cache.tsv"
    path.write_text("012\t9\t3\t012:(1,-)(1,-);012:(1,-)(2,+);012:(2,+)(2,+)\n", encoding="utf-8")
    code, out, err = run(capsys, "--cache", str(path), "optimal", "--root", "012", "--n", "9")
    assert (code, out) == (2, "")
    assert err == (
        f"error: {path}:1: malformed size-cache line: witness label 012:(1,-)(1,-) has 2 entries,"
        " not 1, one per region of its root\n"
    )
    assert run(capsys, "optimal", "--root", "012", "--n", "9")[:2] == (0, "2\n")


def test_no_size_cache_without_a_file(monkeypatch, capsys):
    import tdcodes.cli

    def refuse(*_):
        raise AssertionError("a SizeCache was built with no file named")

    monkeypatch.delenv("TDCODES_CACHE", raising=False)
    monkeypatch.setattr(tdcodes.cli, "SizeCache", refuse)
    code, out, _ = run(capsys, "optimal", "--root", "01210", "--n", "9")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "table", "--n-max", "8", "--optimal-up-to", "4")
    assert code == 0 and out.strip().splitlines()[4].split("\t") == ["4", "39", "39", "39", "39", "39"]


@pytest.mark.parametrize(
    "first, second",
    [
        (["--format", "json", "region", "012"], ["region", "012"]),
        (["--cache", "F", "optimal", "--n", "6"], ["optimal", "--n", "6"]),
        (["--q", "4", "irr", "3"], ["irr", "3"]),
    ],
    ids=["format", "cache", "q"],
)
def test_shared_parser_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys, first, second):
    # two calls in a row print what they print with a newly built parser
    # each, open the same size caches, and the second leaves the first
    # one's cache file F as it was
    import tdcodes.cli
    from tdcodes.cli import build_parser

    monkeypatch.delenv("TDCODES_CACHE", raising=False)
    opened = []
    monkeypatch.setattr(tdcodes.cli, "SizeCache", lambda path: opened.append(path) or SizeCache(path))

    def pair(path, fresh):
        results = []
        for argv in (first, second):
            if fresh:
                build_parser.cache_clear()
            opened.clear()
            results.append((*run(capsys, *[str(path) if a == "F" else a for a in argv]), len(opened)))
            if argv is first:
                written = path.read_text() if path.exists() else None
        assert (path.read_text() if path.exists() else None) == written
        return results

    shared = pair(tmp_path / "shared.tsv", fresh=False)
    assert build_parser() is build_parser()
    assert shared == pair(tmp_path / "fresh.tsv", fresh=True)
    if "--cache" not in first:
        assert shared[1][1] != shared[0][1]  # the first call's option shows in its output


def test_validation_exit_code(capsys):
    code, _, err = run(capsys, "root", "01x")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "confuse", "013", "012")
    assert code == 2
    # words are bytes, so an alphabet above 256 symbols is refused up front
    for argv in (("--q", "300", "root", "299"), ("--q", "300", "irr", "2"), ("--q", "257", "label", "256,1")):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "between 1 and 256" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--q", "2", "optimal", "--n", "5"),
        ("--q", "2", "code", "assemble", "--n", "3"),
        ("--q", "4", "table", "--n-max", "3"),
        ("--q", "2", "bounds", "--n", "6"),
        ("--q", "2", "verify"),
    ],
)
def test_ternary_commands_refuse_other_alphabets(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "is ternary: --q must be 3" in err


@pytest.mark.parametrize("argv", [("table", "--n-max", "3"), ("verify",)])
def test_tsv_commands_refuse_json(capsys, argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    assert code == 2 and out == "" and f"error: {argv[0]} prints TSV only" in err


def test_errors_show_words_in_text_form(capsys):
    code, _, err = run(capsys, "optimal", "--root", "0110", "--n", "6")
    assert code == 2 and err == "error: 0110 is not irreducible, so it is not a root\n"
    code, _, err = run(capsys, "region", "012", "--in-word", "102")
    assert code == 2 and err == "error: no prefix of 102 is generated from region 012\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("optimal", "--n", "0"), "length must be positive, got 0"),
        (("code", "assemble", "--n", "0"), "lengths must be positive"),
        (("code", "assemble", "--n", "-1"), "lengths must be positive"),
    ],
)
def test_nonpositive_lengths_are_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("irr", "0"), "length must be positive, got 0"),
        (("irr", "-2"), "length must be positive, got -2"),
        (("--q", "1", "irr", "3"), "alphabet size must be at least 2, got 1"),
        (("--q", "1", "irr", "0"), "length must be positive, got 0"),
    ],
)
def test_irr_count_makes_the_checks_of_irr(capsys, argv, message):
    for mode in ((), ("--count",)):
        code, out, err = run(capsys, *argv, *mode)
        assert code == 2 and out == "" and err == f"error: {message}\n", mode


def test_resource_exit_code(capsys):
    code, _, err = run(capsys, "--budget-states", "50", "cone", "012", "--max-len", "12")
    assert code == 3 and "budget" in err


def test_budget_error_names_the_word_asked_for(capsys):
    # the cone search reaches longer words first; the message names the origin
    code, out, err = run(capsys, "--budget-states", "50", "cone", "012", "--max-len", "12")
    assert (code, out) == (3, "")
    assert err == "resource budget exceeded: descendant cone of 012 exceeded 50 states\n"
    code, out, err = run(capsys, "--budget-states", "50", "optimal", "--root", "0120", "--n", "14")
    assert (code, out) == (3, "")
    assert err == "resource budget exceeded: descendant cone of 0120 exceeded 50 states\n"


def test_optimal_root_budget_counts_run_free_words(capsys):
    # a one-symbol root's walk makes the root alone, and 01210 at n = 20
    # makes 6,019 run-free words, where the run-capped cone passed the
    # default budget of 2,000,000
    assert run(capsys, "--budget-states", "1", "optimal", "--root", "0", "--n", "3") == (0, "1\n", "")
    assert run(capsys, "optimal", "--root", "01210", "--n", "20") == (0, "11\n", "")


def test_oracle_budget_covers_both_cones(capsys):
    code, out, err = run(capsys, "--budget-states", "40", "oracle", "012", "021", "--max-len", "7")
    assert (code, out) == (3, "")
    assert err == "resource budget exceeded: descendant cone of 021 exceeded 40 states\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("--budget-states", "0", "cone", "0", "--max-len", "2"),
        ("--budget-states", "-1", "optimal", "--root", "012", "--n", "5"),
    ],
)
def test_budget_below_one_is_an_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: --budget-states must be at least 1, got {argv[1]}\n"


def test_deterministic_output(capsys):
    first = run(capsys, "cone", "01", "--max-len", "5")
    second = run(capsys, "cone", "01", "--max-len", "5")
    assert first == second


def test_verify_fixtures_small():
    report = verify_fixtures()
    assert all(ok for _, ok, _ in report), report
    # the eq1 and prop4 columns are checked on all 30 rows of the fixture
    details = {name: detail for name, _, detail in report}
    assert details["table.eq1"] == "refined upper bound, n<=30"
    assert details["table.prop4"] == "le2 upper bound, n<=30"


def test_verify_fixtures_reports_mismatched_rows(monkeypatch):
    import tdcodes.cli

    fixture_lines = tdcodes.cli._fixture_lines

    def corrupted(name):
        lines = fixture_lines(name)
        if name == "reference_table.tsv":
            header = lines[0].split("\t")
            for n in (5, 17):
                cells = lines[n].split("\t")
                for column in ("constr1", "eq1"):
                    at = header.index(column)
                    cells[at] = str(int(cells[at]) + 1)
                lines[n] = "\t".join(cells)
        return lines

    monkeypatch.setattr(tdcodes.cli, "_fixture_lines", corrupted)
    report = verify_fixtures()
    assert [name for name, _, _ in report] == [
        "table.constr1",
        "table.eq1",
        "table.prop4",
        "table.mismatches",
        "worked-examples",
    ]
    assert report[:4] == [
        ("table.constr1", False, "cumulative irreducible counts"),
        ("table.eq1", False, "refined upper bound, n<=30"),
        ("table.prop4", True, "le2 upper bound, n<=30"),
        ("table.mismatches", False, "constr1@5,eq1@5,constr1@17,eq1@17"),
    ]
    assert report[4][1]


def test_verify_command_fails_on_a_mismatched_row(monkeypatch, capsys):
    import tdcodes.cli

    fixture_lines = tdcodes.cli._fixture_lines

    def corrupted(name):
        lines = fixture_lines(name)
        if name == "worked_examples.tsv":
            lines = [*lines, "dup\t012\t0\t1\t012"]
        return lines

    monkeypatch.setattr(tdcodes.cli, "_fixture_lines", corrupted)
    code, out, err = run(capsys, "verify")
    assert (code, err) == (1, "")
    assert out.splitlines()[-1] == "FAIL\tworked-examples\tdup:0012!=012"


def test_verify_without_asserts(tmp_path):
    # no result may depend on assert statements, which python -O strips
    import tdcodes

    src = Path(tdcodes.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "tdcodes.cli", "verify"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.strip().splitlines()
    assert rows and all(row.startswith("PASS\t") for row in rows), rows
    # normalize_trace still checks its result under -O: a swap rule that
    # forgets to shift indices must raise instead of returning a bad trace
    broken = (
        "from tdcodes import confusability as c\n"
        "c._swap_steps = lambda i1, k1, i2, k2: [(i2, k2), (i1, k1)]\n"
        "try:\n"
        "    c.normalize_trace(c.DuplicationTrace(bytes((0, 1, 2)), ((0, 1), (0, 3))))\n"
        "except RuntimeError as exc:\n"
        "    print('raised', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", broken],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised"), proc.stdout


def test_optimal_cache_file_is_reproducible(tmp_path):
    # two processes with different string and bytes hashes write the same
    # cache file, one line per root in sorted root order
    import tdcodes

    src = Path(tdcodes.__file__).resolve().parent.parent
    files = []
    for seed in ("1", "2"):
        path = tmp_path / f"cache-{seed}.tsv"
        proc = subprocess.run(
            [sys.executable, "-m", "tdcodes.cli", "--cache", str(path), "optimal", "--n", "10"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
            timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (0, "777\n"), proc.stderr
        files.append(path.read_bytes())
    assert files[0] == files[1]
    roots = [line.split(b"\t")[0] for line in files[0].splitlines()]
    assert roots == sorted(set(roots))


@pytest.mark.parametrize("n", ["4", "12"])
def test_closed_pipe_exits_quietly(n):
    # a reader that stops early, as in `tdcodes code irr --n 12 | head -1`:
    # nothing on stderr and the exit code of a SIGPIPE death, 128 + 13,
    # whether the first write fails inside a print (n = 12, 16 kB) or in
    # the flush after the last one (n = 4)
    import tdcodes

    src = Path(tdcodes.__file__).resolve().parent.parent
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tdcodes.cli", "code", "irr", "--n", n],
            stdout=write,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=""),
            timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_json_code_roundtrip(capsys):
    from tdcodes.codes import one_region_code
    from tdcodes import parse_word, render_word

    code, out, _ = run(capsys, "--format", "json", "code", "one-region", "--root", "012", "--n", "10")
    want = one_region_code(parse_word("012"), 10)
    assert json.loads(out) == {
        "n": want.n,
        "q": want.q,
        "size": len(want),
        "provenance": want.provenance,
        "words": [render_word(x) for x in want.sorted_words()],
    }


def test_readme_examples_print_their_comment(monkeypatch, capsys):
    # every line of the README's CLI block runs; where its comment is one
    # token, that token is the first line it prints
    monkeypatch.delenv("TDCODES_CACHE", raising=False)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    examples = re.findall(r"^tdcodes ([^#\n]+?) *(?:# (.+))?$", block, re.MULTILINE)
    assert len(examples) == 16
    assert sum(len(comment.split()) == 1 for _, comment in examples) == 7
    for command, comment in examples:
        code, out, err = run(capsys, *command.split())
        assert (code, err) == (0, ""), command
        if len(comment.split()) == 1:
            assert out.splitlines()[0] == comment, command
