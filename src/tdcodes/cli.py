"""Command-line surface tying the library together.

Exit codes: 0 on success, 2 on validation errors (bad words, bad
parameters), 3 when a search exceeds its state budget, 141 on a closed pipe.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from importlib import resources
from typing import Iterable, Iterator

from .words import (
    ResourceBudgetError,
    parse_word,
    render_word,
    tandem_duplicate,
)
from .roots import root_le_k, root_exact_k
from .confusability import (
    Label,
    compute_label,
    confusable,
    cut_prefix,
    extended_prefix,
    main_and_region,
)
from .oracle import descendant_cone, enumerate_irreducible, irreducible_counts, oracle_confusable
from .codes import (
    assemble_lower_bound,
    assemble_lower_bounds,
    find_confusable_pair,
    irreducible_code,
    one_region_code,
    pair_code,
    recursive_code,
    validate_code,
)
from .bounds import le2_upper_bound, refined_upper_bound, region_vector_upper_bound
from .optimal import SizeCache, optimal_size, optimal_size_for_root

__all__ = ["main", "build_parser", "verify_fixtures"]


# built on the first call, not at import, and shared by every later call in
# the process: parse_args keeps no state in the parser
@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdcodes",
        description="Tandem-duplication words: roots, confusability, codes and bounds.",
    )
    parser.add_argument("--q", type=int, default=3, help="alphabet size, 1..256 (default 3)")
    parser.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    parser.add_argument(
        "--budget-states",
        type=int,
        default=2_000_000,
        help="state budget for cone searches",
    )
    parser.add_argument("--cache", default=None, help="size cache file (default: $TDCODES_CACHE)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("root", help="duplication root of a word")
    p.add_argument("word")
    p.add_argument("--k", type=int, default=3, help="maximum duplication length (1..3)")
    p.add_argument("--exact", type=int, default=None, help="use exactly this duplication length")

    p = sub.add_parser("confuse", help="decide confusability (duplication length <= 3)")
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("label", help="per-region label of a word")
    p.add_argument("word")

    p = sub.add_parser("region", help="first-region parse of an irreducible word")
    p.add_argument("root")
    p.add_argument("--in-word", default=None, help="also report the generated and cut prefixes")

    p = sub.add_parser("dup", help="apply one tandem duplication")
    p.add_argument("word")
    p.add_argument("i", type=int)
    p.add_argument("k", type=int)

    p = sub.add_parser("irr", help="irreducible words of one length")
    p.add_argument("n", type=int)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--count", action="store_true", help="print counts for lengths 1..n")

    p = sub.add_parser("cone", help="descendant cone of a word")
    p.add_argument("word")
    p.add_argument("--max-len", type=int, required=True)

    p = sub.add_parser("oracle", help="brute-force confusability with a length bound")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--max-len", type=int, default=None)

    p = sub.add_parser("code", help="construct a code")
    builds = p.add_subparsers(dest="construction", required=True)
    c = builds.add_parser("irr", help="irreducible words, tail-padded")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int, default=3)
    c = builds.add_parser("pair", help="two-word code of length len(root) + 3")
    c.add_argument("--root", required=True)
    c.add_argument("--n", type=int, default=None)
    for name, about in (
        ("one-region", "optimal code for a one-region root"),
        ("recursive", "prefix recursion over a ternary root"),
    ):
        c = builds.add_parser(name, help=about)
        c.add_argument("--root", required=True)
        c.add_argument("--n", type=int, required=True)
    c = builds.add_parser("assemble", help="assembled lower-bound code")
    c.add_argument("--n", type=int, required=True)
    for c in builds.choices.values():
        c.add_argument("--validate", action="store_true")

    p = sub.add_parser("bounds", help="upper bounds at one length")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--m", type=int, default=None)

    p = sub.add_parser("optimal", help="exact optimal code sizes via clique search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--root", default=None)

    p = sub.add_parser("table", help="summary table across lengths")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--optimal-up-to", type=int, default=0)

    sub.add_parser("verify", help="re-derive the bundled reference fixtures")

    return parser


def _emit(args, payload: dict | None, text_lines: Iterable[str]) -> None:
    # table and verify pass no payload: _run refuses --format json for them
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)
    sys.stdout.flush()  # a closed pipe raises here, inside main, and not at exit


def _run(args) -> int:
    q = args.q
    if not 1 <= q <= 256:
        raise ValueError(f"--q must be between 1 and 256 (symbols are bytes), got {q}")
    if args.budget_states < 1:
        raise ValueError(f"--budget-states must be at least 1, got {args.budget_states}")
    command = " ".join(filter(None, (args.command, getattr(args, "construction", None))))
    ternary = command in ("table", "bounds", "code assemble", "verify")
    if q != 3 and (ternary or command == "optimal" and not args.root):
        raise ValueError(f"{command} is ternary: --q must be 3, got {q}")
    if args.format == "json" and command in ("table", "verify"):
        raise ValueError(f"{command} prints TSV only: --format json is not supported")
    if args.command == "root":
        x = parse_word(args.word, q)
        r = root_exact_k(x, args.exact) if args.exact is not None else root_le_k(x, args.k)
        _emit(args, {"root": render_word(r, q)}, [render_word(r, q)])
    elif args.command == "confuse":
        x, y = parse_word(args.x, q), parse_word(args.y, q)
        result = confusable(x, y)
        _emit(args, {"confusable": result}, ["confusable" if result else "not-confusable"])
    elif args.command == "label":
        label = compute_label(parse_word(args.word, q))
        payload = {
            "root": render_word(label.root, q),
            "entries": [[c, s] for c, s in label.entries],
        }
        _emit(args, payload, [label.text()])
    elif args.command == "region":
        r = parse_word(args.root, q)
        desc = main_and_region(r)
        payload = {
            "main": render_word(desc.main, q),
            "region": render_word(desc.reg, q),
            "w": render_word(desc.w, q) if desc.w else "",
            "abc": render_word(desc.abc, q),
            "ell": desc.ell,
        }
        if args.in_word:
            x = parse_word(args.in_word, q)
            payload["extended"] = render_word(extended_prefix(desc, x), q)
            payload["cut"] = render_word(cut_prefix(r, x), q)
        _emit(args, payload, [f"{key}\t{value}" for key, value in payload.items()])
    elif args.command == "dup":
        x = parse_word(args.word, q)
        out = tandem_duplicate(x, args.i, args.k)
        _emit(args, {"word": render_word(out, q)}, [render_word(out, q)])
    elif args.command == "irr":
        if args.n < 1:
            raise ValueError(f"length must be positive, got {args.n}")
        if args.count:
            counts = irreducible_counts(args.n, q, args.k)
            rows = [(i, counts[i]) for i in range(1, args.n + 1)]
            payload = {"counts": dict(rows)}
            _emit(args, payload, [f"{i}\t{c}" for i, c in rows])
        else:
            words = [render_word(w, q) for w in enumerate_irreducible(args.n, q, args.k)]
            _emit(args, {"words": words}, words)
    elif args.command == "cone":
        x = parse_word(args.word, q)
        cone = descendant_cone(x, args.max_len, budget=args.budget_states)
        members = sorted(cone.members, key=lambda w: (len(w), w))
        rendered = [render_word(w, q) for w in members]
        _emit(args, {"size": len(rendered), "members": rendered}, rendered)
    elif args.command == "oracle":
        x, y = parse_word(args.x, q), parse_word(args.y, q)
        witness = oracle_confusable(x, y, args.max_len, budget=args.budget_states)
        text = None if witness is None else render_word(witness, q)
        _emit(args, {"witness": text}, [text or "no-witness-up-to-bound"])
    elif args.command == "code":
        code = _build_code(args, q)
        if args.validate and not validate_code(code):
            pair = find_confusable_pair(code)
            print(f"invalid: {render_word(pair[0], q)} ~ {render_word(pair[1], q)}", file=sys.stderr)
            return 2
        payload = {
            "n": code.n,
            "q": code.q,
            "size": len(code.words),
            "provenance": code.provenance,
            "words": [render_word(w, code.q) for w in code.sorted_words()],
        }
        header = f"{code.n} {code.q} {payload['size']} {code.provenance}"
        _emit(args, payload, [header, *payload["words"]])
    elif args.command == "bounds":
        payload = {
            "n": args.n,
            "refined_upper": refined_upper_bound(args.n),
            "le2_upper": le2_upper_bound(args.n),
        }
        if (args.i is None) != (args.m is None):
            missing = "--m" if args.m is None else "--i"
            raise ValueError(f"bounds needs --i and --m together; {missing} is missing")
        if args.i is not None:
            payload["region_vector_upper"] = region_vector_upper_bound(args.n, args.i, args.m)
        _emit(args, payload, [f"{key}\t{value}" for key, value in payload.items() if key != "n"])
    elif args.command == "optimal":
        cache = _size_cache(args)
        if args.root:
            r = parse_word(args.root, q)
            size = optimal_size_for_root(r, args.n, cache=cache, budget=args.budget_states)
            _emit(args, {"root": args.root, "n": args.n, "size": size}, [str(size)])
        else:
            size = optimal_size(args.n, cache=cache)
            _emit(args, {"n": args.n, "size": size}, [str(size)])
    elif args.command == "table":
        if args.n_max < 0:
            raise ValueError(f"--n-max must be at least 0, got {args.n_max}")
        _emit(args, None, _table_lines(args))
    elif args.command == "verify":
        report = verify_fixtures()
        lines = [f"{'PASS' if ok else 'FAIL'}\t{name}\t{detail}" for name, ok, detail in report]
        _emit(args, None, lines)
        if not all(ok for _, ok, _ in report):
            return 1
    return 0


def _size_cache(args) -> SizeCache | None:
    # a size cache exists only where --cache or TDCODES_CACHE names a file
    path = args.cache if args.cache is not None else os.environ.get("TDCODES_CACHE")
    return SizeCache(path) if path else None


def _build_code(args, q):
    if args.construction == "irr":
        return irreducible_code(args.n, args.k, q)
    if args.construction == "assemble":
        return assemble_lower_bound(args.n)
    r = parse_word(args.root, q)
    if args.construction == "pair":
        code = pair_code(r)
        if args.n is not None and args.n != code.n:
            raise ValueError(
                f"the pair code has the fixed length len(root) + 3 = {code.n}, not {args.n}"
            )
        return code
    if args.construction == "one-region":
        return one_region_code(r, args.n)
    return recursive_code(r, args.n)


def _bound_rows(n_max: int) -> Iterator[tuple[int, int, int, int]]:
    # (n, constr1, eq1, prop4) for n = 1..n_max: the cumulative irreducible
    # count, the refined upper bound and the le-2 upper bound, which is the
    # cumulative count of words with no square of length <= 2
    counts, le2_counts = irreducible_counts(n_max, 3, 3), irreducible_counts(n_max, 3, 2)
    constr1 = prop4 = 0
    for n in range(1, n_max + 1):
        constr1, prop4 = constr1 + counts[n], prop4 + le2_counts[n]
        yield n, constr1, refined_upper_bound(n), prop4


def _table_lines(args) -> Iterator[str]:
    # one row at a time, so that each row prints as soon as it is known
    cache = _size_cache(args)
    yield "n\tconstr1\tlower\teq1\tprop4\toptimal"
    lowers = assemble_lower_bounds(range(1, args.n_max + 1), cache=cache) if args.n_max > 0 else {}
    for n, constr1, eq1, prop4 in _bound_rows(args.n_max):
        optimal = optimal_size(n, cache=cache) if n <= args.optimal_up_to else ""
        yield f"{n}\t{constr1}\t{lowers[n]}\t{eq1}\t{prop4}\t{optimal}"


def _fixture_lines(name: str) -> list[str]:
    ref = resources.files("tdcodes").joinpath("fixtures", name)
    if not ref.is_file():
        raise FileNotFoundError(f"missing fixture {name}")
    return ref.read_text(encoding="utf-8").splitlines()


def verify_fixtures() -> list[tuple[str, bool, str]]:
    """Re-derive the bundled reference values; returns (name, ok, detail) rows.

    Checks the reference table's constr1, eq1 and prop4 columns (cumulative
    irreducible counts, the refined and the le-2 upper bounds) on every
    row, and every worked example.  The table's lower and optimal columns
    are not checked.
    """
    lines = _fixture_lines("reference_table.tsv")
    header = lines[0].split("\t")
    rows = [dict(zip(header, ln.split("\t"))) for ln in lines[1:] if ln.strip()]
    n_max = max(int(r["n"]) for r in rows)
    derived = {n: cells for n, *cells in _bound_rows(n_max)}
    failed = set()
    detail = []
    for row in rows:
        n = int(row["n"])
        for column, value in zip(("constr1", "eq1", "prop4"), derived[n]):
            if value != int(row[column]):
                failed.add(column)
                detail.append(f"{column}@{n}")
    report = [
        ("table.constr1", "constr1" not in failed, "cumulative irreducible counts"),
        ("table.eq1", "eq1" not in failed, f"refined upper bound, n<={n_max}"),
        ("table.prop4", "prop4" not in failed, f"le2 upper bound, n<={n_max}"),
    ]
    if detail:
        report.append(("table.mismatches", False, ",".join(detail)))

    ok = True
    bad = []
    for ln in _fixture_lines("worked_examples.tsv"):
        if not ln.strip() or ln.startswith("#"):
            continue
        op, *rest = ln.split("\t")
        expect = rest[-1]
        got = _run_worked_example(op, rest[:-1])
        if got != expect:
            ok = False
            bad.append(f"{op}:{got}!={expect}")
    report.append(("worked-examples", ok, ";".join(bad) if bad else "all rows match"))
    return report


def _run_worked_example(op: str, params: list[str]) -> str:
    if op == "dup":
        word, i, k = params
        return render_word(tandem_duplicate(parse_word(word), int(i), int(k)))
    if op == "root":
        word, k = params
        return render_word(root_le_k(parse_word(word), int(k)))
    if op == "confuse":
        x, y = params
        return "yes" if confusable(parse_word(x), parse_word(y)) else "no"
    if op == "main":
        return render_word(main_and_region(parse_word(params[0])).main)
    if op == "region":
        return render_word(main_and_region(parse_word(params[0])).reg)
    if op == "ext":
        r, x = params
        return render_word(extended_prefix(main_and_region(parse_word(r)), parse_word(x)))
    if op == "cut":
        r, x = params
        return render_word(cut_prefix(parse_word(r), parse_word(x)))
    if op == "label":
        return compute_label(parse_word(params[0])).text()
    raise ValueError(f"unknown worked-example op {op!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # stdout's reader left: exit as SIGPIPE would; flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
