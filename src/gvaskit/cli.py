"""Command-line front end.

Every subcommand reads and writes the text formats owned by the library
modules; outputs are deterministic and newline-terminated.  Exit codes:
0 success, 1 domain outcome (not related, not enabled, membership
unknown, defects found), 2 usage or parse error, 3 resource or cap limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fastgrowing, flowtree, pvas as pv, reach, setops, weakcomp
from .errors import (
    CapExceededError,
    GvasError,
    ParseError,
    ResourceLimitError,
)
from .gvas import _IDENT, format_config, format_gvas, parse_config, parse_gvas, validate
from .ordinal import parse_ordinal

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_gvas(path: str):
    return parse_gvas(_read(path))


def _load_tree(path: str):
    return flowtree.parse_tree(_read(path))


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _symbol(text: str):
    """A ``--symbol`` value: an identifier names a nonterminal, anything
    else is read as an action vector."""
    return text if _IDENT.fullmatch(text) else parse_config(text)


def _cmd_validate(args) -> int:
    g = _load_gvas(args.gvas)
    defects = validate(g)
    if args.format == "json":
        _emit(json.dumps({"defects": [{"code": d.code, "detail": d.detail, "fatal": d.fatal} for d in defects]}, sort_keys=True))
    else:
        if not defects:
            _emit("ok")
        for d in defects:
            _emit(str(d))
    return EXIT_DOMAIN if any(d.fatal for d in defects) else EXIT_OK


def _cmd_reach(args) -> int:
    g = _load_gvas(args.gvas)
    start = parse_config(getattr(args, "from"))
    symbol = _symbol(args.symbol)
    reach._source_ref(g, reach.Grid(g.dim, args.bound), symbol, start)  # the query's own checks, before the fixpoint
    table = reach.bounded_reach(g, args.bound)
    for c in table.successors(symbol, start):
        _emit(format_config(c))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    import itertools

    if args.limit < 0:
        raise ValueError("--limit must be non-negative")
    g = _load_gvas(args.gvas)
    sources = [parse_config(getattr(args, "from"))] if getattr(args, "from") else None
    symbols = [_symbol(args.symbol)] if args.symbol else None
    trees = flowtree.enumerate_trees(g, args.max_nodes, args.bound, symbols, sources)
    for t in itertools.islice(trees, args.limit):
        _emit(flowtree.format_tree(t))
    return EXIT_OK


def _cmd_witness_tree(args) -> int:
    g = _load_gvas(args.gvas)
    x = parse_config(getattr(args, "from"))
    y = parse_config(args.to)
    symbol = _symbol(args.symbol)
    reach._pair_ref(g, reach.Grid(g.dim, args.bound), x, symbol, y)  # as in _cmd_reach
    tree = reach.bounded_reach(g, args.bound).witness(x, symbol, y)
    _emit(flowtree.format_tree(tree))
    return EXIT_OK


def _load_valid_trees(args, *names: str):
    """The trees of the named options, or None after reporting the first invalid one."""
    g = _load_gvas(args.gvas)
    trees = [_load_tree(getattr(args, name)) for name in names]
    for name, tree in zip(names, trees):
        defect = flowtree.validate_tree(g, tree)
        if defect is not None:
            _emit(f"invalid tree {name} at {defect.position}: {defect.message}")
            return None
    return trees


def _cmd_leq(args) -> int:
    trees = _load_valid_trees(args, "s", "t")
    if trees is None:
        return EXIT_DOMAIN
    result = flowtree.leq(*trees)
    if result is None:
        _emit("not related")
        return EXIT_DOMAIN
    delta, _ = result
    _emit(f"lifting pre={format_config(delta.pre)} post={format_config(delta.post)}")
    return EXIT_OK


def _cmd_amalgamate(args) -> int:
    trees = _load_valid_trees(args, "s", "t1", "t2")
    if trees is None:
        return EXIT_DOMAIN
    s, t1, t2 = trees
    r1 = flowtree.leq(s, t1)
    r2 = flowtree.leq(s, t2)
    if r1 is None or r2 is None:
        _emit("not related")
        return EXIT_DOMAIN
    merged = flowtree.amalgamate(s, t1, r1[1], t2, r2[1])
    _emit(flowtree.format_tree(merged))
    return EXIT_OK


def _cmd_to_pvas(args) -> int:
    g = _load_gvas(args.gvas)
    _emit(pv.format_pvas(pv.gvas_to_pvas(g)))
    return EXIT_OK


def _cmd_from_pvas(args) -> int:
    p = pv.parse_pvas(_read(args.pvas))
    g = pv.pvas_to_gvas(p, start=args.start)
    _emit(format_gvas(g))
    return EXIT_OK


def _load_predicate(path: str):
    return setops.parse_predicate(_read(path))


def _coordinates(option: str, text: str, top: int) -> list[int]:
    """The 0-based indices of the comma-separated 1-based coordinates given
    to ``option``; ParseError naming, as typed, a value not in 1..top or
    one given twice."""
    out, column = [], 1
    for v in text.split(","):
        try:
            i = int(v)
        except ValueError:
            i = 0
        if not 1 <= i <= top:
            raise ParseError(f"{option} {v!r} is not a coordinate in 1..{top}", 1, column)
        if i - 1 in out:
            raise ParseError(f"{option} {v!r} repeats a coordinate", 1, column)
        out.append(i - 1)
        column += len(v) + 1
    return out


def _cmd_setop(args) -> int:
    op = args.operation
    if op == "budget-zero":
        g = _load_gvas(args.a)
        zeroed = _coordinates("--zero", args.zero, g.dim) if args.zero else []
        _emit(format_gvas(setops.force_zero(g, zeroed)))
        return EXIT_OK
    p = _load_predicate(args.a)
    if op in ("union", "product", "intersect", "compose"):
        if not args.b:
            raise ParseError(f"setop {op} needs two operand files", 1, 1)
        q = _load_predicate(args.b)
        out = {
            "union": setops.union,
            "product": setops.product,
            "intersect": setops.intersect,
            "compose": setops.compose_relations,
        }[op](p, q)
    elif op == "project":
        if not args.keep:
            raise ParseError("setop project needs --keep", 1, 1, ("--keep 1,2",))
        out = setops.project(p, _coordinates("--keep", args.keep, p.arity))
    elif op == "hull":
        out = setops.periodic_hull(p)
    elif op == "resetting":
        out = setops.make_resetting(p)
    else:
        raise ParseError(f"unknown set operation {op!r}", 1, 1)
    _emit(setops.format_predicate(out))
    return EXIT_OK


def _cmd_gen_falpha(args) -> int:
    alpha = parse_ordinal(args.alpha)
    _emit(format_gvas(fastgrowing.build_computer(alpha, args.d)))
    return EXIT_OK


def _cmd_witness(args) -> int:
    alpha = parse_ordinal(args.alpha)
    tree = fastgrowing.build_witness(alpha, args.n, args.d, args.cap)
    _emit(flowtree.format_tree(tree))
    return EXIT_OK


def _cmd_falpha_eval(args) -> int:
    from .ordinal import fast_growing

    alpha = parse_ordinal(args.alpha)
    _emit(str(fast_growing(alpha, args.n, args.cap)))
    return EXIT_OK


def _cmd_safety(args) -> int:
    g = fastgrowing.build_core(args.d)
    symbols = [fastgrowing._check_core_symbol(g, args.symbol)] if args.symbol else list(g.nonterminals)
    table = reach.bounded_reach(g, args.bound)
    scans = [fastgrowing.safety_check(args.d, s, args.bound, table) for s in symbols]
    if args.format == "json":
        _emit(json.dumps(
            {
                "bound": args.bound,
                "depth": args.d,
                "scans": [
                    {
                        "symbol": s.symbol,
                        "entries": s.entries,
                        "violations": len(s.violations),
                        "max_slack": s.max_slack,
                        "cap_hits": s.cap_hits,
                        "checked": s.entries - s.cap_hits,
                        "vacuous": s.cap_hits,
                    }
                    for s in scans
                ],
            },
            sort_keys=True,
        ))
    else:
        _emit("symbol entries violations max_slack")
        for s in scans:
            _emit(f"{s.symbol} {s.entries} {len(s.violations)} {s.max_slack}")
        # a cap hit passes its clause vacuously: say how many entries were really checked
        print("symbol checked vacuous", file=sys.stderr)
        for s in scans:
            print(f"{s.symbol} {s.entries - s.cap_hits} {s.cap_hits}", file=sys.stderr)
    return EXIT_DOMAIN if any(s.violations for s in scans) else EXIT_OK


def _cmd_check_weak(args) -> int:
    if args.n_max < 0:
        raise ValueError("--n-max must be non-negative")
    g = _load_gvas(args.gvas)
    oracle = weakcomp.oracle_by_name(args.oracle)
    w = weakcomp.WeakComputer(g, aux=g.dim - 2, oracle=oracle)
    rows = []
    ok = True
    for n in range(args.n_max + 1):
        report = weakcomp.check_safe(w, n, args.bound)
        co = weakcomp.check_complete(w, n, args.bound) is not None
        ok = ok and co and not report.violations
        rows.append((n, report.expected, report.max_output, co, len(report.violations)))
    if args.format == "json":
        _emit(json.dumps(
            {"rows": [
                {"n": n, "expected": e, "max_output": m, "co_found": c, "violations": v}
                for n, e, m, c, v in rows
            ]},
            sort_keys=True,
        ))
    else:
        _emit("n f(n) max_output co_found violations")
        for n, e, m, c, v in rows:
            _emit(f"{n} {e} {m} {str(c).lower()} {v}")
    return EXIT_OK if ok else EXIT_DOMAIN


def _cmd_dot(args) -> int:
    _emit(flowtree.to_dot(_load_tree(args.tree)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gvaskit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a GVAS file for defects")
    p.add_argument("gvas")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("reach", help="bounded reachable set from one configuration")
    p.add_argument("--gvas", required=True)
    p.add_argument("--from", required=True)
    p.add_argument("--symbol", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(fn=_cmd_reach)

    p = sub.add_parser("enumerate", help="enumerate bounded valid flow trees")
    p.add_argument("--gvas", required=True)
    p.add_argument("--from", default=None)
    p.add_argument("--symbol", default=None)
    p.add_argument("--max-nodes", type=int, default=5)
    p.add_argument("--bound", type=int, default=4)
    p.add_argument("--limit", type=int, default=100)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("witness-tree", help="deterministic witness flow tree for a table entry")
    p.add_argument("--gvas", required=True)
    p.add_argument("--from", required=True)
    p.add_argument("--symbol", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(fn=_cmd_witness_tree)

    p = sub.add_parser("leq", help="compare two flow trees in the tree ordering")
    p.add_argument("--gvas", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.set_defaults(fn=_cmd_leq)

    p = sub.add_parser("amalgamate", help="merge two extensions of a common tree")
    p.add_argument("--gvas", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)
    p.set_defaults(fn=_cmd_amalgamate)

    p = sub.add_parser("to-pvas", help="translate a GVAS to a pushdown VAS")
    p.add_argument("--gvas", required=True)
    p.set_defaults(fn=_cmd_to_pvas)

    p = sub.add_parser("from-pvas", help="translate a pushdown VAS to a GVAS")
    p.add_argument("--pvas", required=True)
    p.add_argument("--start", default=None)
    p.set_defaults(fn=_cmd_from_pvas)

    p = sub.add_parser("setop", help="closure constructions on definable predicates")
    p.add_argument("operation", choices=(
        "union", "product", "project", "intersect", "hull", "budget-zero", "resetting", "compose"))
    p.add_argument("a", help="first operand file")
    p.add_argument("b", nargs="?", default=None, help="second operand file")
    p.add_argument("--keep", default=None, help="1-based output coordinates to keep (project)")
    p.add_argument("--zero", default=None, help="1-based coordinates to budget to zero")
    p.set_defaults(fn=_cmd_setop)

    p = sub.add_parser("gen-falpha", help="emit the weak computer for one hierarchy level")
    p.add_argument("--alpha", required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(fn=_cmd_gen_falpha)

    p = sub.add_parser("witness", help="construct the exact-value run of the core grammar")
    p.add_argument("--alpha", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--cap", type=int, default=2**64)
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("falpha-eval", help="evaluate the fast-growing hierarchy")
    p.add_argument("--alpha", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=2**64)
    p.set_defaults(fn=_cmd_falpha_eval)

    p = sub.add_parser("safety", help="exhaustive bounded safety scan of the core grammar")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--symbol", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_safety)

    p = sub.add_parser("check-weak", help="completeness and safety table for a weak computer")
    p.add_argument("--gvas", required=True)
    p.add_argument("--oracle", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_check_weak)

    p = sub.add_parser("dot", help="render a flow tree as DOT")
    p.add_argument("--tree", required=True)
    p.set_defaults(fn=_cmd_dot)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceLimitError, CapExceededError) as e:
        print(f"limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except GvasError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OSError, ValueError) as e:  # an input file that cannot be read, a bad value
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
