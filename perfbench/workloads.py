"""The benchmark's four workloads.

Each workload has ``setup(seed, tmp)``, which builds every input and
expected answer from the seed, and ``run(inputs, chk, tr, counts)``,
which asks gvaskit for the full set of verdicts once and checks each
one.  Sizes are fixed: the seed picks sample points and query order
only, so every seed does the same amount of work.

Expected answers come from outside the code under test: closed forms,
the ``fast_growing`` evaluator, a breadth-first search written here,
the CLI golden files, and exact counts recorded at the seed commit.  A
count that differs from its recorded value is a determinism failure.

Calls are made through module attributes (``reach.bounded_reach(...)``)
so that the traced run's rebinding in :mod:`tracer` sees them.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import Counter, deque
from pathlib import Path

from gvaskit import cli, fastgrowing, flowtree, reach, setops, weakcomp
from gvaskit.errors import CapExceededError
from gvaskit.flowtree import Lifting
from gvaskit.gvas import Gvas, Transition, parse_gvas
from gvaskit.ordinal import Ordinal, fast_growing

# ---------------------------------------------------------------------------
# safety-scan: the all-pairs fixpoint and the exhaustive scans behind it.
#
# core(1) runs at bound 20, not the acceptance suite's 24: at 24 the
# fixpoint alone takes over 20 s and the run peaks at 1 GB, which does not
# fit a 20-second run.  The criterion-8 peak is checked instead on seeded
# sources whose hierarchy value fits the grid, where the peak must equal
# that value.

SAFETY_BOUND = 20
DESC_BOUND = 8
WITNESS_SAMPLES = 60  # per scanned symbol of core(1)
DESC_WITNESS_SAMPLES = 20
PEAK_SAMPLES = 12

# (entries, cap hits) of each scan and the pairs of each table at the
# seed commit; these are answers, so any change is a failure.
SAFETY_EXPECT = {
    (1, "Fn"): (1312715, 1298343),
    (1, "Iter"): (1370532, 1339435),
    (1, "Load"): (69531, 0),
    (2, "Desc1"): (226668, 226112),
}
SAFETY_PAIRS = {1: 2752778, 2: 672526}


def _level(k: int) -> Ordinal:
    return Ordinal((k,)) if k else Ordinal(())


def setup_safety(seed: int, tmp: Path) -> dict:
    rng = random.Random(seed)
    fitting = []
    for k in range(4):
        for v in range(SAFETY_BOUND + 1):
            try:
                f = fast_growing(_level(k), v, cap=SAFETY_BOUND)
            except CapExceededError:  # above the grid: the peak is not exact there
                continue
            fitting.append(((v, 0, k), f))
    return {
        "core1": fastgrowing.build_core(1),
        "core2": fastgrowing.build_core(2),
        "peaks": rng.sample(fitting, PEAK_SAMPLES),
        "picks": {
            (1, sym): [rng.random() for _ in range(WITNESS_SAMPLES)] for sym in ("Fn", "Iter", "Load")
        }
        | {(2, "Desc1"): [rng.random() for _ in range(DESC_WITNESS_SAMPLES)]},
    }


def _witness_sample(inp, chk, tr, counts, table, g, d, sym) -> None:
    rows, cols = tr.call("reach.pairs_arrays", table.pairs_arrays, sym)
    for u in inp["picks"][(d, sym)]:
        i = int(u * len(rows))
        src, dst = table.grid.decode(int(rows[i])), table.grid.decode(int(cols[i]))
        want = Transition(src, sym, dst)
        tree = chk.op(
            f"witness {sym} {src}->{dst}",
            lambda: table.witness(src, sym, dst),
            accept=lambda t: t.label == want and tr.call("flowtree.validate_tree", flowtree.validate_tree, g, t) is None,
        )
        if tree is not None:
            counts["reach.witness_nodes"] += tr.call("flowtree.tree_size", flowtree.tree_size, tree)


def _scan(chk, tr, counts, table, d, sym) -> None:
    entries, caps = SAFETY_EXPECT[(d, sym)]
    scan = chk.op(
        f"safety_check d={d} {sym}",
        lambda: tr.call("fastgrowing.safety_check", fastgrowing.safety_check, d, sym, table.bound, table),
        accept=lambda s: s.violations == () and (s.entries, s.cap_hits) == (entries, caps),
    )
    if scan is not None:
        counts["fastgrowing.safety_entries"] += scan.entries
        counts["fastgrowing.safety_cap_hits"] += scan.cap_hits


def _table_pairs(chk, counts, d, table) -> None:
    pairs = chk.op(
        f"pairs of core({d})",
        lambda: sum(table.count(nt) for nt in table.gvas.nonterminals),
        expect=SAFETY_PAIRS[d],
    )
    counts["reach.pairs"] += pairs or 0


def run_safety(inp, chk, tr, counts) -> None:
    table = chk.op("bounded_reach core(1)", lambda: reach.bounded_reach(inp["core1"], SAFETY_BOUND))
    if table is not None:
        _table_pairs(chk, counts, 1, table)
        for sym in ("Fn", "Iter", "Load"):
            _scan(chk, tr, counts, table, 1, sym)
        for src, f in inp["peaks"]:
            chk.op(
                f"peak from {src}",
                lambda: max(a + b for a, b, _ in tr.call("reach.successors", table.successors, "Fn", src)),
                expect=f,
            )
        for sym in ("Fn", "Iter", "Load"):
            _witness_sample(inp, chk, tr, counts, table, inp["core1"], 1, sym)
    del table  # keep one table alive at a time
    table = chk.op("bounded_reach core(2)", lambda: reach.bounded_reach(inp["core2"], DESC_BOUND))
    if table is not None:
        _table_pairs(chk, counts, 2, table)
        _scan(chk, tr, counts, table, 2, "Desc1")
        _witness_sample(inp, chk, tr, counts, table, inp["core2"], 2, "Desc1")
    caps, entries = counts["fastgrowing.safety_cap_hits"], counts["fastgrowing.safety_entries"]
    counts["fastgrowing.safety_checked_ratio"] = (entries - caps) / entries if entries else 0.0


# ---------------------------------------------------------------------------
# cone-membership: the single-source cone behind member_bounded and the
# weak-computer checks, at the criterion-11 and criterion-9 bounds.  No
# all-pairs table is built.

CONE_ANSWERS = 4985  # successors returned at the seed commit, all queries


def _graph_pow2() -> setops.DefinablePredicate:
    g = Gvas.from_rules(2, [
        ("S", [(0, 1)]),
        ("S", [(1, 0), "S", "T"]),
        ("T", [(0, 0)]),
        ("T", [(0, -1), "T", (0, 2)]),
    ], "S")
    return setops.DefinablePredicate(2, g, 0)


def setup_cone(seed: int, tmp: Path) -> dict:
    rng = random.Random(seed)
    lin = setops.linear_set
    graph = _graph_pow2()
    preds = [
        ("intersect", setops.intersect(lin((0,), [(2,)]), lin((0,), [(3,)])), 24,
         [(x,) for x in range(12)], lambda p: p[0] % 6 == 0),
        ("hull", setops.periodic_hull(setops.union(lin((2,), []), lin((3,), []))), 30,
         [(x,) for x in range(9)], lambda p: p[0] != 1),
        ("resetting", setops.make_resetting(graph), 14,
         [(x, y) for x in range(3) for y in range(5)], lambda p: 1 <= p[1] <= 2 ** p[0]),
        ("round-trip", weakcomp.wc_to_definable(weakcomp.definable_to_wc(graph, lambda n: 2**n)), 20,
         [(x, y) for x in range(5) for y in range(17)], lambda p: p[1] <= 2 ** p[0]),
    ]
    preds = [(name, p, b, rng.sample(window, len(window)), rule) for name, p, b, window, rule in preds]
    computers = []
    for name, alpha, d, n_max, bound in (
        ("F_1", Ordinal((1,)), 1, 11, 26),
        ("F_2", Ordinal((2,)), 1, 2, 32),
        ("F_w", Ordinal((0, 1)), 2, 1, 8),
    ):
        w = fastgrowing.as_weak_computer(alpha, d)
        ns = rng.sample(range(n_max + 1), n_max + 1)
        computers.append((name, w, bound, [(n, fast_growing(alpha, n)) for n in ns]))
    return {"preds": preds, "computers": computers}


def _cone_call(tr, calls: Counter, name: str, fn, *args):
    """One membership or weak-computer call, tagged by whether it built a cone."""
    misses = reach.cached_cone.cache_info().misses
    with tr.span(name) as rec:
        out = fn(*args)
    rec["cone_miss"] = missed = reach.cached_cone.cache_info().misses > misses
    calls["all"] += 1
    calls["hits"] += not missed
    return out


def _cone_answers(tr, p, bound: int) -> int:
    """Successors of the predicate's cone, looked up after its queries."""
    zero = (0,) * p.gvas.dim
    cone = reach.cached_cone(p.gvas, zero, bound)
    return len(tr.call("reach.successors", cone.successors, p.gvas.start, zero))


def run_cone(inp, chk, tr, counts) -> None:
    calls: Counter = Counter()
    for name, p, bound, points, rule in inp["preds"]:
        for x in points:
            chk.op(
                f"{name} member {x}@{bound}",
                lambda: _cone_call(tr, calls, "setops.member_bounded", setops.member_bounded, p, x, bound),
                expect=rule(x),
            )
        counts["reach.cone_answers"] += chk.op(f"{name} cone answers", lambda: _cone_answers(tr, p, bound)) or 0
    for name, w, bound, cases in inp["computers"]:
        g = w.gvas
        for n, f in cases:
            start = (n, 0) + (0,) * w.aux
            chk.op(
                f"{name} check_complete n={n}@{bound}",
                lambda: _cone_call(tr, calls, "weakcomp.check_complete", weakcomp.check_complete, w, n, bound),
                accept=lambda t: t is not None
                and (t.label.src, t.label.symbol, t.label.dst[1]) == (start, g.start, f)
                and tr.call("flowtree.validate_tree", flowtree.validate_tree, g, t) is None,
            )
            report = chk.op(
                f"{name} check_safe n={n}@{bound}",
                lambda: _cone_call(tr, calls, "weakcomp.check_safe", weakcomp.check_safe, w, n, bound),
                accept=lambda r: r.violations == () and r.expected == f and r.max_output == f,
            )
            if report is not None:
                counts["reach.cone_answers"] += report.outputs_seen
    counts["reach.cone_cache_hit_ratio"] = calls["hits"] / calls["all"]


# ---------------------------------------------------------------------------
# tree-surgery: pure flowtree work on constructed F_1 witnesses.  The sizes
# stay below two cliffs: amalgamate takes ~30 s at 807 nodes, and
# adorn/hom_embeds recurse too deep at 3207 nodes.

TREE_NODES = {25: 207, 50: 407, 100: 807}  # n of build_witness(F_1, n) -> nodes
AMALGAMATE_AT = {25: 3, 50: 1}  # n -> number of shift pairs amalgamated


def setup_tree(seed: int, tmp: Path) -> dict:
    rng = random.Random(seed)
    cases = []
    for n in TREE_NODES:
        shifts = [tuple(rng.randint(1, 3) if j == i else 0 for j in range(3)) for i in range(3)]
        first = rng.randrange(3)
        pairs = [((first + k) % 3, (first + k + 1) % 3) for k in range(AMALGAMATE_AT.get(n, 0))]
        cases.append((n, fast_growing(Ordinal((1,)), n), shifts, pairs))
    return {"core": fastgrowing.build_core(1), "cases": cases}


def _lift(v) -> Lifting:
    return Lifting(tuple(v), tuple(v))


def run_tree(inp, chk, tr, counts) -> None:
    g = inp["core"]
    call = tr.call
    for n, f, shifts, pairs in inp["cases"]:
        want = Transition((n, 0, 1), "Fn", (f, 0, 1))
        t = chk.op(
            f"build_witness F_1 n={n}",
            lambda: call("fastgrowing.build_witness", fastgrowing.build_witness, Ordinal((1,)), n, 1),
            accept=lambda t: t.label == want and call("flowtree.validate_tree", flowtree.validate_tree, g, t) is None,
        )
        if t is None:
            continue
        nodes = chk.op(f"nodes n={n}", lambda: call("flowtree.tree_size", flowtree.tree_size, t), expect=TREE_NODES[n])
        counts["flowtree.nodes"] += nodes or 0
        shifted, witnesses = [], []
        for v in shifts:
            sh = call("flowtree.shift", flowtree.shift, t, v)
            shifted.append(sh)
            tag = f"n={n} v={v}"
            chk.op(f"validate {tag}", lambda: call("flowtree.validate_tree", flowtree.validate_tree, g, sh), expect=None)
            res = chk.op(f"leq {tag}", lambda: call("flowtree.leq", flowtree.leq, t, sh),
                         accept=lambda r: r is not None and r[0] == _lift(v))
            w = res[1] if res is not None else None
            witnesses.append(w)
            chk.op(f"replay {tag}", lambda: call("flowtree.replay", flowtree.replay, w, t, sh), expect=_lift(v))
            chk.op(f"leq reversed {tag}", lambda: call("flowtree.leq", flowtree.leq, sh, t), expect=None)
            chk.op(f"hom_embeds {tag}", lambda: call("flowtree.hom_embeds", flowtree.hom_embeds, t, sh), expect=True)
            chk.op(f"adorn {tag}", lambda: call("flowtree.leq_via_adorn", flowtree.leq_via_adorn, t, sh), expect=True)
            chk.op(f"adorn reversed {tag}",
                   lambda: call("flowtree.leq_via_adorn", flowtree.leq_via_adorn, sh, t), expect=False)
            chk.op(
                f"format/parse {tag}",
                lambda: call("flowtree.parse_tree", flowtree.parse_tree, call("flowtree.format_tree", flowtree.format_tree, sh)),
                accept=lambda back: call("flowtree.eq", back.__eq__, sh) is True,
            )
        for i, j in pairs:
            _amalgamate(chk, call, g, t, shifted, witnesses, shifts, i, j, n)


def _amalgamate(chk, call, g, t, shifted, witnesses, shifts, i, j, n) -> None:
    v1, v2 = shifts[i], shifts[j]
    both = tuple(a + b for a, b in zip(v1, v2))
    want = Transition(
        tuple(a + b for a, b in zip(t.label.src, both)), t.label.symbol,
        tuple(a + b for a, b in zip(t.label.dst, both)),
    )
    tag = f"n={n} v1={v1} v2={v2}"
    merged = chk.op(
        f"amalgamate {tag}",
        lambda: call("flowtree.amalgamate", flowtree.amalgamate, t, shifted[i], witnesses[i], shifted[j], witnesses[j]),
        accept=lambda m: m.label == want and call("flowtree.validate_tree", flowtree.validate_tree, g, m) is None,
    )
    if merged is None:
        return
    # the three criterion-4 postconditions
    for what, s, lift in (("t1", shifted[i], _lift(v2)), ("t2", shifted[j], _lift(v1)), ("s", t, _lift(both))):
        chk.op(f"amalgamate {tag}: {what} <= merged",
               lambda: call("flowtree.leq", flowtree.leq, s, merged),
               accept=lambda r: r is not None and r[0] == lift)


# ---------------------------------------------------------------------------
# cli-single-source: gvaskit.cli.main in process, single-source questions
# answered by the all-pairs engine, plus the golden commands.  The chain
# witness stays at depth 400: reconstruction recurses about two frames per
# level and raises RecursionError near depth 495.

POW2_BOUND = 400
CHAIN_BOUND = 600
CHAIN_DEPTH = 400
EXCHANGE_BOUND = 40
CHECK_WEAK_N, CHECK_WEAK_BOUND = 8, 20
CLI_PAIRS = 1_561_731  # pairs of every table the commands build, seed commit

CHAIN = "dim 1\nstart S\nS -> (1) S | eps\n"
DATA = Path("tests/data")
GOLDEN = Path("tests/golden")

# The CLI golden cases of the test suite, with paths relative to the
# checkout root.
GOLDEN_CASES = [
    ("reach_pow2.txt", ["reach", "--gvas", DATA / "pow2.gvas", "--from", "(3)", "--symbol", "S", "--bound", "16"]),
    ("witness_pow2.txt", ["witness-tree", "--gvas", DATA / "pow2.gvas", "--from", "(3)", "--symbol", "S", "--to", "(2)", "--bound", "16"]),
    ("gen_falpha_2_d1.txt", ["gen-falpha", "--alpha", "2", "--d", "1"]),
    ("to_pvas_exchange.txt", ["to-pvas", "--gvas", DATA / "exchange.gvas"]),
    ("safety_d1_b8.txt", ["safety", "--d", "1", "--bound", "8"]),
    ("leq_base_tall.txt", ["leq", "--gvas", DATA / "order_demo.gvas", "--s", DATA / "tree_base.tree", "--t", DATA / "tree_tall.tree"]),
    ("amalgamate_base.txt", ["amalgamate", "--gvas", DATA / "order_demo.gvas", "--s", DATA / "tree_base.tree", "--t1", DATA / "tree_tall.tree", "--t2", DATA / "tree_tall.tree"]),
    ("falpha_eval.txt", ["falpha-eval", "--alpha", "2", "--n", "2"]),
    ("setop_intersect.txt", ["setop", "intersect", DATA / "evens.pred", DATA / "threes.pred"]),
]


def _cfg(c) -> str:
    return "(" + ",".join(str(v) for v in c) + ")"


def _exchange_reachable(src: tuple[int, int], bound: int) -> list[tuple[int, int]]:
    """Configurations reached by one or more exchange steps inside the grid."""
    seen: set[tuple[int, int]] = set()
    todo = deque([src])
    while todo:
        x, y = todo.popleft()
        for nxt in ((x - 1, y + 2), (x + 2, y - 1)):
            if all(0 <= v <= bound for v in nxt) and nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return sorted(seen)


def setup_cli(seed: int, tmp: Path) -> dict:
    rng = random.Random(seed)
    chain = tmp / "chain.gvas"
    chain.write_text(CHAIN, encoding="utf-8")
    x = rng.randint(3, 8)  # 2^x stays inside the pow2 grid
    y = rng.randint(1, 2**x)
    a = rng.randint(0, CHAIN_BOUND - CHAIN_DEPTH)
    ex_src = (rng.randint(0, 12), rng.randint(0, 12))
    ex_reach = _exchange_reachable(ex_src, EXCHANGE_BOUND)
    ex_dst = rng.choice(ex_reach)
    pow2, ex = DATA / "pow2.gvas", DATA / "exchange.gvas"
    g_pow2 = parse_gvas(pow2.read_text(encoding="utf-8"))
    g_chain = parse_gvas(CHAIN)
    g_ex = parse_gvas(ex.read_text(encoding="utf-8"))
    weak_rows = [f"{n} {2 * n + 1} {2 * n + 1} true 0" for n in range(CHECK_WEAK_N + 1)]
    commands = [
        ("reach", ["reach", "--gvas", pow2, "--from", f"({x})", "--symbol", "S", "--bound", POW2_BOUND],
         "".join(f"({v})\n" for v in range(1, 2**x + 1)), None),
        ("witness-tree", ["witness-tree", "--gvas", pow2, "--from", f"({x})", "--symbol", "S", "--to", f"({y})",
                          "--bound", POW2_BOUND], None, (g_pow2, Transition((x,), "S", (y,)))),
        ("reach", ["reach", "--gvas", chain, "--from", f"({a})", "--symbol", "S", "--bound", CHAIN_BOUND],
         "".join(f"({v})\n" for v in range(a, CHAIN_BOUND + 1)), None),
        ("witness-tree", ["witness-tree", "--gvas", chain, "--from", f"({a})", "--symbol", "S",
                          "--to", f"({a + CHAIN_DEPTH})", "--bound", CHAIN_BOUND],
         None, (g_chain, Transition((a,), "S", (a + CHAIN_DEPTH,)))),
        ("reach", ["reach", "--gvas", ex, "--from", _cfg(ex_src), "--symbol", "S", "--bound", EXCHANGE_BOUND],
         "".join(_cfg(c) + "\n" for c in ex_reach), None),
        ("witness-tree", ["witness-tree", "--gvas", ex, "--from", _cfg(ex_src), "--symbol", "S",
                          "--to", _cfg(ex_dst), "--bound", EXCHANGE_BOUND],
         None, (g_ex, Transition(ex_src, "S", ex_dst))),
        ("check-weak", ["check-weak", "--gvas", DATA / "computer_f1.gvas", "--oracle", "falpha:1",
                        "--n-max", CHECK_WEAK_N, "--bound", CHECK_WEAK_BOUND],
         "n f(n) max_output co_found violations\n" + "".join(r + "\n" for r in weak_rows), None),
    ]
    commands += [("golden", args, (GOLDEN / name).read_text(encoding="utf-8"), None) for name, args in GOLDEN_CASES]
    return {"commands": [(role, [str(v) for v in argv], out, tree) for role, argv, out, tree in commands]}


def _main(tr, role: str, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with tr.span("cli.main", role=role):
            code = cli.main(argv)
    return code, out.getvalue()


def run_cli(inp, chk, tr, counts) -> None:
    for role, argv, want_out, want_tree in inp["commands"]:
        what = "gvaskit " + " ".join(argv)
        if want_tree is None:
            chk.op(what, lambda: _main(tr, role, argv), expect=(0, want_out))
            continue
        g, label = want_tree

        def accept(result) -> bool:
            code, text = result
            if code != 0:
                return False
            tree = tr.call("flowtree.parse_tree", flowtree.parse_tree, text)
            counts["reach.witness_nodes"] += tr.call("flowtree.tree_size", flowtree.tree_size, tree)
            return tree.label == label and tr.call("flowtree.validate_tree", flowtree.validate_tree, g, tree) is None

        chk.op(what, lambda: _main(tr, role, argv), accept=accept)


WORKLOADS = {
    "safety-scan": (setup_safety, run_safety),
    "cone-membership": (setup_cone, run_cone),
    "tree-surgery": (setup_tree, run_tree),
    "cli-single-source": (setup_cli, run_cli),
}

# Counts a workload may record; a workload that records none of one
# reports 0 for it.
COUNT_KEYS = (
    "reach.pairs",
    "reach.witness_nodes",
    "reach.cone_answers",
    "reach.cone_cache_hit_ratio",
    "fastgrowing.safety_entries",
    "fastgrowing.safety_cap_hits",
    "fastgrowing.safety_checked_ratio",
    "flowtree.nodes",
)

# Exact counts a run must reproduce, per workload.  reach.pairs of the
# CLI workload is only visible to the traced run, whose wrapper around
# bounded_reach counts the tables built inside cli.main.
EXACT = {
    "safety-scan": {
        "fastgrowing.safety_entries": sum(e for e, _ in SAFETY_EXPECT.values()),
        "fastgrowing.safety_cap_hits": sum(c for _, c in SAFETY_EXPECT.values()),
        "reach.pairs": sum(SAFETY_PAIRS.values()),
    },
    "cone-membership": {"reach.cone_answers": CONE_ANSWERS},
    "tree-surgery": {"flowtree.nodes": sum(TREE_NODES.values())},
    "cli-single-source": {"reach.pairs": CLI_PAIRS},
}
