import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gvaskit.reach
from gvaskit import flowtree as ft
from gvaskit.cli import main
from gvaskit.flowtree import parse_tree
from gvaskit.gvas import parse_gvas
from gvaskit.pvas import parse_pvas
from gvaskit.setops import parse_predicate

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *args):
    code = main([str(a) for a in args])
    return code, capsys.readouterr().out


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
    ("witness_f2_d1.txt", ["witness", "--alpha", "2", "--n", "2", "--d", "1"]),
    ("witness_omega_d2.txt", ["witness", "--alpha", "w", "--n", "1", "--d", "2"]),
]


@pytest.mark.parametrize("golden,args", GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
def test_golden_outputs(capsys, golden, args):
    code, out = run(capsys, *args)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


LAZY_IMPORTS = """
import contextlib, io, json, sys
from gvaskit import cli
ran, loaded = [], []
for group in json.loads(sys.argv[1]):
    for argv in group:
        with contextlib.redirect_stdout(io.StringIO()):
            ran.append(cli.main(argv))
    loaded.append([name in sys.modules for name in ("numpy", "scipy")])
print(json.dumps([ran, loaded]))
"""


def test_scipy_loads_on_the_first_table_product():
    # a fresh interpreter: this one has numpy and scipy already
    # every golden command that builds no engine: leq, amalgamate, falpha-eval, setop, gen-falpha, to-pvas, witness
    no_engine = [[str(a) for a in args] for _, args in GOLDEN_CASES
                 if args[0] not in ("reach", "witness-tree", "safety")]
    no_engine += [["validate", str(DATA / "exchange.gvas")],
                  ["enumerate", "--gvas", POW2, "--max-nodes", "3", "--bound", "2"]]
    assert len({argv[0] for argv in no_engine}) == 9
    cone = ["check-weak", "--gvas", str(DATA / "computer_f1.gvas"), "--oracle", "falpha:1",
            "--n-max", "2", "--bound", "8"]
    table = [str(a) for a in GOLDEN_CASES[0][1]]
    assert table[0] == "reach"
    src = str(Path(gvaskit.reach.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", LAZY_IMPORTS, json.dumps([no_engine, [cone], [table]])],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # numpy loads with the first engine, the cone of check-weak, and scipy on the table's first product
    assert json.loads(done.stdout) == [[0] * 12, [[False, False], [True, False], [True, True]]]


def test_validate_ok(capsys):
    code, out = run(capsys, "validate", DATA / "exchange.gvas")
    assert code == 0 and out == "ok\n"


def test_validate_reports_warnings(tmp_path, capsys):
    f = tmp_path / "g.gvas"
    f.write_text("dim 1\nstart S\nS -> T\nT -> T\n")
    code, out = run(capsys, "validate", f)
    assert code == 0 and "unproductive" in out


def test_validate_fatal_exits_1(tmp_path, capsys):
    f = tmp_path / "g.gvas"
    f.write_text("dim 2\nstart S\nS -> (1)\n")
    code, out = run(capsys, "validate", f)
    assert code == 2  # dimension mismatch is caught at parse time, with location


def test_validate_ruleless_start_warns(tmp_path, capsys):
    # a parsed grammar always contains its start symbol, so an undefined
    # start surfaces as unproductive/unreachable warnings, not an error
    f = tmp_path / "g.gvas"
    f.write_text("dim 1\nstart X\nS -> (1)\n")
    code, out = run(capsys, "validate", f)
    assert code == 0 and "unproductive" in out and "unreachable" in out


def test_leq_not_related(capsys):
    code, out = run(capsys, "leq", "--gvas", DATA / "order_demo.gvas",
                    "--s", DATA / "tree_base.tree", "--t", DATA / "tree_wide.tree")
    assert code == 1 and out == "not related\n"


def test_invalid_tree_is_reported(capsys, tmp_path):
    bad = tmp_path / "bad.tree"
    bad.write_text("((2 S 3) ((2 (3) 5)) ((5 T 4) ((5 (-2) 3))))")
    code, out = run(capsys, "leq", "--gvas", DATA / "order_demo.gvas", "--s", bad, "--t", DATA / "tree_tall.tree")
    assert code == 1 and out == "invalid tree s at (): last child does not end at the target\n"
    code, out = run(capsys, "amalgamate", "--gvas", DATA / "order_demo.gvas",
                    "--s", DATA / "tree_base.tree", "--t1", DATA / "tree_tall.tree", "--t2", bad)
    assert code == 1 and out == "invalid tree t2 at (): last child does not end at the target\n"


def test_leq_and_amalgamate_on_a_chain_of_depth_1201(capsys, tmp_path):
    # T -> V T 1200 times, then T -> (-2): deeper than the recursion limit
    chain = ft.node((6,), "T", (4,), [ft.action_leaf((6,), (-2,))])
    for _ in range(1200):
        chain = ft.node((6,), "T", (4,), [ft.node((6,), "V", (6,)), chain])
    s, t = tmp_path / "chain.tree", tmp_path / "up.tree"
    s.write_text(ft.format_tree(chain))
    t.write_text(ft.format_tree(ft.shift(chain, (1,))))
    code, out = run(capsys, "leq", "--gvas", DATA / "order_demo.gvas", "--s", s, "--t", t)
    assert code == 0 and out == "lifting pre=(1) post=(1)\n"
    code, out = run(capsys, "amalgamate", "--gvas", DATA / "order_demo.gvas", "--s", s, "--t1", t, "--t2", t)
    assert code == 0 and parse_tree(out) == ft.shift(chain, (2,))


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "broken.gvas"
    f.write_text("dim 2\nstart S\nS -> (1)\n")
    code, _ = run(capsys, "reach", "--gvas", f, "--from", "(0,0)", "--symbol", "S", "--bound", "2")
    assert code == 2


def test_action_length_before_dim_is_a_located_parse_error(tmp_path, capsys):
    f = tmp_path / "early.gvas"
    f.write_text("start S\nS -> (1,2)\ndim 1\n")
    code = main(["reach", "--gvas", str(f), "--from", "(0)", "--symbol", "S", "--bound", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "parse error: 2:6: action (1,2) has length 2, expected 1\n"


def test_reach_rejects_an_action_outside_the_grammar(capsys):
    code, out = run(capsys, "reach", "--gvas", DATA / "pow2.gvas", "--from", "(1)", "--symbol", "(3)", "--bound", "4")
    assert code == 1
    assert out == ""


def test_reach_rejects_an_unknown_nonterminal(capsys):
    code = main(["reach", "--gvas", str(DATA / "pow2.gvas"), "--from", "(3)", "--symbol", "Q", "--bound", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err == "error: unknown nonterminal 'Q'\n"


POW2 = str(DATA / "pow2.gvas")


@pytest.mark.parametrize("argv,code,err", [
    (["reach", "--from", "(x)", "--symbol", "Q", "--bound", "400"], 2,
     "parse error: 1:1: bad vector '(x)' (expected (v1,...,vd))"),
    (["reach", "--from", "(9)", "--symbol", "(1,", "--bound", "4"], 2,
     "parse error: 1:1: bad vector '(1,' (expected (v1,...,vd))"),
    (["reach", "--from", "(9)", "--symbol", "Q", "--bound", "4"], 1, "error: unknown nonterminal 'Q'"),
    (["reach", "--from", "(9)", "--symbol", "(3)", "--bound", "4"], 1, "error: unknown action (3,)"),
    (["reach", "--from", "(9)", "--symbol", "S", "--bound", "4"], 1, "error: (9,) outside grid bound 4"),
    (["reach", "--from", "(1,1)", "--symbol", "S", "--bound", "4"], 1, "error: source (1, 1) has length 2, expected 1"),
    (["witness-tree", "--from", "(x)", "--symbol", "Q", "--to", "(y)", "--bound", "4"], 2,
     "parse error: 1:1: bad vector '(x)' (expected (v1,...,vd))"),
    (["witness-tree", "--from", "(1)", "--symbol", "Q", "--to", "(y)", "--bound", "4"], 2,
     "parse error: 1:1: bad vector '(y)' (expected (v1,...,vd))"),
    (["witness-tree", "--from", "(1)", "--symbol", "(1,", "--to", "(9)", "--bound", "4"], 2,
     "parse error: 1:1: bad vector '(1,' (expected (v1,...,vd))"),
    (["witness-tree", "--from", "(9)", "--symbol", "Q", "--to", "(1)", "--bound", "4"], 1,
     "error: unknown nonterminal 'Q'"),
    (["witness-tree", "--from", "(1)", "--symbol", "S", "--to", "(9)", "--bound", "4"], 1,
     "error: (1,) or (9,) outside grid"),
    (["witness-tree", "--from", "(9)", "--symbol", "(1)", "--to", "(10)", "--bound", "4"], 1,
     "error: (9,) or (10,) outside grid"),
    (["witness-tree", "--from", "(1,2)", "--symbol", "S", "--to", "(9)", "--bound", "4"], 1,
     "error: source (1, 2) has length 2, expected 1"),
    (["witness-tree", "--from", "(1)", "--symbol", "(1)", "--to", "(9,9)", "--bound", "4"], 1,
     "error: target (9, 9) has length 2, expected 1"),
], ids=["reach-from", "reach-symbol-vector", "reach-nonterminal", "reach-action", "reach-grid",
        "reach-dim", "witness-from", "witness-to", "witness-symbol-vector", "witness-nonterminal",
        "witness-grid", "witness-action-grid", "witness-from-dim", "witness-to-dim"])
def test_bad_query_arguments_fail_before_the_fixpoint(monkeypatch, capsys, argv, code, err):
    # parse errors come first, then the symbol, then the length, then the grid, as the table's own checks order them
    def no_table(*args, **kwargs):
        raise AssertionError("bounded_reach called")

    monkeypatch.setattr(gvaskit.reach, "bounded_reach", no_table)
    assert main(argv[:1] + ["--gvas", POW2] + argv[1:]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == err + "\n"


def test_unknown_safety_symbol_fails_before_the_fixpoint(monkeypatch, capsys):
    def no_table(*args, **kwargs):
        raise AssertionError("bounded_reach called")

    monkeypatch.setattr(gvaskit.reach, "bounded_reach", no_table)
    for fmt in ("text", "json"):
        assert main(["safety", "--d", "1", "--bound", "20", "--symbol", "Q", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: unknown core symbol 'Q'\n"


def test_negative_bound_is_still_refused_by_the_fixpoint(capsys):
    for argv in (["reach", "--gvas", POW2, "--from", "(9)", "--symbol", "S", "--bound", "-1"],
                 ["witness-tree", "--gvas", POW2, "--from", "(1)", "--symbol", "S", "--to", "(1)", "--bound", "-2"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: bound must be non-negative\n"


def test_negative_bound_is_a_usage_error_in_check_weak(capsys):
    # the cone refuses a negative bound with the table's error, not as a domain outcome
    code = main(["check-weak", "--gvas", str(DATA / "computer_f1.gvas"), "--oracle", "falpha:1",
                 "--n-max", "1", "--bound", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err == "error: bound must be non-negative\n"


@pytest.mark.parametrize("argv,err", [
    (["check-weak", "--gvas", DATA / "computer_f1.gvas", "--oracle", "falpha:1", "--n-max", "-1", "--bound", "5"],
     "--n-max must be non-negative"),
    (["enumerate", "--gvas", POW2, "--max-nodes", "-1"], "max_nodes must be non-negative"),
    (["enumerate", "--gvas", POW2, "--limit", "-1"], "--limit must be non-negative"),
], ids=["check-weak", "enumerate", "enumerate-limit"])
def test_negative_counts_are_usage_errors(capsys, argv, err):
    # no vacuous pass: no rows checked, no trees listed
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err == f"error: {err}\n"


@pytest.mark.parametrize("text", [
    "dim x\nstack S\naction S / _ / (1)\n",
    "dim -1\nstack S\n",
    "dim 2\nstack S\naction S / _ / (1)\n",
    "dim 1\nstack S\ndim 1\naction S / _ / (1)\n",
    "dim 1\nstack S\naction S / _ / (1)\nstack S T\n",
    "dim 1\nstack S 1x\naction S / _ / (1)\n",
    "dim 1\nstack S S\naction S / S S / (1)\n",
    "dim 1\nstack _\n",
], ids=["bad-dim", "negative-dim", "short-delta", "dup-dim", "dup-stack", "bad-stack-symbol",
        "repeated-stack-symbol", "empty-stack"])
def test_from_pvas_reports_parse_errors(capsys, tmp_path, text):
    f = tmp_path / "m.pvas"
    f.write_text(text)
    code = main(["from-pvas", "--pvas", str(f)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.startswith("parse error:")


@pytest.mark.parametrize("argv", [
    ["witness", "--alpha", "1", "--n", "3", "--d", "0"],
    ["gen-falpha", "--alpha", "1", "--d", "0"],
    ["safety", "--d", "0", "--bound", "3"],
], ids=["witness", "gen-falpha", "safety"])
def test_depth_zero_is_a_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err == "error: depth must be at least 1\n"


def test_cap_exceeded_exit_code(capsys):
    code, _ = run(capsys, "falpha-eval", "--alpha", "w", "--n", "2", "--cap", "1000000")
    assert code == 3


def test_witness_subcommand(capsys):
    code, out = run(capsys, "witness", "--alpha", "1", "--n", "2", "--d", "1")
    assert code == 0
    tree = parse_tree(out)
    assert tree.label.src == (2, 0, 1) and tree.label.dst == (5, 0, 1)
    code, _ = run(capsys, "witness", "--alpha", "w", "--n", "2", "--d", "2", "--cap", "1000")
    assert code == 3


def test_unknown_flag_rejected(capsys):
    assert main(["reach", "--nope"]) == 2


def test_round_trip_through_cli(capsys, tmp_path):
    code, pvas_text = run(capsys, "to-pvas", "--gvas", DATA / "exchange.gvas")
    assert code == 0
    f = tmp_path / "m.pvas"
    f.write_text(pvas_text)
    code, gvas_text = run(capsys, "from-pvas", "--pvas", f)
    assert code == 0
    g = parse_gvas(gvas_text)
    assert g.dim == 2
    assert parse_pvas(pvas_text).dim == 2


def test_enumerate_lists_trees(capsys):
    code, out = run(capsys, "enumerate", "--gvas", DATA / "pow2.gvas",
                    "--symbol", "S", "--from", "(1)", "--max-nodes", "4", "--bound", "3", "--limit", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines and all(parse_tree(line) for line in lines)


def test_enumerate_names_actions(capsys):
    code, out = run(capsys, "enumerate", "--gvas", DATA / "pow2.gvas",
                    "--symbol", "(-1)", "--from", "(1)", "--max-nodes", "2", "--bound", "3")
    assert code == 0
    assert out == "((1 (-1) 0))\n"


@pytest.mark.parametrize("option,value,err", [
    ("--symbol", "Q", "error: unknown nonterminal 'Q'\n"),
    ("--symbol", "(3)", "error: unknown action (3,)\n"),
    ("--from", "(1,2)", "error: source (1, 2) has length 2, expected 1\n"),
])
def test_enumerate_rejects_bad_queries(capsys, option, value, err):
    code = main(["enumerate", "--gvas", str(DATA / "pow2.gvas"), option, value, "--limit", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err == err


def test_enumerate_refuses_a_source_outside_the_grid(capsys, tmp_path):
    chain = tmp_path / "chain.gvas"
    chain.write_text("dim 1\nstart S\nS -> (1) S | eps\n")
    code = main(["enumerate", "--gvas", str(chain), "--symbol", "S", "--from", "(9)",
                 "--bound", "4", "--max-nodes", "3"])
    captured = capsys.readouterr()
    assert code == 1  # as reach refuses it
    assert captured.out == "" and captured.err == "error: (9,) outside grid bound 4\n"
    assert main(["reach", "--gvas", str(chain), "--symbol", "S", "--from", "(9)", "--bound", "4"]) == code
    assert capsys.readouterr().err == captured.err


def test_enumerate_a_chain_of_depth_500(capsys, tmp_path):
    # the first tree nests S 500 times: deeper than a recursion per level allows
    chain = tmp_path / "chain.gvas"
    chain.write_text("dim 1\nstart S\nS -> (1) S | eps\n")
    code, out = run(capsys, "enumerate", "--gvas", chain, "--symbol", "S", "--from", "(0)",
                    "--max-nodes", "1000", "--bound", "5000", "--limit", "1")
    assert code == 0
    (line,) = out.splitlines()
    tree = parse_tree(line)
    assert ft.tree_size(tree) == 999 and tree.label.dst == (499,)


def test_dot_output(capsys):
    code, out = run(capsys, "dot", "--tree", DATA / "tree_tall.tree")
    assert code == 0
    assert out.startswith("digraph") and out.count("label=") == 6


def test_setop_project_and_header(capsys, tmp_path):
    code, out = run(capsys, "setop", "hull", DATA / "evens.pred")
    assert code == 0
    p = parse_predicate(out)
    assert p.arity == 1


def test_setop_budget_zero(capsys):
    code, out = run(capsys, "setop", "budget-zero", DATA / "pow2.gvas", "--zero", "1")
    assert code == 0
    g = parse_gvas(out)
    assert g.dim == 2


def test_setop_compose(capsys, tmp_path):
    succ = tmp_path / "succ.pred"
    succ.write_text("# arity 2 aux 0\ndim 2\nstart S\nS -> (0,1) P1\nP1 -> (1,1) P1 | eps\n")
    code, out = run(capsys, "setop", "compose", succ, succ)
    assert code == 0
    assert parse_predicate(out).arity == 2


@pytest.mark.parametrize("argv,err", [
    (["project", DATA / "evens.pred", "--keep", "0"], "1:1: --keep '0' is not a coordinate in 1..1"),
    (["project", DATA / "evens.pred", "--keep", "1,2"], "1:3: --keep '2' is not a coordinate in 1..1"),
    (["budget-zero", POW2, "--zero", "0"], "1:1: --zero '0' is not a coordinate in 1..1"),
    (["budget-zero", POW2, "--zero", "1,x"], "1:3: --zero 'x' is not a coordinate in 1..1"),
    (["project", DATA / "evens.pred", "--keep", "1,01"], "1:3: --keep '01' repeats a coordinate"),
    (["budget-zero", POW2, "--zero", "1,1"], "1:3: --zero '1' repeats a coordinate"),
], ids=["keep-0", "keep-past-arity", "zero-0", "zero-not-a-number", "keep-repeat", "zero-repeat"])
def test_setop_coordinates_are_refused_as_typed(capsys, argv, err):
    code = main(["setop", *map(str, argv)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err == f"parse error: {err}\n"


def test_setop_refuses_a_header_that_does_not_add_up_to_dim(capsys, tmp_path):
    bad = tmp_path / "bad.pred"
    bad.write_text("# pairs (x, y) with y = x\n# arity 3 aux 0\ndim 2\nstart S\nS -> (1,1) S | eps\n")
    code = main(["setop", "hull", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err == "parse error: 2:1: arity 3 + aux 0 is not dim 2\n"


def test_setop_missing_operand(capsys):
    code, _ = run(capsys, "setop", "project", str(DATA / "evens.pred"))
    assert code == 2
    code, _ = run(capsys, "setop", "union", str(DATA / "evens.pred"))
    assert code == 2


@pytest.mark.parametrize("args", [
    ["validate", "{dir}"],
    ["to-pvas", "--gvas", "{dir}"],
    ["dot", "--tree", "{dir}"],
    ["setop", "intersect", DATA / "evens.pred", "{dir}"],
], ids=["validate", "gvas", "tree", "setop-operand"])
def test_unreadable_input_path_is_usage_error(capsys, tmp_path, args):
    # a directory given as an input file is refused as typed, not with a traceback
    code = main([str(tmp_path) if a == "{dir}" else str(a) for a in args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.startswith("error: ") and f"'{tmp_path}'" in captured.err


def test_unknown_oracle_is_usage_error(capsys):
    code, _ = run(capsys, "check-weak", "--gvas", DATA / "computer_f1.gvas",
                  "--oracle", "sqrt", "--n-max", "1", "--bound", "4")
    assert code == 2


def test_check_weak_needs_input_and_output_counters(capsys):
    code = main(["check-weak", "--gvas", str(DATA / "pow2.gvas"), "--oracle", "pow2", "--n-max", "1", "--bound", "8"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: dimension 1 has no room for input and output counters\n"


def test_check_weak_table(capsys):
    code, out = run(capsys, "check-weak", "--gvas", GOLDEN / ".." / "data" / "computer_f1.gvas",
                    "--oracle", "falpha:1", "--n-max", "2", "--bound", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n f(n) max_output co_found violations"
    assert lines[1:] == ["0 1 1 true 0", "1 3 3 true 0", "2 5 5 true 0"]


def test_check_weak_json(capsys):
    code, out = run(capsys, "check-weak", "--gvas", DATA / "computer_f1.gvas",
                    "--oracle", "falpha:1", "--n-max", "1", "--bound", "8", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[1]["max_output"] == 3 and rows[1]["co_found"]


def test_safety_json(capsys):
    code, out = run(capsys, "safety", "--d", "1", "--bound", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert {s["symbol"] for s in data["scans"]} == {"Fn", "Iter", "Load"}
    assert all(s["violations"] == 0 for s in data["scans"])
    for s in data["scans"]:
        assert (s["checked"], s["vacuous"]) == (s["entries"] - s["cap_hits"], s["cap_hits"]), s["symbol"]
    load = next(s for s in data["scans"] if s["symbol"] == "Load")
    assert load["vacuous"] == 0 and load["checked"] == load["entries"] > 0


def test_safety_text_reports_checked_and_vacuous_on_stderr(capsys):
    code = main(["safety", "--d", "1", "--bound", "8"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (GOLDEN / "safety_d1_b8.txt").read_text()
    code, out = run(capsys, "safety", "--d", "1", "--bound", "8", "--format", "json")
    assert code == 0
    scans = json.loads(out)["scans"]
    assert captured.err.splitlines() == ["symbol checked vacuous"] + [
        f"{s['symbol']} {s['entries'] - s['cap_hits']} {s['cap_hits']}" for s in scans
    ]
    assert scans[0]["symbol"] == "Fn" and scans[0]["cap_hits"] > scans[0]["entries"] // 2


def test_benchmark_tracer_finds_every_boundary(capsys):
    # perfbench/tracer.py rebinds these attributes by name; moving one breaks the traced benchmark run
    spec = importlib.util.spec_from_file_location("tracer", Path(__file__).parents[1] / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tr = tracer.Tracer("boundaries")
    with tracer.traced_boundaries(tr):
        assert main(["witness-tree", "--gvas", POW2, "--from", "(3)", "--symbol", "S", "--to", "(2)", "--bound", "16"]) == 0
        assert main(["check-weak", "--gvas", str(DATA / "computer_f1.gvas"), "--oracle", "falpha:1",
                     "--n-max", "2", "--bound", "12"]) == 0
    capsys.readouterr()
    names = {s["name"] for s in tr.spans}
    assert {"gvas.parse_gvas", "reach.bounded_reach", "reach.witness", "reach.cone_witness", "reach.cached_cone"} <= names
    assert not hasattr(gvaskit.reach.ReachTable.witness, "__wrapped__")
    assert not hasattr(gvaskit.reach.ReachCone.witness, "__wrapped__")


def test_benchmark_worker_empties_both_engine_caches(pow2):
    # perfbench/worker.py clears these caches by name before every repetition
    spec = importlib.util.spec_from_file_location("worker", Path(__file__).parents[1] / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    caches = (gvaskit.reach.cached_reach, gvaskit.reach.cached_cone)
    gvaskit.reach.cached_reach(pow2, 4)
    gvaskit.reach.cached_cone(pow2, (1,), 4)
    assert all(cache.cache_info().currsize for cache in caches)
    worker._reset_caches()
    assert [cache.cache_info().currsize for cache in caches] == [0, 0]
