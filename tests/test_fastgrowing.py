import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gvaskit.errors import CapExceededError, OrdinalRangeError
from gvaskit.fastgrowing import (
    BUF,
    VAL,
    CoreView,
    SafetyScan,
    as_weak_computer,
    build_computer,
    build_core,
    build_witness,
    computer_witness,
    derivation_check,
    hierarchy_rows,
    safety_check,
)
from gvaskit.flowtree import format_tree, validate_tree
from gvaskit.gvas import Transition, validate
from gvaskit.ordinal import OMEGA, Ordinal, fast_growing, fast_growing_iter, natural_sum
from gvaskit.reach import ReachTable, bounded_reach
from gvaskit.weakcomp import check_complete, check_safe


def test_core_shape_depth_1():
    g = build_core(1)
    assert g.dim == 3
    assert len(g.rules) == 6
    assert g.nonterminals == ("Fn", "Iter", "Load")
    assert validate(g) == []


def test_core_shape_depth_2():
    g = build_core(2)
    assert g.dim == 4
    # depth 1 has 6 rules; each extra depth adds a limit rule plus the two
    # descent rules for its new nonterminal
    assert len(g.rules) == 9
    assert [lhs for lhs, _ in g.rules].count("Desc1") == 2
    assert "Desc1" in g.nonterminals
    assert validate(g) == []


def test_core_actions_are_signed_units():
    g = build_core(3)
    assert len(g.actions) == 2 * g.dim
    for a in g.actions:
        assert sorted(map(abs, a)) == [0] * (g.dim - 1) + [1]


def test_core_view_round_trip():
    view = CoreView(4, 1, Ordinal((2, 1)))
    assert view.to_config(3) == (4, 1, 2, 1, 0)
    with pytest.raises(OrdinalRangeError):
        view.to_config(1)


def test_computer_rule_shapes():
    flat = build_computer(Ordinal(()), 1)
    assert flat.rules[0] == ("Main", ("Fn", "Emit"))
    two = build_computer(Ordinal((2,)), 1)
    head = two.rules[0][1]
    assert head[:2] == ((0, 0, 1), (0, 0, 1))
    lim = build_computer(OMEGA, 2)
    assert lim.rules[0][1][0] == (0, 0, 0, 1)
    assert validate(lim) == []
    with pytest.raises(OrdinalRangeError):
        build_computer(OMEGA, 1)


def test_derivation_schemas():
    assert derivation_check(1, "base")[-1] == ((1, 0, 0),)
    trace = derivation_check(1, "transfer", 2)
    assert trace[-1] == ((1, 0, 0), (0, -1, 0)) * 2
    succ = derivation_check(1, "succ", 0)
    assert succ[-1] == ((0, 0, -1), "Load", "Fn", (0, 0, 1))
    lim = derivation_check(2, "limit", 1, i=1)
    assert lim[-1].count("Fn") == 1 and lim[-1].count("Load") == 1
    with pytest.raises(ValueError):
        derivation_check(1, "limit", 1, i=1)


@pytest.mark.parametrize("coeffs,n,want", [
    ((), 3, 4),
    ((1,), 2, 5),
    ((2,), 2, 23),
])
def test_witness_reaches_exact_value(coeffs, n, want):
    alpha = Ordinal(coeffs)
    g = build_core(1)
    tree = build_witness(alpha, n, 1)
    assert validate_tree(g, tree) is None
    src = CoreView(n, 0, alpha).to_config(1)
    dst = CoreView(want, 0, alpha).to_config(1)
    assert tree.label == Transition(src, "Fn", dst)
    assert want == fast_growing(alpha, n)


def test_witness_limit_level():
    tree = build_witness(OMEGA, 1, 2)
    assert validate_tree(build_core(2), tree) is None
    assert tree.label.dst == (7, 0, 0, 1)


def test_witness_deep_chains():
    """Kilonode transfer chains must survive construction, validation,
    and the serialization round trip."""
    from gvaskit.flowtree import parse_tree, tree_size

    tree = build_witness(Ordinal((2,)), 7, 1)
    assert tree.label.dst[0] == 2**8 * 8 - 1
    assert validate_tree(build_core(1), tree) is None
    assert tree_size(tree) > 16_000
    assert parse_tree(format_tree(tree)) == tree


def test_witness_does_not_recurse(shallow_stack):
    tree = shallow_stack(build_witness, Ordinal((1,)), 400, 1)
    assert tree.label == Transition((400, 0, 1), "Fn", (801, 0, 1))
    assert validate_tree(build_core(1), tree) is None


@pytest.mark.parametrize("build", [build_witness, computer_witness])
def test_witnesses_refuse_depth_zero_first(build):
    # as build_core, before the level check and the cap
    for alpha, n in [(Ordinal((1,)), 3), (Ordinal((0, 1)), 10**6)]:
        with pytest.raises(ValueError, match="^depth must be at least 1$"):
            build(alpha, n, 0)


def test_computer_witness_assembled():
    tree = computer_witness(Ordinal((2,)), 2, 1)
    assert validate_tree(build_computer(Ordinal((2,)), 1), tree) is None
    assert tree.label == Transition((2, 0, 0), "Main", (0, 23, 2))
    golden = Path(__file__).parent / "golden" / "computer_witness_f2_d1.txt"
    assert format_tree(tree) + "\n" == golden.read_text()


def test_safety_load_preserves_sums():
    scan = safety_check(1, "Load", 6)
    assert scan.entries > 0 and scan.violations == ()
    assert scan.max_slack == 0


def test_safety_small_grid_clauses():
    table = bounded_reach(build_core(1), 8)
    for symbol in ("Fn", "Iter", "Load"):
        scan = safety_check(1, symbol, 8, table)
        assert scan.violations == (), symbol
        assert scan.max_slack is not None and scan.max_slack >= 0
    # levels >= 3 overflow the scan cap, so their clauses hold vacuously
    assert safety_check(1, "Fn", 8, table).cap_hits > 0
    # base-level entries from (3,0,0) peak at 4
    succ = table.successors("Fn", (3, 0, 0))
    assert max(a + b for a, b, _ in succ) == 4


def test_safety_rejects_unknown_symbol():
    with pytest.raises(ValueError):
        safety_check(1, "Nope", 4)


def reference_safety_check(d, symbol, table):
    """The scan as one evaluator call per distinct clause key: the oracle
    for the tabulated scan in :func:`safety_check`."""
    rows, cols = table.pairs_arrays(symbol)
    entries = len(rows)
    if entries == 0:
        return SafetyScan(symbol, 0, (), None, 0)
    src = table.grid.decode_many(rows)
    dst = table.grid.decode_many(cols)
    cap = 2 * table.bound + 2
    bad_level = ~np.all(src[:, 2:] == dst[:, 2:], axis=1)
    s_in = src[:, VAL] + src[:, BUF]
    s_out = dst[:, VAL] + dst[:, BUF]
    if symbol == "Load":
        bad_sum = s_out != s_in
        slack = np.zeros(entries, dtype=np.int64)
        cap_hits = 0
    else:
        if symbol == "Fn":
            keys = np.concatenate([src[:, 2:], s_in[:, None]], axis=1)

            def limit_for(key):
                return fast_growing(Ordinal(tuple(key[:-1])), int(key[-1]), cap)

        elif symbol == "Iter":
            keys = np.concatenate([src[:, 2:], src[:, VAL][:, None], s_in[:, None]], axis=1)

            def limit_for(key):
                return fast_growing_iter(Ordinal(tuple(key[:-2])), int(key[-2]), int(key[-1]), cap)

        else:
            i = int(symbol[4:])
            keys = np.concatenate([src[:, 2:], src[:, VAL][:, None], s_in[:, None]], axis=1)

            def limit_for(key):
                level = natural_sum(Ordinal(tuple(key[:-2])), Ordinal.omega(i - 1, int(key[-2])))
                return fast_growing(level, int(key[-1]), cap)

        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        limits = np.empty(len(uniq), dtype=np.int64)
        capped = np.zeros(len(uniq), dtype=bool)
        for j, key in enumerate(uniq):
            try:
                limits[j] = limit_for(key)
            except CapExceededError:
                limits[j] = np.iinfo(np.int64).max
                capped[j] = True
        per_entry_limit = limits[inverse]
        bad_sum = s_out > per_entry_limit
        finite = ~capped[inverse]
        slack = np.where(finite, per_entry_limit - s_out, 0)
        cap_hits = int(np.count_nonzero(capped[inverse]))
    bad = bad_level | bad_sum
    violations = tuple(
        (tuple(int(v) for v in src[k]), tuple(int(v) for v in dst[k]))
        for k in np.nonzero(bad)[0][:32]
    )
    finite_slacks = slack[~bad] if symbol != "Load" else slack
    max_slack = int(finite_slacks.max()) if len(finite_slacks) else None
    return SafetyScan(symbol, entries, violations, max_slack, cap_hits)


@pytest.mark.parametrize("d,bound", [(1, 8), (1, 12), (2, 6)])
def test_safety_scan_matches_per_key_reference(d, bound):
    g = build_core(d)
    table = bounded_reach(g, bound)
    for symbol in g.nonterminals:
        assert safety_check(d, symbol, bound, table) == reference_safety_check(d, symbol, table), symbol


def test_safety_scan_reports_injected_violations_like_the_reference():
    """Pairs that break the level or the sum, injected into a valid
    core(1)@8 table, run the violation paths: key order, the cap of 32
    reported violations, and a slack that skips bad entries."""
    table = bounded_reach(build_core(1), 8)
    grid, n = table.grid, table.grid.size
    # at level 0 both clauses cap the sum 16 of (8,8,0) below it from these sources
    broken_sum = [((v, 0, 0), (8, 8, 0)) for v in range(8)]
    # these leave level 1; some sources overflow the cap and some would show large slack
    broken_level = [((v, b, 1), (0, 0, 0)) for v in range(9) for b in range(9)]
    relations = dict(table._relations)
    for symbol in ("Fn", "Iter"):
        keys, stamps = relations[("sym", symbol)]
        extra = np.array([grid.encode(x) * n + grid.encode(y) for x, y in broken_sum + broken_level], dtype=keys.dtype)
        assert not np.isin(extra, keys).any()
        merged = np.union1d(keys, extra)
        assert merged.dtype == keys.dtype
        relations[("sym", symbol)] = (merged, np.ones(len(merged), dtype=stamps.dtype))
    broken = ReachTable(table.gvas, grid, relations, table._dem)
    for symbol in ("Fn", "Iter"):
        clean = safety_check(1, symbol, 8, table)
        scan = safety_check(1, symbol, 8, broken)
        assert scan == reference_safety_check(1, symbol, broken), symbol
        assert scan.entries == clean.entries + len(broken_sum) + len(broken_level)
        assert len(scan.violations) == 32
        assert scan.violations[: len(broken_sum)] == tuple(broken_sum)
        assert set(scan.violations[len(broken_sum):]) <= set(broken_level)
        assert scan.max_slack == clean.max_slack
        assert scan.cap_hits > clean.cap_hits


@pytest.mark.parametrize("symbol", ["Fn", "Iter"])
def test_safety_scan_allocates_little_per_entry(symbol):
    # per-cell tables and narrow gathers: the scan's own arrays stay far
    # below the 130 bytes per entry of decoding every entry's cells
    table = bounded_reach(build_core(1), 12)
    tracemalloc.start()
    try:
        scan = safety_check(1, symbol, 12, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scan.entries > 100_000
    assert peak <= 48 * scan.entries, peak / scan.entries


@pytest.mark.parametrize("cap", [4, 14, 18, 26, 34, 50])
def test_hierarchy_rows_match_evaluator(cap):
    # the ordinal sample of acceptance criterion 6, at the caps of the scans
    # above and of scans up to bound 24
    levels = [Ordinal(c) for c in itertools.product(range(3), repeat=3)]
    rows = hierarchy_rows(levels, cap)
    assert rows.shape == (len(levels), cap + 2)
    overflows = 0
    for level, row in zip(levels, rows):
        for x in range(cap + 1):
            try:
                want = fast_growing(level, x, cap)
            except CapExceededError:
                want = cap + 1
                overflows += 1
            assert row[x] == want, (level, x)
        assert row[cap + 1] == cap + 1
    assert overflows > 0


def test_completeness_safety_sandwich():
    # peak reachable sum from (n,0,level) equals both the constructed
    # witness value and the evaluator, wherever all three fit the grid
    bound = 12
    table = bounded_reach(build_core(1), bound)
    for coeff, n_max in ((0, 3), (1, 2), (2, 1)):
        alpha = Ordinal((coeff,)) if coeff else Ordinal(())
        for n in range(n_max + 1):
            want = fast_growing(alpha, n)
            assert want <= bound
            src = CoreView(n, 0, alpha).to_config(1)
            peak = max(a + b for a, b, _ in table.successors("Fn", src))
            built = build_witness(alpha, n, 1)
            assert peak == want == built.label.dst[0]


def test_weak_computer_co_sa_small():
    for coeffs, bound in [((), 8), ((1,), 8)]:
        w = as_weak_computer(Ordinal(coeffs), 1)
        for n in range(3):
            assert check_complete(w, n, bound) is not None
            report = check_safe(w, n, bound)
            assert not report.violations
            assert report.max_output == w.oracle(n)


def test_weak_computer_monotone_outputs():
    w = as_weak_computer(Ordinal((1,)), 1)
    best = [check_safe(w, n, 12).max_output for n in range(4)]
    assert best == [1, 3, 5, 7]
