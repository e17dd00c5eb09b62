import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import gvaskit
from gvaskit.errors import NotInTableError, OutOfGridError, ResourceLimitError, UnknownSymbolError
from gvaskit.flowtree import format_tree, validate_tree
from gvaskit.fastgrowing import build_core
from gvaskit.gvas import Gvas, parse_gvas
from gvaskit import _kernel
from gvaskit._kernel import _bitmap, _Block, _dense, _fresh, _key_dtype, _products, _rounds, _set_bits, _shifted
from gvaskit.reach import Grid, _action_target, _binarize, bounded_reach, reach_from
from gvaskit.setops import intersect, linear_set, make_resetting, periodic_hull, union
from gvaskit.weakcomp import definable_to_wc, wc_to_definable
from test_crosscheck import random_gvas


# --- independent oracle -----------------------------------------------------


def min_yields(g):
    """Shortest terminal-word length derivable from each nonterminal."""
    inf = float("inf")
    best = {nt: inf for nt in g.nonterminals}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.rules:
            total = sum(1 if not isinstance(s, str) else best[s] for s in rhs)
            if total < best[lhs]:
                best[lhs] = total
                changed = True
    return best


def terminal_words(g, max_len, max_forms=500_000):
    """Exhaustive derivation enumeration: all terminal words of length
    <= max_len, by breadth-first rewriting.  Forms whose terminals plus
    shortest completions already exceed the length budget are pruned."""
    floor = min_yields(g)

    def lower_bound(w):
        return sum(1 if not isinstance(s, str) else floor[s] for s in w)

    seen = {(g.start,)}
    frontier = [(g.start,)]
    words = set()
    while frontier:
        nxt = []
        for w in frontier:
            if all(not isinstance(s, str) for s in w):
                words.add(w)
                continue
            for i, s in enumerate(w):
                if not isinstance(s, str):
                    continue
                for lhs, rhs in g.rules:
                    if lhs != s:
                        continue
                    w2 = w[:i] + rhs + w[i + 1 :]
                    if lower_bound(w2) > max_len or w2 in seen:
                        continue
                    seen.add(w2)
                    nxt.append(w2)
        assert len(seen) <= max_forms, "oracle blew up; pick a smaller grammar"
        frontier = nxt
    return words


def replay_in_grid(x, word, bound):
    """Run a word keeping every intermediate configuration inside the grid."""
    cur = list(x)
    for a in word:
        for i, d in enumerate(a):
            cur[i] += d
            if not 0 <= cur[i] <= bound:
                return None
        # splitting per coordinate above is fine: sums are order-free
    return tuple(cur)


def brute_start_table(g, bound, max_len):
    words = terminal_words(g, max_len)
    grid = [(v,) for v in range(bound + 1)] if g.dim == 1 else None
    if grid is None:
        grid = []

        def fill(prefix):
            if len(prefix) == g.dim:
                grid.append(prefix)
                return
            for v in range(bound + 1):
                fill(prefix + (v,))

        fill(())
    pairs = set()
    for x in grid:
        for w in words:
            y = replay_in_grid(x, w, bound)
            if y is not None:
                pairs.add((x, y))
    return pairs


# --- fixpoint vs oracle ------------------------------------------------------

TINY_GRAMMARS = [
    Gvas.from_rules(1, [("S", [(1,), "S"]), ("S", [])], "S"),
    Gvas.from_rules(2, [("S", ["S", "S"]), ("S", [(-1, 2)]), ("S", [(2, -1)])], "S"),
    Gvas.from_rules(2, [("S", [(1, 0), "S", (0, 1)]), ("S", [])], "S"),
    Gvas.from_rules(1, [("S", ["T", "T"]), ("S", [(1,)]), ("T", [(-1,)])], "S"),
]


@pytest.mark.parametrize("g", TINY_GRAMMARS, ids=["count", "exchange", "stairs", "drop2"])
def test_fixpoint_matches_brute_force(g):
    bound = 4
    table = bounded_reach(g, bound)
    got = set(table.pairs(g.start))
    want = brute_start_table(g, bound, max_len=8)
    assert got == want
    # yield lengths 9 and 10 add nothing at this scale, so 8 is exhaustive
    assert brute_start_table(g, bound, max_len=10) == want


# --- fixpoint vs the full-matrix reference loop -------------------------------


def reference_action(grid, a):
    """The boolean matrix of action a's in-grid applications, cell by cell."""
    n = grid.size
    shifted = grid.decode_many(np.arange(n)) + np.asarray(a, dtype=np.int64)
    ok = np.all((shifted >= 0) & (shifted <= grid.bound), axis=1)
    cols = shifted[ok] @ (grid.bound + 1) ** np.arange(grid.dim, dtype=np.int64)
    return sparse.csr_matrix((np.ones(len(cols), dtype=bool), (np.nonzero(ok)[0], cols)), shape=(n, n))


def reference_bounded_reach(g, bound, max_pairs=60_000_000):
    """Every relation of the round-synchronous fixpoint, the plain way.

    Each round unions every contribution and subtracts the whole relation
    with full-matrix sparse operations; a pair's stamp is the round that
    first found it.  Action relations are boolean.
    """
    grid = Grid(g.dim, bound)
    n = grid.size
    defs = _binarize(g)
    act_mats = {("act", a): reference_action(grid, a) for a in g.actions}
    defined_keys = list(defs)
    empty = sparse.csr_matrix((n, n), dtype=bool)
    fulls = {k: empty for k in defined_keys}
    deltas = dict(fulls)
    stamp_parts = {k: [] for k in defined_keys}

    def full_of(ref):
        return act_mats[ref] if ref[0] == "act" else fulls[ref]

    def delta_of(ref):
        if ref[0] == "act":
            return act_mats[ref] if round_no == 1 else empty
        return deltas[ref]

    round_no = 1
    while True:
        contribs = {}
        for target, ops in defs.items():
            acc = contribs[target] = []
            for op in ops:
                if op[0] == "eps":
                    if round_no == 1:
                        acc.append(sparse.identity(n, dtype=bool, format="csr"))
                elif op[0] == "copy":
                    acc.append(delta_of(op[1]))
                else:
                    _, left, right = op
                    acc.append(delta_of(left) @ full_of(right))
                    acc.append(full_of(left) @ delta_of(right))
        progressed = False
        new_deltas = {}
        for key in defined_keys:
            combined = empty
            for part in contribs.get(key, []):
                combined = combined + part
            fresh = combined > fulls[key]
            fresh.eliminate_zeros()
            new_deltas[key] = fresh
            if fresh.nnz:
                progressed = True
                fulls[key] = fulls[key] + fresh
                coo = fresh.tocoo()
                stamp_parts[key].append((coo.row, coo.col, np.full(fresh.nnz, round_no)))
        if not progressed:
            break
        deltas = new_deltas
        total = sum(m.nnz for m in fulls.values())
        if total > max_pairs:
            raise ResourceLimitError(f"relation store reached {total} pairs, limit {max_pairs}")
        round_no += 1

    relations = dict(act_mats)
    for key, parts in stamp_parts.items():
        rows, cols, vals = (np.concatenate([np.zeros(0, dtype=np.int64)] + [p[i] for p in parts]) for i in range(3))
        relations[key] = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n), dtype=np.int32)
    return relations


def assert_same_stamps(g, bound, samples=12):
    """The table's derived relations and its answers to queries on every
    symbol both equal the reference's: every key and stamp, and per-cell
    queries on a sample of source cells (always the first and the last).
    No action relation is stored; queries on an action compute its pairs."""
    table = bounded_reach(g, bound)
    want = reference_bounded_reach(g, bound)
    grid, n = table.grid, table.grid.size
    assert not any(key[0] == "act" for key in table._relations)
    assert set(table._relations) == set(table._dem) == {key for key in want if key[0] != "act"}
    rng = random.Random(bound)
    cells = sorted({0, n - 1} | set(rng.sample(range(n), min(samples, n))))
    for key, m in want.items():
        want_rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(m.indptr))
        if key[0] != "act":
            keys, stamps = table._relations[key]
            assert np.array_equal(keys, want_rows * n + m.indices), (key, bound)
            assert np.array_equal(stamps, m.data), (key, bound)
            assert np.array_equal(table._dem[key], np.arange(n)), (key, bound)
            for s in cells:
                row = slice(m.indptr[s], m.indptr[s + 1])
                assert list(table._stamped_row(key, s)) == list(zip(m.indices[row].tolist(), m.data[row].tolist()))
        if key[0] == "aux":
            continue
        symbol = key[1]
        assert table.count(symbol) == m.nnz, (key, bound)
        rows, cols = table.pairs_arrays(symbol)
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, m.indices), (key, bound)
        assert rows.dtype == cols.dtype == _key_dtype(n), (key, bound)
        for s in cells:
            x, dests = grid.decode(s), set(m.indices[m.indptr[s]:m.indptr[s + 1]].tolist())
            assert table.successors(symbol, x) == sorted(map(grid.decode, dests)), (key, bound, x)
            for d in sorted(dests) + rng.sample(range(n), min(samples, n)):
                assert table.contains(symbol, x, grid.decode(d)) == (d in dests), (key, bound, x, d)


# every shape of join with an action: ``a ; X``, ``X ; a`` and ``a ; b``; T, its
# two aux relations and W are defined by one join with an action alone (a chain
# of them, a left and a right factor of a join of two relations, read by a copy);
# E is defined by a shift of itself, so stays empty
SHIFTS = parse_gvas("""dim 2
start S
S -> T U | U W | (1,0) (0,1) | S (0,-1) | V | E
T -> (1,1) (0,-1) (-1,0) U
U -> (1,0) U | eps
W -> U (0,1)
V -> T
E -> (0,1) E
""")
# the same shapes in one dimension, where every action moves the only digit
SHIFTS_1D = parse_gvas("""dim 1
start S
S -> A B | B (-1) | (2) (-1) | A
A -> (1) (-2) (1) B
B -> (1) B | (-1) B (2) | eps
""")


def test_fixpoint_matches_reference(pow2, exchange, order_demo):
    f1 = parse_gvas((Path(__file__).parent / "data" / "computer_f1.gvas").read_text())
    for g, bound in [
        (pow2, 16), (exchange, 6), (order_demo, 12), (f1, 8),
        (build_core(1), 8), (build_core(2), 4), (CHAIN, 50),
        (SHIFTS, 5), (SHIFTS, 0), (SHIFTS_1D, 9),
        (WIDE, 50_000),  # 50001 cells: linear keys past 2**31 take the int64 path
    ]:
        assert_same_stamps(g, bound)
    rng = random.Random(5)
    for _ in range(40):
        assert_same_stamps(random_gvas(rng), rng.randint(2, 6))


def test_shifts_keep_key_order_and_drop_what_leaves_the_grid():
    grid = Grid(2, 4)
    n = grid.size
    rng = np.random.default_rng(3)
    keys = np.unique(rng.integers(0, n * n, 300)).astype(np.int32)
    for a in [(1, 0), (0, -2), (-1, 3), (0, 0)]:
        want_dst, want_src = [], []
        for s, d in zip(*np.divmod(keys.tolist(), n)):
            t = _action_target(grid, a, d)
            want_dst += [s * n + t] if t is not None else []
            u = _action_target(grid, tuple(-v for v in a), s)
            want_src += [u * n + d] if u is not None else []
        got_dst, got_src = _shifted(grid, keys, a), _shifted(grid, keys, a, at_source=True)
        assert got_dst.dtype == got_src.dtype == np.int32
        assert got_dst.tolist() == want_dst and got_src.tolist() == sorted(want_src)


def test_only_joins_of_two_relations_hold_matrices():
    g = build_core(1)
    grid = Grid(g.dim, 8)
    defs = _binarize(g)
    blocks, _, _ = _rounds(grid, defs, 60_000_000)
    joins = [op for ops in defs.values() for op in ops if op[0] == "join"]
    pairs = [op for op in joins if "act" not in (op[1][0], op[2][0])]
    assert pairs and len(pairs) < len(joins)
    lefts, rights = {op[1] for op in pairs}, {op[2] for op in pairs}
    for key, stack in blocks.items():
        for b in stack:
            assert key in lefts | rights or b._rows is None and b._cols is None, key
    # a right factor is multiplied by as rows, a left factor as a transpose
    assert any(b._rows is not None for k in rights for b in blocks[k])
    assert any(b._cols is not None for k in lefts for b in blocks[k])
    # the transposed keys a transpose's CSR arrays are made from are not kept
    assert all(b._transposed is None for stack in blocks.values() for b in stack)


def test_cone_blocks_hold_no_matrix():
    # the same loop from one root joins two relations by gathers from sorted keys
    g = build_core(1)
    grid = Grid(g.dim, 8)
    defs = _binarize(g)
    blocks, dem, _ = _rounds(grid, defs, 5_000_000, (("sym", "Fn"), grid.encode((3, 0, 1))))
    assert 0 < sum(map(len, dem.values())) < len(defs) * grid.size
    # some join of two relations has pairs in both factors
    assert any(op[0] == "join" and "act" not in (op[1][0], op[2][0]) and blocks[op[1]] and blocks[op[2]]
               for ops in defs.values() for op in ops)
    assert all(b._rows is None and b._cols is None for stack in blocks.values() for b in stack)
    # a left factor is read through its blocks' own transposes, kept as sorted keys d * n + s
    n = grid.size
    lefts = {op[1] for ops in defs.values() for op in ops if op[0] == "join" and "act" not in (op[1][0], op[2][0])}
    held = [b for k in lefts for b in blocks[k] if b._transposed is not None]
    assert held
    for b in held:
        assert b._transposed.dtype == b.keys.dtype
        assert np.array_equal(b._transposed, np.sort(b.keys % n * n + b.keys // n))
    assert all(b._transposed is None for k in set(blocks) - lefts for b in blocks[k])


def scipy_product_keys(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The sorted linear keys of the product of two sets of pairs, by public scipy."""
    def mat(keys):
        return sparse.csr_matrix((np.ones(len(keys), dtype=bool), (keys // n, keys % n)), shape=(n, n))

    coo = (mat(a) @ mat(b)).tocoo()
    return np.sort(coo.row.astype(np.int64) * n + coo.col)


def random_block(rng, n, density):
    keys = np.flatnonzero(rng.random(n * n) < density).astype(_key_dtype(n))
    return _Block(keys, np.ones(len(keys), dtype=np.uint8))


def assert_products_match_scipy(delta, factor, n):
    """Both orientations of :func:`_products` against public scipy, block by block."""
    rows = _products(delta, factor, n)
    cols = _products(delta, factor, n, transposed=True)
    assert len(rows) == len(cols) == len(factor)
    for b, got_rows, got_cols in zip(factor, rows, cols):
        for got, want in ((got_rows, scipy_product_keys(delta.keys, b.keys, n)),
                          (got_cols, scipy_product_keys(b.keys, delta.keys, n))):
            assert got.dtype == _key_dtype(n)
            assert np.array_equal(np.sort(got), want)  # each pair once


@pytest.mark.parametrize("seed", range(4))
def test_products_match_public_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    delta = random_block(rng, n, 0.05)
    factor = [random_block(rng, n, d) for d in (0.02, 0.1, 0.3)]
    assert_products_match_scipy(delta, factor, n)
    b = factor[0]
    assert b._rows[0].dtype == b._rows[1].dtype == b._cols[0].dtype == b._cols[1].dtype == np.int32


def test_products_of_empty_and_one_cell_blocks():
    rng = np.random.default_rng(7)
    n = 12
    empty = _Block(np.zeros(0, dtype=_key_dtype(n)), np.zeros(0, dtype=np.uint8))
    full = random_block(rng, n, 0.2)
    assert_products_match_scipy(empty, [full, full], n)  # an empty delta
    assert_products_match_scipy(full, [empty], n)  # an empty block of the factor
    assert _products(full, [], n) == _products(full, [], n, transposed=True) == []  # an empty factor
    one = _Block(np.zeros(1, dtype=_key_dtype(1)), np.ones(1, dtype=np.uint8))
    assert_products_match_scipy(one, [one], 1)  # the one-cell grid's loop
    assert _products(one, [one], 1)[0].tolist() == [0]


def test_products_widen_their_index_arrays_to_int64(monkeypatch, pow2):
    # with int32 capped at 40, a block of more pairs is int64 from the start, and a
    # product of two int32 blocks of more pairs widens both before it multiplies
    monkeypatch.setattr(_kernel, "_INT32_TOP", 40)
    n = 30
    star = np.unique([i * n for i in range(20)] + list(range(20))).astype(np.int32)  # (i, 0) and (0, j)
    small, big = _Block(star, np.ones(len(star), dtype=np.uint8)), random_block(np.random.default_rng(3), n, 0.3)
    assert len(small.keys) < 40 < len(big.keys)
    assert small.rows(n)[0].dtype == np.int32 and big.rows(n)[0].dtype == big.rows(n)[1].dtype == np.int64
    assert len(scipy_product_keys(small.keys, small.keys, n)) > 40
    assert_products_match_scipy(small, [small, big], n)
    assert_products_match_scipy(big, [small], n)
    # the table built on int64 arrays is the table
    grid = Grid(1, 60)
    blocks, _, _ = _rounds(grid, _binarize(pow2), 60_000_000)
    assert any(b._rows is not None and b._rows[0].dtype == np.int64 for stack in blocks.values() for b in stack)
    got = bounded_reach(pow2, 60)._relations
    monkeypatch.undo()
    want = bounded_reach(pow2, 60)._relations
    assert set(got) == set(want)
    for key, (keys, stamps) in want.items():
        assert np.array_equal(got[key][0], keys) and np.array_equal(got[key][1], stamps)
        assert got[key][0].dtype == keys.dtype and got[key][1].dtype == stamps.dtype


@pytest.mark.parametrize("limit", [3, 1000, 50000])
def test_pair_limit_matches_reference(limit):
    core = build_core(1)
    with pytest.raises(ResourceLimitError) as want:
        reference_bounded_reach(core, 8, max_pairs=limit)
    with pytest.raises(ResourceLimitError) as got:
        bounded_reach(core, 8, max_pairs=limit)
    assert str(got.value) == str(want.value)


WIDE_RULES = [("S", [(1,), "T"]), ("S", [(2,)]), ("T", [(-1,)]), ("T", [(1,)])]
WIDE = Gvas.from_rules(1, WIDE_RULES, "S")
WIDE_GRID = f"""
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from gvaskit.gvas import Gvas
from gvaskit.reach import bounded_reach
g = Gvas.from_rules(1, {WIDE_RULES!r}, "S")
print(bounded_reach(g, 200_000).count("S"))
"""


def test_fixpoint_state_grows_with_pairs_not_cells():
    # 200001 cells: any n-by-n dense state would need far more than 1 GB
    src = str(Path(gvaskit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", WIDE_GRID], env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == 2 * 200_000 - 1  # x -> x below the top, x -> x + 2 below it by two


# --- the doubling grammar's exact relation -----------------------------------


def test_doubling_relation_slices(pow2):
    table = bounded_reach(pow2, 16)
    for n in range(5):
        assert table.successors("S", (n,)) == [(v,) for v in range(1, 2**n + 1)]
    for k in range(9):
        assert table.successors("T", (k,)) == [(v,) for v in range(k, 2 * k + 1)]


def test_bound_zero_kills_nonzero_actions(pow2):
    table = bounded_reach(pow2, 0)
    assert list(table.pairs((1,))) == []
    assert list(table.pairs((0,))) == [((0,), (0,))]


def test_bound_monotone(pow2):
    small = bounded_reach(pow2, 6)
    big = bounded_reach(pow2, 9)
    for sym in ("S", "T"):
        assert set(small.pairs(sym)) <= set(big.pairs(sym))


def test_run_monotonicity_shift(exchange):
    small = bounded_reach(exchange, 5)
    big = bounded_reach(exchange, 8)
    shift = (2, 1)
    for x, y in small.pairs("S"):
        xs = tuple(a + b for a, b in zip(x, shift))
        ys = tuple(a + b for a, b in zip(y, shift))
        assert big.contains("S", xs, ys)


def test_resource_limits(pow2):
    with pytest.raises(ResourceLimitError):
        bounded_reach(pow2, 10, max_cells=5)
    with pytest.raises(ResourceLimitError):
        bounded_reach(pow2, 10, max_pairs=3)
    with pytest.raises(ResourceLimitError, match="exceeded 100 entries"):
        reach_from(CHAIN, (0,), 700, max_entries=100)


# --- composition and witnesses ------------------------------------------------


ENGINES = {"table": lambda g: bounded_reach(g, 4), "cone": lambda g: reach_from(g, (1,), 4)}


@pytest.mark.parametrize("symbol", [(3,), "Q"], ids=["action", "nonterminal"])
@pytest.mark.parametrize("engine", ENGINES)
def test_unknown_symbols_are_rejected(pow2, engine, symbol):
    # (1) + (3) = (4) is in the grid, but (3) is not one of pow2's actions
    eng = ENGINES[engine](pow2)
    queries = [
        lambda: eng.successors(symbol, (1,)),
        lambda: eng.witness((1,), symbol, (4,)),
        lambda: eng.contains(symbol, (1,), (4,)),
        lambda: eng.pairs(symbol),
        lambda: eng.count(symbol),
        lambda: eng.pairs_arrays(symbol),
    ]
    for query in queries:
        with pytest.raises(UnknownSymbolError):
            query()


def test_witness_validates_and_is_deterministic(pow2):
    t1 = bounded_reach(pow2, 16)
    t2 = bounded_reach(pow2, 16)
    for target in range(1, 9):
        w1 = t1.witness((3,), "S", (target,))
        w2 = t2.witness((3,), "S", (target,))
        assert validate_tree(pow2, w1) is None
        assert w1.label.src == (3,) and w1.label.dst == (target,)
        assert format_tree(w1) == format_tree(w2)


def test_witness_action_and_missing(pow2):
    table = bounded_reach(pow2, 4)
    leaf = table.witness((2,), (-1,), (1,))
    assert leaf.children == () and leaf.label.symbol == (-1,)
    with pytest.raises(NotInTableError):
        table.witness((1,), "S", (3,))  # 3 > 2^1


def test_witness_epsilon_rule():
    g = Gvas.from_rules(1, [("S", ["T", (1,)]), ("T", [])], "S")
    table = bounded_reach(g, 3)
    tree = table.witness((0,), "S", (1,))
    assert tree.children[0].label.symbol == "T"
    assert tree.children[0].children == ()
    assert validate_tree(g, tree) is None


def test_every_start_pair_has_valid_witness(exchange):
    table = bounded_reach(exchange, 5)
    pairs = list(table.pairs("S"))
    assert pairs
    for x, y in pairs:
        assert validate_tree(exchange, table.witness(x, "S", y)) is None


CHAIN = Gvas.from_rules(1, [("S", [(1,), "S"]), ("S", [])], "S")


def chain_depth(tree):
    """Number of S nodes along the spine of a ``CHAIN`` tree."""
    depth = 0
    while tree.children:
        depth += 1
        tree = tree.children[-1]
    return depth + 1


def test_witness_of_depth_600():
    tree = bounded_reach(CHAIN, 700).witness((0,), "S", (600,))
    assert validate_tree(CHAIN, tree) is None
    assert chain_depth(tree) == 601


def test_witnesses_do_not_recurse(shallow_stack):
    for engine in (bounded_reach(CHAIN, 1500), reach_from(CHAIN, (0,), 1500)):
        tree = shallow_stack(engine.witness, (0,), "S", (1400,))
        assert validate_tree(CHAIN, tree) is None
        assert chain_depth(tree) == 1401


@pytest.mark.parametrize("bound,dtype", [(200, np.uint8), (300, np.uint16)])
def test_stamps_take_the_smallest_type_of_the_last_round(bound, dtype):
    table = bounded_reach(CHAIN, bound)  # the pair 0 -> bound is found in round bound + 1
    _, stamps = table._relations[("sym", "S")]
    assert stamps.dtype == dtype and int(stamps.max()) == bound + 1
    stamp = table._stamp_of(("sym", "S"), 0, bound)
    assert type(stamp) is int and stamp == bound + 1
    assert all(type(v) is int for _, v in table._stamped_row(("sym", "S"), 0))


def test_cone_stamps_take_the_type_of_the_table():
    # both engines stop after a round that found nothing: 0 -> 254 is stamped in round 255 of 256
    for engine in (bounded_reach(CHAIN, 254), reach_from(CHAIN, (0,), 254)):
        _, stamps = engine._relations[("sym", "S")]
        assert stamps.dtype == np.uint8 and int(stamps.max()) == 255


# --- single-source cone --------------------------------------------------------


def reference_cone(g, source, bound):
    """Every demanded (relation key, source) cell of the cone with its
    destinations and their stamps, by a per-entry worklist.

    A reader ``(target, None)`` adds each entry it is given to target;
    ``(target, right)`` is a join's left factor: each entry m demands
    ``(right, m)`` for the reader ``(target, None)``.  A new entry is
    queued with its cell's reader count, and only those readers get it
    when it is popped; a later reader is given the cell's existing
    entries when it registers.  Stamps count insertions.
    """
    grid = Grid(g.dim, bound)
    defs = _binarize(g)
    tables, readers, work = {}, {}, deque()
    stamp = 0

    def add(cell, d):
        nonlocal stamp
        if d not in tables[cell]:
            stamp += 1
            tables[cell][d] = stamp
            work.append((cell, d, len(readers[cell])))

    def give(reader, m):
        target, right = reader
        if right is None:
            add(target, m)
        else:
            read(right, m, (target, None))

    def open_cell(cell):
        tables[cell], readers[cell] = {}, []
        work.append((cell, None, 0))

    def read(ref, s, reader):
        if ref[0] == "act":
            d = _action_target(grid, ref[1], s)
            if d is not None:
                give(reader, d)
            return
        cell = (ref, s)
        if cell not in tables:
            open_cell(cell)
        readers[cell].append(reader)
        for d in list(tables[cell]):
            give(reader, d)

    open_cell((("sym", g.start), grid.encode(source)))
    while work:
        cell, d, count = work.popleft()
        if d is not None:
            for reader in readers[cell][:count]:
                give(reader, d)
            continue
        key, s = cell
        for op in defs[key]:
            if op[0] == "eps":
                add(cell, s)
            elif op[0] == "copy":
                read(op[1], s, (cell, None))
            else:
                read(op[1], s, (cell, op[2]))
    return tables


def assert_same_cone(g, source, bound, witnesses=6):
    """The cone demands the reference's rows of every relation and holds
    its entries on them; sampled witnesses of every nonterminal validate."""
    cone = reach_from(g, source, bound)
    want = reference_cone(g, source, bound)
    n = cone.grid.size
    defs = _binarize(g)
    assert set(cone._relations) == set(cone._dem) == set(defs)
    assert not any(key[0] == "act" for key in cone._relations)
    assert {key for key, _ in want} <= set(defs)
    for key, (keys, stamps) in cone._relations.items():
        rows = sorted(s for k, s in want if k == key)
        assert cone._dem[key].tolist() == rows, (key, source, bound)
        pairs = sorted(s * n + d for (k, s), row in want.items() if k == key for d in row)
        assert keys.tolist() == pairs, (key, source, bound)
        assert len(stamps) == len(keys) and (len(stamps) == 0 or stamps.min() > 0)
    rng = random.Random(bound)
    for nt in g.nonterminals:
        entries = [(s, d) for (k, s), row in want.items() if k == ("sym", nt) for d in row]
        for s, d in rng.sample(entries, min(witnesses, len(entries))):
            x, y = cone.grid.decode(s), cone.grid.decode(d)
            tree = cone.witness(x, nt, y)
            assert validate_tree(g, tree) is None
            assert (tree.label.src, tree.label.symbol, tree.label.dst) == (x, nt, y)
    return cone


def test_cone_matches_reference(pow2, exchange):
    for src in [(0,), (3,), (7,)]:
        assert_same_cone(pow2, src, 12)
    for src in [(0, 0), (2, 1), (6, 3)]:
        assert_same_cone(exchange, src, 6)
    for src, bound in [((0,), 40), ((15,), 60)]:
        assert_same_cone(CHAIN, src, bound)
    f1 = parse_gvas((Path(__file__).parent / "data" / "computer_f1.gvas").read_text())
    for n in range(5):
        assert_same_cone(f1, (n, 0, 0), 12)
    # relations defined by one join with an action take their candidates unsearched
    for src, bound in [((0, 0), 5), ((2, 3), 5), ((5, 1), 5), ((0, 0), 0)]:
        assert_same_cone(SHIFTS, src, bound)
    for src in [(0,), (4,), (9,)]:
        assert_same_cone(SHIFTS_1D, src, 9)


def test_cone_matches_reference_on_criterion_11_predicates(graph_pow2):
    preds = [
        intersect(linear_set((0,), [(2,)]), linear_set((0,), [(3,)])),
        periodic_hull(union(linear_set((2,), []), linear_set((3,), []))),
        make_resetting(graph_pow2),
        wc_to_definable(definable_to_wc(graph_pow2, lambda n: 2**n)),
    ]
    for p in preds:
        for bound in (4, 8, 12):
            assert_same_cone(p.gvas, (0,) * p.gvas.dim, bound)


def test_cone_matches_reference_on_random_grammars():
    rng = random.Random(7)
    for _ in range(40):
        g = random_gvas(rng)
        bound = rng.randint(2, 5)
        for _ in range(2):
            assert_same_cone(g, tuple(rng.randint(0, bound) for _ in range(g.dim)), bound)


def test_cone_agrees_with_table(pow2):
    table = bounded_reach(pow2, 12)
    for src in [(0,), (2,), (3,), (7,)]:
        cone = reach_from(pow2, src, 12)
        assert cone.successors("S", src) == table.successors("S", src)


def test_cone_witness_validates(pow2):
    cone = reach_from(pow2, (3,), 16)
    tree = cone.witness((3,), "S", (8,))
    assert validate_tree(pow2, tree) is None
    assert tree.label.dst == (8,)


def test_witness_rejects_endpoints_outside_the_grid(exchange):
    # at bound 6, (7, 0) would encode onto the cell of (0, 1)
    for engine in (bounded_reach(exchange, 6), reach_from(exchange, (0, 1), 6)):
        with pytest.raises(NotInTableError, match="outside grid"):
            engine.witness((7, 0), "S", (0, 4))


def test_cone_witness_of_depth_600():
    tree = reach_from(CHAIN, (100,), 700).witness((100,), "S", (700,))
    assert validate_tree(CHAIN, tree) is None
    assert chain_depth(tree) == 601


CONE_WITNESSES = """
import sys
from gvaskit.flowtree import format_tree
from gvaskit.gvas import parse_gvas
from gvaskit.reach import reach_from
with open(sys.argv[1]) as f:
    g = parse_gvas(f.read())
cone = reach_from(g, (2, 1), 6)
for y in cone.successors("S", (2, 1)):
    print(format_tree(cone.witness((2, 1), "S", y)))
"""


def test_cone_witnesses_do_not_depend_on_hash_seed():
    # cone stamps follow the order in which entries reach their readers; that
    # order must not come from string hashing
    gvas = Path(__file__).parent / "data" / "exchange.gvas"
    src = str(Path(gvaskit.__file__).parents[1])
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", CONE_WITNESSES, str(gvas)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outs.append(done.stdout)
    assert outs[0].count("\n") > 10
    assert outs[0] == outs[1]


def test_cone_keys_of_large_grids():
    # 17^7 = 410,338,673 cells: keys s * n + d need int64, and no state is per cell
    g7 = Gvas.from_rules(7, [("S", [(0, 0, 0, 0, 0, 0, 1), "S"]), ("S", [])], "S")
    cone = reach_from(g7, (0,) * 7, 16)
    assert cone._relations[("sym", "S")][0].dtype == np.int64
    assert cone.successors("S", (0,) * 7) == [(0,) * 6 + (v,) for v in range(17)]
    assert validate_tree(g7, cone.witness((0,) * 7, "S", (0,) * 6 + (16,))) is None
    # 21^8 cells: n(n+1) overflows int64, so the cone refuses before any work
    g8 = Gvas.from_rules(8, [("S", [(1,) + (0,) * 7, "S"]), ("S", [])], "S")
    with pytest.raises(ResourceLimitError, match="overflow int64"):
        reach_from(g8, (0,) * 8, 20)


def test_cone_out_of_grid(pow2):
    with pytest.raises(OutOfGridError):
        reach_from(pow2, (9,), 4)


# --- bitmaps for dense relations -----------------------------------------------


def switches(monkeypatch, g, bound, root=None):
    """Each relation key that the rounds switch to a bitmap, with the round
    it switched in and the number of blocks its bitmap was built from;
    with a root config, for the cone from it."""
    grid = Grid(g.dim, bound)
    defs = _binarize(g)
    built = []

    def spy(stack, n):
        built.append((stack, max(int(b.stamps.max()) for b in stack), len(stack)))
        return _bitmap(stack, n)

    monkeypatch.setattr(_kernel, "_bitmap", spy)
    blocks, _, _ = _rounds(grid, defs, 60_000_000, None if root is None else (("sym", g.start), grid.encode(root)))
    return {key: (r, k) for stack, r, k in built for key, s in blocks.items() if s is stack}


def test_dense_relations_switch_to_bitmaps(monkeypatch, pow2):
    # pow2@16 (17 cells): S, T and aux(1, 1) reach 17 * 17 / 8 pairs; aux(3, 1),
    # defined by a shift alone, is never searched, so never switches
    assert switches(monkeypatch, pow2, 16) == {("aux", 1, 1): (4, 1), ("sym", "S"): (5, 1), ("sym", "T"): (5, 1)}
    # the chain's S switches in round 7, its bitmap built from two blocks
    assert switches(monkeypatch, CHAIN, 50) == {("sym", "S"): (7, 2)}
    # on 5 cells the identity of round 1 is dense already
    assert switches(monkeypatch, pow2, 4) == {("sym", "S"): (1, 1), ("sym", "T"): (1, 1), ("aux", 1, 1): (2, 1)}
    for g, bound in [(pow2, 16), (CHAIN, 50), (pow2, 4)]:
        assert_same_stamps(g, bound)


def test_sparse_core_relations_keep_their_searches(monkeypatch):
    # every relation of the core grammars stays below an eighth of the grid's pairs
    assert switches(monkeypatch, build_core(1), 8) == {}
    assert switches(monkeypatch, build_core(2), 4) == {}


def test_dense_cone_matches_reference(monkeypatch):
    assert switches(monkeypatch, CHAIN, 40, root=(0,)) == {("sym", "S"): (6, 1)}
    assert_same_cone(CHAIN, (0,), 40)


def test_bitmap_membership():
    n = 37
    rng = np.random.default_rng(4)
    batches = [np.unique(rng.integers(0, n * n, size)).astype(np.int32) for size in (300, 7, 1, 120)]
    held = np.unique(np.concatenate(batches))
    bits = np.zeros((n * n + 7) // 8, dtype=np.uint8)
    for keys in batches:
        _set_bits(bits, keys)
    # bit k of byte i is key 8i + k, whether set batch by batch or built at once
    assert np.array_equal(bits, _bitmap([_Block(b, None) for b in batches], n))
    assert np.flatnonzero(np.unpackbits(bits, bitorder="little")).tolist() == held.tolist()
    cand = rng.integers(0, n * n, 2000).astype(np.int32)
    parts = [cand[:500], cand[500:]]
    assert _fresh(parts, [], bits).tolist() == np.setdiff1d(cand, held).tolist() and parts == []
    assert _dense(n * n // 8 + 1, n) and not _dense(n * n // 8, n)


@pytest.mark.parametrize("make", [lambda g: bounded_reach(g, -1), lambda g: reach_from(g, (0,), -1),
                                  lambda g: Grid(g.dim, -3)], ids=["table", "cone", "grid"])
def test_negative_bounds_are_refused_alike(pow2, make):
    with pytest.raises(ValueError, match="^bound must be non-negative$"):
        make(pow2)
