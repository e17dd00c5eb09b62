import hashlib
import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import gvaskit
from gvaskit.errors import (
    DimensionMismatchError, NotInTableError, OutOfGridError, ResourceLimitError, UnknownSymbolError,
)
from gvaskit.flowtree import format_tree, validate_tree
from gvaskit.fastgrowing import build_core
from gvaskit.gvas import Gvas, parse_gvas
from gvaskit import _kernel
from gvaskit._kernel import (
    _Band, _Block, _View, _derived, _key_dtype, _merge, _plan, _products, _rounds, _shifted, _shifts,
)
from gvaskit.fastgrowing import as_weak_computer
from gvaskit.ordinal import Ordinal
from gvaskit.reach import Grid, _action_target, _binarize, _walked, bounded_reach, reach_from
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
            keys, stamps = table._pairs_of(key)
            assert np.array_equal(keys, want_rows * n + m.indices), (key, bound)
            assert np.array_equal(stamps, m.data), (key, bound)
            assert np.array_equal(table._dem[key], np.arange(n)), (key, bound)
            for s in cells if key not in table._views else ():  # a view's keys above are its rows
                row = slice(m.indptr[s], m.indptr[s + 1])
                cols, stamps = table._row(key, s)
                assert cols.tolist() == m.indices[row].tolist() and stamps.tolist() == m.data[row].tolist()
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
# E is defined by a shift of itself, so stays empty.  P's aux relations are
# T ; (1,0), a shift a join of two relations reads, U ; (1,0), read by a left
# action, and U ; ((1,0) ; (0,-1)), a relation joined with a join of two actions
SHIFTS = parse_gvas("""dim 2
start S
S -> T U | U W | (1,0) (0,1) | S (0,-1) | V | E | P
T -> (1,1) (0,-1) (-1,0) U
U -> (1,0) U | eps
W -> U (0,1)
V -> T
E -> (0,1) E
P -> U T (1,0) | (0,1) U (1,0) | (0,1) U (1,0) (0,-1)
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


def table_digests(g, bound):
    """Each relation's sha256 of its keys, stamps and their types, in hex
    (its first 16 digits)."""
    out = {}
    table = bounded_reach(g, bound)
    for key in table._relations:
        keys, stamps = table._pairs_of(key)
        h = hashlib.sha256()
        for a in (keys, stamps):
            h.update(a.dtype.str.encode())
            h.update(a.tobytes())
        out[key] = h.hexdigest()[:16]
    return out


def test_core_tables_keep_their_digests():
    # every relation of core(1)@12 and core(2)@5 as the kernel made it
    # before the table derived aux(1, 1); the reference compares stamps
    # only at smaller bounds (core(1)@8, core(2)@4)
    assert table_digests(build_core(1), 12) == {
        ("aux", 1, 1): "8daa38fad99de59e", ("aux", 1, 2): "54fcce22ed473277", ("aux", 3, 1): "47f521ec32634430",
        ("aux", 3, 2): "47148fc3e437b7e7", ("aux", 5, 1): "78d747348049c986", ("sym", "Fn"): "b1e8fb59f16b7b53",
        ("sym", "Iter"): "c5949a8a265b88bc", ("sym", "Load"): "7953542623a1cd47"}
    assert table_digests(build_core(2), 5) == {
        ("aux", 1, 1): "f2d589d786f07929", ("aux", 1, 2): "cb64e3f7fae6cd10", ("aux", 2, 1): "0f634193833b814f",
        ("aux", 2, 2): "4027464987dcf8b4", ("aux", 2, 3): "3d774821f27b4ee3", ("aux", 4, 1): "4957fba20a82d8b5",
        ("aux", 4, 2): "f8789ad9bc63bdb4", ("aux", 6, 1): "3386ef190d29e73c", ("aux", 8, 1): "0aa7119d247febab",
        ("aux", 8, 2): "4b511548d2d2332d", ("aux", 8, 3): "d5e58fdf048174c9", ("sym", "Desc1"): "c879006cce4abb7a",
        ("sym", "Fn"): "bb873621deea5201", ("sym", "Iter"): "56ba63b52e3cc2be", ("sym", "Load"): "ddc401c640c15585"}


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


def product_keys(delta, b, n, transposed=False):
    """The keys of one product of :func:`_products`, its chunks joined."""
    chunks = list(_products(delta, [b], n, transposed))
    assert all(c.dtype == _key_dtype(n) for c in chunks)
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype=_key_dtype(n))


def assert_products_match_scipy(delta, factor, n):
    """Both orientations of :func:`_products` against public scipy, block by
    block, and all blocks' chunks in one call."""
    for transposed in (False, True):
        wants = [scipy_product_keys(b.keys, delta.keys, n) if transposed else scipy_product_keys(delta.keys, b.keys, n)
                 for b in factor]
        for b, want in zip(factor, wants):
            assert np.array_equal(np.sort(product_keys(delta, b, n, transposed)), want)  # each pair once
        got = list(_products(delta, factor, n, transposed))
        assert np.array_equal(np.sort(np.concatenate(got)) if got else [], np.sort(np.concatenate(wants or [[]])))


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
    assert list(_products(full, [], n)) == list(_products(full, [], n, transposed=True)) == []  # an empty factor
    one = _Block(np.zeros(1, dtype=_key_dtype(1)), np.ones(1, dtype=np.uint8))
    assert_products_match_scipy(one, [one], 1)  # the one-cell grid's loop
    assert [c.tolist() for c in _products(one, [one], 1)] == [[0]]


@pytest.mark.parametrize("chunk", [1, 6])
def test_products_in_small_chunks_match_public_scipy(monkeypatch, chunk):
    # products of a few dozen flops come in several chunks
    monkeypatch.setattr(_kernel, "_CHUNK", chunk)
    for seed in range(4):
        test_products_match_public_scipy(seed)
    test_products_of_empty_and_one_cell_blocks()


def test_products_cut_at_row_boundaries(monkeypatch):
    # rows 0 and 11 of the delta hit one pair of the block each, row 4 all
    # twelve rows of the block, 12 * 12 flops; the rows between are empty
    from scipy.sparse import _sparsetools

    n, calls = 12, []
    matmat = _sparsetools.csr_matmat

    def spy(n_row, n_col, ap, aj, ax, bp, bj, bx, cp, cj, cx):
        calls.append((n_row, int(np.diff(bp)[aj[ap[0]:ap[-1]]].sum())))
        matmat(n_row, n_col, ap, aj, ax, bp, bj, bx, cp, cj, cx)

    monkeypatch.setattr(_sparsetools, "csr_matmat", spy)
    monkeypatch.setattr(_kernel, "_CHUNK", 20)
    keys = np.array([0 * n + 0] + [4 * n + d for d in range(n)] + [11 * n + 1], dtype=_key_dtype(n))
    delta = _Block(keys, np.ones(len(keys), dtype=np.uint8))
    block = _Block(np.arange(n * n, dtype=_key_dtype(n)), np.ones(n * n, dtype=np.uint8))
    sparse_block = _Block(np.array([0, n + 1], dtype=_key_dtype(n)), np.ones(2, dtype=np.uint8))
    assert_products_match_scipy(delta, [block, sparse_block], n)
    calls.clear()
    product_keys(delta, block, n)
    # cut where the flops pass 20, 40, ..., 160: row 0 (12 flops) and empty rows 1-3; row 4
    # (144 flops, past the chunk) and empty rows 5-10; row 11 (12 flops)
    assert calls == [(4, 12), (7, 144), (1, 12)]
    calls.clear()
    product_keys(delta, sparse_block, n)  # 4 flops, all in one chunk: 1 from row 0, 2 from row 4, 1 from row 11
    assert calls == [(12, 4)]


def test_products_widen_their_index_arrays_to_int64(monkeypatch, pow2):
    # with int32 capped at 40, a block of more pairs is int64 from the start, and a
    # product of two int32 blocks of more flops, which bound its pairs, widens
    # both before it multiplies
    monkeypatch.setattr(_kernel, "_INT32_TOP", 40)
    n = 30
    star = np.unique([i * n for i in range(20)] + list(range(20))).astype(np.int32)  # (i, 0) and (0, j)
    small, big = _Block(star, np.ones(len(star), dtype=np.uint8)), random_block(np.random.default_rng(3), n, 0.3)
    assert len(small.keys) < 40 < len(big.keys)
    assert small.rows(n)[0].dtype == np.int32 and big.rows(n)[0].dtype == big.rows(n)[1].dtype == np.int64
    ap, aj = small.rows(n)
    assert np.diff(ap)[aj].sum() > len(scipy_product_keys(small.keys, small.keys, n)) > 40
    assert_products_match_scipy(small, [small, big], n)
    assert_products_match_scipy(big, [small], n)
    # the table built on int64 arrays is the table
    grid = Grid(1, 60)
    blocks, _, _ = _rounds(grid, _binarize(pow2), 60_000_000)
    assert any(b._rows is not None and b._rows[0].dtype == np.int64 for stack in blocks.values() for b in stack)
    got = bounded_reach(pow2, 60)
    monkeypatch.undo()
    want = bounded_reach(pow2, 60)
    assert set(got._relations) == set(want._relations)
    for key in want._relations:
        (got_keys, got_stamps), (keys, stamps) = got._pairs_of(key), want._pairs_of(key)
        assert np.array_equal(got_keys, keys) and np.array_equal(got_stamps, stamps)
        assert got_keys.dtype == keys.dtype and got_stamps.dtype == stamps.dtype


def reference_merge(older, newer):
    """The union of two disjoint sets of pairs, each sorted linear keys with
    their stamps, by one binary search per newer key."""
    at = np.searchsorted(older[0], newer[0]) + np.arange(len(newer[0]))
    old = np.ones(len(older[0]) + len(newer[0]), dtype=bool)
    old[at] = False
    out = []
    for a, b in zip(older, newer):
        both = np.empty(len(old), dtype=np.result_type(a, b))
        both[old] = a
        both[at] = b
        out.append(both)
    return tuple(out)


@st.composite
def merge_runs(draw):
    """A slice size and two disjoint runs of sorted keys with stamps: keys of
    either type, stamps of uint8 or uint16 on each side, the runs
    interleaved or one entirely before the other, and either side may be empty."""
    key_dtype = draw(st.sampled_from([np.int32, np.int64]))
    top = int(np.iinfo(key_dtype).max)
    keys = np.array(sorted(draw(st.sets(st.integers(0, top), max_size=120))), dtype=key_dtype)
    layout = draw(st.sampled_from(["interleaved", "older first", "newer first"]))
    if layout == "interleaved":
        to_older = np.array(draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys))), dtype=bool)
    else:
        cut = draw(st.integers(0, len(keys)))
        to_older = (np.arange(len(keys)) < cut) == (layout == "older first")
    runs = []
    for part in (keys[to_older], keys[~to_older]):
        stamp_dtype = draw(st.sampled_from([np.uint8, np.uint16]))
        top = int(np.iinfo(stamp_dtype).max)
        stamps = draw(st.lists(st.integers(0, top), min_size=len(part), max_size=len(part)))
        runs.append((part, np.array(stamps, dtype=stamp_dtype)))
    return draw(st.sampled_from([2, 3, 4, 8, _kernel._SLICE])), *runs


@settings(max_examples=300, deadline=None)
@given(merge_runs())
def test_merge_equals_the_reference_merge(run):
    size, older, newer = run
    with mock.patch.object(_kernel, "_SLICE", size):
        got = _merge(older, newer)
    want = reference_merge(older, newer)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_merge_cases():
    # int32 keys with uint8 stamps, int64 keys with uint16 stamps, merged both ways
    with mock.patch.object(_kernel, "_SLICE", 4):
        for key_dtype, a_stamp, b_stamp in ((np.int32, np.uint8, np.uint16), (np.int64, np.uint16, np.uint8)):
            evens, odds = np.arange(0, 40, 2, dtype=key_dtype), np.arange(1, 40, 2, dtype=key_dtype)
            low, high = np.arange(10, dtype=key_dtype), np.arange(10, 30, dtype=key_dtype)
            empty = evens[:0]
            for a, b in ((evens, odds), (low, high), (high, low), (evens, empty), (empty, odds), (empty, empty)):
                older, newer = (a, np.full(len(a), 200, dtype=a_stamp)), (b, np.full(len(b), 300 % 256, dtype=b_stamp))
                got, want = _merge(older, newer), reference_merge(older, newer)
                assert got[0].dtype == key_dtype and got[1].dtype == np.uint16
                assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


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
    assert table._row(("sym", "S"), 0)[1].dtype == dtype


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


def test_queries_refuse_configurations_of_another_length(pow2):
    # the length is checked after the symbol and before the grid, as enumerate_trees does
    with pytest.raises(DimensionMismatchError, match=r"^source \(1, 2\) has length 2, expected 1$"):
        reach_from(pow2, (1, 2), 4)
    for engine in (bounded_reach(pow2, 4), reach_from(pow2, (1,), 4)):
        for symbol in ("S", (1,)):
            with pytest.raises(DimensionMismatchError, match=r"^source \(9, 9\) has length 2, expected 1$"):
                engine.successors(symbol, (9, 9))
            with pytest.raises(DimensionMismatchError, match=r"^source \(1, 2\) has length 2, expected 1$"):
                engine.witness((1, 2), symbol, (2,))
            with pytest.raises(DimensionMismatchError, match=r"^target \(\) has length 0, expected 1$"):
                engine.witness((1,), symbol, ())
            assert not engine.contains(symbol, (1, 2), (2,)) and not engine.contains(symbol, (1,), ())
        with pytest.raises(UnknownSymbolError):
            engine.successors("Q", (1, 2))
        with pytest.raises(UnknownSymbolError):
            engine.witness((1, 2), "Q", (2,))


def test_cone_out_of_grid(pow2):
    with pytest.raises(OutOfGridError):
        reach_from(pow2, (9,), 4)


# --- band bitmaps for searched relations ------------------------------------


def switches(monkeypatch, g, bound, root=None):
    """Each relation key whose band layout the rounds change, with the
    layouts it takes in order: the round of each, and its band's width in
    offsets, "keys" for the key layout or None for no bits; with a root
    config, for the cone from it.  After every batch its bits cost at most
    one byte per stored pair, besides a band's guard byte per row."""
    grid = Grid(g.dim, bound)
    seen = []
    add = _Band.add

    def spy(band, keys, stack, n):
        before = band.bits is None, band.base, band.width
        add(band, keys, stack, n)
        if band.bits is not None:
            assert band.bits.nbytes <= band.pairs + (n if band.width < n else 0)
        if (band.bits is None, band.base, band.width) != before:
            layout = None if band.bits is None else "keys" if band.width == n else band.width
            seen.append((stack, max(int(b.stamps.max()) for b in stack), layout))

    monkeypatch.setattr(_Band, "add", spy)
    blocks, _, _ = _rounds(grid, _binarize(g), 60_000_000, None if root is None else (("sym", g.start), grid.encode(root)))
    return {key: [(r, w) for owner, r, w in seen if owner is stack]
            for key, stack in blocks.items() if any(owner is stack for owner, _, _ in seen)}


def test_dense_relations_switch_to_bitmaps(monkeypatch, pow2):
    # pow2@16 (17 cells): T's identity in round 1 pays for a band 8 offsets
    # wide, and S and T take the key layout in round 5, once their pairs pay
    # for it; aux(3, 1), defined by a shift alone, is never searched
    assert switches(monkeypatch, pow2, 16) == {("sym", "S"): [(3, 8), (5, "keys")],
                                                ("sym", "T"): [(1, 8), (5, "keys")], ("aux", 1, 1): [(4, "keys")]}
    # on 5 cells a band 8 offsets wide would reach a row: the identity pays for the key layout
    assert switches(monkeypatch, pow2, 4) == {("sym", "S"): [(3, "keys")], ("sym", "T"): [(1, "keys")],
                                               ("aux", 1, 1): [(4, "keys")]}
    # the chain's S (51 cells) starts on a band 8 offsets wide and takes the key layout in round 7
    assert switches(monkeypatch, CHAIN, 50) == {("sym", "S"): [(1, 8), (7, "keys")]}
    for g, bound in [(pow2, 16), (CHAIN, 50), (pow2, 4)]:
        assert_same_stamps(g, bound)


def test_core_relations_switch_to_narrow_bands(monkeypatch):
    # every searched relation of the core grammars keeps bits on a band far
    # narrower than a row (729 cells at core(1)@8, 625 at core(2)@4) by round
    # 18; one whose span outgrows what its pairs pay for drops its bits
    # until they pay again, and Load's never do once it has dropped them;
    # aux(1, 1), derived from the other join of Iter and Fn, holds no band,
    # nor does core(2)'s aux(2, 2) = Desc1 ; ((0,0,-1,0) ; (0,0,0,1)), a shift
    assert switches(monkeypatch, build_core(1), 8) == {
        ("sym", "Fn"): [(15, 136)], ("sym", "Load"): [(1, 8), (3, None)],
        ("sym", "Iter"): [(2, 8), (4, None), (9, 48), (10, 64), (11, 72), (12, 88), (13, 112), (14, 136), (18, 176)],
        ("aux", 3, 2): [(13, 136)]}
    assert switches(monkeypatch, build_core(2), 4) == {
        ("sym", "Fn"): [(13, 40)], ("sym", "Iter"): [(2, 8), (4, None), (5, 16), (8, None), (9, 32), (11, 40)],
        ("sym", "Load"): [(1, 8), (3, None), (5, 16), (7, None)],
        ("sym", "Desc1"): [(6, 16), (7, None), (8, 24), (10, None), (12, 40)],
        ("aux", 4, 2): [(11, 40)]}
    assert_same_stamps(build_core(1), 8, samples=4)
    assert_same_stamps(build_core(2), 4, samples=4)


def test_band_drops_bits_its_pairs_do_not_pay_for(monkeypatch):
    # S's identity pays for a band 8 offsets wide; round 2's pairs (s, s + k)
    # need a band wider than a row, so the key layout, which about 1.3n pairs
    # do not pay for: S drops its bits rather than take n * n bits
    bound = 2000
    g = Gvas.from_rules(1, [("S", [(7 * bound // 10,), "S"]), ("S", [])], "S")
    assert switches(monkeypatch, g, bound) == {("sym", "S"): [(1, 8), (2, None)]}
    assert_same_stamps(g, bound)


def test_dense_cone_matches_reference(monkeypatch):
    assert switches(monkeypatch, CHAIN, 40, root=(0,)) == {("sym", "S"): [(1, 8), (6, "keys")]}
    assert_same_cone(CHAIN, (0,), 40)


# --- derived relations -------------------------------------------------------

# every shape of a derived relation K2 = L ; A, A = Y ; a beside K1 = L ; Y,
# and its near misses.  aux(1, 1) and aux(2, 1) share the source aux(6, 1),
# with actions that move both digits, down and up, and leave the grid;
# aux(11, 1) is L ; A for the nonterminal A; aux(5, 1) has L == Y, from M.
# Not derived: aux(10, 1), a second L ; Y; aux(12, 1), whose source aux(11, 1)
# is derived; N, which has a second definition; R, whose K1 would be Q, which
# has a second definition; T, whose A is a left action (1,0) ; Y; aux(20, 1),
# L ; Z with Z = Z ; (1,0), which would be its own source.
DERIVED = parse_gvas("""dim 2
start L
L -> (1,0) | (0,1) L Y (-1,2) | (1,0) L Y (0,-1) | (1,-1) Y
Y -> eps | (-1,1) Y Y (1,1) | (0,-1) L Y
M -> Y Y
A -> Y (-1,2)
B -> A (0,1)
C -> (1,0) L Y
D -> (0,1) L A
E -> (1,1) L B
N -> L Y (1,0) | eps
Q -> Y L | (1,0)
R -> Y L (0,1)
T -> L (1,0) Y
Z -> Z (1,0)
F -> (1,1) L Z
""")


def test_derived_relations_and_their_near_misses():
    defs = _binarize(DERIVED)
    assert _derived(defs, _shifts(defs)) == {
        ("aux", 1, 1): (("aux", 6, 1), (-1, 2)), ("aux", 2, 1): (("aux", 6, 1), (0, -1)),
        ("aux", 5, 1): (("sym", "M"), (1, 1)), ("aux", 11, 1): (("aux", 6, 1), (-1, 2))}
    assert defs[("aux", 5, 1)][0][1] == defs[("aux", 5, 2)][0][1] == ("sym", "Y")  # L == Y
    for bound in (0, 1, 2, 3, 5, 7):
        assert_same_stamps(DERIVED, bound)
    # a derived pair takes its source's stamp when a path reaches it through
    # an older pair of Y, and one more otherwise: both occur
    table = bounded_reach(DERIVED, 5)
    for k2, (k1, a) in _derived(defs, _shifts(defs)).items():
        keys, stamps = table._pairs_of(k2)
        k1_keys, k1_stamps = table._pairs_of(k1)
        moved = np.isin(k1_keys, keys - table.grid.offset(a))
        assert np.array_equal(_shifted(table.grid, k1_keys, a), keys)
        assert set((stamps.astype(int) - k1_stamps[moved]).tolist()) == {0, 1}


def test_derived_relations_match_reference_on_random_grammars():
    # random grammars with one derived shape added: K -> a L Y b beside J -> c L Y
    rng = random.Random(11)
    for _ in range(30):
        g = random_gvas(rng)
        l, y = rng.choice(g.nonterminals), rng.choice(g.nonterminals)
        a, b, c = (tuple(rng.randint(-2, 2) for _ in range(g.dim)) for _ in range(3))
        g = Gvas.from_rules(g.dim, list(g.rules) + [("J", [c, l, y]), ("K", [a, l, y, b])], g.start)
        defs = _binarize(g)
        assert _derived(defs, _shifts(defs))
        assert_same_stamps(g, rng.randint(2, 6))


def derived_work(monkeypatch, g, bound):
    """The table's rounds of g at bound with a spy on :func:`_products` and
    :meth:`_Band.add`: each relation's blocks, and per product the factor's
    blocks and whether it is transposed, and per band update the blocks."""
    products, adds = [], []
    product, add = _kernel._products, _Band.add

    def product_spy(delta, factor, n, transposed=False, without=None):
        products.append((factor, transposed))
        return product(delta, factor, n, transposed, without)

    def add_spy(band, keys, stack, n):
        adds.append(stack)
        add(band, keys, stack, n)

    monkeypatch.setattr(_kernel, "_products", product_spy)
    monkeypatch.setattr(_Band, "add", add_spy)
    blocks, _, _ = _rounds(Grid(g.dim, bound), _binarize(g), 60_000_000)
    return blocks, products, adds


@pytest.mark.parametrize("d, bound, source, digit0", [(1, 8, ("aux", 3, 2), (0, 0, 1)),
                                                      (2, 4, ("aux", 4, 2), (0, 0, 1, 0))])
def test_core_derives_the_shifted_join_of_iter_and_fn(monkeypatch, d, bound, source, digit0):
    # aux(1, 1) = Iter ; aux(1, 2) with aux(1, 2) = Fn ; (+digit0) is derived
    # from the other join of Iter and Fn: it takes no product, so none has
    # aux(1, 2) for its factor, the transposed products by Iter are only the
    # other join's, one per round after one with a fresh Fn batch, and it
    # updates no band
    g = build_core(d)
    assert _derived(_binarize(g), _shifts(_binarize(g))) == {("aux", 1, 1): (source, digit0)}
    blocks, products, adds = derived_work(monkeypatch, g, bound)
    assert not any(factor is blocks[("aux", 1, 2)] for factor, _ in products)
    fn_rounds = len(np.unique(np.concatenate([b.stamps for b in blocks[("sym", "Fn")]])))
    assert sum(factor is blocks[("sym", "Iter")] and transposed for factor, transposed in products) == fn_rounds
    assert blocks[("aux", 1, 1)] and not any(stack is blocks[("aux", 1, 1)] for stack in adds)
    assert any(stack is blocks[source] for stack in adds)


def test_derived_relations_take_no_product_and_no_band(monkeypatch):
    derived = _derived(_binarize(DERIVED), _shifts(_binarize(DERIVED)))
    blocks, products, adds = derived_work(monkeypatch, DERIVED, 5)
    for k2 in derived:  # each A is the right factor of its K2 alone
        assert blocks[k2] and not any(factor is blocks[_binarize(DERIVED)[k2][0][2]] for factor, _ in products)
        assert not any(stack is blocks[k2] for stack in adds)


def test_a_chained_relation_is_no_source():
    # K = T ; Y with Y = (1) ; (1) is chained: the table shifts T's delta
    # twice and runs no product, so S = T ; aux(0, 1), aux(0, 1) = Y ; (1),
    # is not derived from it; S multiplies by aux(0, 1), which stays stored
    g = parse_gvas("""dim 1
start S
S -> T Y (1)
K -> T Y
Y -> (1) (1)
T -> (1) T | eps
""")
    plan = _plan(_binarize(g))
    assert plan.chained == {("sym", "K"): ((1,), (1,))}
    assert plan.derived == {} and plan.views == {}
    for bound in (0, 1, 2, 3, 6):
        assert_same_stamps(g, bound)


# --- views ---------------------------------------------------------------------

CORE_VIEWS = {
    1: {("aux", 1, 2): (("sym", "Fn"), ((0, 0, 1),), False),
        ("aux", 3, 1): (("aux", 3, 2), ((0, 1, 0),), True),
        ("aux", 5, 1): (("sym", "Load"), ((0, -1, 0),), True)},
    2: {("aux", 1, 2): (("sym", "Fn"), ((0, 0, 1, 0),), False),
        ("aux", 2, 1): (("aux", 2, 2), ((0, 0, 1, 0),), True),
        ("aux", 2, 2): (("sym", "Desc1"), ((0, 0, -1, 0), (0, 0, 0, 1)), False),
        ("aux", 2, 3): (None, ((0, 0, -1, 0), (0, 0, 0, 1)), False),
        ("aux", 4, 1): (("aux", 4, 2), ((0, 1, 0, 0),), True),
        ("aux", 6, 1): (("sym", "Load"), ((0, -1, 0, 0),), True),
        ("aux", 8, 1): (("aux", 8, 2), ((0, 1, 0, 0),), True),
        ("aux", 8, 2): (("aux", 8, 3), ((0, 0, 1, 0),), True),
        ("aux", 8, 3): (("sym", "Desc1"), ((0, 0, -1, 0),), False)},
}


def absorbs(monkeypatch, g, bound):
    """The table's rounds of g at bound with spies on :func:`_absorb` and
    :func:`_merge`: each relation's blocks, the stack of every absorb, and
    per merge the stack of the absorb that made it."""
    absorbed, merged = [], []
    absorb, merge = _kernel._absorb, _kernel._merge

    def absorb_spy(stack, keys, stamps):
        absorbed.append(stack)
        return absorb(stack, keys, stamps)

    def merge_spy(older, newer):
        merged.append(absorbed[-1])  # in the rounds, only an absorb merges
        return merge(older, newer)

    monkeypatch.setattr(_kernel, "_absorb", absorb_spy)
    monkeypatch.setattr(_kernel, "_merge", merge_spy)
    blocks, _, _ = _rounds(Grid(g.dim, bound), _binarize(g), 60_000_000)
    return blocks, absorbed, merged


@pytest.mark.parametrize("d, bound", [(1, 8), (2, 4)])
def test_core_views_hold_no_block_and_are_never_merged(monkeypatch, d, bound):
    # every aux relation that is only its factor moved by actions and that no
    # product reads is a view: its fresh batches are dropped, not absorbed,
    # and the table keeps a _View for it
    g = build_core(d)
    views = _plan(_binarize(g)).views
    assert views == CORE_VIEWS[d]
    blocks, absorbed, merged = absorbs(monkeypatch, g, bound)
    assert merged
    for key, stack in blocks.items():
        if key in views:
            assert stack == [] and not any(s is stack for s in absorbed + merged), key
        else:
            assert stack and any(s is stack for s in absorbed), key
    monkeypatch.undo()
    table = bounded_reach(g, bound)
    assert {key for key, rel in table._relations.items() if isinstance(rel, _View)} == set(views)
    # a view's pairs are made of the types the table's stored pairs take
    _, stamps = table._relations[("sym", "Fn")]
    for key in views:
        keys, view_stamps = table._pairs_of(key)
        assert keys.dtype == _key_dtype(table.grid.size) and view_stamps.dtype == stamps.dtype, key


def test_view_stamps_take_the_type_of_the_table():
    # the chain with S -> (1) S (0) has the view aux(2, 1) = S ; (0): S's
    # pairs, each stamped one more, of uint16 past 256 rounds like S's
    g = Gvas.from_rules(1, [("S", [(1,), "S"]), ("S", []), ("S", [(1,), "S", (0,)])], "S")
    table = bounded_reach(g, 300)
    assert isinstance(table._relations[("aux", 2, 1)], _View)
    keys, stamps = table._pairs_of(("aux", 2, 1))
    s_keys, s_stamps = table._relations[("sym", "S")]
    assert stamps.dtype == s_stamps.dtype == np.uint16 and keys.dtype == s_keys.dtype
    assert np.array_equal(keys, s_keys) and np.array_equal(stamps, s_stamps + 1)


def test_core2_shifts_desc1_by_the_join_of_two_actions(monkeypatch):
    # aux(2, 2) = Desc1 ; aux(2, 3) with aux(2, 3) = (0,0,-1,0) ; (0,0,0,1):
    # Desc1 shifted twice, one round late, so no product reads aux(2, 3) or
    # multiplies by Desc1, and aux(2, 2) updates no band
    blocks, products, adds = derived_work(monkeypatch, build_core(2), 4)
    assert not any(factor is blocks[("aux", 2, 3)] or factor is blocks[("sym", "Desc1")] for factor, _ in products)
    assert not any(stack is blocks[("aux", 2, 2)] for stack in adds)
    monkeypatch.undo()
    assert_same_stamps(build_core(2), 3, samples=4)


def test_view_stamps_read_their_factor_on_both_sides():
    # a view's stamp of every pair of the grid, by one lookup or many, is the
    # reference's: one more than its factor pair's, and 0 where the factor
    # lacks it or the word takes its end of the pair outside the grid
    seen = set()
    for g, bound in [(SHIFTS, 0), (SHIFTS, 5), (SHIFTS_1D, 9)]:
        table, want = bounded_reach(g, bound), reference_bounded_reach(g, bound)
        grid, n = table.grid, table.grid.size
        cells = np.arange(n, dtype=_key_dtype(n))
        for key, (factor, word, at_source) in _plan(_binarize(g)).views.items():
            view = table._relations[key]
            assert isinstance(view, _View) and (view.factor, view.word, view.at_source) == (factor, word, at_source)
            m = want[key].toarray()
            for d in range(n):
                assert table._stamps(key, cells, d).tolist() == m[:, d].tolist(), (key, bound, d)
                for s in range(n):
                    stamp = table._stamp_of(key, s, d)
                    assert type(stamp) is int and stamp == m[s, d], (key, bound, s, d)
                    outside = _walked(grid, word, s) if at_source else _walked(grid, view.back, d)
                    seen.add((at_source, "outside" if outside is None else "held" if stamp else "absent"))
    assert seen == {(side, case) for side in (False, True) for case in ("outside", "absent", "held")}


def test_a_shift_a_product_reads_stays_stored():
    # aux(13, 1) = T ; (1,0) is the right factor of P's U ; aux(13, 1): the
    # table multiplies its blocks, so it is no view; aux(15, 2) = (1,0) ; (0,-1)
    # is the right factor of U ; aux(15, 2), which the table shifts instead
    defs = _binarize(SHIFTS)
    read = {op[2] for ops in defs.values() for op in ops if op[0] == "join" and "act" not in (op[1][0], op[2][0])}
    assert read & _shifts(defs) & {k for k in defs if k[0] == "aux"} == {("aux", 13, 1), ("aux", 15, 2)}
    assert ("aux", 13, 1) not in _plan(defs).views and ("aux", 15, 2) in _plan(defs).views
    table = bounded_reach(SHIFTS, 5)
    keys, stamps = table._relations[("aux", 13, 1)]
    assert len(keys) and len(stamps) == len(keys)
    assert ("aux", 13, 1) not in table._views


def test_cones_keep_every_relation(graph_pow2):
    # the 21 cones the cone-membership benchmark builds for either seed (its
    # 42 builds of seeds 1 and 2): a cone keeps no view, and the relations
    # the table would keep as views hold pairs
    lin = linear_set
    cones = [(p.gvas, (0,) * p.gvas.dim, bound) for p, bound in [
        (intersect(lin((0,), [(2,)]), lin((0,), [(3,)])), 24), (periodic_hull(union(lin((2,), []), lin((3,), []))), 30),
        (make_resetting(graph_pow2), 14), (wc_to_definable(definable_to_wc(graph_pow2, lambda n: 2**n)), 20)]]
    for alpha, d, n_max, bound in [((1,), 1, 11, 26), ((2,), 1, 2, 32), ((0, 1), 2, 1, 8)]:
        w = as_weak_computer(Ordinal(alpha), d)
        cones += [(w.gvas, (n, 0) + (0,) * w.aux, bound) for n in range(n_max + 1)]
    assert len(cones) == 21
    viewed = 0
    for g, source, bound in cones:
        cone = reach_from(g, source, bound)
        assert cone._views == {} and set(cone._relations) == set(_binarize(g))
        assert all(isinstance(rel, tuple) and len(rel) == 2 for rel in cone._relations.values())
        viewed += sum(len(cone._relations[key][0]) > 0 for key in _plan(_binarize(g)).views)
    assert viewed


@pytest.mark.parametrize("seed", range(3))
def test_products_leave_out_the_newest_blocks_pairs_of_one_stamp(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    delta = random_block(rng, n, 0.05)
    factor = [random_block(rng, n, d) for d in (0.02, 0.1, 0.3)]
    newest = factor[-1]
    newest.stamps = rng.integers(1, 4, len(newest.keys)).astype(np.uint8)
    kept = np.concatenate([b.keys for b in factor[:-1]] + [newest.keys[newest.stamps != 3]])
    got = np.unique(np.concatenate(list(_products(delta, factor, n, without=3))))
    assert np.array_equal(got, np.unique(scipy_product_keys(delta.keys, kept, n)))
    every = np.unique(np.concatenate(list(_products(delta, factor, n))))
    assert len(got) < len(every)  # some pairs are reached only through the left-out ones


@st.composite
def band_runs(draw):
    """A grid size, a key type and the batches of a relation's pairs: round
    1's identity, which switches a band on, then batches whose offsets
    drift, which widen it, and now and then a dense batch, which takes it
    to the key layout."""
    n = draw(st.integers(2, 90))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batches = [(np.arange(n), np.arange(n))]
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 4)) == 0:  # about a quarter of the grid
            s, d = np.divmod(rng.integers(0, n * n, n * n // 4), n)
        else:  # offsets in a window of up to 13 anywhere
            lo = draw(st.integers(-(n - 1), n - 1))
            s = rng.integers(0, n, draw(st.integers(0, 3 * n)))
            d = s + rng.integers(lo, lo + draw(st.integers(1, 13)), len(s))
        batches.append((s[(d >= 0) & (d < n)], d[(d >= 0) & (d < n)]))
    return n, draw(st.sampled_from([np.int32, np.int64])), batches, rng


@settings(max_examples=150)
@given(band_runs())
def test_band_lookups_equal_isin(run):
    n, dtype, batches, rng = run
    band, stack, held = _Band(), [], np.zeros(0, dtype=dtype)
    for s, d in batches:
        keys = np.unique((s * n + d).astype(dtype))
        keys = keys[~np.isin(keys, held)]
        if not len(keys):
            continue
        stack.append(_Block(keys, None))
        band.add(keys, stack, n)
        held = np.union1d(held, keys)
        assert band.pairs == len(held)
        if band.bits is None:
            continue
        # at most one byte per stored pair, besides a band's guard byte per row
        assert band.bits.nbytes <= band.pairs + (n if band.width < n else 0)
        # every held pair, the cells beside each, and any keys: most lie outside a narrow band
        cand = np.concatenate([held, held - 1, held + 1, rng.integers(0, n * n, 50)]).astype(dtype)
        cand = rng.permutation(cand[(cand >= 0) & (cand < n * n)])
        assert band.absent(cand, n).tolist() == cand[~np.isin(cand, held)].tolist()
        if band.width < n:
            assert band.base <= band.lo and band.hi < band.base + band.width and band.width + 8 < n


def test_bitmap_membership():
    # the identity of a 400-cell grid pays for a band 8 offsets wide; a
    # lookup of more than 2**16 keys runs in slices and keeps their order
    n = 400
    band, keys = _Band(), np.arange(n, dtype=np.int64) * (n + 1)
    band.add(keys, [_Block(keys, None)], n)
    assert (band.base, band.width, band.bits.nbytes) == (0, 8, 2 * n)  # offsets [0, 8) and the guard byte
    cand = np.random.default_rng(4).integers(0, n * n, 150_000)
    assert band.absent(cand, n).tolist() == cand[~np.isin(cand, keys)].tolist()


@pytest.mark.parametrize("make", [lambda g: bounded_reach(g, -1), lambda g: reach_from(g, (0,), -1),
                                  lambda g: Grid(g.dim, -3)], ids=["table", "cone", "grid"])
def test_negative_bounds_are_refused_alike(pow2, make):
    with pytest.raises(ValueError, match="^bound must be non-negative$"):
        make(pow2)
