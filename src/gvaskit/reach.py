"""Bounded reachability: the fixpoint engine behind every semantic query.

A pair (x, y) enters the table for symbol X exactly when some flow tree
for ``x ->X y`` keeps every node configuration inside the grid
``{0..B}^dim``.  Relations are sparse boolean matrices indexed by grid
cells; rules are binarized into chains of two-factor joins and the least
fixpoint is evaluated semi-naively, round by round.

Each newly discovered pair is stamped with its discovery round.  Witness
flow trees are reconstructed on demand by searching, per table entry, for
the first justification (rule declaration order, then lexicographically
smallest intermediate configurations) whose children all carry strictly
smaller stamps; strict descent makes the reconstruction well-founded and
deterministic without storing a derivation per pair.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse

from .errors import (
    NotInTableError,
    OutOfGridError,
    ResourceLimitError,
)
from .flowtree import FlowTree
from .gvas import Config, Gvas, Transition, _check_word, fatal_defects

DEFAULT_MAX_CELLS = 1 << 21
DEFAULT_MAX_PAIRS = 60_000_000


@dataclass(frozen=True)
class Grid:
    """Mixed-radix bijection between {0..bound}^dim and 0..size-1."""

    dim: int
    bound: int

    @property
    def size(self) -> int:
        return (self.bound + 1) ** self.dim

    def contains(self, c: Sequence[int]) -> bool:
        return len(c) == self.dim and all(0 <= v <= self.bound for v in c)

    def encode(self, c: Sequence[int]) -> int:
        idx = 0
        for v in reversed(c):
            idx = idx * (self.bound + 1) + v
        return idx

    def decode(self, idx: int) -> Config:
        out = []
        for _ in range(self.dim):
            idx, v = divmod(idx, self.bound + 1)
            out.append(v)
        return tuple(out)

    def coords_matrix(self) -> np.ndarray:
        """All grid cells as a (size, dim) array, row i = decode(i)."""
        return self.decode_many(np.arange(self.size, dtype=np.int64))

    def decode_many(self, idx: np.ndarray) -> np.ndarray:
        """Vectorized decode: (n,) indices to an (n, dim) coordinate array."""
        idx = np.asarray(idx, dtype=np.int64)
        cols = []
        for _ in range(self.dim):
            idx, v = np.divmod(idx, self.bound + 1)
            cols.append(v)
        return np.stack(cols, axis=1) if cols else np.zeros((len(idx), 0), dtype=np.int64)


def _action_offset(grid: Grid, a: tuple[int, ...]) -> int:
    """Index distance an in-grid application of action a moves a cell by."""
    return grid.encode(tuple(max(v, 0) for v in a)) - grid.encode(tuple(-min(v, 0) for v in a))


def _action_target(grid: Grid, a: tuple[int, ...], s: int) -> int | None:
    out = tuple(x + y for x, y in zip(grid.decode(s), a))
    return s + _action_offset(grid, a) if grid.contains(out) else None


def _action_matrix(grid: Grid, a: tuple[int, ...]) -> sparse.csr_matrix:
    coords = grid.coords_matrix()
    shifted = coords + np.asarray(a, dtype=np.int64)
    ok = np.all((shifted >= 0) & (shifted <= grid.bound), axis=1)
    rows = np.nonzero(ok)[0]
    cols = rows + _action_offset(grid, a)
    data = np.ones(len(rows), dtype=bool)
    return sparse.csr_matrix((data, (rows, cols)), shape=(grid.size, grid.size), dtype=bool)


def _empty(n: int) -> sparse.csr_matrix:
    return sparse.csr_matrix((n, n), dtype=bool)


def _symbol_ref(s) -> tuple:
    return ("act", s) if isinstance(s, tuple) else ("sym", s)


def _known_ref(g: Gvas, symbol) -> tuple:
    """The relation key of a symbol of g; UnknownSymbolError for any other."""
    return _symbol_ref(_check_word(g, (symbol,))[0])


def _binarize(g: Gvas) -> tuple[list[tuple[tuple, tuple]], dict[tuple[int, int], tuple]]:
    """Rules as chains of two-factor joins over auxiliary suffix relations.

    Returns the definitions ``(target key, op)`` in rule order, where op is
    ``("eps",)``, ``("copy", ref)`` or ``("join", left, right)``, and the
    key of the suffix of each rule starting at child i (i >= 1); suffixes
    of length one alias the symbol.
    """
    defs: list[tuple[tuple, tuple]] = []
    suffix_refs: dict[tuple[int, int], tuple] = {}
    for r, (lhs, rhs) in enumerate(g.rules):
        k = len(rhs)
        for i in range(1, k):
            suffix_refs[(r, i)] = _symbol_ref(rhs[k - 1]) if i == k - 1 else ("aux", r, i)
        target = ("sym", lhs)
        if k == 0:
            defs.append((target, ("eps",)))
        elif k == 1:
            defs.append((target, ("copy", _symbol_ref(rhs[0]))))
        else:
            defs.append((target, ("join", _symbol_ref(rhs[0]), suffix_refs[(r, 1)])))
            for i in range(1, k - 1):
                defs.append((("aux", r, i), ("join", _symbol_ref(rhs[i]), suffix_refs[(r, i + 1)])))
    return defs, suffix_refs


#: ``stamp(key, s, d)``: discovery stamp of pair (s, d) in relation ``key``, 0 if absent.
StampLookup = Callable[[tuple, int, int], int]
#: ``row(key, s)``: every (d, stamp) of relation ``key`` from cell s.
RowLookup = Callable[[tuple, int], Iterable[tuple[int, int]]]


def _justify(
    grid: Grid, suffix_refs, rule_idx: int, rhs, s: int, d: int, below: int,
    stamp: StampLookup, row: RowLookup,
) -> list[int] | None:
    """Intermediate cells for one rule application, or None.

    Children must all have stamps strictly below ``below``; picks the
    lexicographically smallest configuration at each position subject
    to the suffix staying feasible.
    """

    def feasible(ref, a: int) -> bool:
        if ref[0] == "act":
            return _action_target(grid, ref[1], a) == d
        return 0 < stamp(ref, a, d) < below

    if not rhs:
        return [] if s == d else None
    if len(rhs) == 1:
        return [] if feasible(_symbol_ref(rhs[0]), s) else None
    mids: list[int] = []
    cur = s
    for i, head in enumerate(rhs[:-1]):
        suffix = suffix_refs[(rule_idx, i + 1)]
        if isinstance(head, tuple):
            nxt = _action_target(grid, head, cur)
            cands = [] if nxt is None else [nxt]
        else:
            cands = sorted((c for c, v in row(("sym", head), cur) if 0 < v < below), key=grid.decode)
        nxt = next((c for c in cands if feasible(suffix, c)), None)
        if nxt is None:
            return None
        mids.append(nxt)
        cur = nxt
    return mids


def _build_witness(
    g: Gvas, grid: Grid, suffix_refs, symbol: str, s: int, d: int,
    stamp: StampLookup, row: RowLookup,
) -> FlowTree:
    """Deterministic flow tree for the stamped pair ``s ->symbol d``.

    Each node takes the first rule, in declaration order, that
    :func:`_justify` accepts under the node's own stamp.  Nodes are
    expanded from an explicit stack in pre-order and assembled bottom-up
    afterwards, so chain-shaped witnesses of any depth are fine.
    """
    expanded: list[tuple[Transition, int]] = []  # (label, arity), pre-order
    todo = [(symbol, s, d)]
    while todo:
        sym, a, b = todo.pop()
        label = Transition(grid.decode(a), sym, grid.decode(b))
        if isinstance(sym, tuple):
            expanded.append((label, 0))
            continue
        below = stamp(("sym", sym), a, b)
        if below <= 0:
            raise NotInTableError(f"{label.src} ->{sym} {label.dst} not in table")
        for rule_idx, rhs in g.rules_for(sym):
            mids = _justify(grid, suffix_refs, rule_idx, rhs, a, b, below, stamp, row)
            if mids is not None:
                break
        else:
            raise NotInTableError(f"no justification for {label.src} ->{sym} {label.dst}")  # unreachable
        cells = [a] + mids + ([b] if rhs else [])
        expanded.append((label, len(rhs)))
        todo.extend((rhs[i], cells[i], cells[i + 1]) for i in reversed(range(len(rhs))))
    built: list[FlowTree] = []
    for label, arity in reversed(expanded):
        # the children's subtrees were finished just before, leftmost on top
        built.append(FlowTree(label, tuple(built.pop() for _ in range(arity))))
    return built[0]


def _witness(engine, x: Sequence[int], symbol, y: Sequence[int]) -> FlowTree:
    """:meth:`ReachTable.witness` and :meth:`ReachCone.witness`: the
    symbol and endpoint checks, then :func:`_build_witness` on the
    engine's own stamps."""
    kind, symbol = _known_ref(engine.gvas, symbol)
    grid = engine.grid
    if not grid.contains(x) or not grid.contains(y):
        raise NotInTableError(f"{tuple(x)} or {tuple(y)} outside grid")
    if kind == "act":
        if tuple(map(sum, zip(x, symbol))) != tuple(y):
            raise NotInTableError(f"{tuple(y)} is not {tuple(x)} + {symbol}")
        return FlowTree(Transition(tuple(x), symbol, tuple(y)))
    return _build_witness(
        engine.gvas, grid, engine._suffix_refs, symbol,
        grid.encode(x), grid.encode(y), engine._stamp_of, engine._stamped_row,
    )


class ReachTable:
    """Per-symbol bounded reachability relation with witness reconstruction.

    Immutable once built; safe to share.
    """

    def __init__(self, g, bound, grid, relations, suffix_refs):
        self.gvas: Gvas = g
        self.bound: int = bound
        self.grid: Grid = grid
        # key -> csr matrix, nonzero exactly on the relation's pairs: bool for
        # ("act", a), int32 discovery stamps for ("sym", nt) and ("aux", rule, i)
        self._relations = relations
        self._suffix_refs = suffix_refs  # (rule, i) -> key of the suffix starting at child i

    # -- raw access -----------------------------------------------------

    def _stamp_of(self, key, s: int, d: int) -> int:
        m = self._relations[key]
        lo, hi = m.indptr[s], m.indptr[s + 1]
        cols = m.indices[lo:hi]
        pos = np.searchsorted(cols, d)
        if pos < len(cols) and cols[pos] == d:
            return int(m.data[lo + pos])
        return 0

    def _matrix(self, symbol) -> sparse.csr_matrix:
        """The relation of one symbol of the grammar."""
        return self._relations[_known_ref(self.gvas, symbol)]

    # -- public queries ---------------------------------------------------

    def symbols(self) -> tuple:
        return tuple(self.gvas.nonterminals) + tuple(self.gvas.actions)

    def contains(self, symbol, x: Sequence[int], y: Sequence[int]) -> bool:
        key = _known_ref(self.gvas, symbol)
        if not self.grid.contains(x) or not self.grid.contains(y):
            return False
        return self._stamp_of(key, self.grid.encode(x), self.grid.encode(y)) > 0

    def successors(self, symbol, x: Sequence[int]) -> list[Config]:
        m = self._matrix(symbol)
        if not self.grid.contains(x):
            raise OutOfGridError(f"{tuple(x)} outside grid bound {self.bound}")
        s = self.grid.encode(x)
        return sorted(self.grid.decode(int(i)) for i in m.indices[m.indptr[s]:m.indptr[s + 1]])

    def pairs(self, symbol) -> Iterator[tuple[Config, Config]]:
        rows, cols = self.pairs_arrays(symbol)
        decode = self.grid.decode
        return ((decode(int(s)), decode(int(d))) for s, d in zip(rows, cols))

    def count(self, symbol) -> int:
        return int(self._matrix(symbol).nnz)

    def pairs_arrays(self, symbol) -> tuple[np.ndarray, np.ndarray]:
        """Source and destination cell indices as parallel arrays.

        Bulk companion to :meth:`pairs`; decode with ``grid.decode_many``.
        """
        coo = self._matrix(symbol).tocoo()
        return coo.row.astype(np.int64), coo.col.astype(np.int64)

    # -- witness reconstruction -------------------------------------------

    def _stamped_row(self, key, s: int) -> Iterable[tuple[int, int]]:
        m = self._relations[key]
        lo, hi = m.indptr[s], m.indptr[s + 1]
        return zip(m.indices[lo:hi].tolist(), m.data[lo:hi].tolist())

    def witness(self, x: Sequence[int], symbol, y: Sequence[int]) -> FlowTree:
        """Deterministic valid flow tree with root ``x ->symbol y``."""
        return _witness(self, x, symbol, y)


def bounded_reach(
    g: Gvas,
    bound: int,
    *,
    max_cells: int = DEFAULT_MAX_CELLS,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> ReachTable:
    """Least fixpoint of the grid-bounded reachability relations.

    Deterministic: the output (including witness stamps) depends only on
    the grammar value and the bound.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    bad = fatal_defects(g)
    if bad:
        raise ValueError("invalid GVAS: " + "; ".join(str(d) for d in bad))
    grid = Grid(g.dim, bound)
    if grid.size > max_cells:
        raise ResourceLimitError(f"grid has {grid.size} cells, limit {max_cells}")
    n = grid.size

    defs, suffix_refs = _binarize(g)
    act_mats = {("act", a): _action_matrix(grid, a) for a in g.actions}
    defined_keys = []
    seen = set()
    for target, _ in defs:
        if target not in seen:
            seen.add(target)
            defined_keys.append(target)
    for nt in g.nonterminals:  # ruleless nonterminals still get (empty) tables
        key = ("sym", nt)
        if key not in seen:
            seen.add(key)
            defined_keys.append(key)

    fulls: dict[tuple, sparse.csr_matrix] = {k: _empty(n) for k in defined_keys}
    deltas: dict[tuple, sparse.csr_matrix] = {k: _empty(n) for k in defined_keys}
    stamp_parts: dict[tuple, list] = {k: [] for k in defined_keys}

    def full_of(ref):
        return act_mats[ref] if ref[0] == "act" else fulls[ref]

    def delta_of(ref):
        if ref[0] == "act":
            return act_mats[ref] if round_no == 1 else _empty(n)
        return deltas[ref]

    identity = sparse.identity(n, dtype=bool, format="csr")
    round_no = 1
    while True:
        contribs: dict[tuple, list] = {}
        for target, op in defs:
            acc = contribs.setdefault(target, [])
            if op[0] == "eps":
                if round_no == 1:
                    acc.append(identity)
            elif op[0] == "copy":
                d = delta_of(op[1])
                if d.nnz:
                    acc.append(d)
            else:
                _, left, right = op
                ld, rd = delta_of(left), delta_of(right)
                if ld.nnz:
                    acc.append(ld @ full_of(right))
                if rd.nnz:
                    acc.append(rd.__rmatmul__(full_of(left)))
        progressed = False
        new_deltas: dict[tuple, sparse.csr_matrix] = {}
        for key in defined_keys:
            parts = contribs.get(key, [])
            parts = [p for p in parts if p.nnz]
            if not parts:
                new_deltas[key] = _empty(n)
                continue
            combined = parts[0]
            for p in parts[1:]:
                combined = combined + p
            fresh = combined > fulls[key]
            fresh.eliminate_zeros()
            if fresh.nnz == 0:
                new_deltas[key] = _empty(n)
                continue
            progressed = True
            fulls[key] = fulls[key] + fresh
            coo = fresh.tocoo()
            stamp_parts[key].append((round_no, coo.row.copy(), coo.col.copy()))
            new_deltas[key] = fresh.tocsr()
        if not progressed:
            break
        deltas = new_deltas
        total = sum(m.nnz for m in fulls.values())
        if total > max_pairs:
            raise ResourceLimitError(f"relation store reached {total} pairs, limit {max_pairs}")
        round_no += 1

    relations: dict[tuple, sparse.csr_matrix] = dict(act_mats)
    for key in defined_keys:
        parts = stamp_parts[key]
        if not parts:
            relations[key] = sparse.csr_matrix((n, n), dtype=np.int32)
            continue
        rows = np.concatenate([p[1] for p in parts])
        cols = np.concatenate([p[2] for p in parts])
        vals = np.concatenate([np.full(len(p[1]), p[0], dtype=np.int32) for p in parts])
        relations[key] = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n), dtype=np.int32)
    return ReachTable(g, bound, grid, relations, suffix_refs)


@functools.lru_cache(maxsize=4)
def cached_reach(g: Gvas, bound: int) -> ReachTable:
    """Small table cache for membership-style repeated queries."""
    return bounded_reach(g, bound)


class ReachCone:
    """Single-source slice of the bounded reachability relation.

    Tabled, demand-driven evaluation: only (symbol, source) pairs that
    some rule application actually touches are computed, which keeps
    high-dimensional membership queries far below the all-pairs table.
    Evaluation is semi-naive: each new entry reaches each reader of its
    cell exactly once.  Discovered pairs carry insertion stamps, so
    witness reconstruction works exactly as for the full table.
    """

    def __init__(self, g: Gvas, source, bound: int, max_entries: int = 5_000_000):
        bad = fatal_defects(g)
        if bad:
            raise ValueError("invalid GVAS: " + "; ".join(str(d) for d in bad))
        self.gvas = g
        self.bound = bound
        self.grid = Grid(g.dim, bound)
        if not self.grid.contains(source):
            raise OutOfGridError(f"{tuple(source)} outside grid bound {bound}")
        self.source: Config = tuple(source)
        self._max_entries = max_entries
        self._act_memo: dict[tuple, int | None] = {}
        self._offsets = {a: _action_offset(self.grid, a) for a in g.actions}

        defs, self._suffix_refs = _binarize(g)
        self._defs: dict[tuple, list[tuple]] = {}
        for target, op in defs:
            self._defs.setdefault(target, []).append(op)
        for nt in g.nonterminals:
            self._defs.setdefault(("sym", nt), [])

        self._tables: dict[tuple[tuple, int], dict[int, int]] = {}
        self._stamp = 0
        self._evaluate((("sym", g.start), self.grid.encode(self.source)))

    def _act_dst(self, a, s: int) -> int | None:
        key = (a, s)
        hit = self._act_memo.get(key, -1)
        if hit != -1:
            return hit
        c = self.grid.decode(s)
        out = tuple(x + y for x, y in zip(c, a))
        d = s + self._offsets[a] if all(0 <= v <= self.bound for v in out) else None
        self._act_memo[key] = d
        return d

    def _evaluate(self, root: tuple[tuple, int]) -> None:
        """Semi-naive worklist evaluation of every cell demanded from ``root``.

        A reader ``(target, None)`` adds each entry it is given to target;
        ``(target, right)`` is a join's left factor: each entry m demands
        ``(right, m)`` for the reader ``(target, None)``.  A new entry is
        queued with its cell's reader count, and only those readers get
        it when it is popped; a later reader is given the cell's existing
        entries when it registers.  Cells open from the worklist too, so
        no demand chain recurses.
        """
        tables, defs, act_dst = self._tables, self._defs, self._act_dst
        readers: dict[tuple[tuple, int], list[tuple]] = {}
        work: deque = deque()  # (cell, None, 0) opens a cell; (cell, d, n) hands d to n readers

        def add(cell, d: int) -> None:
            table = tables[cell]
            if d not in table:
                self._stamp += 1
                if self._stamp > self._max_entries:
                    raise ResourceLimitError(f"reachability cone exceeded {self._max_entries} entries")
                table[d] = self._stamp
                work.append((cell, d, len(readers[cell])))

        def give(reader, m: int) -> None:
            target, right = reader
            if right is None:
                add(target, m)
            else:
                read(right, m, (target, None))

        def read(ref, s: int, reader) -> None:
            if ref[0] == "act":
                d = act_dst(ref[1], s)
                if d is not None:
                    give(reader, d)
                return
            cell = (ref, s)
            if cell not in tables:
                tables[cell] = {}
                readers[cell] = []
                work.append((cell, None, 0))
            readers[cell].append(reader)
            for d in list(tables[cell]):
                give(reader, d)

        tables[root] = {}
        readers[root] = []
        work.append((root, None, 0))
        while work:
            cell, d, n = work.popleft()
            if d is not None:
                for reader in readers[cell][:n]:
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

    # -- queries -----------------------------------------------------------

    def successors(self, symbol, x: Sequence[int]) -> list[Config]:
        """Destinations from a demanded source (the cone's own source is
        always demanded for the start symbol)."""
        key = _known_ref(self.gvas, symbol)
        if not self.grid.contains(x):
            raise OutOfGridError(f"{tuple(x)} outside grid bound {self.bound}")
        s = self.grid.encode(x)
        if key[0] == "act":
            d = self._act_dst(key[1], s)
            return [self.grid.decode(d)] if d is not None else []
        got = self._tables.get((key, s))
        if got is None:
            raise NotInTableError(f"source {tuple(x)} was never demanded for {symbol!r}")
        return sorted(self.grid.decode(d) for d in got)

    def _stamp_of(self, key, s: int, d: int) -> int:
        return self._tables.get((key, s), {}).get(d, 0)

    def _stamped_row(self, key, s: int) -> Iterable[tuple[int, int]]:
        return self._tables.get((key, s), {}).items()

    def witness(self, x: Sequence[int], symbol, y: Sequence[int]) -> FlowTree:
        """Deterministic valid flow tree with root ``x ->symbol y``."""
        return _witness(self, x, symbol, y)


def reach_from(g: Gvas, x, bound: int, max_entries: int = 5_000_000) -> ReachCone:
    """Demand-driven bounded reachability from one configuration."""
    return ReachCone(g, tuple(x), bound, max_entries)


@functools.lru_cache(maxsize=16)
def cached_cone(g: Gvas, x: tuple, bound: int) -> ReachCone:
    return ReachCone(g, x, bound)


def reachable_from(table: ReachTable, x: Sequence[int], word: Sequence) -> list[Config]:
    """Configurations reachable from x through a word of symbols.

    Relational composition of the per-symbol tables; the empty word gives
    back ``{x}``.  Sorted lexicographically.
    """
    if not table.grid.contains(x):
        raise OutOfGridError(f"{tuple(x)} outside grid bound {table.bound}")
    mats = [table._matrix(s) for s in word]
    front = {table.grid.encode(x)}
    for m in mats:
        front = {int(d) for s in front for d in m.indices[m.indptr[s]:m.indptr[s + 1]]}
        if not front:
            break
    return sorted(table.grid.decode(i) for i in front)
