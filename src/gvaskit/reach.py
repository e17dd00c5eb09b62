"""Bounded reachability: the fixpoint engine behind every semantic query.

A pair (x, y) enters the table for symbol X exactly when some flow tree
for ``x ->X y`` keeps every node configuration inside the grid
``{0..B}^dim``.  A relation over the grid's n cells is a set of pairs
kept as sorted linear keys ``s * n + d`` with a stamp each; rules are
binarized into chains of two-factor joins and the least fixpoint is
evaluated semi-naively, round by round: a round joins only the pairs the
previous round found (the deltas) with the relations as they stood when
the round began.

While the fixpoint runs, each relation is a short list of disjoint
blocks whose sizes shrink geometrically, newest last, as in a
log-structured merge.  A block holds its keys and stamps, plus the CSR
matrices the joins multiply by.  A round's candidates are deduplicated
and each is looked up by binary search in every block, so the round's
membership test and insert cost O(|delta| log |relation|) rather than
O(|relation|).  The finished table keeps each relation as its merged
keys and stamps, the same format, and answers a query about a source
cell from the slice of keys that cell's row occupies.

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


def _key_dtype(n: int) -> type:
    """The integer type of the linear keys ``s * n + d`` of an n-cell grid."""
    return np.int32 if n * (n + 1) <= np.iinfo(np.int32).max else np.int64


def _action_keys(grid: Grid, a: tuple[int, ...]) -> np.ndarray:
    """Sorted linear keys of action a's in-grid applications: the pair
    (s, s + offset) has key ``s * (n + 1) + offset``."""
    shifted = grid.decode_many(np.arange(grid.size)) + np.asarray(a, dtype=np.int64)
    ok = np.all((shifted >= 0) & (shifted <= grid.bound), axis=1)
    keys = np.nonzero(ok)[0].astype(_key_dtype(grid.size))
    keys *= grid.size + 1
    keys += _action_offset(grid, a)
    return keys


def _symbol_ref(s) -> tuple:
    return ("act", s) if isinstance(s, tuple) else ("sym", s)


def _known_ref(g: Gvas, symbol) -> tuple:
    """The relation key of a symbol of g; UnknownSymbolError for any other."""
    return _symbol_ref(_check_word(g, (symbol,))[0])


def _check_valid(g: Gvas) -> None:
    """ValueError naming every fatal defect of g, if it has any."""
    bad = fatal_defects(g)
    if bad:
        raise ValueError("invalid GVAS: " + "; ".join(str(d) for d in bad))


def _binarize(g: Gvas) -> tuple[dict[tuple, list[tuple]], dict[tuple[int, int], tuple]]:
    """Rules as chains of two-factor joins over auxiliary suffix relations.

    Returns each relation key's definitions in rule order, where a
    definition is ``("eps",)``, ``("copy", ref)`` or ``("join", left,
    right)`` and every nonterminal has a (possibly empty) entry, and the
    key of the suffix of each rule starting at child i (i >= 1); suffixes
    of length one alias the symbol.
    """
    defs: dict[tuple, list[tuple]] = {("sym", nt): [] for nt in g.nonterminals}
    suffix_refs: dict[tuple[int, int], tuple] = {}
    for r, (lhs, rhs) in enumerate(g.rules):
        k = len(rhs)
        for i in range(1, k):
            suffix_refs[(r, i)] = _symbol_ref(rhs[k - 1]) if i == k - 1 else ("aux", r, i)
        ops = defs[("sym", lhs)]
        if k == 0:
            ops.append(("eps",))
        elif k == 1:
            ops.append(("copy", _symbol_ref(rhs[0])))
        else:
            ops.append(("join", _symbol_ref(rhs[0]), suffix_refs[(r, 1)]))
            for i in range(1, k - 1):
                defs[("aux", r, i)] = [("join", _symbol_ref(rhs[i]), suffix_refs[(r, i + 1)])]
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
        # key -> (sorted linear keys s * n + d, their stamps): True for
        # ("act", a), discovery rounds for ("sym", nt) and ("aux", rule, i) in
        # the smallest unsigned type that holds the last round
        self._relations = relations
        self._suffix_refs = suffix_refs  # (rule, i) -> key of the suffix starting at child i

    # -- raw access -----------------------------------------------------

    def _row(self, key, s: int) -> tuple[np.ndarray, np.ndarray]:
        """Destination cells and stamps of relation ``key``'s pairs from cell s."""
        keys, stamps = self._relations[key]
        first = s * self.grid.size
        # needles of the keys' own type: any other type converts all of keys per search
        lo, hi = keys.searchsorted(np.array((first, first + self.grid.size), dtype=keys.dtype))
        return keys[lo:hi] - keys.dtype.type(first), stamps[lo:hi]

    def _stamp_of(self, key, s: int, d: int) -> int:
        keys, stamps = self._relations[key]
        k = s * self.grid.size + d
        pos = keys.searchsorted(keys.dtype.type(k))
        return int(stamps[pos]) if pos < len(keys) and keys[pos] == k else 0

    # -- public queries ---------------------------------------------------

    def contains(self, symbol, x: Sequence[int], y: Sequence[int]) -> bool:
        key = _known_ref(self.gvas, symbol)
        if not self.grid.contains(x) or not self.grid.contains(y):
            return False
        return self._stamp_of(key, self.grid.encode(x), self.grid.encode(y)) > 0

    def successors(self, symbol, x: Sequence[int]) -> list[Config]:
        key = _known_ref(self.gvas, symbol)
        if not self.grid.contains(x):
            raise OutOfGridError(f"{tuple(x)} outside grid bound {self.bound}")
        cols, _ = self._row(key, self.grid.encode(x))
        return sorted(map(self.grid.decode, cols.tolist()))

    def pairs(self, symbol) -> Iterator[tuple[Config, Config]]:
        rows, cols = self.pairs_arrays(symbol)
        decode = self.grid.decode
        return ((decode(int(s)), decode(int(d))) for s, d in zip(rows, cols))

    def count(self, symbol) -> int:
        return len(self._relations[_known_ref(self.gvas, symbol)][0])

    def pairs_arrays(self, symbol) -> tuple[np.ndarray, np.ndarray]:
        """Source and destination cell indices as parallel arrays, in key
        order (sorted by source, then destination).

        Bulk companion to :meth:`pairs`; decode with ``grid.decode_many``.
        Both arrays have the type of the table's keys: ``int32`` when
        n(n+1) fits it for an n-cell grid, else ``int64``.
        """
        keys, _ = self._relations[_known_ref(self.gvas, symbol)]
        return np.divmod(keys, keys.dtype.type(self.grid.size))

    # -- witness reconstruction -------------------------------------------

    def _stamped_row(self, key, s: int) -> Iterable[tuple[int, int]]:
        cols, stamps = self._row(key, s)
        return zip(cols.tolist(), stamps.tolist())

    def witness(self, x: Sequence[int], symbol, y: Sequence[int]) -> FlowTree:
        """Deterministic valid flow tree with root ``x ->symbol y``."""
        return _witness(self, x, symbol, y)


def _rows_matrix(keys: np.ndarray, n: int) -> sparse.csr_matrix:
    """The boolean CSR matrix of sorted linear keys."""
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=keys.dtype) * n)
    indices = np.empty(len(keys), dtype=np.int32)
    np.remainder(keys, n, out=indices, casting="unsafe")
    return sparse.csr_matrix((np.ones(len(keys), dtype=bool), indices, indptr), shape=(n, n))


def _row_keys(m: sparse.csr_matrix) -> np.ndarray:
    """Linear keys ``s * n + d`` of the pairs of a CSR matrix."""
    n = m.shape[0]
    keys = np.repeat(np.arange(n, dtype=_key_dtype(n)) * n, np.diff(m.indptr))
    keys += m.indices
    return keys


def _col_keys(mt: sparse.csr_matrix) -> np.ndarray:
    """Linear keys ``s * n + d`` of the pairs of the transpose of a CSR matrix."""
    n = mt.shape[0]
    keys = mt.indices.astype(_key_dtype(n))
    keys *= n
    keys += np.repeat(np.arange(n, dtype=keys.dtype), np.diff(mt.indptr))
    return keys


def _merge(older: tuple[np.ndarray, np.ndarray], newer: tuple[np.ndarray, np.ndarray]):
    """The union of two disjoint sets of pairs, each sorted linear keys
    with their stamps."""
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


def _first_of_runs(keys: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array."""
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


class _Block:
    """One batch of a relation's pairs, disjoint from its other batches.

    ``keys`` holds the linear keys ``s * n + d`` in ascending order and
    ``stamps`` their discovery rounds.  ``rows`` is the batch as a boolean
    CSR matrix and ``cols`` its transpose, each built only if a join
    multiplies by it: a join's product with a delta then reads only the
    rows of the other factor that the delta hits.
    """

    __slots__ = ("keys", "stamps", "rows", "cols")

    def __init__(self, keys: np.ndarray, stamps, n: int, rows: bool, cols: bool):
        self.keys, self.stamps = keys, stamps
        m = _rows_matrix(keys, n) if rows or cols else None
        self.rows = m if rows else None
        self.cols = m.T.tocsr() if cols else None

    def absent(self, cand: np.ndarray) -> np.ndarray:
        """The keys of ``cand`` not in this (never empty) block."""
        pos = np.searchsorted(self.keys, cand)
        np.minimum(pos, len(self.keys) - 1, out=pos)
        return cand[self.keys[pos] != cand]


def _rounds(
    defs: dict[tuple, list[tuple]], act_keys: dict[tuple, np.ndarray], n: int, max_pairs: int,
) -> tuple[dict[tuple, list[_Block]], int]:
    """The semi-naive rounds of :func:`bounded_reach`: each defined
    relation's blocks at the fixpoint, and the last round that found a pair."""
    joins = [op for ops in defs.values() for op in ops if op[0] == "join"]
    # joins multiply by the blocks of right factors as rows, of left factors as transposes
    lefts = {op[1] for op in joins}
    rights = {op[2] for op in joins}

    blocks: dict[tuple, list[_Block]] = {
        ref: [_Block(keys, None, n, True, True)] for ref, keys in act_keys.items()}
    deltas = {ref: stack[0] for ref, stack in blocks.items()}  # every action is new in round 1
    blocks.update((k, []) for k in defs)

    round_no = 1
    while True:
        contribs: dict[tuple, list[np.ndarray]] = {}
        for target, ops in defs.items():
            acc = contribs[target] = []
            for op in ops:
                if op[0] == "eps":
                    if round_no == 1:
                        acc.append(np.arange(n, dtype=_key_dtype(n)) * (n + 1))
                elif op[0] == "copy":
                    if op[1] in deltas:
                        acc.append(deltas[op[1]].keys)
                else:
                    _, left, right = op
                    if left in deltas:
                        acc.extend(_row_keys(deltas[left].rows @ b.rows) for b in blocks[right])
                    if right in deltas:
                        acc.extend(_col_keys(deltas[right].cols @ b.cols) for b in blocks[left])
        fresh: dict[tuple, np.ndarray] = {}
        for key in defs:
            parts = contribs.pop(key)
            if not parts:
                continue
            cand = np.concatenate(parts)
            del parts
            cand.sort()
            cand = _first_of_runs(cand)
            for block in blocks[key]:
                cand = block.absent(cand)
            if len(cand):
                fresh[key] = cand
        if not fresh:
            break
        # every product of the round has read the relations: only now may they grow
        deltas = {}
        for key, keys in fresh.items():
            stamps = np.full(len(keys), round_no, dtype=np.min_scalar_type(round_no))
            factor = key in lefts or key in rights
            deltas[key] = block = _Block(keys, stamps, n, factor, factor)
            stack = blocks[key]
            while stack and len(stack[-1].keys) <= 4 * len(keys):
                keys, stamps = _merge((stack[-1].keys, stack.pop().stamps), (keys, stamps))
            if len(keys) > len(block.keys):
                block = _Block(keys, stamps, n, key in rights, key in lefts)
            stack.append(block)
        total = sum(len(b.keys) for k in defs for b in blocks[k])
        if total > max_pairs:
            raise ResourceLimitError(f"relation store reached {total} pairs, limit {max_pairs}")
        round_no += 1

    return {k: blocks[k] for k in defs}, round_no - 1


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

    Round r multiplies each join's factor deltas from round r - 1 by the
    blocks of the other factor: the left delta by the right factor's
    blocks as rows, the right delta's transpose by the transposes of the
    left factor's blocks, so both products touch only the rows the delta
    reaches.  The candidates of each relation are sorted, deduplicated
    and searched for in its blocks; those found in none are the
    relation's fresh pairs, stamped r.  No block changes until every
    product of the round is taken, so stamps are exactly round numbers.
    A fresh batch becomes the newest block after absorbing each newest
    block that holds at most four times its pairs: a relation of N pairs
    has O(log N) blocks, and each pair is copied O(log N) times.  Memory
    is O(pairs) plus one index row of O(cells) per block matrix; no state
    is cells by cells.  At the end, each relation's blocks are merged and
    released one by one into its keys and stamps, which the table keeps.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    _check_valid(g)
    grid = Grid(g.dim, bound)
    if grid.size > max_cells:
        raise ResourceLimitError(f"grid has {grid.size} cells, limit {max_cells}")
    n = grid.size

    defs, suffix_refs = _binarize(g)
    act_keys = {("act", a): _action_keys(grid, a) for a in g.actions}
    blocks, last_round = _rounds(defs, act_keys, n, max_pairs)
    stamp_dtype = np.min_scalar_type(last_round)
    relations = {ref: (keys, np.ones(len(keys), dtype=bool)) for ref, keys in act_keys.items()}
    for key in defs:
        stack = blocks.pop(key)
        pairs = (np.zeros(0, dtype=_key_dtype(n)), np.zeros(0, dtype=stamp_dtype))
        while stack:  # newest first, each block released once merged
            block = stack.pop()
            pairs = _merge((block.keys, block.stamps), pairs)
            del block
        relations[key] = (pairs[0], pairs[1].astype(stamp_dtype, copy=False))
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
        _check_valid(g)
        self.gvas = g
        self.bound = bound
        self.grid = Grid(g.dim, bound)
        if not self.grid.contains(source):
            raise OutOfGridError(f"{tuple(source)} outside grid bound {bound}")
        self.source: Config = tuple(source)
        self._max_entries = max_entries
        self._act_memo: dict[tuple, int | None] = {}
        self._offsets = {a: _action_offset(self.grid, a) for a in g.actions}

        self._defs, self._suffix_refs = _binarize(g)

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
    keys = [_known_ref(table.gvas, s) for s in word]
    front = {table.grid.encode(x)}
    for key in keys:
        front = {d for s in front for d in table._row(key, s)[0].tolist()}
        if not front:
            break
    return sorted(table.grid.decode(i) for i in front)
