"""Bounded reachability: the two engines behind every semantic query.

A pair (x, y) enters the relation of symbol X exactly when some flow
tree for ``x ->X y`` keeps every node configuration inside the grid
``{0..B}^dim``.  Both engines keep a relation over the grid's n cells as
sorted linear keys ``s * n + d`` with a stamp each, binarize rules into
chains of two-factor joins and evaluate the least fixpoint semi-naively,
round by round: a round joins only the pairs the previous round found
(the deltas) with the relations as they stood when the round began.
While the rounds run, each relation is a short list of disjoint blocks
whose sizes shrink geometrically, newest last, as in a log-structured
merge.  A round's candidates are deduplicated and looked up by binary
search in every block, so its membership test and insert cost
O(|delta| log |relation|) rather than O(|relation|).  A relation dense
enough, holding an eighth of the grid's n * n pairs, also keeps a bitmap
over all n * n keys, at most one byte per stored pair: its candidates are
checked by one bit lookup each, and only the new ones sorted.

Both engines run one loop, :func:`_rounds`, which computes a relation
only on the source rows demanded of it.  :class:`ReachCone` demands the
rows that rule applications from one source reach; :func:`bounded_reach`
demands every row of every relation in round 1, so each of its reads is
a delta.  A join with an action shifts keys (:func:`_shifted`), checked
on the digits the action moves.  The engines differ only in the kernel
of a join of two relations: the table multiplies its blocks' CSR arrays
with compiled sparse routines (:func:`_products`, the one function that
loads them, on the table's first product), the cone gathers rows from the
sorted keys themselves and never loads them.  Both answer a query about
a source cell from the slice of keys its row occupies.

Each newly discovered pair is stamped with its discovery round.  Witness
flow trees are reconstructed on demand from the engine's own stamps and
rows, searching per pair for the first justification (rule declaration
order, then lexicographically smallest intermediate configurations)
whose children all carry strictly smaller stamps; strict descent makes
the reconstruction well-founded and deterministic without storing a
derivation per pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import NotInTableError, OutOfGridError, ResourceLimitError
from .flowtree import FlowTree
from .gvas import Config, Gvas, Transition, _check_word, fatal_defects

DEFAULT_MAX_CELLS = 1 << 21
DEFAULT_MAX_PAIRS = 60_000_000


@dataclass(frozen=True)
class Grid:
    """Mixed-radix bijection between {0..bound}^dim and 0..size-1.

    The one check of a bound for both engines: ValueError if it is negative.
    """

    dim: int
    bound: int

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("bound must be non-negative")

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
    return sum(v * (grid.bound + 1) ** i for i, v in enumerate(a))


def _action_target(grid: Grid, a: tuple[int, ...], s: int) -> int | None:
    out = tuple(x + y for x, y in zip(grid.decode(s), a))
    return s + _action_offset(grid, a) if grid.contains(out) else None


def _moved(grid: Grid, a: tuple[int, ...], cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which of ``cells`` action a keeps inside the grid, checked on the
    digits it moves, and the cells it takes them to."""
    ok = np.ones(len(cells), dtype=bool)
    for i, v in enumerate(a):
        if v:
            digit = cells // (grid.bound + 1) ** i % (grid.bound + 1)
            ok &= digit <= grid.bound - v if v > 0 else digit >= -v
    return ok, cells + _action_offset(grid, a)


def _shifted(grid: Grid, keys: np.ndarray, a: tuple[int, ...], at_source: bool = False) -> np.ndarray:
    """Linear keys of the pairs (s, d + a) for the pairs (s, d) of ``keys``
    whose d action a keeps inside the grid, or with ``at_source`` of the
    pairs (s - a, d) whose s - a is in it: the join of the pairs with a,
    or of a with them.  A shift is injective and keeps key order, so
    sorted keys give sorted, distinct keys."""
    n, off = grid.size, _action_offset(grid, a)
    if at_source:
        return keys[_moved(grid, tuple(-v for v in a), keys // n)[0]] - off * n
    return keys[_moved(grid, a, keys % n)[0]] + off


def _key_dtype(n: int) -> type:
    """The integer type of the linear keys ``s * n + d`` of an n-cell grid."""
    return np.int32 if n * (n + 1) <= np.iinfo(np.int32).max else np.int64


def _symbol_ref(s) -> tuple:
    return ("act", s) if isinstance(s, tuple) else ("sym", s)


def _known_ref(g: Gvas, symbol) -> tuple:
    """The relation key of a symbol of g; UnknownSymbolError for any other."""
    return _symbol_ref(_check_word(g, (symbol,))[0])


def _source_ref(g: Gvas, grid: Grid, symbol, x: Sequence[int]) -> tuple:
    """The relation key of a query about symbol from x: UnknownSymbolError
    for a symbol not of g, then OutOfGridError for x outside the grid."""
    key = _known_ref(g, symbol)
    if not grid.contains(x):
        raise OutOfGridError(f"{tuple(x)} outside grid bound {grid.bound}")
    return key


def _pair_ref(g: Gvas, grid: Grid, x: Sequence[int], symbol, y: Sequence[int]) -> tuple:
    """The relation key of a query about symbol from x to y: UnknownSymbolError
    for a symbol not of g, then NotInTableError for x or y outside the grid."""
    key = _known_ref(g, symbol)
    if not grid.contains(x) or not grid.contains(y):
        raise NotInTableError(f"{tuple(x)} or {tuple(y)} outside grid")
    return key


def _check_valid(g: Gvas) -> None:
    """ValueError naming every fatal defect of g, if it has any."""
    bad = fatal_defects(g)
    if bad:
        raise ValueError("invalid GVAS: " + "; ".join(str(d) for d in bad))


def _suffix_ref(rhs, r: int, i: int) -> tuple:
    """The relation key of the suffix from child i >= 1 of rule r, whose
    right-hand side is ``rhs``: a suffix of length one is its symbol."""
    return _symbol_ref(rhs[-1]) if i == len(rhs) - 1 else ("aux", r, i)


def _binarize(g: Gvas) -> dict[tuple, list[tuple]]:
    """Rules as chains of two-factor joins over auxiliary suffix relations.

    Returns each relation key's definitions in rule order, where a
    definition is ``("eps",)``, ``("copy", ref)`` or ``("join", left,
    right)`` and every nonterminal has a (possibly empty) entry; the right
    factor of a join is the key :func:`_suffix_ref` gives.
    """
    defs: dict[tuple, list[tuple]] = {("sym", nt): [] for nt in g.nonterminals}
    for r, (lhs, rhs) in enumerate(g.rules):
        ops = defs[("sym", lhs)]
        if not rhs:
            ops.append(("eps",))
        elif len(rhs) == 1:
            ops.append(("copy", _symbol_ref(rhs[0])))
        else:
            ops.append(("join", _symbol_ref(rhs[0]), _suffix_ref(rhs, r, 1)))
            for i in range(1, len(rhs) - 1):
                defs[("aux", r, i)] = [("join", _symbol_ref(rhs[i]), _suffix_ref(rhs, r, i + 1))]
    return defs


def _justify(engine, r: int, rhs, s: int, d: int, below: int) -> list[int] | None:
    """Intermediate cells for one application of rule r, or None.

    Children must all have stamps in ``engine`` strictly below ``below``;
    picks the lexicographically smallest configuration at each position
    subject to the suffix staying feasible.
    """
    grid = engine.grid

    def feasible(ref, a: int) -> bool:
        if ref[0] == "act":
            return _action_target(grid, ref[1], a) == d
        return 0 < engine._stamp_of(ref, a, d) < below

    if not rhs:
        return [] if s == d else None
    if len(rhs) == 1:
        return [] if feasible(_symbol_ref(rhs[0]), s) else None
    cells = [s]
    for i, head in enumerate(rhs[:-1]):
        suffix = _suffix_ref(rhs, r, i + 1)
        if isinstance(head, tuple):
            nxt = _action_target(grid, head, cells[-1])
            cands = [] if nxt is None else [nxt]
        else:
            row = engine._stamped_row(("sym", head), cells[-1])
            cands = sorted((c for c, v in row if 0 < v < below), key=grid.decode)
        nxt = next((c for c in cands if feasible(suffix, c)), None)
        if nxt is None:
            return None
        cells.append(nxt)
    return cells[1:]


def _witness(engine, x: Sequence[int], symbol, y: Sequence[int]) -> FlowTree:
    """:meth:`ReachTable.witness` and :meth:`ReachCone.witness`: the
    deterministic flow tree for the pair ``x ->symbol y`` of ``engine``.

    Each node takes the first rule, in declaration order, that
    :func:`_justify` accepts under the node's own stamp.  Nodes are
    expanded from an explicit stack in pre-order and assembled bottom-up
    afterwards, so chain-shaped witnesses of any depth are fine.
    """
    g, grid = engine.gvas, engine.grid
    kind, symbol = _pair_ref(g, grid, x, symbol, y)
    if kind == "act" and tuple(map(sum, zip(x, symbol))) != tuple(y):
        raise NotInTableError(f"{tuple(y)} is not {tuple(x)} + {symbol}")
    expanded: list[tuple[Transition, int]] = []  # (label, arity), pre-order
    todo = [(symbol, grid.encode(x), grid.encode(y))]
    while todo:
        sym, a, b = todo.pop()
        label = Transition(grid.decode(a), sym, grid.decode(b))
        if isinstance(sym, tuple):
            expanded.append((label, 0))
            continue
        below = engine._stamp_of(("sym", sym), a, b)
        if below <= 0:
            raise NotInTableError(f"{label.src} ->{sym} {label.dst} not in table")
        for r, rhs in g.rules_for(sym):
            mids = _justify(engine, r, rhs, a, b, below)
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


class _Relations:
    """The queries both engines answer from ``self._relations``: relation
    key -> (sorted linear keys ``s * n + d``, their stamps)."""

    @property
    def bound(self) -> int:
        return self.grid.bound

    def _row(self, key, s: int) -> tuple[np.ndarray, np.ndarray]:
        """Destination cells and stamps of relation ``key``'s pairs from cell s."""
        keys, stamps = self._relations[key]
        first = s * self.grid.size
        # needles of the keys' own type: any other type converts all of keys per search
        lo, hi = keys.searchsorted(np.array((first, first + self.grid.size), dtype=keys.dtype))
        return keys[lo:hi] - keys.dtype.type(first), stamps[lo:hi]

    def _stamp_of(self, key, s: int, d: int) -> int:
        """Discovery stamp of pair (s, d) in relation ``key``, 0 if absent."""
        keys, stamps = self._relations[key]
        k = s * self.grid.size + d
        pos = keys.searchsorted(keys.dtype.type(k))
        return int(stamps[pos]) if pos < len(keys) and keys[pos] == k else 0

    def _stamped_row(self, key, s: int) -> Iterable[tuple[int, int]]:
        """Every (d, stamp) of relation ``key`` from cell s."""
        cols, stamps = self._row(key, s)
        return zip(cols.tolist(), stamps.tolist())

    def _decoded(self, cols: np.ndarray) -> list[Config]:
        """The configurations of cells, sorted."""
        return sorted(map(tuple, self.grid.decode_many(cols).tolist()))


class ReachTable(_Relations):
    """Per-symbol bounded reachability relation with witness reconstruction.

    Immutable once built; safe to share.
    """

    def __init__(self, g, grid, relations):
        self.gvas: Gvas = g
        self.grid: Grid = grid
        # key -> (sorted linear keys s * n + d, their stamps): True for
        # ("act", a), discovery rounds for ("sym", nt) and ("aux", rule, i)
        # as :func:`_collapse` types them
        self._relations = relations

    def contains(self, symbol, x: Sequence[int], y: Sequence[int]) -> bool:
        key = _known_ref(self.gvas, symbol)
        if not self.grid.contains(x) or not self.grid.contains(y):
            return False
        return self._stamp_of(key, self.grid.encode(x), self.grid.encode(y)) > 0

    def successors(self, symbol, x: Sequence[int]) -> list[Config]:
        key = _source_ref(self.gvas, self.grid, symbol, x)
        return self._decoded(self._row(key, self.grid.encode(x))[0])

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

    def witness(self, x: Sequence[int], symbol, y: Sequence[int]) -> FlowTree:
        """Deterministic valid flow tree with root ``x ->symbol y``."""
        return _witness(self, x, symbol, y)


_INT32_TOP = int(np.iinfo(np.int32).max)


def _index_dtype(top: int) -> type:
    """The type of CSR index arrays whose counts and cells reach at most ``top``."""
    return np.int32 if top <= _INT32_TOP else np.int64


def _csr(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The CSR arrays ``(indptr, indices)`` of sorted linear keys on an
    n-cell grid, both of the type :func:`_index_dtype` gives the keys'
    count and n: canonical, with each row's indices sorted and distinct."""
    idx = _index_dtype(max(len(keys), n))
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=keys.dtype) * n).astype(idx)
    indices = np.empty(len(keys), dtype=idx)
    np.remainder(keys, n, out=indices, casting="unsafe")
    return indptr, indices


def _row_keys(csr: tuple[np.ndarray, np.ndarray], n: int) -> np.ndarray:
    """Linear keys ``s * n + d`` of the pairs of an n-by-n CSR matrix."""
    indptr, indices = csr
    keys = np.repeat(np.arange(n, dtype=_key_dtype(n)) * n, np.diff(indptr))
    keys += indices
    return keys


def _col_keys(csr: tuple[np.ndarray, np.ndarray], n: int) -> np.ndarray:
    """Linear keys ``s * n + d`` of the pairs of the transpose of an n-by-n CSR matrix."""
    indptr, indices = csr
    keys = indices.astype(_key_dtype(n))
    keys *= n
    keys += np.repeat(np.arange(n, dtype=keys.dtype), np.diff(indptr))
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
    ``stamps`` their discovery rounds.  :meth:`rows` is the batch as the
    plain CSR arrays ``(indptr, indices)`` of a boolean matrix (:func:`_csr`)
    and :meth:`cols` those of its transpose, each made on the first product
    that reads it and kept: a join of two relations multiplies a left
    delta's rows by the right factor's blocks as rows and a right delta's
    transpose by the left factor's blocks as transposes (:func:`_products`),
    so a product reads only the rows of the other factor that the delta
    hits, and a block nothing multiplies holds no arrays.
    """

    __slots__ = ("keys", "stamps", "_rows", "_cols")

    def __init__(self, keys: np.ndarray, stamps):
        self.keys, self.stamps = keys, stamps
        self._rows = self._cols = None

    def rows(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if self._rows is None:
            self._rows = _csr(self.keys, n)
        return self._rows

    def cols(self, n: int, tocsc) -> tuple[np.ndarray, np.ndarray]:
        """The transpose's CSR arrays, in the type of the rows', made by
        ``tocsc``, the compiled transpose :func:`_products` hands in."""
        if self._cols is None:
            indptr, indices = self._rows if self._rows is not None else _csr(self.keys, n)
            self._cols = (np.empty(n + 1, dtype=indptr.dtype), np.empty(len(indices), dtype=indptr.dtype))
            ones = np.ones(len(indices), dtype=bool)
            tocsc(n, n, indptr, indices, ones, *self._cols, np.empty_like(ones))
        return self._cols


def _products(delta: _Block, factor: list[_Block], n: int, transposed: bool = False) -> list[np.ndarray]:
    """Linear keys ``s * n + d`` of the boolean products of a delta with
    each block of a factor, as the table joins two relations: the delta's
    rows by each block's rows, or ``transposed`` the delta's transpose by
    each block's transpose, keyed back untransposed.  Each product lists a
    pair once, in no particular order.

    scipy's compiled ``csr_matmat_maxnnz`` and ``csr_matmat`` run on the
    blocks' own CSR arrays, so no sparse matrix is built or validated per
    product.  They are imported here, the one use of scipy: it loads on
    the table's first product, and never for the cone or anything else.
    A product's index arrays widen to ``int64`` when its pairs or n pass
    ``int32``.
    """
    from scipy.sparse._sparsetools import csr_matmat, csr_matmat_maxnnz, csr_tocsc

    if transposed:
        a, bs, keys_of = delta.cols(n, csr_tocsc), [b.cols(n, csr_tocsc) for b in factor], _col_keys
    else:
        a, bs, keys_of = delta.rows(n), [b.rows(n) for b in factor], _row_keys
    ones = np.ones(max([len(a[1])] + [len(b[1]) for b in bs]), dtype=bool)  # every entry's value
    out = []
    for b in bs:
        idx = np.result_type(a[0], b[0])  # each block's type already holds n
        nnz = csr_matmat_maxnnz(n, n, *(x.astype(idx, copy=False) for x in (*a, *b)))
        idx = np.result_type(idx, _index_dtype(nnz))
        ap, aj, bp, bj = (x.astype(idx, copy=False) for x in (*a, *b))
        indptr, indices = np.empty(n + 1, dtype=idx), np.empty(nnz, dtype=idx)
        csr_matmat(n, n, ap, aj, ones, bp, bj, ones, indptr, indices, np.empty(nnz, dtype=bool))
        out.append(keys_of((indptr, indices), n))
    return out


def _isin(keys: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Which entries of ``cand`` occur in the sorted array ``keys``."""
    if not len(keys):
        return np.zeros(len(cand), dtype=bool)
    return keys.take(keys.searchsorted(cand), mode="clip") == cand


_BIT = np.left_shift(np.uint8(1), np.arange(8, dtype=np.uint8))  # the mask of bit i of a byte


def _dense(pairs: int, n: int) -> bool:
    """Whether a relation of ``pairs`` pairs on an n-cell grid keeps a
    bitmap: from n * n / 8 pairs on, its n * n bits cost at most one byte
    per pair."""
    return 8 * pairs >= n * n


def _set_bits(bits: np.ndarray, keys: np.ndarray) -> None:
    """Set the bits of sorted, distinct keys, one write per byte they touch."""
    byte = keys >> 3
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(byte[1:], byte[:-1], out=first[1:])
    at = np.flatnonzero(first)
    bits[byte[at]] |= np.bitwise_or.reduceat(_BIT.take(keys & 7), at)


def _bitmap(stack: list[_Block], n: int) -> np.ndarray:
    """The bitmap over an n-cell grid's n * n linear keys of the blocks'
    pairs: bit k of byte i for key 8i + k.  Built through one byte per key,
    at most eight per pair of a relation :func:`_dense` calls dense."""
    marks = np.zeros(n * n, dtype=bool)
    for block in stack:
        marks[block.keys] = True
    return np.packbits(marks, bitorder="little")


def _fresh(parts: list[np.ndarray], stack: list[_Block], bits: np.ndarray | None) -> np.ndarray:
    """The distinct candidates of ``parts`` (emptied to release them) that
    the relation lacks: whose bit in ``bits`` is clear, or without a
    bitmap that no block of ``stack`` holds.  A bitmap drops the pairs
    held before sorting, so only the rest are sorted and deduplicated."""
    if bits is not None:
        for i, c in enumerate(parts):
            parts[i] = c[bits.take(c >> 3) & _BIT.take(c & 7) == 0]
    cand = np.concatenate(parts)
    parts.clear()
    cand.sort()
    cand = _first_of_runs(cand)
    if bits is None:
        for block in stack:
            cand = cand[~_isin(block.keys, cand)]
    return cand


def _absorb(stack: list[_Block], keys: np.ndarray, stamps: np.ndarray):
    """A fresh batch merged with (and popping) each newest block of at most four times its pairs."""
    while stack and len(stack[-1].keys) <= 4 * len(keys):
        keys, stamps = _merge((stack[-1].keys, stack.pop().stamps), (keys, stamps))
    return keys, stamps


def _collapse(stack: list[_Block], n: int, rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """A relation's keys and stamps after ``rounds`` rounds on an n-cell
    grid, merged from its blocks, each released once merged.  The stamps
    take the smallest unsigned type of the last stamped round, rounds - 1:
    the rounds stop after one that found no pair."""
    stamp_dtype = np.min_scalar_type(rounds - 1)
    pairs = (np.zeros(0, dtype=_key_dtype(n)), np.zeros(0, dtype=stamp_dtype))
    while stack:  # newest first
        pairs = _merge((stack[-1].keys, stack.pop().stamps), pairs)
    return pairs[0], pairs[1].astype(stamp_dtype, copy=False)


def _gather(blocks: list[_Block], rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The keys of the blocks' pairs on the given rows, each with the index in ``rows`` of its row."""
    at, got = [], []
    first = rows * n
    for b in blocks:
        lo = b.keys.searchsorted(first)
        cnt = b.keys.searchsorted(first + n) - lo
        total = cnt.sum()
        if total:
            at.append(np.repeat(np.arange(len(rows)), cnt))
            got.append(b.keys[np.arange(total) + (lo + cnt - cnt.cumsum())[at[-1]]])
    return (np.concatenate(at), np.concatenate(got)) if got else (rows[:0].astype(np.intp), rows[:0])


def _rounds(
    grid: Grid, defs: dict[tuple, list[tuple]], limit: int, root: tuple[tuple, int] | None = None,
) -> tuple[dict[tuple, list[_Block]], dict[tuple, np.ndarray], int]:
    """The semi-naive rounds of both engines: each defined relation's
    blocks on its demanded rows, those rows, and the number of rounds run.

    Round 1 demands the row ``root = (key, cell)``, or without a root
    every row of every relation.  A target's rows demand its copies and
    left factors there, a right factor past a left action there moved by
    the action, and any other right factor wherever the left one leads.
    Round r reads, for each copy or left factor x of a target, the pairs
    of x newly visible to it: all of x on the target's new rows and x's
    fresh pairs of round r - 1 on its older rows.  A copy takes them, a
    join with an action shifts them (:func:`_shifted`), and a join of two
    relations joins them with the right factor, and the right factor's
    fresh pairs with the left factor on the older rows.  Without a root
    only round 1 has new rows, so every later read is a delta.

    The kernel of a join of two relations follows ``root``.  The table
    multiplies its blocks' CSR arrays (:func:`_products`): a left delta's
    rows by the right factor's blocks, a right delta's transpose by the
    left factor's.  The cone gathers rows from sorted keys, the left
    factor's through a copy of its blocks in transposed keys ``d * n + s``.
    A product lists a pair once per row, a gather once per path to it:
    with every row demanded, gathers made the table of core(1)@20 take 2.8
    times the time and 3 times the memory, and that of exchange@40 7.7
    times the time.

    Candidates are deduplicated and searched for in the target's blocks;
    those in none are its fresh pairs, stamped r.  A relation defined by
    one join with an action alone skips the search: it holds its factor's
    shift as the factor stood a round earlier, and a shift is injective,
    so its candidates are new.  Any other relation that ends a round with
    n * n / 8 pairs or more (:func:`_dense`) takes a bitmap over the
    n * n keys, built once from its blocks and updated from each fresh
    batch, so it costs at most one byte per stored pair.  Its candidates
    are then checked by one bit lookup each before the sort, and its
    blocks are no longer searched; the fresh pairs are the same.  Nothing
    grows before the round ends, so stamps are exactly round numbers.  A
    fresh batch becomes the newest block after absorbing each newest block
    of at most four times its pairs: N pairs take O(log N) blocks, each
    copied O(log N) times.
    ResourceLimitError once the relations hold more than ``limit`` pairs.
    """
    n, key_dtype = grid.size, _key_dtype(grid.size)
    dem = {k: np.zeros(0, dtype=key_dtype) for k in defs}
    blocks: dict[tuple, list[_Block]] = {k: [] for k in defs}
    # the relations defined by one join with an action alone
    shifts = {k for k, ops in defs.items() if len(ops) == 1 and ops[0][0] == "join"
              and "act" in (ops[0][1][0], ops[0][2][0])}
    # the cone's left factors of joins of two relations, as blocks of keys d * n + s
    flipped = {op[1]: [] for ops in defs.values() for op in ops
               if root and op[0] == "join" and "act" not in (op[1][0], op[2][0])}
    # demand that needs no pair: a copy or left factor on its target's rows, a right factor past a left action
    static = {k: [(op[1], None) if op[1][0] != "act" else (op[2], op[1][1])
                  for op in ops if op[0] != "eps" and not op[1][0] == op[-1][0] == "act"] for k, ops in defs.items()}
    wants = ({k: [np.arange(n, dtype=key_dtype)] for k in defs} if root is None
             else {root[0]: [np.array([root[1]], dtype=key_dtype)]})
    fresh: dict[tuple, _Block] = {}
    bits: dict[tuple, np.ndarray] = {}  # the searched relations dense enough for a bitmap
    round_no = entries = 0

    def older(key, keys: np.ndarray) -> np.ndarray:
        """The pairs of ``keys`` on the rows key demanded before this round."""
        return keys if len(dem[key]) == n else keys[_isin(dem[key], keys // n)]

    def visible(key, x, rows) -> np.ndarray:
        """Keys of x's pairs newly visible to key: all of x on key's new rows, its fresh pairs on the older ones."""
        if x[0] == "act":  # only on new rows: an action has no fresh pairs
            return _shifted(grid, rows * (n + 1), x[1])
        parts = [_gather(blocks[x], rows, n)[1]] if len(rows) else []
        if x in fresh:
            parts.append(older(key, fresh[x].keys))
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def add(key, cand: np.ndarray) -> None:
        if len(cand):
            cands.setdefault(key, []).append(cand)

    while True:
        new_rows: dict[tuple, np.ndarray] = {}
        while wants:  # each part sorted and distinct
            key = next(iter(wants))
            parts = wants.pop(key)
            want = parts[0] if len(parts) == 1 else _first_of_runs(np.sort(np.concatenate(parts)))
            want = want[~(_isin(dem[key], want) | _isin(new_rows.get(key, want[:0]), want))]
            if len(want):
                new_rows[key] = np.sort(np.concatenate((new_rows[key], want))) if key in new_rows else want
                for x, a in static[key]:
                    ok, m = _moved(grid, a, want) if a else (slice(None), want)
                    wants.setdefault(x, []).append(m[ok])
        if not new_rows and not fresh:
            break
        round_no += 1
        cands, wants = {}, {}
        for key, ops in defs.items():
            rows = new_rows.get(key, dem[key][:0])
            for op in ops if len(rows) or len(dem[key]) else ():
                if op[0] == "eps":
                    add(key, rows * (n + 1))
                    continue
                x, r = op[1], op[-1]
                if len(rows) or x in fresh:
                    vis = visible(key, x, rows)
                    if op[0] == "copy":
                        add(key, vis)
                    elif r[0] == "act":
                        add(key, _shifted(grid, vis, r[1]))
                    elif root is None:  # vis is x's delta from round 2 on, and r is empty in round 1
                        for keys in _products(fresh[x], blocks[r], n) if x in fresh else ():
                            add(key, keys)
                    elif len(vis):  # demand r at m and read it there, m ascending for the searches
                        m, s = np.divmod(np.sort(vis % n * n + vis // n), n)
                        if x[0] != "act":
                            wants.setdefault(r, []).append(_first_of_runs(m))
                        at, got = _gather(blocks[r], m, n)
                        add(key, s[at] * n + got % n)
                if op[0] == "join" and r in fresh:  # x's pairs into r's fresh pairs, on key's older rows
                    if x[0] == "act":
                        got = [_shifted(grid, fresh[r].keys, x[1], at_source=True)]
                    elif root is None:
                        got = _products(fresh[r], blocks[x], n, transposed=True)
                    else:
                        m, d = np.divmod(fresh[r].keys, n)
                        at, s = _gather(flipped[x], m, n)
                        got = [s % n * n + d[at]]
                    for keys in got:
                        add(key, older(key, keys))
        for key, rows in new_rows.items():
            dem[key] = np.sort(np.concatenate((dem[key], rows)), kind="stable")
        # every candidate of the round is taken: only now may the relations grow
        fresh = {}
        for key, parts in cands.items():
            # new and distinct by construction; a stable sort merges the sorted runs of the cone's parts
            cand = (np.sort(np.concatenate(parts), kind="stable") if key in shifts
                    else _fresh(parts, blocks[key], bits.get(key)))
            if len(cand):
                entries += len(cand)
                stamps = np.full(len(cand), round_no, dtype=np.min_scalar_type(round_no))
                fresh[key] = block = _Block(cand, stamps)
                if key in flipped:
                    t = np.sort(cand % n * n + cand // n)
                    flipped[key].append(_Block(*_absorb(flipped[key], t, stamps)))
                keys, stamps = _absorb(blocks[key], cand, stamps)
                blocks[key].append(block if len(keys) == len(cand) else _Block(keys, stamps))
                if key in bits:
                    _set_bits(bits[key], cand)
                elif key not in shifts and _dense(sum(len(b.keys) for b in blocks[key]), n):
                    bits[key] = _bitmap(blocks[key], n)
        if entries > limit:
            raise ResourceLimitError(f"relation store reached {entries} pairs, limit {limit}" if root is None
                                     else f"reachability cone exceeded {limit} entries")
    return blocks, dem, round_no


def bounded_reach(
    g: Gvas,
    bound: int,
    *,
    max_cells: int = DEFAULT_MAX_CELLS,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> ReachTable:
    """Least fixpoint of the grid-bounded reachability relations.

    Deterministic: the output (including witness stamps) depends only on
    the grammar value and the bound.  :func:`_rounds` with every row
    demanded: memory is O(pairs) plus one index row of O(cells) per block's
    CSR arrays and at most one byte per pair of a dense relation's bitmap,
    and no state is cells by cells.  Each relation's blocks are
    then merged, and released one by one, into the keys and stamps kept.
    """
    grid = Grid(g.dim, bound)
    _check_valid(g)
    if grid.size > max_cells:
        raise ResourceLimitError(f"grid has {grid.size} cells, limit {max_cells}")

    defs = _binarize(g)
    blocks, _, rounds = _rounds(grid, defs, max_pairs)
    loops = np.arange(grid.size, dtype=_key_dtype(grid.size)) * (grid.size + 1)  # the pairs (s, s)
    acts = {("act", a): _shifted(grid, loops, a) for a in g.actions}
    relations = {ref: (keys, np.ones(len(keys), dtype=bool)) for ref, keys in acts.items()}
    for key in defs:
        relations[key] = _collapse(blocks.pop(key), grid.size, rounds)
    return ReachTable(g, grid, relations)


@functools.lru_cache(maxsize=4)
def cached_reach(g: Gvas, bound: int) -> ReachTable:
    """Small table cache for membership-style repeated queries."""
    return bounded_reach(g, bound)


class ReachCone(_Relations):
    """Single-source slice of the bounded reachability relation.

    :func:`_rounds` from the cone's source computes a relation only on the
    source rows that rule applications from it demand, which keeps
    high-dimensional membership queries far below the all-pairs table.
    """

    def __init__(self, g: Gvas, source, bound: int, max_entries: int = 5_000_000):
        self.gvas, self.grid = g, Grid(g.dim, bound)
        _check_valid(g)
        n = self.grid.size
        if n * (n + 1) > np.iinfo(np.int64).max:
            raise ResourceLimitError(f"grid has {n} cells: a cone's keys s * n + d overflow int64")
        if not self.grid.contains(source):
            raise OutOfGridError(f"{tuple(source)} outside grid bound {bound}")
        self.source: Config = tuple(source)
        defs = _binarize(g)
        root = (("sym", g.start), self.grid.encode(self.source))
        blocks, self._dem, rounds = _rounds(self.grid, defs, max_entries, root)  # key -> demanded rows
        # key -> (sorted keys s * n + d on demanded rows, stamps)
        self._relations = {k: _collapse(blocks.pop(k), n, rounds) for k in defs}

    def successors(self, symbol, x: Sequence[int]) -> list[Config]:
        """Destinations from a demanded source (the cone's own source is
        always demanded for the start symbol)."""
        key = _source_ref(self.gvas, self.grid, symbol, x)
        s = self.grid.encode(x)
        if key[0] == "act":
            d = _action_target(self.grid, key[1], s)
            return [self.grid.decode(d)] if d is not None else []
        if not _isin(self._dem[key], np.array([s], dtype=self._dem[key].dtype))[0]:
            raise NotInTableError(f"source {tuple(x)} was never demanded for {symbol!r}")
        return self._decoded(self._row(key, s)[0])

    def witness(self, x: Sequence[int], symbol, y: Sequence[int]) -> FlowTree:
        """Deterministic valid flow tree with root ``x ->symbol y``."""
        return _witness(self, x, symbol, y)


def reach_from(g: Gvas, x, bound: int, max_entries: int = 5_000_000) -> ReachCone:
    """Demand-driven bounded reachability from one configuration."""
    return ReachCone(g, tuple(x), bound, max_entries)


@functools.lru_cache(maxsize=16)
def cached_cone(g: Gvas, x: tuple, bound: int) -> ReachCone:
    return ReachCone(g, x, bound)

