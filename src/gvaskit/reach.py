"""Bounded reachability: the one engine behind every semantic query.

A pair (x, y) enters the relation of symbol X exactly when some flow
tree for ``x ->X y`` keeps every node configuration inside the grid
``{0..B}^dim``.  One engine, :class:`ReachTable`, computes that least
fixpoint on the source rows demanded of it: every row for
:func:`bounded_reach`, the all-pairs table, and for :func:`reach_from`
the rows that rule applications from one source reach, its cone.  Both
go through one builder, which checks the grammar, grid and source, then
binarizes rules into chains of two-factor joins (:func:`_binarize`) and
runs semi-naive rounds in the array kernel :mod:`gvaskit._kernel`.  The
kernel owns the relations' format, sorted linear keys ``s * n + d`` over
the grid's n cells with a stamp each, and is the engine's one importer
of numpy; a process that builds no engine never loads it.  Every query
answers on the demanded rows, read from the slice of keys a row
occupies, and one about a nonterminal from a row never demanded raises
NotInTableError; no action's pairs are stored, nor those of a view of
the table, which are read through the relation it views.
:class:`ReachCone`, the cone's class, only gives ``witness`` an
attribute of its own, which ``perfbench/tracer.py`` times apart from the
table's.

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
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import DimensionMismatchError, NotInTableError, OutOfGridError, ResourceLimitError
from .flowtree import FlowTree, _solve
from .gvas import Config, Gvas, Transition, _check_word, fatal_defects

if TYPE_CHECKING:
    import numpy as np

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
        import numpy as np

        idx = np.asarray(idx, dtype=np.int64)
        cols = []
        for _ in range(self.dim):
            idx, v = np.divmod(idx, self.bound + 1)
            cols.append(v)
        return np.stack(cols, axis=1) if cols else np.zeros((len(idx), 0), dtype=np.int64)

    def offset(self, a: Sequence[int]) -> int:
        """Index distance an in-grid application of action a moves a cell by."""
        return sum(v * (self.bound + 1) ** i for i, v in enumerate(a))


def _action_target(grid: Grid, a: tuple[int, ...], s: int) -> int | None:
    out = tuple(x + y for x, y in zip(grid.decode(s), a))
    return s + grid.offset(a) if grid.contains(out) else None


def _walked(grid: Grid, word: Iterable[tuple[int, ...]], c: int) -> int | None:
    """The cell the actions of ``word`` take cell c to in turn, or None
    if one leaves the grid."""
    for a in word:
        c = _action_target(grid, a, c)
        if c is None:
            break
    return c


def _symbol_ref(s) -> tuple:
    return ("act", s) if isinstance(s, tuple) else ("sym", s)


def _known_ref(g: Gvas, symbol) -> tuple:
    """The relation key of a symbol of g; UnknownSymbolError for any other."""
    return _symbol_ref(_check_word(g, (symbol,))[0])


def _check_length(g: Gvas, role: str, x: Sequence[int]) -> None:
    """DimensionMismatchError for a configuration x whose length is not g's dimension."""
    if len(x) != g.dim:
        raise DimensionMismatchError(f"{role} {tuple(x)} has length {len(x)}, expected {g.dim}")


def _source_ref(g: Gvas, grid: Grid, symbol, x: Sequence[int]) -> tuple:
    """The relation key of a query about symbol from x: UnknownSymbolError
    for a symbol not of g, then DimensionMismatchError for x of another
    length than g's dimension, then OutOfGridError for x outside the grid."""
    key = _known_ref(g, symbol)
    _check_length(g, "source", x)
    if not grid.contains(x):
        raise OutOfGridError(f"{tuple(x)} outside grid bound {grid.bound}")
    return key


def _pair_ref(g: Gvas, grid: Grid, x: Sequence[int], symbol, y: Sequence[int]) -> tuple:
    """The relation key of a query about symbol from x to y: UnknownSymbolError
    for a symbol not of g, then DimensionMismatchError for x or y of another
    length than g's dimension, then NotInTableError for x or y outside the grid."""
    key = _known_ref(g, symbol)
    _check_length(g, "source", x)
    _check_length(g, "target", y)
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
    subject to the suffix staying feasible.  A row's candidates are
    checked against the suffix in one vectorized lookup
    (:meth:`ReachTable._stamps`).
    """
    grid = engine.grid

    def feasible(ref, a: int) -> bool:
        if ref[0] == "act":
            return _action_target(grid, ref[1], a) == d
        return 0 < engine._stamp_of(ref, a, d) < below

    def least_feasible(ref, cands: np.ndarray) -> int | None:
        """The configuration-least cell of ``cands`` from which ref is feasible."""
        if ref[0] == "act":  # only the cell the action takes to d
            c = _action_target(grid, tuple(-v for v in ref[1]), d)
            return c if c is not None and (cands == c).any() else None
        got = engine._stamps(ref, cands, d)
        ok = cands[(got > 0) & (got < below)].tolist()
        return min(ok, key=grid.decode) if ok else None

    if not rhs:
        return [] if s == d else None
    if len(rhs) == 1:
        return [] if feasible(_symbol_ref(rhs[0]), s) else None
    cells = [s]
    for i, head in enumerate(rhs[:-1]):
        suffix = _suffix_ref(rhs, r, i + 1)
        if isinstance(head, tuple):
            nxt = _action_target(grid, head, cells[-1])
            nxt = nxt if nxt is not None and feasible(suffix, nxt) else None
        else:
            cols, stamps = engine._row(("sym", head), cells[-1])
            nxt = least_feasible(suffix, cols[stamps < below])  # stored stamps are positive
        if nxt is None:
            return None
        cells.append(nxt)
    return cells[1:]


def _witness(engine: ReachTable, x: Sequence[int], symbol, y: Sequence[int]) -> FlowTree:
    """:meth:`ReachTable.witness`: the deterministic flow tree for the pair
    ``x ->symbol y`` of ``engine``, from a demanded source.

    Each node takes the first rule, in declaration order, that
    :func:`_justify` accepts under the node's own stamp.  Built by
    :func:`flowtree._solve`, so chain-shaped witnesses of any depth are fine.
    """
    g, grid = engine.gvas, engine.grid
    key = _pair_ref(g, grid, x, symbol, y)
    s = engine._demanded(key, x, symbol)
    kind, symbol = key
    if kind == "act" and tuple(map(sum, zip(x, symbol))) != tuple(y):
        raise NotInTableError(f"{tuple(y)} is not {tuple(x)} + {symbol}")

    def go(question):
        sym, a, b = question
        label = Transition(grid.decode(a), sym, grid.decode(b))
        if isinstance(sym, tuple):
            return FlowTree(label)
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
        kids = []
        for i, child in enumerate(rhs):
            kids.append((yield child, cells[i], cells[i + 1]))
        return FlowTree(label, tuple(kids))

    # no memo: the questions are fresh tuples, whose ids a later one may reuse
    return _solve(go, (symbol, s, grid.encode(y)))


class ReachTable:
    """The engine: relation key -> (sorted linear keys ``s * n + d``,
    stamps) in ``self._relations``, on the rows ``self._dem[key]``, with
    witness reconstruction.  Immutable once built; safe to share.

    A view of the table (:func:`gvaskit._kernel._plan`), an aux relation
    that is only its factor moved by actions, maps instead to a
    :class:`~gvaskit._kernel._View` and stores no pairs: each of them is
    its factor pair moved, stamped one more, so ``_stamp_of`` and
    ``_stamps`` answer from the factor, and ``_pairs_of`` makes its keys
    and stamps.  Symbols are always stored, and ``_row`` reads only them.
    """

    def __init__(self, g, grid, relations, dem):
        self.gvas: Gvas = g
        self.grid: Grid = grid
        self._relations, self._dem = relations, dem
        # a relation the table keeps no pairs of (a view, not (keys, stamps)) is read through its factor
        self._views = {key: rel for key, rel in relations.items() if not isinstance(rel, tuple)}

    @property
    def bound(self) -> int:
        return self.grid.bound

    def _pairs_of(self, key) -> tuple[np.ndarray, np.ndarray]:
        """Relation ``key``'s sorted linear keys and stamps, a view's made
        from its factor's, of the types the stored ones have."""
        view = self._views.get(key)
        if view is None:
            return self._relations[key]
        return view.pairs(self.grid, None if view.factor is None else self._pairs_of(view.factor))

    def _row(self, key, s: int) -> tuple[np.ndarray, np.ndarray]:
        """Destination cells and stamps of relation ``key``'s pairs from cell
        s, for a stored relation, as every symbol is."""
        keys, stamps = self._relations[key]
        # needles of the keys' own type: any other type converts all of keys per search
        key_type = keys.dtype.type
        first = key_type(s * self.grid.size)
        lo, hi = keys.searchsorted(first), keys.searchsorted(key_type((s + 1) * self.grid.size))
        return keys[lo:hi] - first, stamps[lo:hi]

    def _stamp_of(self, key, s: int, d: int) -> int:
        """Discovery stamp of pair (s, d) in relation ``key``, 0 if absent."""
        view = self._views.get(key)
        if view is not None:  # the factor's pair, one round earlier
            if view.at_source:
                s = _walked(self.grid, view.word, s)
            else:
                d = _walked(self.grid, view.back, d)
            if s is None or d is None:
                return 0
            if view.factor is None:
                return int(s == d)
            got = self._stamp_of(view.factor, s, d)
            return got + 1 if got else 0
        keys, stamps = self._relations[key]
        k = s * self.grid.size + d
        pos = keys.searchsorted(keys.dtype.type(k))
        return int(stamps[pos]) if pos < len(keys) and keys[pos] == k else 0

    def _stamps(self, key, cells: np.ndarray, d: int) -> np.ndarray:
        """Discovery stamps of the pairs (c, d) of relation ``key`` for the
        cells c of ``cells``, 0 where absent, by one vectorized lookup."""
        view = self._views.get(key)
        if view is None:
            keys, stamps = self._relations[key]
            if not len(keys):
                import numpy as np

                return np.zeros(len(cells), dtype=stamps.dtype)
            k = cells.astype(keys.dtype, copy=False) * self.grid.size + d
            pos = keys.searchsorted(k)
            return stamps.take(pos, mode="clip") * (keys.take(pos, mode="clip") == k)
        ok = True
        if view.at_source:  # the factor's pairs from the cells the word takes cells to
            ok, cells = view.moved(self.grid, cells)
        else:  # the factor's pairs to the cell the word takes to d
            d = _walked(self.grid, view.back, d)
            if d is None:  # the word reaches d from no cell
                ok, d = False, 0
        if view.factor is None:
            return ((cells == d) & ok).astype(view.stamp_dtype)
        got = self._stamps(view.factor, cells, d)
        got += got > 0
        return got * ok

    def _demanded(self, key, x: Sequence[int], symbol) -> int:
        """The cell of the in-grid source x of a query about ``symbol``, whose
        relation key is ``key``; NotInTableError if its row was never demanded."""
        s = self.grid.encode(x)
        if key[0] == "sym":
            dem = self._dem[key]
            pos = dem.searchsorted(dem.dtype.type(s))
            if pos == len(dem) or dem[pos] != s:
                raise NotInTableError(f"source {tuple(x)} was never demanded for {symbol!r}")
        return s

    def successors(self, symbol, x: Sequence[int]) -> list[Config]:
        """Destinations from x, in configuration order."""
        key = _source_ref(self.gvas, self.grid, symbol, x)
        s = self._demanded(key, x, symbol)
        if key[0] == "act":
            d = _action_target(self.grid, key[1], s)
            return [self.grid.decode(d)] if d is not None else []
        cols = self._row(key, s)[0]
        return sorted(map(tuple, self.grid.decode_many(cols).tolist()))

    def contains(self, symbol, x: Sequence[int], y: Sequence[int]) -> bool:
        key = _known_ref(self.gvas, symbol)
        if not self.grid.contains(x) or not self.grid.contains(y):
            return False
        s, d = self._demanded(key, x, symbol), self.grid.encode(y)
        if key[0] == "act":
            return _action_target(self.grid, key[1], s) == d
        return self._stamp_of(key, s, d) > 0

    def _keys(self, symbol) -> np.ndarray:
        """The sorted linear keys of symbol's pairs, an action's made when asked."""
        key = _known_ref(self.gvas, symbol)
        if key[0] == "act":
            from ._kernel import _action_keys

            return _action_keys(self.grid, key[1])
        return self._relations[key][0]

    def pairs(self, symbol) -> Iterator[tuple[Config, Config]]:
        rows, cols = self.pairs_arrays(symbol)
        decode = self.grid.decode
        return ((decode(int(s)), decode(int(d))) for s, d in zip(rows, cols))

    def count(self, symbol) -> int:
        return len(self._keys(symbol))

    def pairs_arrays(self, symbol) -> tuple[np.ndarray, np.ndarray]:
        """Source and destination cell indices as parallel arrays, in key
        order (sorted by source, then destination).

        Bulk companion to :meth:`pairs`; decode with ``grid.decode_many``.
        Both arrays have the type of the engine's keys: ``int32`` when
        n(n+1) fits it for an n-cell grid, else ``int64``.
        """
        keys = self._keys(symbol)
        return divmod(keys, keys.dtype.type(self.grid.size))

    def witness(self, x: Sequence[int], symbol, y: Sequence[int]) -> FlowTree:
        """Deterministic valid flow tree with root ``x ->symbol y``."""
        return _witness(self, x, symbol, y)


class ReachCone(ReachTable):
    """The engine :func:`reach_from` builds: ``witness`` is its own attribute
    so that the benchmark's tracer can time cone witnesses apart."""

    witness = ReachTable.witness


def _built(
    cls: type[ReachTable], g: Gvas, bound: int, limit: int, *, max_cells: int | None = None, source=None,
) -> ReachTable:
    """An engine of at most ``limit`` pairs, checks first: without a
    ``source`` the table of at most ``max_cells`` cells, else its cone."""
    grid = Grid(g.dim, bound)
    _check_valid(g)
    n = grid.size
    root = None
    if source is None:
        if n > max_cells:
            raise ResourceLimitError(f"grid has {n} cells, limit {max_cells}")
    else:  # a cone's grid may be far larger than a table's
        if n * (n + 1) >= 1 << 63:
            raise ResourceLimitError(f"grid has {n} cells: a cone's keys s * n + d overflow int64")
        root = (_source_ref(g, grid, g.start, source), grid.encode(source))
    from ._kernel import _collapsed

    return cls(g, grid, *_collapsed(grid, _binarize(g), limit, root))


def bounded_reach(
    g: Gvas,
    bound: int,
    *,
    max_cells: int = DEFAULT_MAX_CELLS,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> ReachTable:
    """Least fixpoint of the grid-bounded reachability relations.

    Deterministic: the output (including witness stamps) depends only on
    the grammar value and the bound.  The kernel's rounds with every row
    demanded (:func:`gvaskit._kernel._collapsed`): memory is O(pairs), one
    row of O(cells) per block's CSR arrays and per relation's demanded rows,
    and a searched relation's band bits, at most one byte per stored pair
    and a guard byte per cell.  A view (:func:`gvaskit._kernel._plan`)
    stores nothing but one round's fresh batch, though ``max_pairs`` still
    counts its pairs.  A product's output arrays hold one chunk
    of about ``_kernel._CHUNK`` flops (more only for a row of more flops)
    and a merge's temporaries one slice of ``_kernel._SLICE`` keys.
    Each relation's blocks are then merged, and released one by one, into
    the keys and stamps kept.
    """
    return _built(ReachTable, g, bound, max_pairs, max_cells=max_cells)


@functools.lru_cache(maxsize=4)
def cached_reach(g: Gvas, bound: int) -> ReachTable:
    """Small table cache for membership-style repeated queries."""
    return bounded_reach(g, bound)


def reach_from(g: Gvas, x, bound: int, max_entries: int = 5_000_000) -> ReachCone:
    """Demand-driven bounded reachability from one configuration: the
    rows that rule applications from x demand, which keeps high-dimensional
    membership queries far below the all-pairs table."""
    return _built(ReachCone, g, bound, max_entries, source=x)


@functools.lru_cache(maxsize=16)
def cached_cone(g: Gvas, x: tuple, bound: int) -> ReachCone:
    return reach_from(g, x, bound)
