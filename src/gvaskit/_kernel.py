"""The array kernel of both reachability engines: the one module that
owns their relations' array format, and the one that imports numpy for
them.  :mod:`gvaskit.reach` imports it only when an engine is built.

A relation over an n-cell grid is a pair of arrays: its pairs (s, d) as
sorted linear keys ``s * n + d``, of the type :func:`_key_dtype` gives n,
and a stamp each.  Both engines binarize rules into chains of two-factor
joins and evaluate the least fixpoint semi-naively in one loop,
:func:`_rounds`: a round joins only the pairs the previous round found
(the deltas) with the relations as they stood when the round began, and
computes a relation only on the source rows demanded of it.  Both keep
what :func:`_collapsed` returns, the relations and those rows:
:class:`~gvaskit.reach.ReachCone` demands the rows that rule applications
from one source reach; :func:`~gvaskit.reach.bounded_reach` demands every
row of every relation in round 1, so each of its reads is a delta.

While the rounds run, each relation is a short list of disjoint blocks
(:class:`_Block`) whose sizes shrink geometrically, newest last, as in a
log-structured merge.  Membership has one rule for every relation that
is searched, that is, every relation neither defined by one join with an
action nor chained or derived (see below): :class:`_Band`.  While its pairs pay for
it, at most one byte per stored pair, a relation keeps a bitmap over a
band of offsets ``[lo, lo + W)``: row s holds the pair (s, d) at bit
d - s - lo.  A band that reaches a grid row is the widest, and its bits
are the n * n keys themselves.  The core grammars' pairs lie in bands
far narrower than a row, which their pairs pay for once the span stops
growing as fast as they do; small grids reach the key layout.
Candidates are then checked by one bit lookup each, one outside the
band being new, so only the new ones are sorted.  A relation without
bits sorts and deduplicates its candidates and looks them up by binary
search in every block, so its membership test and insert cost
O(|delta| log |relation|) rather than O(|relation|).  A join with an
action shifts keys (:func:`_shifted`), checked on the digits the action
moves; no action's pairs are stored.  The engines differ only in the
kernel of a join of two relations: the table multiplies its blocks' CSR
arrays with scipy's compiled ``csr_matmat`` (:func:`_products`, the one
function that loads scipy, on the table's first product), the cone
gathers rows from the sorted keys themselves and never loads it.  A
product makes one pass per chunk of about :data:`_CHUNK` flops, its
output sized from them.  When the rounds stop, each relation's blocks
are merged into the keys and stamps the engine keeps
(:func:`_collapsed`).  Every merge, of a fresh batch with the blocks it
absorbs or of the blocks at the end, orders a slice of at most
:data:`_SLICE` keys at a time (:func:`_merge`), so neither a product nor
a merge holds a temporary the size of a relation.

The table derives a relation K2 with no product of its own when its one
definition is ``L ; A``, A's is ``Y ; a`` with a an action, and another
relation K1 has the one definition ``L ; Y`` (:func:`_derived`): K2 is
K1 shifted by a, and each of its pairs takes the stamp of its K1 pair or
one more.  K1's left delta is multiplied by Y without Y's fresh batch,
whose entries enter the product with the value False (the ``without``
of :func:`_products`), so the K1 pairs that product finds are the ones
whose shift K2 stamps in the same round; it stamps the shifts of K1's
other pairs a round later.  Stamps are those K2's own products would
give: K2's stamp is ``1 + min_m max(L(s, m), Y(m, d) + 1)`` and K1's
``1 + min_m max(L(s, m), Y(m, d))``.  K1 is one the table multiplies:
a chained relation (below) finds its pairs without the products that
split them for K2.

The table also keeps no pairs of a view (:func:`_plan`): an aux
relation that no product reads and whose one definition moves one
relation X by actions, ``X ; a`` or ``a ; X``, or is ``a ; b``, the
identity moved.  A relation whose one definition is ``X ; Z``, with Z's
one definition ``a ; b``, is chained (:func:`_chained`): the table
shifts X's delta by a and then by b rather than multiply it by Z, so it
is X moved too.  A view's fresh batch is made every round, as its
readers, which shift it, take it as a delta, and then dropped: it never
reaches :func:`_absorb` or :func:`_merge`.  In the table a view holds
exactly X's pairs moved, each stamped one more than its X pair, the
identity's counting as 0, so the table keeps a :class:`_View` of it and
answers every query about it from X's stamps.  Only the table
has views.  The cone computes a
relation on the rows demanded of it, so a view's row can be demanded
after its factor's, and its stamps are then not X's plus one.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ResourceLimitError

if TYPE_CHECKING:
    from .reach import Grid


def _moved(grid: Grid, a: tuple[int, ...], cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which of ``cells`` action a keeps inside the grid, checked on the
    digits it moves, and the cells it takes them to."""
    ok = np.ones(len(cells), dtype=bool)
    for i, v in enumerate(a):
        if v:
            digit = cells // (grid.bound + 1) ** i % (grid.bound + 1)
            ok &= digit <= grid.bound - v if v > 0 else digit >= -v
    return ok, cells + grid.offset(a)


def _shifted(grid: Grid, keys: np.ndarray, a: tuple[int, ...], at_source: bool = False) -> np.ndarray:
    """Linear keys of the pairs (s, d + a) for the pairs (s, d) of ``keys``
    whose d action a keeps inside the grid, or with ``at_source`` of the
    pairs (s - a, d) whose s - a is in it: the join of the pairs with a,
    or of a with them.  A shift is injective and keeps key order, so
    sorted keys give sorted, distinct keys."""
    n, off = grid.size, grid.offset(a)
    if at_source:
        return keys[_moved(grid, tuple(-v for v in a), keys // n)[0]] - off * n
    return keys[_moved(grid, a, keys % n)[0]] + off


def _walk(grid: Grid, word: tuple[tuple[int, ...], ...], cells: np.ndarray) -> np.ndarray:
    """Which of ``cells`` the actions of ``word``, applied in turn, keep
    inside the grid at every step."""
    ok = np.ones(len(cells), dtype=bool)
    for a in word:
        step, cells = _moved(grid, a, cells)
        ok &= step
    return ok


def _key_dtype(n: int) -> type:
    """The integer type of the linear keys ``s * n + d`` of an n-cell grid."""
    return np.int32 if n * (n + 1) <= np.iinfo(np.int32).max else np.int64


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


def _row_keys(indptr: np.ndarray, indices: np.ndarray, n: int, first: int = 0) -> np.ndarray:
    """Linear keys ``s * n + d`` of the pairs of the CSR rows ``first``,
    ``first + 1``, ... of an n-by-n matrix, whose ``indices`` may run past
    the last row's."""
    keys = np.repeat(np.arange(first, first + len(indptr) - 1, dtype=_key_dtype(n)) * n, np.diff(indptr))
    keys += indices[:len(keys)]
    return keys


def _col_keys(indptr: np.ndarray, indices: np.ndarray, n: int, first: int = 0) -> np.ndarray:
    """Linear keys ``s * n + d`` of the pairs of the transpose of the CSR
    rows ``first``, ``first + 1``, ... of an n-by-n matrix, whose
    ``indices`` may run past the last row's."""
    keys = indices[:indptr[-1]].astype(_key_dtype(n))
    keys *= n
    keys += np.repeat(np.arange(first, first + len(indptr) - 1, dtype=keys.dtype), np.diff(indptr))
    return keys


_SLICE = 1 << 16  # keys per slice of a merge, bit lookup or update, which bounds its temporaries


def _merge(older: tuple[np.ndarray, np.ndarray], newer: tuple[np.ndarray, np.ndarray]):
    """The union of two disjoint sets of pairs, each sorted linear keys
    with their stamps, a slice of at most :data:`_SLICE` keys at a time.

    Past ``_SLICE`` keys in all, both runs are cut at the same pivots,
    every ``_SLICE // 2``-th key of each, so a slice holds at most that
    many keys of either run.  One stable argsort orders a slice's keys,
    which timsort does in linear time, as the keys are two sorted runs,
    and its keys and stamps are taken into the preallocated union:
    besides the union, a merge holds one slice's keys, stamps and order,
    in buffers every slice reuses, which kept the cones of the
    cone-membership benchmark 4 MB lower in peak RSS than fresh ones per
    slice."""
    (a, sa), (b, sb) = older, newer
    ca, cb = [0, len(a)], [0, len(b)]
    if len(a) + len(b) > _SLICE:
        half = _SLICE // 2
        pivots = np.sort(np.concatenate((a[half::half], b[half::half])))
        ca[1:1], cb[1:1] = a.searchsorted(pivots).tolist(), b.searchsorted(pivots).tolist()
    keys = np.empty(len(a) + len(b), dtype=np.result_type(a, b))
    stamps = np.empty(len(keys), dtype=np.result_type(sa, sb))
    most = max(x1 - x0 + y1 - y0 for x0, x1, y0, y1 in zip(ca, ca[1:], cb, cb[1:]))
    part, part_stamps = np.empty(most, dtype=keys.dtype), np.empty(most, dtype=stamps.dtype)  # one slice's
    for a0, a1, b0, b1 in zip(ca, ca[1:], cb, cb[1:]):
        at, m = slice(a0 + b0, a1 + b1), a1 - a0 + b1 - b0
        order = np.concatenate((a[a0:a1], b[b0:b1]), out=part[:m]).argsort(kind="stable")
        np.take(part[:m], order, out=keys[at], mode="clip")
        np.take(np.concatenate((sa[a0:a1], sb[b0:b1]), out=part_stamps[:m]), order, out=stamps[at], mode="clip")
    return keys, stamps


def _first_of_runs(keys: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array."""
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _transpose(keys: np.ndarray, n: int) -> np.ndarray:
    """The sorted linear keys ``d * n + s`` of the pairs (s, d) of linear
    keys on an n-cell grid, of the keys' type."""
    t = keys % n
    t *= n
    t += keys // n
    t.sort()
    return t


class _Block:
    """One batch of a relation's pairs, disjoint from its other batches.

    ``keys`` holds the linear keys ``s * n + d`` in ascending order and
    ``stamps`` their discovery rounds.  Each other form is made on its
    first read and kept: the cone gathers a left factor's pairs from its
    blocks' :meth:`transposed` keys ``d * n + s``, and the table multiplies
    (:func:`_products`) the CSR arrays of :meth:`rows` or, made from
    transposed keys it does not keep, of the transpose's :meth:`cols`.
    """

    __slots__ = ("keys", "stamps", "_transposed", "_rows", "_cols")

    def __init__(self, keys: np.ndarray, stamps):
        self.keys, self.stamps = keys, stamps
        self._transposed = self._rows = self._cols = None

    def transposed(self, n: int) -> np.ndarray:
        if self._transposed is None:
            self._transposed = _transpose(self.keys, n)
        return self._transposed

    def rows(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if self._rows is None:
            self._rows = _csr(self.keys, n)
        return self._rows

    def cols(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if self._cols is None:
            self._cols = _csr(_transpose(self.keys, n), n)
        return self._cols


_CHUNK = 1 << 20  # flops per compiled product call, which bounds its output arrays


def _chunks(ap: np.ndarray, aj: np.ndarray, bp: np.ndarray) -> tuple[list[int], int]:
    """The row cuts of a CSR matrix's product with another, whose indptr is
    ``bp``, into chunks, as :func:`_products` describes, and the largest
    chunk's flops: the pairs its rows reach through the other's rows."""
    work = np.diff(bp)[aj]
    total = int(work.sum())
    if total <= _CHUNK:
        return ([0, len(ap) - 1] if total else []), total
    before = np.zeros(len(aj) + 1, dtype=np.int64)
    np.cumsum(work, out=before[1:])
    before = before[ap]  # the flops of the rows before each row, and of all of them
    cuts = np.unique(np.append(before.searchsorted(np.arange(0, total, _CHUNK), side="right") - 1, len(ap) - 1))
    return cuts.tolist(), int(np.diff(before[cuts]).max())


def _products(
    delta: _Block, factor: list[_Block], n: int, transposed: bool = False, without: int | None = None,
) -> Iterator[np.ndarray]:
    """Linear keys ``s * n + d`` of the boolean products of a delta with
    each block of a factor, as the table joins two relations: the delta's
    rows by each block's rows, or ``transposed`` the delta's transpose by
    each block's transpose, keyed back untransposed.  Each product comes
    in chunks of consecutive rows of the delta, each listing a pair once,
    in no particular order, and block by block in the factor's order.
    Untransposed, the factor's pairs stamped ``without``, all in its newest
    block, are left out: they enter the product with the value False, and
    a pair whose every path holds one sums to False, which the product
    drops.

    scipy's compiled ``csr_matmat`` runs on the blocks' own CSR arrays, so
    no sparse matrix is built or validated per product.  It is imported
    here, the one use of scipy: it loads on the table's first product, and
    never for the cone or anything else.  A product's flops, the pairs its
    rows reach through the block, bound its pairs, so its output arrays
    are sized from them, with no symbolic pass.  Its rows are cut at the
    last row boundary at or below each multiple of :data:`_CHUNK` flops,
    one call per chunk, so a call's output arrays hold less than
    ``_CHUNK`` flops plus one row's; a product of at most ``_CHUNK``
    flops is one call.  A product's index arrays widen to ``int64``
    when its largest chunk's flops or n pass ``int32``.
    """
    from scipy.sparse._sparsetools import csr_matmat

    if transposed:
        (ap, aj), bs, keys_of = delta.cols(n), [b.cols(n) for b in factor], _col_keys
    else:
        (ap, aj), bs, keys_of = delta.rows(n), [b.rows(n) for b in factor], _row_keys
    ones = np.ones(max([len(aj)] + [len(bj) for _, bj in bs]), dtype=bool)  # every entry's value
    for i, (bp, bj) in enumerate(bs):
        cuts, most = _chunks(ap, aj, bp)
        idx = np.result_type(ap, bp, _index_dtype(most))  # each block's type already holds n
        a_p, a_j, b_p, b_j = (x.astype(idx, copy=False) for x in (ap, aj, bp, bj))
        b_x = factor[i].stamps != without if without is not None and i == len(bs) - 1 else ones
        indptr, indices, data = np.empty(n + 1, dtype=idx), np.empty(most, dtype=idx), np.empty(most, dtype=bool)
        for lo, hi in zip(cuts, cuts[1:]):
            csr_matmat(hi - lo, n, a_p[lo:hi + 1], a_j, ones, b_p, b_j, b_x, indptr[:hi - lo + 1], indices, data)
            yield keys_of(indptr[:hi - lo + 1], indices, n, lo)


def _isin(keys: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Which entries of ``cand`` occur in the sorted array ``keys``."""
    if not len(keys):
        return np.zeros(len(cand), dtype=bool)
    return keys.take(keys.searchsorted(cand), mode="clip") == cand


_BIT = np.left_shift(np.uint8(1), np.arange(8, dtype=np.uint8))  # the mask of bit i of a byte


def _set_bits(bits: np.ndarray, idx: np.ndarray) -> None:
    """Set the bits of the given indices, bit k of byte i for index 8i + k."""
    np.bitwise_or.at(bits, idx >> 3, _BIT.take(idx & 7))


class _Band:
    """The membership bits of one searched relation's pairs (s, d), over a
    band of their offsets d - s, while its pairs pay for them.

    A band of offsets ``[base, base + width)``, both multiples of 8, keeps
    n rows of width + 8 bits in a flat uint8 array: row s holds offset
    ``base + j`` at bit index ``s * (width + 8) + j`` and ends in a guard
    byte that stays clear, so a pair outside the band, its offset clamped
    into that byte, reads as absent.  A band whose row with its guard byte
    would reach a grid row is the widest, ``width`` n: its bits are the
    grid's n * n linear keys ``s * n + d`` themselves, and cover every
    pair.

    One density rule picks the layout on every fresh batch (:meth:`add`):
    bits over ``width`` offsets cost at most one byte per stored pair,
    besides the guard bytes, so a relation keeps them only while
    ``n * width <= 8 * pairs``.  Once its pairs pay for the narrowest band
    it tracks the span ``[lo, hi]`` of its offsets, and it needs the key
    layout once its pairs pay for that, which needs no span and has the
    cheapest lookup; otherwise the band it has while that covers the span,
    or else one centred on the span with the slack its pairs pay for, up
    to a quarter of the span on each side, or the key layout if that band
    would reach a grid row.  While its pairs do not pay for the layout it
    needs it keeps no bits, and its candidates are searched for in its
    blocks.  A new band copies the bytes it shares with the old one, made
    from the blocks when there is none or it takes the key layout.
    """

    __slots__ = ("pairs", "lo", "hi", "base", "width", "bits")

    def __init__(self):
        self.pairs, self.lo, self.hi, self.base, self.width = 0, None, None, 0, 0
        self.bits: np.ndarray | None = None

    def _offsets(self, keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The sources s of the pairs of ``keys`` and their offsets d - s - base."""
        s = keys // n
        u = s * (n + 1)
        u += self.base
        np.subtract(keys, u, out=u)
        return s, u

    def _index(self, s: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The bit indices, built in ``s``, of the pairs with sources ``s``
        and offsets ``u`` from the base; an offset outside the band goes to
        its row's guard byte."""
        w = u.view(f"u{u.itemsize}")  # below the band wraps to above it
        np.minimum(w, self.width, out=w)
        s *= self.width + 8
        s += u
        return s

    def absent(self, keys: np.ndarray, n: int) -> np.ndarray:
        """The pairs of ``keys`` the relation lacks, by one bit lookup each,
        a slice of keys at a time."""
        if len(keys) > _SLICE:
            return np.concatenate([self.absent(keys[i:i + _SLICE], n) for i in range(0, len(keys), _SLICE)])
        idx = keys if self.width == n else self._index(*self._offsets(keys, n))
        return keys[self.bits.take(idx >> 3) & _BIT.take(idx & 7) == 0]

    def _needed(self, n: int, paid: int) -> tuple[int, int]:
        """The base and width of the layout the relation needs when its pairs
        pay for ``paid`` offsets, as the class describes: (0, n) for the key
        layout."""
        if paid >= n:
            return 0, n
        if self.base <= self.lo and self.hi < self.base + self.width:
            return self.base, self.width
        span = self.hi - self.lo + 1
        slack = max(0, min(span // 4, (paid - span - 14) // 2))  # rounding to bytes adds up to 14
        base = (self.lo - slack) & -8
        width = (self.hi + slack - base) // 8 * 8 + 8
        return (0, n) if width + 8 >= n else (base, width)

    def _set(self, keys: np.ndarray, n: int) -> None:
        """Set the bits of the pairs of ``keys``, which the layout covers, a
        slice of keys at a time."""
        for i in range(0, len(keys), _SLICE):
            part = keys[i:i + _SLICE]
            _set_bits(self.bits, part if self.width == n else self._index(*self._offsets(part, n)))

    def add(self, keys: np.ndarray, stack: list[_Block], n: int) -> None:
        """Count the relation's fresh pairs ``keys``, already in its blocks
        ``stack``, and take the layout the density rule gives: set the fresh
        bits in the one held, make the bits of a new one, or drop them."""
        self.pairs += len(keys)
        if self.width == n:  # the key layout is final: it holds any pair, and the pairs only grow
            self._set(keys, n)
            return
        paid = 8 * self.pairs // n  # the widest band the pairs pay for
        if paid < 8:  # not the narrowest band: the span is taken from the blocks once it is paid for
            return
        if self.lo is None:
            spans = [(int(u.min()), int(u.max())) for u in (self._offsets(b.keys, n)[1] for b in stack)]
            self.lo, self.hi = min(lo for lo, _ in spans), max(hi for _, hi in spans)  # the base is 0
        elif self._needed(n, paid)[1] < n:  # once the span needs a grid row, it needs no more tracking
            s, u = self._offsets(keys, n)
            self.lo, self.hi = min(self.lo, int(u.min()) + self.base), max(self.hi, int(u.max()) + self.base)
        base, width = self._needed(n, paid)
        if paid < width:
            self.bits, self.width = None, 0
            return
        if (base, width) != (self.base, self.width):
            bits, was, wide = self.bits, self.base, self.width
            self.base, self.width = base, width
            self.bits = np.zeros(-(-n * n // 8) if width == n else n * (width // 8 + 1), dtype=np.uint8)
            if bits is None or width == n:  # made from the blocks, which hold the fresh pairs
                for block in stack:
                    self._set(block.keys, n)
                return
            # the bytes the old band shares with the new one hold every pair: the old span lies in both
            first, last = max(was, base), min(was + wide, base + width)
            self.bits.reshape(n, -1)[:, (first - base) // 8:(last - base) // 8] = \
                bits.reshape(n, -1)[:, (first - was) // 8:(last - was) // 8]
            u += was - base
        _set_bits(self.bits, self._index(s, u))  # a band: the span, and so s and u, were tracked above


def _fresh(parts: list[np.ndarray], stack: list[_Block]) -> np.ndarray:
    """The distinct candidates of ``parts`` (emptied to release them) that
    no block of ``stack`` holds."""
    cand = np.concatenate(parts)
    parts.clear()
    cand.sort()
    cand = _first_of_runs(cand)
    for block in stack:
        cand = cand[~_isin(block.keys, cand)]
    return cand


def _fresh_split(parts: list[np.ndarray], first: int, stack: list[_Block]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_fresh` of ``parts``, split in two: the fresh pairs among the
    first ``first`` parts, and the others."""
    head = parts[:first]
    del parts[:first]
    none = np.zeros(0, dtype=(head or parts)[0].dtype)
    head = _fresh(head, stack) if head else none
    tail = _fresh(parts, stack) if parts else none
    return head, tail[~_isin(head, tail)]


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sorted union of two disjoint sorted arrays: one stable sort,
    which timsort does in linear time, as the keys are two sorted runs."""
    return np.sort(np.concatenate((a, b)), kind="stable")


def _absorb(stack: list[_Block], keys: np.ndarray, stamps: np.ndarray):
    """A fresh batch merged with (and popping) each newest block of at most four times its pairs."""
    while stack and len(stack[-1].keys) <= 4 * len(keys):
        keys, stamps = _merge((stack[-1].keys, stack.pop().stamps), (keys, stamps))
    return keys, stamps


def _gather(blocks: list[_Block], rows: np.ndarray, n: int, transposed: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The keys of the blocks' pairs, or ``transposed`` of their transposes'
    pairs, on the given rows, each with the index in ``rows`` of its row."""
    at, got = [], []
    first = rows * n
    for b in blocks:
        keys = b.transposed(n) if transposed else b.keys
        lo = keys.searchsorted(first)
        cnt = keys.searchsorted(first + n) - lo
        total = cnt.sum()
        if total:
            at.append(np.repeat(np.arange(len(rows)), cnt))
            got.append(keys[np.arange(total) + (lo + cnt - cnt.cumsum())[at[-1]]])
    return (np.concatenate(at), np.concatenate(got)) if got else (rows[:0].astype(np.intp), rows[:0])


def _shifts(defs: dict[tuple, list[tuple]]) -> set[tuple]:
    """The relations defined by one join with an action alone."""
    return {k for k, ops in defs.items() if len(ops) == 1 and ops[0][0] == "join"
            and "act" in (ops[0][1][0], ops[0][2][0])}


def _derived(defs: dict[tuple, list[tuple]], moved: set[tuple]) -> dict[tuple, tuple[tuple, tuple[int, ...]]]:
    """The relations the table derives, each with its source and action:
    K2 -> (K1, a) where K2's one definition is ``L ; A``, A's is ``Y ; a``
    with a an action, K1's is ``L ; Y``, and L, Y and K1 are relations and
    K1 is not derived itself, as :func:`_rounds` describes.  ``moved`` are
    the relations the table moves by actions rather than multiplies, the
    shifts and the chained relations (:func:`_plan`): none is a K1, as the
    table finds a moved relation's fresh pairs without the products that
    split them for K2."""
    # the joins of two relations the table multiplies
    joins = {k: ops[0][1:] for k, ops in defs.items() if len(ops) == 1 and ops[0][0] == "join" and k not in moved}
    first = {}  # (L, Y) -> the first relation whose one definition is L ; Y
    for k, factors in joins.items():
        first.setdefault(factors, k)
    derived = {}
    for k2, (left, right) in joins.items():
        if right in moved:
            _, y, a = defs[right][0]
            if a[0] == "act" and (left, y) in first:
                derived[k2] = (first[left, y], a[1])
    return {k2: (k1, a) for k2, (k1, a) in derived.items() if k1 not in derived}


def _chained(defs: dict[tuple, list[tuple]]) -> dict[tuple, tuple[tuple[int, ...], tuple[int, ...]]]:
    """The relations whose one definition is ``X ; Z`` with X a relation
    and Z's one definition ``a ; b``, a join of two actions, each with a
    and b: the table shifts X by a and then by b, as :func:`_rounds`
    describes, and multiplies nothing."""
    chained = {}
    for k, ops in defs.items():
        if len(ops) == 1 and ops[0][0] == "join" and "act" not in (ops[0][1][0], ops[0][2][0]):
            z = defs[ops[0][2]]
            if len(z) == 1 and z[0][0] == "join" and z[0][1][0] == z[0][2][0] == "act":
                chained[k] = (z[0][1][1], z[0][2][1])
    return chained


class _Plan(NamedTuple):
    """How the table computes the relations it does not multiply out, from
    ``defs`` alone (:func:`_plan`): ``moved``, the relations it moves by
    actions, those defined by one join with an action alone
    (:func:`_shifts`) and the chained ones; ``chained``
    (:func:`_chained`); ``derived`` (:func:`_derived`); and ``views``, the
    relations it keeps no pairs of."""

    moved: set[tuple]
    chained: dict[tuple, tuple[tuple[int, ...], tuple[int, ...]]]
    derived: dict[tuple, tuple[tuple, tuple[int, ...]]]
    views: dict[tuple, tuple[tuple | None, tuple[tuple[int, ...], ...], bool]]


def _plan(defs: dict[tuple, list[tuple]]) -> _Plan:
    """The table's :class:`_Plan` of ``defs``.  Its views are the relations
    the table keeps no pairs of, each with what :class:`_View` holds of it:
    its factor, or None for the identity, the actions of its word and
    whether they come before the factor.  A view is an aux relation that
    no product of the table reads, that is, a factor of no join of two
    relations but those of the relations derived or chained, and whose one
    definition is ``X ; a`` (X, (a,), False), ``a ; X`` (X, (a,), True),
    ``a ; b`` (None, (a, b), False) or ``X ; Z`` chained with ``Z = a ; b``
    (X, (a, b), False), with X a relation and a and b actions."""
    chained = _chained(defs)
    moved = _shifts(defs) | chained.keys()
    derived = _derived(defs, moved)
    skip = chained.keys() | derived.keys()
    read = {f for k, ops in defs.items() if k not in skip for op in ops
            if op[0] == "join" and "act" not in (op[1][0], op[2][0]) for f in op[1:]}
    views = {}
    for k in defs:
        if k[0] == "aux" and k in moved and k not in read:
            _, x, y = defs[k][0]
            if k in chained:
                views[k] = (x, chained[k], False)
            elif x[0] == y[0] == "act":
                views[k] = (None, (x[1], y[1]), False)
            else:
                views[k] = (y, (x[1],), True) if x[0] == "act" else (x, (y[1],), False)
    return _Plan(moved, chained, derived, views)


class _View:
    """A relation the table keeps no pairs of (:func:`_plan`): the pairs
    of relation ``factor``, or of the identity when it is None, moved by
    the actions of ``word`` in turn, at their sources when ``at_source``
    and at their destinations otherwise, each stamped one more than its
    factor pair, an identity pair counting as stamped 0.  ``back`` undoes
    ``word``: its actions negated, in reverse order.  ``stamp_dtype`` is
    the type of the table's stamps (:func:`_collapsed`).  Queries read a
    view through its factor (:meth:`~gvaskit.reach.ReachTable._pairs_of`)."""

    __slots__ = ("factor", "word", "at_source", "back", "stamp_dtype")

    def __init__(self, factor: tuple | None, word: tuple[tuple[int, ...], ...], at_source: bool, stamp_dtype):
        self.factor, self.word, self.at_source, self.stamp_dtype = factor, word, at_source, stamp_dtype
        self.back = tuple(tuple(-v for v in a) for a in reversed(word))

    def pairs(self, grid: Grid, factor: tuple[np.ndarray, np.ndarray] | None) -> tuple[np.ndarray, np.ndarray]:
        """The view's sorted keys and stamps, made from its factor's keys and
        stamps (None for the identity), of their types."""
        n = grid.size
        if factor is None:
            factor = np.arange(n, dtype=_key_dtype(n)) * (n + 1), np.zeros(n, dtype=self.stamp_dtype)
        keys, stamps = factor
        # a pair (m, d) of the factor is the view's (m - word, d) or (m, d + word): one offset, in key order
        word = self.back if self.at_source else self.word
        ok = _walk(grid, word, keys // n if self.at_source else keys % n)
        off = sum(grid.offset(a) for a in word)
        return keys[ok] + (off * n if self.at_source else off), stamps[ok] + 1

    def moved(self, grid: Grid, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which of ``cells`` the view's word keeps inside the grid and the
        cells it takes them to, for a view whose word comes before its
        factor: the factor's sources of the view's sources."""
        return _walk(grid, self.word, cells), cells + sum(grid.offset(a) for a in self.word)


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
    factor's from its blocks' transposes (:meth:`_Block.transposed`).
    A product lists a pair once per row, a gather once per path to it:
    with every row demanded, gathers made the table of core(1)@20 take 2.8
    times the time and 3 times the memory, and that of exchange@40 7.7
    times the time.

    The target's fresh pairs, stamped r, are its distinct candidates that
    it lacks (:func:`_fresh`).  A relation defined by one join with an
    action alone skips the test: it holds its factor's shift as the factor
    stood a round earlier, and a shift is injective, so its candidates are
    new.  So does a relation the table chains (:func:`_chained`), X ; Z
    alone with Z = ``a ; b`` alone: it takes X's delta shifted by a and
    then by b, and nothing from Z's delta, whose one batch, of round 1,
    meets the pairs X's delta of round 1 gives.  Every other relation but a derived one (below) keeps a
    :class:`_Band`, which each fresh batch updates at the end of the
    round: it tracks the span of the relation's offsets d - s and keeps
    bits over a band W offsets wide that covers the span while
    8 * pairs >= n * W, widened when a fresh pair falls outside it,
    dropped while the pairs do not pay for the band the span needs, and
    replaced by the n * n bits of the keys once the pairs pay for those or
    a band row would reach a grid row.  With bits,
    each candidate is checked by one bit lookup as it is made, and only
    the ones not held are kept for the sort; an offset outside the band is
    new.  Without, the candidates are sorted and searched for in the
    blocks.  Either test finds the same fresh pairs.  Nothing
    grows before the round ends, so stamps are exactly round numbers.  A
    fresh batch becomes the newest block after absorbing each newest block
    of at most four times its pairs: N pairs take O(log N) blocks, each
    copied O(log N) times.

    Without a root, a relation K2 the table derives (:func:`_derived`),
    ``L ; A`` alone with A = ``Y ; a`` alone beside K1 = ``L ; Y`` alone,
    runs no product, takes no candidates and keeps no band.  K1's product
    of its left delta leaves out Y's pairs of round r - 1, all in Y's
    newest block, as :func:`_absorb` made it, so it reads Y_old; the
    transposed product of Y's delta with all of L finds the rest of K1's
    candidates.  K1's fresh pairs of round r split into those found by
    the first product, g_r, and the rest, and K2's fresh pairs of round r
    are the shifts by a of g_r and of K1's rest of round r - 1.  For a
    pair (s, d) of K1 stamped r, every m has max(L(s, m), Y(m, d)) >= r - 1.
    K2's own products would stamp (s, d + a) with r when some m has
    L(s, m) = r - 1 and Y(m, d) < r - 1, a path of the first product, and
    with r + 1 otherwise, as then every m reaching r - 1 has Y(m, d) = r - 1.
    A K1 that is derived or chained itself derives nothing.

    Without a root, a view (:func:`_plan`) keeps no blocks: its fresh
    batch is made and stamped like any other, read by the relations that
    shift it, and dropped at the end of the next round, so it never
    reaches :func:`_absorb` and :func:`_collapsed` keeps a :class:`_View`
    for it.  Its pairs count toward the limit all the same.
    ResourceLimitError once the relations hold more than ``limit`` pairs.
    """
    n, key_dtype = grid.size, _key_dtype(grid.size)
    dem = {k: np.zeros(0, dtype=key_dtype) for k in defs}
    blocks: dict[tuple, list[_Block]] = {k: [] for k in defs}
    # the cone moves only the shifts: it computes the rest on the rows demanded of them
    shifts, chained, derived, views = _plan(defs) if root is None else (_shifts(defs), {}, {}, {})
    sources = {k1 for k1, _ in derived.values()}
    firsts: dict[tuple, int] = {}  # how many of a source's candidate parts its left product made this round
    found: dict[tuple, np.ndarray] = {}  # a source's fresh pairs among those parts: g_r
    rest: dict[tuple, np.ndarray] = {}  # its other fresh pairs, which its derived relations take a round later
    # demand that needs no pair: a copy or left factor on its target's rows, a right factor past a left action
    static = {k: [(op[1], None) if op[1][0] != "act" else (op[2], op[1][1])
                  for op in ops if op[0] != "eps" and not op[1][0] == op[-1][0] == "act"] for k, ops in defs.items()}
    wants = ({k: [np.arange(n, dtype=key_dtype)] for k in defs} if root is None
             else {root[0]: [np.array([root[1]], dtype=key_dtype)]})
    fresh: dict[tuple, _Block] = {}
    bands = {k: _Band() for k in defs if k not in shifts and k not in derived}
    none = np.zeros(0, dtype=key_dtype)
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
        if len(cand) and key in bands and bands[key].bits is not None:
            cand = bands[key].absent(cand, n)  # dropped as made, so a round holds only new candidates
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
        firsts.clear()
        for key, ops in defs.items():
            rows = new_rows.get(key, dem[key][:0])
            for op in ops if (len(rows) or len(dem[key])) and key not in derived else ():
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
                    elif key in chained:  # X ; (a ; b): a shift by a, then by b
                        a, b = chained[key]
                        add(key, _shifted(grid, _shifted(grid, vis, a), b))
                    elif root is None:  # vis is x's delta from round 2 on, and r is empty in round 1
                        without = round_no - 1 if key in sources and r in fresh else None  # a source reads r_old
                        for keys in _products(fresh[x], blocks[r], n, without=without) if x in fresh else ():
                            add(key, keys)
                        if key in sources:
                            firsts[key] = len(cands.get(key, ()))
                    elif len(vis):  # demand r at m and read it there, m ascending for the searches
                        m, s = np.divmod(np.sort(vis % n * n + vis // n), n)
                        if x[0] != "act":
                            wants.setdefault(r, []).append(_first_of_runs(m))
                        at, got = _gather(blocks[r], m, n)
                        add(key, s[at] * n + got % n)
                if op[0] == "join" and r in fresh and key not in chained:  # x's pairs into r's fresh pairs
                    if x[0] == "act":
                        got = [_shifted(grid, fresh[r].keys, x[1], at_source=True)]
                    elif root is None:
                        got = _products(fresh[r], blocks[x], n, transposed=True)
                    else:
                        m, d = np.divmod(fresh[r].keys, n)
                        at, s = _gather(blocks[x], m, n, transposed=True)
                        got = [s % n * n + d[at]]
                    for keys in got:
                        add(key, older(key, keys))
        for key, rows in new_rows.items():
            dem[key] = np.sort(np.concatenate((dem[key], rows)), kind="stable")
        # every candidate of the round is taken: only now may the relations grow
        fresh, found, rest, late = {}, {}, {}, rest
        grown = []  # each relation's fresh pairs, a derived one's after its source's
        for key, parts in cands.items():
            if key in shifts:  # new and distinct by construction; a stable sort merges the cone's sorted runs
                cand = np.sort(np.concatenate(parts), kind="stable")
            elif key in sources:
                stack = [] if bands[key].bits is not None else blocks[key]
                found[key], rest[key] = _fresh_split(parts, firsts.get(key, 0), stack)
                cand = _union(found[key], rest[key])
            else:
                cand = _fresh(parts, [] if bands[key].bits is not None else blocks[key])
            grown.append((key, cand))
        for key, (k1, a) in derived.items():  # shifts of k1's pairs its left product found, and of last round's rest
            grown.append((key, _shifted(grid, _union(found.get(k1, none), late.get(k1, none)), a)))
        for key, cand in grown:
            if len(cand):
                entries += len(cand)
                stamps = np.full(len(cand), round_no, dtype=np.min_scalar_type(round_no))
                fresh[key] = block = _Block(cand, stamps)
                if key in views:  # its readers take the batch as a delta; the table answers from its factor
                    continue
                keys, stamps = _absorb(blocks[key], cand, stamps)
                blocks[key].append(block if len(keys) == len(cand) else _Block(keys, stamps))
                if key in bands:
                    bands[key].add(cand, blocks[key], n)
        if entries > limit:
            raise ResourceLimitError(f"relation store reached {entries} pairs, limit {limit}" if root is None
                                     else f"reachability cone exceeded {limit} entries")
    return blocks, dem, round_no


def _collapsed(
    grid: Grid, defs: dict[tuple, list[tuple]], limit: int, root: tuple[tuple, int] | None = None,
) -> tuple[dict[tuple, tuple[np.ndarray, np.ndarray]], dict[tuple, np.ndarray]]:
    """The one entry of both engines: each relation of ``defs`` after
    :func:`_rounds` from ``root`` (every row demanded without one), its
    keys and stamps merged from its blocks, each released once merged, or
    for a view of the table its :class:`_View`, and the rows demanded of
    it.  Stamps take the smallest unsigned type of rounds - 1, the last
    stamped round: a round that finds no pair stops."""
    blocks, dem, rounds = _rounds(grid, defs, limit, root)
    stamp_dtype = np.min_scalar_type(rounds - 1)
    views = _plan(defs).views if root is None else {}
    relations = {}
    for key, stack in blocks.items():
        if key in views:
            relations[key] = _View(*views[key], stamp_dtype)
            continue
        pairs = (np.zeros(0, dtype=_key_dtype(grid.size)), np.zeros(0, dtype=stamp_dtype))
        while stack:  # newest first
            pairs = _merge((stack[-1].keys, stack.pop().stamps), pairs)
        relations[key] = pairs[0], pairs[1].astype(stamp_dtype, copy=False)
    return relations, dem


def _action_keys(grid: Grid, a: tuple[int, ...]) -> np.ndarray:
    """The sorted linear keys, of the relations' type, of action a's in-grid pairs (s, s + a)."""
    n = grid.size
    return _shifted(grid, np.arange(n, dtype=_key_dtype(n)) * (n + 1), a)
