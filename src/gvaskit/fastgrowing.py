"""Grammar computers for the fast-growing hierarchy below omega^omega.

The core grammar at depth d works on d+2 counters: a running value, a
shuttle buffer, and d digit counters encoding an ordinal below omega^d
(digit i is the coefficient of omega^i).  Its start symbol rewrites the
value from v to the hierarchy function of v at the encoded level, and can
never exceed it; wrapping the core with an input loader and an output
drain yields a weak computer for any fixed level.

Witness runs are derived, never searched: one iterative run expands the
grammar's own rules, picking each nonterminal's rule from the current
configuration, so construction cost is linear in tree size and scales to
every instance the value cap admits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import CapExceededError, OrdinalRangeError
from .flowtree import FlowTree, _solve
from .gvas import Config, Gvas, Transition
from .ordinal import DEFAULT_CAP, Ordinal, fast_growing
from .reach import ReachTable, cached_reach
from .weakcomp import WeakComputer

if TYPE_CHECKING:
    import numpy as np

VAL, BUF = 0, 1  # counter roles; digit i lives at coordinate 2 + i


def _unit(dim: int, i: int, sign: int) -> tuple[int, ...]:
    v = [0] * dim
    v[i] = sign
    return tuple(v)


@dataclass(frozen=True)
class CoreView:
    """A core-grammar configuration read as (value, buffer, level)."""

    val: int
    buf: int
    level: Ordinal

    def to_config(self, d: int) -> Config:
        if self.level.degree > d:
            raise OrdinalRangeError(f"{self.level} needs more than {d} digits")
        digits = self.level.coeffs + (0,) * (d - self.level.degree)
        return (self.val, self.buf) + digits


def _names(d: int) -> list[str]:
    return ["Fn", "Iter", "Load"] + [f"Desc{i}" for i in range(1, d)]


def _actions(d: int) -> tuple[tuple[int, ...], ...]:
    dim = d + 2
    out = []
    for c in range(dim):
        out.append(_unit(dim, c, 1))
        out.append(_unit(dim, c, -1))
    return tuple(out)


def _core_rules(d: int) -> list[tuple[str, tuple]]:
    dim = d + 2
    iv, dv = _unit(dim, VAL, 1), _unit(dim, VAL, -1)
    ib, db = _unit(dim, BUF, 1), _unit(dim, BUF, -1)

    def idig(i):
        return _unit(dim, 2 + i, 1)

    def ddig(i):
        return _unit(dim, 2 + i, -1)

    rules: list[tuple[str, tuple]] = [
        ("Fn", (iv,)),
        ("Fn", (ddig(0), "Iter", "Fn", idig(0))),
    ]
    for i in range(1, d):
        rules.append(("Fn", (ddig(i), idig(i - 1), f"Desc{i}", ddig(i - 1), idig(i))))
    rules += [
        ("Iter", ("Load",)),
        ("Iter", (dv, ib, "Iter", "Fn")),
        ("Load", ()),
        ("Load", (iv, db, "Load")),
    ]
    for i in range(1, d):
        rules.append((f"Desc{i}", ("Load", "Fn")))
        rules.append((f"Desc{i}", (dv, ib, idig(i - 1), f"Desc{i}", ddig(i - 1))))
    return rules


def build_core(d: int) -> Gvas:
    """The depth-d core grammar; start symbol ``Fn``.

    d = 1 yields six rules over three counters; each extra depth adds one
    descent nonterminal with its limit and spin rules.
    """
    if d < 1:
        raise ValueError("depth must be at least 1")
    return Gvas(d + 2, tuple(_names(d)), _actions(d), tuple(_core_rules(d)), "Fn")


def build_computer(alpha: Ordinal, d: int) -> Gvas:
    """The core grammar wrapped as a weak computer for the level ``alpha``.

    The new start rule loads the level's digits, runs ``Fn`` once, and
    drains the value into the buffer, which doubles as the output counter.
    """
    if d < 1:
        raise ValueError("depth must be at least 1")
    if alpha.degree > d:
        raise OrdinalRangeError(f"{alpha} needs more than {d} digits")
    dim = d + 2
    dv, ib = _unit(dim, VAL, -1), _unit(dim, BUF, 1)
    loader = tuple(
        _unit(dim, 2 + i, 1) for i in range(d) for _ in range(alpha.coeff(i))
    )
    rules: list[tuple[str, tuple]] = [("Main", loader + ("Fn", "Emit"))]
    rules += _core_rules(d)
    rules += [("Emit", ()), ("Emit", (dv, ib, "Emit"))]
    return Gvas(dim, ("Main",) + tuple(_names(d)) + ("Emit",), _actions(d), tuple(rules), "Main")


def as_weak_computer(alpha: Ordinal, d: int, cap: int = DEFAULT_CAP) -> WeakComputer:
    return WeakComputer(
        build_computer(alpha, d),
        aux=d,
        oracle=lambda n: fast_growing(alpha, n, cap),
        cap=cap,
    )


# ---------------------------------------------------------------------------
# Derivation schemas


def _leftmost_apply(g: Gvas, word: tuple, nt: str, rule_rhs: tuple) -> tuple:
    for i, s in enumerate(word):
        if s == nt:
            return word[:i] + rule_rhs + word[i + 1 :]
    raise ValueError(f"no occurrence of {nt}")


def derivation_check(d: int, kind: str, n: int = 0, i: Optional[int] = None) -> tuple[tuple, ...]:
    """Produce and verify one of the schematic derivations of the core
    grammar; ``kind`` is one of base, succ, limit, transfer.

    Returns the full step-by-step trace (each step is verified to be a
    one-step rewrite).  The limit schema needs a digit index 0 < i < d.
    """
    from .gvas import derive_step

    g = build_core(d)
    dim = d + 2
    iv, dv = _unit(dim, VAL, 1), _unit(dim, VAL, -1)
    ib, db = _unit(dim, BUF, 1), _unit(dim, BUF, -1)

    def idig(k):
        return _unit(dim, 2 + k, 1)

    def ddig(k):
        return _unit(dim, 2 + k, -1)

    # each step rewrites a nonterminal by its rule of that index in build_core(d)'s order
    steps: list[tuple[str, int]]
    if kind == "base":
        start: tuple = ("Fn",)
        steps = [("Fn", 0)]
        target = (iv,)
    elif kind == "succ":
        start = ("Fn",)
        steps = [("Fn", 1)] + [("Iter", 1)] * n + [("Iter", 0)]
        target = (ddig(0),) + (dv, ib) * n + ("Load",) + ("Fn",) * (n + 1) + (idig(0),)
    elif kind == "limit":
        if i is None or not 0 < i < d:
            raise ValueError("limit schema needs a digit index 0 < i < d")
        start = ("Fn",)
        steps = [("Fn", 1 + i)] + [(f"Desc{i}", 1)] * n + [(f"Desc{i}", 0)]
        target = (
            (ddig(i), idig(i - 1))
            + (dv, ib, idig(i - 1)) * n
            + ("Load", "Fn")
            + (ddig(i - 1),) * (n + 1)
            + (idig(i),)
        )
    elif kind == "transfer":
        start = ("Load",)
        steps = [("Load", 1)] * n + [("Load", 0)]
        target = (iv, db) * n
    else:
        raise ValueError(f"unknown schema kind {kind!r}")

    trace = [start]
    for nt, k in steps:
        nxt = _leftmost_apply(g, trace[-1], nt, g.rules_for(nt)[k][1])
        if nxt not in derive_step(g, trace[-1]):
            raise AssertionError(f"{trace[-1]} does not rewrite to {nxt}")
        trace.append(nxt)
    if trace[-1] != target:
        raise AssertionError(f"schema mismatch: {trace[-1]} != {target}")
    return tuple(trace)


# ---------------------------------------------------------------------------
# Derived witnesses


def _choose(symbol: str, c: Config) -> int:
    """Index, among ``symbol``'s rules in declaration order, of the rule a
    witness run takes at configuration ``c``."""
    if symbol == "Fn":  # base at level zero, else the lowest non-zero digit's rule
        return next((1 + i for i, v in enumerate(c[2:]) if v > 0), 0)
    if symbol == "Load":
        return int(c[BUF] > 0)
    if symbol == "Main":
        return 0
    return int(c[VAL] > 0)  # Iter, Desc_i and Emit spin while the value is positive


def _derive(g: Gvas, choose, symbol: str, src: Config) -> FlowTree:
    """The flow tree that expands ``symbol`` from ``src`` taking, at each
    nonterminal, the rule ``choose(nonterminal, config)`` picks among its
    rules in ``g.rules``.

    Actions apply left to right and each node closes at the configuration
    its last child reaches.  Built by :func:`flowtree._solve`, so chains as
    long as the values they transfer need no recursion.
    """
    alts: dict[str, list[tuple]] = {}
    for lhs, rhs in g.rules:
        alts.setdefault(lhs, []).append(rhs)

    def go(question):
        sym, start = question
        cur, kids = start, []
        for s in alts[sym][choose(sym, start)]:
            if isinstance(s, str):
                kid = yield s, cur
            else:
                kid = FlowTree(Transition(cur, s, tuple(v + a for v, a in zip(cur, s))))
            kids.append(kid)
            cur = kid.label.dst
        return FlowTree(Transition(start, sym, cur), tuple(kids))

    # no memo: the questions are fresh tuples, whose ids a later one may reuse
    return _solve(go, (symbol, tuple(src)))


def _check_instance(alpha: Ordinal, n: int, d: int, cap: int) -> None:
    if d < 1:
        raise ValueError("depth must be at least 1")  # as build_core
    if alpha.degree > d:
        raise OrdinalRangeError(f"{alpha} does not fit depth {d}")
    fast_growing(alpha, n, cap)  # cap guard: raises before anything oversized is built


def build_witness(alpha: Ordinal, n: int, d: int, cap: int = DEFAULT_CAP) -> FlowTree:
    """Valid flow tree rewriting (n, 0, alpha) to (F(n), 0, alpha) via ``Fn``.

    Derived from the core grammar's own rules: the base rule at level
    zero, the successor or limit rule of the lowest non-zero digit, and
    loops that spin until their counter is empty.  Raises the cap error
    before building anything oversized.
    """
    _check_instance(alpha, n, d, cap)
    return _derive(build_core(d), _choose, "Fn", CoreView(n, 0, alpha).to_config(d))


def computer_witness(alpha: Ordinal, n: int, d: int, cap: int = DEFAULT_CAP) -> FlowTree:
    """Complete run of the wrapped computer from (n, 0, 0...): load the
    level, apply the core once, drain the value into the output counter;
    derived from :func:`build_computer`'s rules like :func:`build_witness`."""
    _check_instance(alpha, n, d, cap)
    return _derive(build_computer(alpha, d), _choose, "Main", (n, 0) + (0,) * d)


# ---------------------------------------------------------------------------
# Exhaustive bounded safety scan


@dataclass(frozen=True)
class SafetyScan:
    symbol: str
    entries: int
    violations: tuple[tuple[Config, Config], ...]
    max_slack: Optional[int]
    cap_hits: int


def hierarchy_rows(levels: Sequence[Ordinal], cap: int) -> np.ndarray:
    """Table of ``F_level(x)`` for each level and every x in 0..cap.

    Row j, column x holds ``fast_growing(levels[j], x, cap)``, or the
    sentinel ``cap + 1`` where that call raises the cap error.  A row is
    evaluated up to its first overflow only: every level is strictly
    increasing in x, so all later columns overflow too.  Column
    ``cap + 1`` holds the sentinel as well, so the sentinel is absorbing:
    a row used as an index map sends an overflow to an overflow, which is
    what makes composed rows agree with :func:`fast_growing_iter`.
    """
    import numpy as np

    sentinel = cap + 1
    rows = np.full((len(levels), cap + 2), sentinel, dtype=np.int64)
    for j, level in enumerate(levels):
        for x in range(cap + 1):
            try:
                rows[j, x] = fast_growing(level, x, cap)
            except CapExceededError:
                break
    return rows


def _check_core_symbol(g: Gvas, symbol: str) -> str:
    """The symbol, if it is a nonterminal of the core g; ValueError otherwise."""
    if symbol not in g.nonterminals:
        raise ValueError(f"unknown core symbol {symbol!r}")
    return symbol


def safety_check(d: int, symbol: str, bound: int, table: Optional[ReachTable] = None) -> SafetyScan:
    """Check every table entry of one core nonterminal against its
    value-bound clause.

    Clauses (by symbol): ``Fn`` caps the final value sum at the hierarchy
    function of the entry sum; ``Iter`` at its value-fold iterate;
    ``Load`` preserves the sum exactly; ``Desc_i`` caps it at the level
    augmented by value copies of the digit below.  Every clause also
    demands the level be restored.  The hierarchy cap sits just above the
    grid, so a cap overflow certifies the clause vacuously (the bound
    exceeds anything the grid can hold); such entries count as cap hits.

    A clause's limit depends only on the source cell (its level digits,
    value and buffer) and the checked sum only on the destination cell,
    so limits, sums and level codes are tabulated once per grid cell.
    Limits are filled for the cells that occur as sources, from the
    hierarchy tabulated once per distinct level among them with
    :func:`hierarchy_rows` (the sentinel ``cap + 1`` marks an overflow;
    ``Iter`` composes its row with itself value-many times).  Each entry
    is then checked by gathers from these per-cell arrays, kept in the
    narrowest integer types that hold them, at the source and destination
    indices of :meth:`ReachTable.pairs_arrays`; the first 32 bad entries
    in key order are reported.
    """
    import numpy as np

    g = build_core(d)
    _check_core_symbol(g, symbol)
    if table is None:
        table = cached_reach(g, bound)
    rows, cols = table.pairs_arrays(symbol)
    entries = len(rows)
    if entries == 0:
        return SafetyScan(symbol, 0, (), None, 0)
    cap = 2 * bound + 2
    cells = table.grid.decode_many(np.arange(table.grid.size))
    # signed, to hold every sum, limit (sentinel included) and their differences
    small = np.min_scalar_type(-(cap + 1))
    total = (cells[:, VAL] + cells[:, BUF]).astype(small)
    level = (cells[:, 2:] @ ((bound + 1) ** np.arange(d))).astype(np.min_scalar_type(len(cells)))
    if symbol == "Load":
        limit = total
    else:
        limit = np.full(len(cells), cap + 1, dtype=small)
        is_src = np.zeros(len(cells), dtype=bool)
        is_src[rows] = True
        src = cells[is_src]
        digits = src[:, 2:]
        if symbol.startswith("Desc"):
            digits = digits.copy()
            digits[:, int(symbol[4:]) - 1] += src[:, VAL]
        # one integer code per level: a 1-D unique is far cheaper than a row-wise one
        radix = int(digits.max()) + 1
        codes = digits @ (radix ** np.arange(d, dtype=np.int64))
        _, first, level_of = np.unique(codes, return_index=True, return_inverse=True)
        table_rows = hierarchy_rows([Ordinal(tuple(digits[j])) for j in first], cap)
        s_in = src[:, VAL] + src[:, BUF]
        if symbol == "Iter":
            vals = src[:, VAL]
            iterates = [np.broadcast_to(np.arange(cap + 2), table_rows.shape)]
            for _ in range(int(vals.max())):
                iterates.append(np.take_along_axis(table_rows, iterates[-1], axis=1))
            limit[is_src] = np.stack(iterates)[vals, level_of, s_in]
        else:
            limit[is_src] = table_rows[level_of, s_in]

    bad = level[rows] != level[cols]
    lim = limit[rows]
    out = total[cols]
    if symbol == "Load":
        bad |= out != lim
        cap_hits, max_slack = 0, 0
    else:
        bad |= out > lim  # never on a cap hit: the sentinel exceeds every sum in the grid
        capped = lim > cap
        cap_hits = int(np.count_nonzero(capped))
        # a cap hit that restores the level passes with slack 0
        slack = np.where(capped, 0, lim - out)[~bad]
        max_slack = int(slack.max()) if len(slack) else None
    decode = table.grid.decode
    violations = tuple((decode(int(rows[k])), decode(int(cols[k]))) for k in np.flatnonzero(bad)[:32])
    return SafetyScan(symbol, entries, violations, max_slack, cap_hits)
