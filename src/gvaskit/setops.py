"""Closure constructions on GVAS-definable predicates.

A predicate of arity n is the projection of a grammar's reachability set
from the zero configuration: x belongs to it when some run reaches
(x, e) for an arbitrary auxiliary tail e.  Membership checking is a
one-sided bounded test: "yes" or "unknown", never "no".

Counter layout is fixed throughout: outputs first, auxiliaries after
them, and a budget counter (when a construction adds one) always last.
Coordinate shuffles are realized by rewriting action vectors, so every
produced grammar is self-contained and serializable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ArityMismatchError, ParseError
from .gvas import (
    Action,
    Gvas,
    apply_morphism,
    concat,
    format_gvas,
    parse_gvas,
    sandwich,
    star,
    union as g_union,
)
from .reach import cached_cone


@dataclass(frozen=True)
class DefinablePredicate:
    """Arity-n predicate carried by a grammar with trailing auxiliaries."""

    arity: int
    gvas: Gvas
    aux: int

    def __post_init__(self) -> None:
        if self.gvas.dim != self.arity + self.aux:
            raise ArityMismatchError(
                f"dimension {self.gvas.dim} is not arity {self.arity} + aux {self.aux}"
            )


def member_bounded(p: DefinablePredicate, x: Sequence[int], bound: int) -> bool:
    """True when membership is certified within the grid; False is unknown.

    Monotone in the bound: a yes never turns back into an unknown.
    """
    x = tuple(x)
    if len(x) != p.arity:
        raise ArityMismatchError(f"point has arity {len(x)}, expected {p.arity}")
    if any(v > bound for v in x):
        return False
    return x in set(members_upto(p, bound))


def members_upto(p: DefinablePredicate, bound: int) -> list[tuple[int, ...]]:
    """All certified members with coordinates at most ``bound``; sorted.

    Single-source query, so high-dimensional constructions stay cheap.
    """
    zero = (0,) * p.gvas.dim
    cone = cached_cone(p.gvas, zero, bound)
    return sorted({y[: p.arity] for y in cone.successors(p.gvas.start, zero)})


def _pad_aux(p: DefinablePredicate, extra: int) -> DefinablePredicate:
    """Append ``extra`` always-zero auxiliary counters."""
    if extra == 0:
        return p
    mapping = {a: [a + (0,) * extra] for a in p.gvas.actions}
    g = apply_morphism(p.gvas, mapping, dim=p.gvas.dim + extra)
    return DefinablePredicate(p.arity, g, p.aux + extra)


def union(p: DefinablePredicate, q: DefinablePredicate) -> DefinablePredicate:
    if p.arity != q.arity:
        raise ArityMismatchError(f"arities differ: {p.arity} vs {q.arity}")
    ell = max(p.aux, q.aux)
    p2, q2 = _pad_aux(p, ell - p.aux), _pad_aux(q, ell - q.aux)
    return DefinablePredicate(p.arity, g_union(p2.gvas, q2.gvas), ell)


def _spread(v: Sequence[int], dim: int, offsets: Sequence[tuple[int, int]]) -> Action:
    """Place slices of v into a wider zero vector: (start_in_v, start_out, length)."""
    out = [0] * dim
    for start_in, start_out, length in offsets:
        for j in range(length):
            out[start_out + j] = v[start_in + j]
    return tuple(out)


def product(p: DefinablePredicate, q: DefinablePredicate) -> DefinablePredicate:
    """Cartesian product; outputs concatenate, auxiliaries follow."""
    n1, n2, l1, l2 = p.arity, q.arity, p.aux, q.aux
    dim = n1 + n2 + l1 + l2
    pm = {a: [_spread(a, dim, [(0, 0, n1), (n1, n1 + n2, l1)])] for a in p.gvas.actions}
    qm = {a: [_spread(a, dim, [(0, n1, n2), (n2, n1 + n2 + l1, l2)])] for a in q.gvas.actions}
    gp = apply_morphism(p.gvas, pm, dim=dim)
    gq = apply_morphism(q.gvas, qm, dim=dim)
    return DefinablePredicate(n1 + n2, concat(gp, gq), l1 + l2)


def permute_coords(g: Gvas, perm: Sequence[int]) -> Gvas:
    """Rewrite every action with coordinate i taken from ``perm[i]``."""
    mapping = {a: [tuple(a[j] for j in perm)] for a in g.actions}
    return apply_morphism(g, mapping, dim=len(perm))


def project(p: DefinablePredicate, keep: Sequence[int]) -> DefinablePredicate:
    """Keep the listed output coordinates (0-based); dropping the rest into
    the auxiliary block."""
    keep = list(keep)
    if any(i < 0 or i >= p.arity for i in keep) or len(set(keep)) != len(keep):
        raise ArityMismatchError(f"bad projection {keep} for arity {p.arity}")
    dropped = [i for i in range(p.arity) if i not in keep]
    perm = keep + dropped + list(range(p.arity, p.gvas.dim))
    return DefinablePredicate(len(keep), permute_coords(p.gvas, perm), p.aux + len(dropped))


def _star_chain(dim: int, actions: Sequence[Action], prefix: tuple = ()) -> Gvas:
    """Grammar for the language ``prefix a1* a2* ... ak*`` over arbitrary actions."""
    names = [f"P{i}" for i in range(1, len(actions) + 1)]
    rules: list[tuple[str, tuple]] = [("S", prefix + tuple(names[:1]))]
    for i, v in enumerate(actions):
        rules.append((names[i], (tuple(v), names[i])))
        rules.append((names[i], tuple(names[i + 1 : i + 2])))
    return Gvas.from_rules(dim, rules, "S")


def linear_set(base: Sequence[int], periods: Sequence[Sequence[int]]) -> DefinablePredicate:
    """All sums base + k1*p1 + ... + kj*pj, as a regular-language grammar."""
    b = tuple(base)
    ps = [tuple(v) for v in periods]
    n = len(b)
    if any(len(v) != n for v in ps) or any(v < 0 for v in b) or any(x < 0 for v in ps for x in v):
        raise ArityMismatchError("base and periods must be non-negative vectors of one arity")
    return DefinablePredicate(n, _star_chain(n, ps, (b,)), 0)


def force_zero(g: Gvas, zeroed: Sequence[int]) -> Gvas:
    """Budget construction: one extra (last) counter such that reaching
    (x, c) from zero demands c = 0 and x[i] = 0 for every budgeted i.

    Each action also debits the budget by the sum of its effect on the
    budgeted coordinates; a prefix of budget increments and a matching
    suffix of decrements wrap the whole language.
    """
    idx = sorted(set(zeroed))
    if any(i < 0 or i >= g.dim for i in idx):
        raise ArityMismatchError(f"budgeted coordinates {idx} out of range for dim {g.dim}")
    mapping = {a: [a + (-sum(a[i] for i in idx),)] for a in g.actions}
    lifted = apply_morphism(g, mapping, dim=g.dim + 1)
    up = (0,) * g.dim + (1,)
    down = (0,) * g.dim + (-1,)
    return sandwich(lifted, up, down)


def intersect(p: DefinablePredicate, q: DefinablePredicate) -> DefinablePredicate:
    """Intersection via products, matching decrements, and budgeting.

    Fresh outputs are prepended; trailing matcher actions simultaneously
    bump a fresh output and drain the two old copies, whose coordinates
    are then forced to zero.
    """
    if p.arity != q.arity:
        raise ArityMismatchError(f"arities differ: {p.arity} vs {q.arity}")
    n = p.arity
    both = product(p, q)  # outputs (x, y), aux l1+l2
    d = both.gvas.dim
    mapping = {a: [(0,) * n + a] for a in both.gvas.actions}
    lifted = apply_morphism(both.gvas, mapping, dim=n + d)
    matchers = []
    for i in range(n):
        v = [0] * (n + d)
        v[i] = 1
        v[n + i] = -1
        v[2 * n + i] = -1
        matchers.append(tuple(v))
    tail = _star_chain(n + d, matchers)
    g = concat(lifted, tail)
    return DefinablePredicate(n, force_zero(g, list(range(n, 3 * n))), d + 1)


def make_resetting(p: DefinablePredicate) -> DefinablePredicate:
    """Equivalent predicate whose runs from zero always end with zero
    auxiliaries and whose actions never decrement an output.

    Fresh outputs are prepended and fed by transfer actions from the old
    outputs; drains empty the old auxiliaries; the old blocks are then
    forced to zero with a budget.
    """
    n, l, d = p.arity, p.aux, p.gvas.dim
    mapping = {a: [(0,) * n + a] for a in p.gvas.actions}
    lifted = apply_morphism(p.gvas, mapping, dim=n + d)
    movers = []
    for i in range(n):  # move old output i to fresh output i
        v = [0] * (n + d)
        v[i] = 1
        v[n + i] = -1
        movers.append(tuple(v))
    for j in range(l):  # drain old auxiliary j
        v = [0] * (n + d)
        v[2 * n + j] = -1
        movers.append(tuple(v))
    tail = _star_chain(n + d, movers)
    g = concat(lifted, tail)
    return DefinablePredicate(n, force_zero(g, list(range(n, n + d))), d + 1)


def is_output_increasing(g: Gvas, arity: int) -> bool:
    """Syntactic check: no action decrements any of the first ``arity``
    coordinates."""
    return all(all(v >= 0 for v in a[:arity]) for a in g.actions)


def periodic_hull(p: DefinablePredicate) -> DefinablePredicate:
    """All finite sums of members, including the empty sum.

    Works on the resetting, output-increasing form, whose runs can be
    concatenated freely; the language star realizes iteration.
    """
    r = make_resetting(p)
    return DefinablePredicate(r.arity, star(r.gvas), r.aux)


def compose_relations(r1: DefinablePredicate, r2: DefinablePredicate) -> DefinablePredicate:
    """Relational composition of two even-arity predicates seen as
    relations on half their arity.

    The product lines up (x, y, y', z); matcher actions drain the two
    middle copies in lockstep, the budget forces them to zero, and the
    middle blocks end up auxiliary.
    """
    if r1.arity != r2.arity or r1.arity % 2:
        raise ArityMismatchError("operands must share one even arity")
    n = r1.arity // 2
    both = product(r1, r2)  # outputs (x, y, y', z), aux l1+l2
    d = both.gvas.dim
    matchers = []
    for i in range(n):
        v = [0] * d
        v[n + i] = -1
        v[2 * n + i] = -1
        matchers.append(tuple(v))
    tail = _star_chain(d, matchers)
    g = force_zero(concat(both.gvas, tail), list(range(n, 3 * n)))
    # reorder: x, z first; y, y' join the auxiliaries
    perm = list(range(n)) + list(range(3 * n, 4 * n)) + list(range(n, 3 * n)) + list(range(4 * n, d + 1))
    return DefinablePredicate(2 * n, permute_coords(g, perm), d + 1 - 2 * n)


# ---------------------------------------------------------------------------
# Predicate files: the GVAS text format with an arity header.

_HEADER = "# arity {arity} aux {aux}"


def format_predicate(p: DefinablePredicate) -> str:
    return _HEADER.format(arity=p.arity, aux=p.aux) + "\n" + format_gvas(p.gvas)


def parse_predicate(text: str) -> DefinablePredicate:
    import re

    m = re.search(r"^#\s*arity\s+(\d+)\s+aux\s+(\d+)\s*$", text, re.MULTILINE)
    if not m:
        raise ParseError("missing '# arity N aux L' header", 1, 1, ("# arity N aux L",))
    arity, aux, g = int(m.group(1)), int(m.group(2)), parse_gvas(text)
    if arity + aux != g.dim:
        raise ParseError(f"arity {arity} + aux {aux} is not dim {g.dim}", text.count("\n", 0, m.start()) + 1, 1)
    return DefinablePredicate(arity, g, aux)
