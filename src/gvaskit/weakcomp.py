"""Weak computers: grammars that compute a numeric function in the Rabin sense.

A weak computer for f holds input n in counter 0 and must (a) admit some
run from (n, 0, 0...) whose counter 1 reaches exactly f(n), and (b) never
exceed f(n) there.  The checking harness takes the reference function as
an explicit oracle: correctness is judged against ground truth, never
inferred from the system under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import ArityMismatchError, CapExceededError
from .flowtree import FlowTree
from .gvas import Gvas, apply_morphism, concat, sandwich, star
from .ordinal import DEFAULT_CAP, Ordinal, fast_growing, parse_ordinal
from .reach import cached_cone
from .setops import DefinablePredicate


@dataclass(frozen=True)
class WeakComputer:
    """Grammar plus reference oracle; counter 0 is input, counter 1 output."""

    gvas: Gvas
    aux: int
    oracle: Callable[[int], int] = field(compare=False)
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        if self.aux < 0:
            raise ArityMismatchError(f"dimension {self.gvas.dim} has no room for input and output counters")
        if self.gvas.dim != 2 + self.aux:
            raise ArityMismatchError(f"dimension {self.gvas.dim} is not 2 + aux {self.aux}")

    def value(self, n: int) -> int:
        v = self.oracle(n)
        if v > self.cap:
            raise CapExceededError(f"oracle value {v} exceeds cap {self.cap}")
        return v


@dataclass(frozen=True)
class SafetyReport:
    n: int
    expected: int
    max_output: Optional[int]
    violations: tuple[tuple[int, ...], ...]
    outputs_seen: int


def _start(w: WeakComputer, n: int) -> tuple[int, ...]:
    return (n, 0) + (0,) * w.aux


def check_complete(w: WeakComputer, n: int, bound: int) -> Optional[FlowTree]:
    """Witness run reaching exactly f(n) in the output counter, or None
    when the grid admits none (unknown, not a refutation)."""
    fn = w.value(n)
    if fn > bound:
        raise ValueError(f"bound {bound} below the target value {fn}; enlarge the grid")
    start = _start(w, n)
    cone = cached_cone(w.gvas, start, bound)
    for y in cone.successors(w.gvas.start, start):
        if y[1] == fn:
            return cone.witness(start, w.gvas.start, y)
    return None


def check_safe(w: WeakComputer, n: int, bound: int) -> SafetyReport:
    """Scan every bounded-reachable output for values above f(n)."""
    fn = w.value(n)
    start = _start(w, n)
    cone = cached_cone(w.gvas, start, bound)
    succ = cone.successors(w.gvas.start, start)
    outputs = [y[1] for y in succ]
    violations = tuple(y for y in succ if y[1] > fn)
    return SafetyReport(
        n=n,
        expected=fn,
        max_output=max(outputs) if outputs else None,
        violations=violations,
        outputs_seen=len(succ),
    )


def _single_star(action: tuple[int, ...]) -> Gvas:
    return star(Gvas.from_rules(len(action), [("A", (action,))], "A"))


def wc_to_definable(w: WeakComputer) -> DefinablePredicate:
    """The graph-below predicate {(x, y) : y <= f(x)} of a weak computer.

    The pumped prefix loads x into both the first and third counters, the
    replayed grammar consumes the third copy while writing counter 1, and
    a trailing drain lets y undershoot the computed value.
    """
    l = w.aux
    mapping = {a: [(0, a[1], a[0]) + a[2:]] for a in w.gvas.actions}
    lifted = apply_morphism(w.gvas, mapping, dim=3 + l)
    pre = (1, 0, 1) + (0,) * l
    drain = (0, -1, 0) + (0,) * l
    g = concat(concat(_single_star(pre), lifted), _single_star(drain))
    return DefinablePredicate(2, g, 1 + l)


def definable_to_wc(
    p: DefinablePredicate, oracle: Callable[[int], int], cap: int = DEFAULT_CAP
) -> WeakComputer:
    """Weak computer from a graph-below predicate of arity 2.

    The pumped prefix loads the input, the replayed grammar spends it
    while writing the output, and the matched suffix refunds the loan.
    The oracle must be the non-decreasing bounding function the predicate
    encodes; the harness checks that claim only pointwise.
    """
    if p.arity != 2:
        raise ArityMismatchError(f"need an arity-2 predicate, got {p.arity}")
    l = p.aux
    mapping = {a: [(-a[0], a[1], a[0]) + a[2:]] for a in p.gvas.actions}
    lifted = apply_morphism(p.gvas, mapping, dim=3 + l)
    pre = (1, 0, 0) + (0,) * l
    post = (-1, 0, 0) + (0,) * l
    return WeakComputer(sandwich(lifted, pre, post), 1 + l, oracle, cap)


# ---------------------------------------------------------------------------
# Reference oracles for the CLI and tests.


def oracle_by_name(name: str, cap: int = DEFAULT_CAP) -> Callable[[int], int]:
    """Oracles addressable from the command line.

    ``pow2``, ``identity``, or ``falpha:<ordinal>`` with the usual ordinal
    syntax (e.g. ``falpha:w*2 + 1``).
    """
    if name == "pow2":
        return lambda n: 2**n
    if name == "identity":
        return lambda n: n
    if name.startswith("falpha:"):
        alpha: Ordinal = parse_ordinal(name.split(":", 1)[1])
        return lambda n: fast_growing(alpha, n, cap)
    raise ValueError(f"unknown oracle {name!r}")
