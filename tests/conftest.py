import sys

import pytest
from hypothesis import settings

from gvaskit import flowtree as ft
from gvaskit.gvas import Gvas
from gvaskit.setops import DefinablePredicate

# randomized tests must replay identically run to run
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def shallow_stack():
    """``call(f, *args)``: f(*args) with the recursion limit lowered to the
    caller's stack depth plus 100, then restored.  An algorithm that recurses
    once per tree level fails under it on any deep tree, so build the inputs
    first and hand only the algorithm to the call."""

    def call(f, *args):
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            return f(*args)
        finally:
            sys.setrecursionlimit(limit)

    return call


@pytest.fixture(scope="session")
def pow2():
    """1-dim grammar whose start relation is n -> n' iff 1 <= n' <= 2^n."""
    return Gvas.from_rules(1, [
        ("S", [(1,)]),
        ("S", [(-1,), "S", "T"]),
        ("T", [(0,)]),
        ("T", [(-1,), "T", (2,)]),
    ], "S")


@pytest.fixture(scope="session")
def exchange():
    """2-dim single-nonterminal grammar trading one counter for the other."""
    return Gvas.from_rules(2, [
        ("S", ["S", "S"]),
        ("S", [(-1, 2)]),
        ("S", [(2, -1)]),
    ], "S")


@pytest.fixture(scope="session")
def order_demo():
    """1-dim grammar rich enough to separate the tree orderings."""
    return Gvas.from_rules(1, [
        ("S", [(3,), "T"]),
        ("S", [(3,), "U"]),
        ("T", [(-2,)]),
        ("T", ["V", "T"]),
        ("U", ["T"]),
        ("V", []),
    ], "S")


@pytest.fixture(scope="session")
def order_trees(order_demo):
    """Three flow trees: base <= tall, base not<= wide, base hom-embeds wide."""
    wide = ft.node((3,), "S", (4,), [
        ft.action_leaf((3,), (3,)),
        ft.node((6,), "U", (4,), [
            ft.node((6,), "T", (4,), [ft.action_leaf((6,), (-2,))]),
        ]),
    ])
    base = ft.node((2,), "S", (3,), [
        ft.action_leaf((2,), (3,)),
        ft.node((5,), "T", (3,), [ft.action_leaf((5,), (-2,))]),
    ])
    tall = ft.node((3,), "S", (4,), [
        ft.action_leaf((3,), (3,)),
        ft.node((6,), "T", (4,), [
            ft.node((6,), "V", (6,)),
            ft.node((6,), "T", (4,), [ft.action_leaf((6,), (-2,))]),
        ]),
    ])
    for t in (wide, base, tall):
        assert ft.validate_tree(order_demo, t) is None
    return {"base": base, "wide": wide, "tall": tall}


@pytest.fixture(scope="session")
def graph_pow2():
    """2-dim predicate {(x, y) : 1 <= y <= 2^x} (the pow2 grammar's graph)."""
    g = Gvas.from_rules(2, [
        ("S", [(0, 1)]),
        ("S", [(1, 0), "S", "T"]),
        ("T", [(0, 0)]),
        ("T", [(0, -1), "T", (0, 2)]),
    ], "S")
    return DefinablePredicate(2, g, 0)
