import itertools

import pytest

from gvaskit.errors import ArityMismatchError
from gvaskit.gvas import Gvas, format_gvas, validate
from gvaskit.reach import reach_from
from gvaskit.setops import (
    DefinablePredicate,
    compose_relations,
    force_zero,
    format_predicate,
    intersect,
    is_output_increasing,
    linear_set,
    make_resetting,
    member_bounded,
    members_upto,
    parse_predicate,
    periodic_hull,
    product,
    project,
    union,
)


def evens():
    return linear_set((0,), [(2,)])


def threes():
    return linear_set((0,), [(3,)])


# --- membership ---------------------------------------------------------------


def test_membership_of_doubling_graph(graph_pow2):
    assert member_bounded(graph_pow2, (3, 8), 16)
    assert not member_bounded(graph_pow2, (3, 9), 16)
    assert not member_bounded(graph_pow2, (3, 9), 24)  # stays unknown: 9 > 2^3


def test_membership_monotone_in_bound(graph_pow2):
    hits16 = {x for x in itertools.product(range(5), range(10)) if member_bounded(graph_pow2, x, 16)}
    hits24 = {x for x in itertools.product(range(5), range(10)) if member_bounded(graph_pow2, x, 24)}
    assert hits16 <= hits24


def test_membership_arity_check(graph_pow2):
    with pytest.raises(ArityMismatchError):
        member_bounded(graph_pow2, (1, 2, 3), 8)


def test_epsilon_start_membership_at_bound_zero():
    p = DefinablePredicate(1, Gvas.from_rules(1, [("S", [])], "S"), 0)
    assert member_bounded(p, (0,), 0)


# --- linear sets ----------------------------------------------------------------


def test_linear_set_examples():
    p = linear_set((0, 1), [(1, 0), (1, 1)])
    assert member_bounded(p, (2, 2), 8)  # (0,1) + (1,0) + (1,1)
    assert not member_bounded(p, (0, 0), 8)  # below the base
    singleton = linear_set((4,), [])
    assert members_upto(singleton, 8) == [(4,)]
    assert members_upto(evens(), 8) == [(0,), (2,), (4,), (6,), (8,)]
    assert format_gvas(p.gvas) == (
        "dim 2\nstart S\nS -> (0,1) P1\nP1 -> (1,0) P1 | P2\nP2 -> (1,1) P2 | eps\n"
    )


# --- boolean-style combinators ----------------------------------------------------


def test_union_members():
    p = union(evens(), linear_set((1,), [(2,)]))
    assert members_upto(p, 5) == [(v,) for v in range(6)]


def test_union_pads_auxiliaries(graph_pow2):
    lifted = union(graph_pow2, product(linear_set((0,), [(1,)]), linear_set((1,), [])))
    assert lifted.arity == 2
    assert member_bounded(lifted, (3, 8), 16)
    assert member_bounded(lifted, (4, 1), 16)


def test_product_members(graph_pow2):
    p = product(graph_pow2, graph_pow2)
    assert p.arity == 4
    assert member_bounded(p, (1, 2, 2, 4), 8)
    assert not member_bounded(p, (1, 3, 2, 4), 8)


def test_project_keeps_everything_reachable(graph_pow2):
    onto_first = project(graph_pow2, [0])
    # every x admits y = 1, so the projection is all of N
    assert members_upto(onto_first, 6) == [(v,) for v in range(7)]
    onto_second = project(graph_pow2, [1])
    assert (0,) not in members_upto(onto_second, 6)  # y >= 1 always
    assert (3,) in members_upto(onto_second, 8)


# --- budget construction -----------------------------------------------------------


def test_force_zero_epsilon_grammar():
    g = Gvas.from_rules(1, [("S", [])], "S")
    zeroed = force_zero(g, [0])
    cone = reach_from(zeroed, (0, 0), 4)
    assert cone.successors(zeroed.start, (0, 0)) == [(0, 0)]


def test_force_zero_unrestorable_budget():
    g = Gvas.from_rules(1, [("S", [(1,)])], "S")
    zeroed = force_zero(g, [0])
    cone = reach_from(zeroed, (0, 0), 8)
    # producing the 1 spends budget that can never be paid back
    assert cone.successors(zeroed.start, (0, 0)) == []


def test_force_zero_empty_set_is_identity_modulo_budget(pow2):
    zeroed = force_zero(pow2, [])
    cone = reach_from(zeroed, (0, 0), 8)
    got = cone.successors(zeroed.start, (0, 0))
    base = reach_from(pow2, (0,), 8).successors("S", (0,))
    assert got == [(x[0], 0) for x in base]


def test_force_zero_exhaustive_contract(graph_pow2):
    # budgeting the second output keeps exactly the members with y = 0: none
    zeroed = force_zero(graph_pow2.gvas, [1])
    cone = reach_from(zeroed, (0, 0, 0), 12)
    assert cone.successors(zeroed.start, (0, 0, 0)) == []
    # budgeting nothing: members with zero budget line up with the plain set
    free = force_zero(graph_pow2.gvas, [])
    cone = reach_from(free, (0, 0, 0), 12)
    got = {y[:2] for y in cone.successors(free.start, (0, 0, 0))}
    plain = {y for y in members_upto(graph_pow2, 12)}
    assert got == plain
    assert all(y[2] == 0 for y in cone.successors(free.start, (0, 0, 0)))


# --- intersection, resetting, hull ---------------------------------------------------


def test_intersect_multiples():
    inter = intersect(evens(), threes())
    got = [x for x in range(12) if member_bounded(inter, (x,), 24)]
    assert got == [0, 6]
    assert validate(inter.gvas) == [d for d in validate(inter.gvas) if not d.fatal]


def test_intersect_idempotent_on_samples(graph_pow2):
    same = intersect(graph_pow2, graph_pow2)
    # budget headroom: both zeroed blocks peak at x + y, so 14 covers (2, 4)
    for x in [(0, 1), (2, 3), (2, 4)]:
        assert member_bounded(same, x, 14)
    assert not member_bounded(same, (2, 5), 14)


def test_intersect_with_superset(graph_pow2):
    at_least_one = linear_set((0, 1), [(1, 0), (0, 1)])
    same = intersect(graph_pow2, at_least_one)
    got = {x for x in itertools.product(range(3), range(5)) if member_bounded(same, x, 16)}
    want = {(x, y) for x, y in itertools.product(range(3), range(5)) if 1 <= y <= 2**x}
    assert got == want


def test_make_resetting(graph_pow2):
    reset = make_resetting(graph_pow2)
    assert is_output_increasing(reset.gvas, reset.arity)
    window = [(x, y) for x in range(3) for y in range(5)]
    got = {x for x in window if member_bounded(reset, x, 20)}
    want = {(x, y) for x, y in window if 1 <= y <= 2**x}
    assert got == want
    # resetting: every reachable full configuration ends with zero auxiliaries
    zero = (0,) * reset.gvas.dim
    cone = reach_from(reset.gvas, zero, 14)
    for y in cone.successors(reset.gvas.start, zero):
        assert all(v == 0 for v in y[reset.arity:])


def test_make_resetting_idempotent_members():
    base = linear_set((2,), [(2,)])
    once = make_resetting(base)
    assert members_upto(once, 10) == [(v,) for v in range(2, 11, 2)]


def test_periodic_hull_singleton():
    hull = periodic_hull(linear_set((2,), []))
    assert [x for x in range(9) if member_bounded(hull, (x,), 24)] == [0, 2, 4, 6, 8]


def test_periodic_hull_two_generators():
    base = union(linear_set((2,), []), linear_set((3,), []))
    hull = periodic_hull(base)
    got = [x for x in range(9) if member_bounded(hull, (x,), 30)]
    assert got == [0, 2, 3, 4, 5, 6, 7, 8]


def test_periodic_hull_matches_brute_closure():
    base = linear_set((0, 1), [(2, 0)])
    hull = periodic_hull(base)
    bound = 6
    seed = {x for x in itertools.product(range(bound + 1), repeat=2)
            if member_bounded(base, x, 12)}
    closure = {(0, 0)}
    grew = True
    while grew:
        grew = False
        for a in list(closure):
            for b in seed:
                c = (a[0] + b[0], a[1] + b[1])
                if max(c) <= bound and c not in closure:
                    closure.add(c)
                    grew = True
    got = {x for x in itertools.product(range(bound + 1), repeat=2)
           if member_bounded(hull, x, 14)}
    assert got == closure


def test_periodic_hull_of_empty_set():
    empty = DefinablePredicate(1, Gvas.from_rules(1, [("S", [(1,), "S"])], "S"), 0)
    assert members_upto(empty, 6) == []
    hull = periodic_hull(empty)
    assert members_upto(hull, 6) == [(0,)]


# --- relations -------------------------------------------------------------------


def successor_relation():
    return linear_set((0, 1), [(1, 1)])  # {(x, x+1)}


def test_compose_successor_twice():
    two_up = compose_relations(successor_relation(), successor_relation())
    got = {x for x in itertools.product(range(7), repeat=2) if member_bounded(two_up, x, 24)}
    assert got == {(x, x + 2) for x in range(5)}


def test_compose_with_identity():
    ident = linear_set((0, 0), [(1, 1)])
    same = compose_relations(successor_relation(), ident)
    got = {x for x in itertools.product(range(6), repeat=2) if member_bounded(same, x, 24)}
    assert got == {(x, x + 1) for x in range(5)}


def test_compose_doubling_twice():
    doubling = linear_set((0, 0), [(1, 2)])
    quad = compose_relations(doubling, doubling)
    got = {x for x in itertools.product(range(9), repeat=2) if member_bounded(quad, x, 40)}
    assert got == {(x, 4 * x) for x in range(3)}


def test_compose_rejects_odd_arity(graph_pow2):
    with pytest.raises(ArityMismatchError):
        compose_relations(linear_set((0,), []), linear_set((0,), []))


# --- files ----------------------------------------------------------------------


def test_predicate_file_round_trip(graph_pow2):
    text = format_predicate(graph_pow2)
    assert text.startswith("# arity 2 aux 0\n")
    assert parse_predicate(text) == graph_pow2


def test_all_transformers_emit_clean_grammars(graph_pow2):
    outputs = [
        union(graph_pow2, graph_pow2).gvas,
        product(graph_pow2, graph_pow2).gvas,
        project(graph_pow2, [0]).gvas,
        intersect(evens(), threes()).gvas,
        make_resetting(graph_pow2).gvas,
        periodic_hull(evens()).gvas,
        compose_relations(successor_relation(), successor_relation()).gvas,
    ]
    for g in outputs:
        assert not any(d.fatal for d in validate(g))
