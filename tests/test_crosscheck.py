"""Cross-engine and round-trip checks over randomized inputs.

The all-pairs table and the demand-driven cone are independent
implementations of the same bounded relation; agreement over random
grammars is a strong mutual oracle.  Parser round trips run under
hypothesis with generated values.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from gvaskit import flowtree as ft
from gvaskit.errors import NotInTableError
from gvaskit.gvas import Gvas, format_gvas, parse_gvas
from gvaskit.ordinal import Ordinal, format_ordinal, parse_ordinal
from gvaskit.pvas import format_pvas, gvas_to_pvas, parse_pvas
from gvaskit.reach import bounded_reach, reach_from


def random_gvas(rng: random.Random) -> Gvas:
    dim = rng.choice([1, 1, 2])
    nts = ["S", "T", "U"][: rng.randint(1, 3)]
    actions = [
        tuple(rng.randint(-2, 2) for _ in range(dim))
        for _ in range(rng.randint(1, 3))
    ]
    rules = []
    for _ in range(rng.randint(2, 6)):
        lhs = rng.choice(nts)
        rhs = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.4:
                rhs.append(rng.choice(nts))
            else:
                rhs.append(rng.choice(actions))
        rules.append((lhs, rhs))
    return Gvas.from_rules(dim, rules, nts[0])


def test_table_and_cone_agree_on_random_grammars():
    rng = random.Random(7)
    checked = demanded = 0
    for _ in range(60):
        g = random_gvas(rng)
        bound = rng.randint(2, 5)
        table = bounded_reach(g, bound)
        cells = list(itertools.product(range(bound + 1), repeat=g.dim))
        for _ in range(3):
            src = tuple(rng.randint(0, bound) for _ in range(g.dim))
            cone = reach_from(g, src, bound)
            assert cone.successors(g.start, src) == table.successors(g.start, src), (
                format_gvas(g), bound, src)
            checked += 1
            # every cell the cone demanded holds the table's full row
            for nt, x in itertools.product(g.nonterminals, cells):
                try:
                    got = cone.successors(nt, x)
                except NotInTableError:
                    continue
                assert got == table.successors(nt, x), (format_gvas(g), bound, src, nt, x)
                demanded += 1
    assert checked >= 150
    assert demanded > checked  # more than the start cells alone


def test_both_engines_build_valid_witnesses_for_same_pairs():
    rng = random.Random(11)
    for _ in range(25):
        g = random_gvas(rng)
        bound = rng.randint(2, 4)
        table = bounded_reach(g, bound)
        pairs = list(table.pairs(g.start))[:5]
        for x, y in pairs:
            t_wit = table.witness(x, g.start, y)
            c_wit = reach_from(g, x, bound).witness(x, g.start, y)
            for w in (t_wit, c_wit):
                assert ft.validate_tree(g, w) is None
                assert (w.label.src, w.label.dst) == (x, y)


def test_every_table_entry_has_valid_witness_all_symbols():
    rng = random.Random(13)
    checked = 0
    for _ in range(15):
        g = random_gvas(rng)
        table = bounded_reach(g, 3)
        for nt in g.nonterminals:
            for x, y in list(table.pairs(nt))[:4]:
                w = table.witness(x, nt, y)
                assert ft.validate_tree(g, w) is None
                assert w.label.symbol == nt
                checked += 1
    assert checked > 40


def test_table_determinism_across_builds():
    rng = random.Random(3)
    for _ in range(10):
        g = random_gvas(rng)
        a = bounded_reach(g, 4)
        b = bounded_reach(g, 4)
        for nt in g.nonterminals:
            assert list(a.pairs(nt)) == list(b.pairs(nt))
        for x, y in list(a.pairs(g.start))[:3]:
            assert a.witness(x, g.start, y) == b.witness(x, g.start, y)


def test_gvas_text_round_trip_random():
    rng = random.Random(19)
    for _ in range(80):
        g = random_gvas(rng)
        assert parse_gvas(format_gvas(g)) == g


def test_pvas_text_round_trip_random():
    rng = random.Random(23)
    for _ in range(40):
        p = gvas_to_pvas(random_gvas(rng))
        assert parse_pvas(format_pvas(p)) == p


def test_tree_text_round_trip_random():
    rng = random.Random(29)
    done = 0
    for _ in range(40):
        g = random_gvas(rng)
        for t in ft.enumerate_trees(g, 4, 3):
            assert ft.parse_tree(ft.format_tree(t)) == t
            done += 1
            if done % 7 == 0:
                break
    assert done > 50


@settings(max_examples=200)
@given(st.builds(Ordinal, st.lists(st.integers(0, 9), max_size=5).map(tuple)))
def test_ordinal_text_round_trip(a):
    assert parse_ordinal(format_ordinal(a)) == a
