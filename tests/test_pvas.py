import pytest

from gvaskit.gvas import Gvas, parse_gvas
from gvaskit.errors import NotEnabledError, ParseError, ResourceLimitError, UnsupportedModelError
from gvaskit.pvas import (
    Pvas,
    PvasConfig,
    format_pvas,
    gvas_to_pvas,
    parse_pvas,
    pvas_bounded_explore,
    pvas_step,
    pvas_to_gvas,
)
from gvaskit.reach import bounded_reach


@pytest.fixture(scope="module")
def exchange_pvas():
    """The stack machine with actions (S,SS,0), (S,e,(-1,2)), (S,e,(2,-1))."""
    return Pvas.make(2, ["S"], [
        (("S",), ("S", "S"), (0, 0)),
        (("S",), (), (-1, 2)),
        (("S",), (), (2, -1)),
    ])


def test_step_push(exchange_pvas):
    c = PvasConfig(("S",), (2, 2))
    assert pvas_step(exchange_pvas, c, 0) == PvasConfig(("S", "S"), (2, 2))


def test_step_counter_underflow(exchange_pvas):
    with pytest.raises(NotEnabledError) as e:
        pvas_step(exchange_pvas, PvasConfig(("S",), (0, 0)), 1)
    assert e.value.reason == "counter-underflow"


def test_step_stack_mismatch(exchange_pvas):
    with pytest.raises(NotEnabledError) as e:
        pvas_step(exchange_pvas, PvasConfig((), (5, 5)), 0)
    assert e.value.reason == "stack-mismatch"


def test_remarked_run(exchange_pvas):
    """(S,(2,2)) -> (SS,(2,2)) -> (S,(1,4)) -> (SS,(1,4)) -> (S,(3,3)) -> (e,(2,5))."""
    c = PvasConfig(("S",), (2, 2))
    c = pvas_step(exchange_pvas, c, 0)
    c = pvas_step(exchange_pvas, c, 1)
    assert c == PvasConfig(("S",), (1, 4))
    c = pvas_step(exchange_pvas, c, 0)
    c = pvas_step(exchange_pvas, c, 2)
    assert c == PvasConfig(("S",), (3, 3))
    c = pvas_step(exchange_pvas, c, 1)
    assert c == PvasConfig((), (2, 5))


def test_gvas_to_pvas_shape(exchange):
    p = gvas_to_pvas(exchange)
    assert p.stack_alphabet[0] == "S"
    assert (("S",), ("S", "S"), (0, 0)) in p.actions
    pops = [a for a in p.actions if a[1] == ()]
    assert {a[2] for a in pops} == {(-1, 2), (2, -1)}


def test_gvas_to_pvas_reaches_run(exchange):
    p = gvas_to_pvas(exchange)
    seen = pvas_bounded_explore(p, PvasConfig(("S",), (2, 2)), 8, 8, 40)
    assert PvasConfig((), (2, 5)) in seen


def test_gvas_to_pvas_doubling_run(pow2):
    p = gvas_to_pvas(pow2)
    assert len(p.actions) == len(pow2.rules) + len(pow2.actions)
    seen = pvas_bounded_explore(p, PvasConfig(("S",), (3,)), 16, 12, 60)
    assert PvasConfig((), (2,)) in seen


def test_epsilon_rule_gvas_gives_zero_effect_machine():
    g = Gvas.from_rules(1, [("S", [])], "S")
    p = gvas_to_pvas(g)
    seen = pvas_bounded_explore(p, PvasConfig(("S",), (4,)), 8, 4, 6)
    assert seen == {PvasConfig(("S",), (4,)), PvasConfig((), (4,))}


def test_explore_bounds():
    p = Pvas.make(1, ["Z"], [(("Z",), ("Z",), (1,))])
    start = PvasConfig(("Z",), (0,))
    assert pvas_bounded_explore(p, start, 5, 5, 0) == {start}
    seen = pvas_bounded_explore(p, start, 3, 5, 10)
    assert {c.counters for c in seen} == {(0,), (1,), (2,), (3,)}
    with pytest.raises(ResourceLimitError):
        pvas_bounded_explore(p, start, 10**6, 10**6, 10**5, max_configs=3)


def test_explore_counter_bound_zero(exchange_pvas):
    seen = pvas_bounded_explore(exchange_pvas, PvasConfig(("S",), (0, 0)), 0, 4, 6)
    assert all(c.counters == (0, 0) for c in seen)
    assert {len(c.stack) for c in seen} == {1, 2, 3, 4}


def test_translation_set_equivalence(pow2, exchange):
    """Empty-stack-reachable counter vectors match the grammar's bounded
    table when the stack and step budgets are generous enough (recorded
    per example: stack 12/10, steps 60/40)."""
    for g, start, bound, stack_b, steps in [
        (pow2, (3,), 8, 12, 60),
        (exchange, (2, 2), 6, 10, 40),
    ]:
        table = bounded_reach(g, bound)
        p = gvas_to_pvas(g)
        seen = pvas_bounded_explore(p, PvasConfig(("S",), start), bound, stack_b, steps)
        empty_stack = {c.counters for c in seen if c.stack == ()}
        assert empty_stack == set(table.successors("S", start))


def test_pvas_to_gvas_round_trip(exchange):
    back = pvas_to_gvas(gvas_to_pvas(exchange))
    ta = bounded_reach(exchange, 8)
    tb = bounded_reach(back, 8)
    for x in [(2, 2), (0, 1), (3, 0)]:
        assert ta.successors("S", x) == tb.successors(back.start, x)


def test_nonterminal_underscore_gets_a_fresh_stack_symbol():
    # "_" is a nonterminal name to parse_gvas but the empty word to parse_pvas
    g = parse_gvas("dim 1\nstart _\n_ -> (1) _ | eps\n")
    text = format_pvas(gvas_to_pvas(g))
    assert text == "dim 1\nstack n a0\naction n / a0 n / (0)\naction n / _ / (0)\naction a0 / _ / (1)\n"
    back = pvas_to_gvas(parse_pvas(text))
    ta, tb = bounded_reach(g, 6), bounded_reach(back, 6)
    for x in range(7):
        assert tb.successors(back.start, (x,)) == ta.successors("_", (x,)) == [(v,) for v in range(x, 7)]


def test_pvas_to_gvas_single_pop():
    p = Pvas.make(1, ["Z"], [(("Z",), (), (1,))])
    g = pvas_to_gvas(p)
    table = bounded_reach(g, 4)
    assert table.successors("Z", (0,)) == [(1,)]


def test_pvas_to_gvas_no_actions():
    p = Pvas.make(1, ["Z"], [])
    g = pvas_to_gvas(p)
    table = bounded_reach(g, 2)
    assert table.successors("Z", (1,)) == []


def test_pvas_to_gvas_push_only_expansion():
    p = Pvas.make(1, ["Z", "A"], [((), ("A",), (0,)), (("A",), (), (1,)), (("Z",), (), (0,))])
    g = pvas_to_gvas(p)
    table = bounded_reach(g, 4)
    # from Z one may inject any number of A's before erasing Z
    assert (2,) in table.successors("Z", (0,))


@pytest.mark.parametrize("symbol", ["eps", "_", "1x", "a b", ""])
def test_make_rejects_stack_symbols_the_text_format_cannot_write(symbol):
    # pvas_to_gvas would name a nonterminal after it, and format_gvas then
    # writes text that parse_gvas rejects or reads as another grammar
    with pytest.raises(ValueError, match="stack symbol"):
        Pvas.make(1, (symbol, "S"), [((symbol,), ("S",), (1,)), (("S",), (), (0,))])


def test_pvas_to_gvas_rejects_multi_pop():
    p = Pvas.make(1, ["A", "B"], [(("A", "B"), (), (0,))])
    with pytest.raises(UnsupportedModelError):
        pvas_to_gvas(p)


def test_text_round_trip(exchange_pvas):
    text = format_pvas(exchange_pvas)
    assert parse_pvas(text) == exchange_pvas
    assert "action S / S S / (0,0)" in text
    assert "action S / _ / (-1,2)" in text


@pytest.mark.parametrize("text,message,line", [
    ("dim 1\nstack S\ndim 2\n", "duplicate dim line", 3),
    ("dim 1\nstack S\naction S / _ / (1)\nstack S T\n", "duplicate stack line", 4),
])
def test_duplicate_header_lines_are_rejected(text, message, line):
    with pytest.raises(ParseError, match=message) as e:
        parse_pvas(text)
    assert (e.value.line, e.value.column) == (line, 1)


@pytest.mark.parametrize("text,message", [
    ("dim 1\nstack S 1x\naction S / _ / (1)\n", "bad stack symbol '1x'"),
    ("dim 1\nstack S S\naction S / S S / (1)\n", "duplicate stack symbol 'S'"),
    ("dim 1\nstack _\n", "empty stack alphabet"),
    ("dim 1\nstack S eps\naction S / eps / (1)\n", "bad stack symbol 'eps'"),
    ("dim 1\nstack S _\n", "bad stack symbol '_'"),
])
def test_stack_line_symbols_are_checked(text, message):
    with pytest.raises(ParseError, match=message) as e:
        parse_pvas(text)
    # each case is at fault in the last word of its stack line
    stack_line = text.splitlines()[1]
    assert (e.value.line, e.value.column) == (2, stack_line.rindex(" ") + 2)


@pytest.mark.parametrize("text,message,column", [
    ("  dim x\nstack S\n", "bad dimension 'x'", 7),
    ("dim    -1\nstack S\n", "dimension must be non-negative", 8),
    ("dim 1_0\nstack S\n", "bad dimension '1_0'", 5),
    ("dim  +1\nstack S\n", "bad dimension '\\+1'", 6),
    ("dim 1\n  stack   S  1x\n", "bad stack symbol '1x'", 14),
    ("dim 1\nstack S  T   S\n", "duplicate stack symbol 'S'", 14),
    ("dim 1\nstack    _\n", "empty stack alphabet", 10),
    ("dim 1\nstack S\n  action S  1y / _ / (1)\n", "bad stack symbol '1y'", 13),
    ("dim 1\nstack S\naction S / S eps / (1)\n", "bad stack symbol 'eps'", 14),
    ("dim 1\nstack S\naction S / _ /   (1,2)\n", "delta \\(1,2\\) has length 2", 18),
    ("dim 1\nstack S\n   dim 2\n", "duplicate dim line", 4),
])
def test_parse_errors_report_columns_of_the_raw_line(text, message, column):
    with pytest.raises(ParseError, match=message) as e:
        parse_pvas(text)
    assert e.value.column == column
