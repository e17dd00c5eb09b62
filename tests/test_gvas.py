import pytest

from gvaskit.errors import (
    DimensionMismatchError,
    NegativeCounterError,
    ParseError,
    UnknownSymbolError,
)
from gvaskit.gvas import (
    Gvas,
    apply_morphism,
    concat,
    derive_step,
    derives,
    format_gvas,
    parse_gvas,
    run_word,
    sandwich,
    star,
    union,
    validate,
)


def test_validate_clean(exchange):
    assert validate(exchange) == []


def test_validate_reports_unproductive():
    g = Gvas.from_rules(1, [("S", ["T"])], "S")
    codes = {d.code for d in validate(g)}
    assert "unproductive" in codes
    assert not any(d.fatal for d in validate(g))


def test_validate_dimension_mismatch():
    g = Gvas.from_rules(2, [("S", [(1,)])], "S")
    assert any(d.code == "dimension" and d.fatal for d in validate(g))


def test_validate_unreachable():
    g = Gvas.from_rules(1, [("S", [(1,)]), ("T", [(0,)])], "S")
    assert any(d.code == "unreachable" for d in validate(g))


def test_derive_step(pow2):
    out = derive_step(pow2, ("S",))
    assert out == [((1,),), ((-1,), "S", "T")]
    assert derive_step(pow2, ((1,), (0,))) == []
    # two nonterminals, two alternatives each
    assert len(derive_step(pow2, ("S", "T"))) == 4


def test_derive_step_unknown_symbol(pow2):
    with pytest.raises(UnknownSymbolError):
        derive_step(pow2, ("X",))


def test_derives_finds_minimal_trace(pow2):
    target = ((-1,), (-1,), (1,), (0,), (0,))
    trace = derives(pow2, ("S",), target, max_steps=6)
    assert trace is not None
    assert len(trace) - 1 == 5
    assert trace[0] == ("S",) and trace[-1] == target


def test_derives_reflexive(pow2):
    assert derives(pow2, ("S", "T"), ("S", "T"), 0) == (("S", "T"),)


def test_derives_unknown_on_budget(pow2):
    # the start never yields the lone zero action
    assert derives(pow2, ("S",), ((0,),), max_steps=8) is None


def test_run_word(exchange):
    w = ((-1, 2), (2, -1), (-1, 2))
    assert run_word(exchange, (2, 2), w) == (2, 5)
    assert run_word(exchange, (4, 4), ()) == (4, 4)


def test_run_word_underflow(exchange):
    with pytest.raises(NegativeCounterError) as e:
        run_word(exchange, (0, 0), ((-1, 2),))
    assert e.value.index == 0 and e.value.position == 0


def test_run_word_rejects_nonterminals(pow2):
    with pytest.raises(UnknownSymbolError):
        run_word(pow2, (1,), ("S",))


def test_apply_morphism_identity(pow2):
    same = apply_morphism(pow2, {a: [a] for a in pow2.actions})
    assert same.rules == pow2.rules and same.dim == 1


def test_apply_morphism_budget_style(pow2):
    # send x to (x, -x): the image language tracks the debt of the original
    mapping = {a: [(a[0], -a[0])] for a in pow2.actions}
    g2 = apply_morphism(pow2, mapping)
    assert g2.dim == 2
    assert ((1, -1),) in {rhs for _, rhs in g2.rules}


def test_apply_morphism_erasing(pow2):
    g2 = apply_morphism(pow2, {a: [] for a in pow2.actions}, dim=1)
    assert all(all(isinstance(s, str) for s in rhs) for _, rhs in g2.rules)
    # derivation structure is unchanged
    assert derives(g2, ("S",), (), max_steps=4) is not None


def test_apply_morphism_requires_total(pow2):
    with pytest.raises(DimensionMismatchError):
        apply_morphism(pow2, {})


def test_combinators_language_shapes():
    one = Gvas.from_rules(1, [("S", [(1,)])], "S")
    starred = star(one)
    # k-fold words for every k: check the 3-step derivation to (1)(1)
    assert derives(starred, (starred.start,), ((1,), (1,)), 5) is not None
    assert derives(starred, (starred.start,), (), 2) is not None

    both = union(one, Gvas.from_rules(1, [("S", [(2,)])], "S"))
    assert derives(both, (both.start,), ((1,),), 3) is not None
    assert derives(both, (both.start,), ((2,),), 3) is not None

    glued = concat(one, one)
    assert derives(glued, (glued.start,), ((1,), (1,)), 4) is not None

    zero = Gvas.from_rules(2, [("S", [(0, 0)])], "S")
    wrapped = sandwich(zero, (0, 1), (0, -1))
    got = derives(wrapped, (wrapped.start,), ((0, 1), (0, 1), (0, 0), (0, -1), (0, -1)), 6)
    assert got is not None


def test_union_renames_colliding_nonterminals(pow2):
    merged = union(pow2, pow2)
    assert len(merged.rules) == 2 + 2 * len(pow2.rules)
    assert len(set(merged.nonterminals)) == len(merged.nonterminals)


def test_combinator_languages_exact_up_to_length():
    """Bounded language equality against independent word enumeration."""
    from test_reach import terminal_words

    a = Gvas.from_rules(1, [("S", [(1,), "S"]), ("S", [(2,)])], "S")
    b = Gvas.from_rules(1, [("S", [(3,)]), ("S", [(3,), (1,)])], "S")
    words_a = terminal_words(a, 5)
    words_b = terminal_words(b, 5)

    assert terminal_words(union(a, b), 5) == words_a | words_b
    got = terminal_words(concat(a, b), 5)
    want = {u + v for u in words_a for v in words_b if len(u) + len(v) <= 5}
    assert got == want
    got = terminal_words(star(b), 6)
    want = {()}
    grew = True
    while grew:
        grew = False
        for u in list(want):
            for v in words_b:
                w = u + v
                if len(w) <= 6 and w not in want:
                    want.add(w)
                    grew = True
    assert got == want
    got = terminal_words(sandwich(b, (5,), (-5,)), 7)
    want = {((5,),) * k + w + ((-5,),) * k for k in range(4) for w in words_b
            if 2 * k + len(w) <= 7}
    assert got == want
    assert terminal_words(union(a, a), 5) == words_a  # idempotent language


def test_parse_format_round_trip(exchange):
    text = format_gvas(exchange)
    assert parse_gvas(text) == exchange
    assert text == "dim 2\nstart S\nS -> S S | (-1,2) | (2,-1)\n"


def test_parse_interface_example():
    g = parse_gvas("""
# toy
dim 2
start S
S -> S S | (-1,2) | (2,-1)
T -> eps
""")
    assert g.dim == 2 and g.start == "S"
    assert g.rules[-1] == ("T", ())
    assert g.rules[0] == ("S", ("S", "S"))


def test_parse_preserves_interleaved_rule_order():
    text = "dim 1\nstart S\nS -> (1)\nT -> (2)\nS -> (3)\n"
    g = parse_gvas(text)
    assert [lhs for lhs, _ in g.rules] == ["S", "T", "S"]
    assert format_gvas(g) == text


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as e:
        parse_gvas("dim 2\nstart S\nS -> (1)\n")
    assert e.value.line == 3
    with pytest.raises(ParseError) as e:
        parse_gvas("start S\nS -> (1)\n")
    assert "dim" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_gvas("dim 1\nstart S\nS -> eps (1)\n")
    assert e.value.line == 3


@pytest.mark.parametrize("text,message,column", [
    ("  dim x\nstart S\nS -> (1)\n", "bad dimension 'x'", 7),
    ("dim   -1\nstart S\n", "dimension must be non-negative", 7),
    ("dim 1_0\nstart S\nS -> eps\n", "bad dimension '1_0'", 5),
    ("dim  +1\nstart S\nS -> eps\n", "bad dimension '\\+1'", 6),
    ("dim \u0661\nstart S\nS -> eps\n", "bad dimension", 5),  # an Arabic-Indic one
    ("dim 1\nstart    1S\nS -> (1)\n", "bad start symbol '1S'", 10),
    ("dim 1\n  start eps\n", "bad start symbol 'eps'", 9),
    ("dim 1\nstart S\n  eps -> (1)\n", "bad rule left side 'eps'", 3),
    ("dim 1\nstart S\n   start S\n", "duplicate start line", 4),
])
def test_header_errors_report_columns_of_the_raw_line(text, message, column):
    with pytest.raises(ParseError, match=message) as e:
        parse_gvas(text)
    assert e.value.column == column


@pytest.mark.parametrize("rules", [
    [("S", ["eps", (1,)]), ("eps", [])],  # written as "S -> eps (1)", which does not parse
    [("S", ["eps"]), ("eps", [(1,)])],  # written as "S -> eps", which parses as the empty rule
])
def test_nonterminal_eps_is_rejected(rules):
    with pytest.raises(ValueError, match="'eps'"):
        Gvas.from_rules(1, rules, "S")


@pytest.mark.parametrize("name", ["1S", "S T", "", "S->T"])
def test_nonterminal_names_must_be_identifiers(name):
    with pytest.raises(ValueError, match=repr(name)):
        Gvas.from_rules(1, [("S", [name]), (name, [(1,)])], "S")


@pytest.mark.parametrize("text", [
    "dim 1\nstart S\nS -> (1,2)\n",
    "start S\nS -> (1,2)\ndim 1\n",  # the rule comes before the dim line
])
def test_action_length_is_checked_wherever_dim_is(text):
    with pytest.raises(ParseError, match="action \\(1,2\\) has length 2, expected 1") as e:
        parse_gvas(text)
    assert (e.value.line, e.value.column) == (text.splitlines().index("S -> (1,2)") + 1, 6)
