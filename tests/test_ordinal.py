import pytest
from hypothesis import given, settings, strategies as st

from gvaskit.errors import CapExceededError, OrdinalRangeError, ParseError
from gvaskit.ordinal import (
    OMEGA,
    Ordinal,
    fast_growing,
    fast_growing_iter,
    format_ordinal,
    fundamental,
    natural_sum,
    parse_ordinal,
)

ordinals = st.builds(Ordinal, st.lists(st.integers(0, 2), max_size=3).map(tuple))


def test_canonicalization_trims_trailing_zeros():
    assert Ordinal((1, 0, 0)).coeffs == (1,)
    assert Ordinal(()).coeffs == ()
    assert Ordinal((0, 0)) == Ordinal(())


def test_negative_coefficient_rejected():
    with pytest.raises(ValueError):
        Ordinal((-1,))


def test_kind_trichotomy_examples():
    assert Ordinal(()).is_zero()
    assert Ordinal((3, 1)).is_successor()  # w + 3
    assert Ordinal((0, 0, 2)).is_limit()  # w^2 * 2


@given(ordinals)
def test_kind_trichotomy_exclusive(a):
    assert [a.is_zero(), a.is_successor(), a.is_limit()].count(True) == 1


def test_natural_sum_examples():
    # (w + 1) + w reorders the exponent multiset {1,0} u {1}
    assert natural_sum(Ordinal((1, 1)), OMEGA) == Ordinal((1, 2))
    # disjoint exponents concatenate
    assert natural_sum(Ordinal((0, 0, 1)), Ordinal((3, 2))) == Ordinal((3, 2, 1))


@given(ordinals, ordinals, ordinals)
def test_natural_sum_monoid(a, b, c):
    assert natural_sum(a, b) == natural_sum(b, a)
    assert natural_sum(natural_sum(a, b), c) == natural_sum(a, natural_sum(b, c))
    assert natural_sum(a, Ordinal(())) == a


def test_fundamental_examples():
    assert fundamental(OMEGA, 4) == Ordinal((5,))  # omega steps to n+1
    # w^3*6 + w^2*3 steps to w^3*6 + w^2*2 + w*(n+1)
    assert fundamental(Ordinal((0, 0, 3, 6)), 7) == Ordinal((0, 8, 2, 6))
    assert fundamental(Ordinal((0, 0, 1)), 0) == Ordinal((0, 1))  # w^2 at 0 is w


def test_fundamental_rejects_non_limits():
    with pytest.raises(OrdinalRangeError):
        fundamental(Ordinal(()), 0)
    with pytest.raises(OrdinalRangeError):
        fundamental(Ordinal((1,)), 0)


@given(st.builds(Ordinal, st.lists(st.integers(0, 2), min_size=2, max_size=3).map(
    lambda cs: (0,) + tuple(cs))).filter(Ordinal.is_limit), st.integers(0, 5))
def test_fundamental_increasing_and_below(lam, n):
    assert fundamental(lam, n) < fundamental(lam, n + 1) < lam


def test_order_is_total_and_degree_first():
    assert Ordinal((5,)) < OMEGA < Ordinal((0, 2)) < Ordinal((0, 0, 1))
    assert Ordinal((1, 1)) < Ordinal((2, 1))


def test_fast_growing_base_values():
    assert fast_growing(Ordinal(()), 7) == 8
    assert fast_growing(Ordinal((1,)), 3) == 7  # four successor steps from 3
    # level 2 iterates doubling-plus-one three times: 2 -> 5 -> 11 -> 23
    assert fast_growing(Ordinal((2,)), 2) == 23
    # omega at 1 drops to level 2: 1 -> 3 -> 7
    assert fast_growing(OMEGA, 1) == 7


def test_fast_growing_iter():
    assert fast_growing_iter(Ordinal((1,)), 0, 5) == 5
    assert fast_growing_iter(Ordinal((1,)), 3, 2) == 23  # 2 -> 5 -> 11 -> 23
    assert fast_growing_iter(Ordinal(()), 4, 0) == 4


def test_cap_exceeded_is_typed_and_early():
    with pytest.raises(CapExceededError):
        fast_growing(OMEGA, 2, cap=10**6)
    # a deep but cap-fitting instance: level 2 from 23 is 2^{24} * 24 - 1
    assert fast_growing(Ordinal((2,)), 23, cap=2**64) == 2**24 * 24 - 1


@pytest.mark.parametrize("coeffs,n,cap", [((0, 0, 1), 30, 34), ((0, 0, 2), 21, 26)])
def test_cap_exceeded_after_deep_level_reductions(coeffs, n, cap):
    # both nest about a thousand level reductions before the first value
    # crosses the cap
    with pytest.raises(CapExceededError):
        fast_growing(Ordinal(coeffs), n, cap)


@settings(max_examples=60)
@given(ordinals, st.integers(0, 6))
def test_expansive(a, n):
    try:
        v = fast_growing(a, n, cap=10**6)
    except CapExceededError:
        return
    assert v > n


@settings(max_examples=60)
@given(ordinals, st.integers(0, 5))
def test_monotone_in_argument(a, n):
    try:
        lo = fast_growing(a, n, cap=10**6)
        hi = fast_growing(a, n + 1, cap=10**6)
    except CapExceededError:
        return
    assert lo <= hi


def test_parse_format_round_trip():
    for text in ("0", "3", "w", "w*2", "w^2*3 + w + 4", "w^2", "w + 1"):
        assert format_ordinal(parse_ordinal(text)) == text


def test_parse_rejects_non_decreasing_exponents():
    with pytest.raises(ParseError):
        parse_ordinal("w + w")
    with pytest.raises(ParseError):
        parse_ordinal("1 + w")
    with pytest.raises(ParseError):
        parse_ordinal("w^2 + w^2*3")


def test_parse_error_location():
    with pytest.raises(ParseError) as e:
        parse_ordinal("w + x3")
    assert e.value.column == 5
