import pytest

from gvaskit.errors import ArityMismatchError
from gvaskit.flowtree import validate_tree
from gvaskit.gvas import Gvas
from gvaskit.setops import linear_set, member_bounded
from gvaskit.weakcomp import (
    WeakComputer,
    check_complete,
    check_safe,
    definable_to_wc,
    oracle_by_name,
    wc_to_definable,
)


@pytest.fixture(scope="module")
def pow2_computer(graph_pow2):
    return definable_to_wc(graph_pow2, lambda n: 2**n)


@pytest.fixture(scope="module")
def identity_computer():
    below = linear_set((0, 0), [(1, 0), (1, 1)])  # {(x, y) : y <= x}
    return definable_to_wc(below, lambda n: n)


def test_complete_finds_target(pow2_computer):
    evidence = check_complete(pow2_computer, 3, 16)
    assert evidence is not None
    assert evidence.label.src[:2] == (3, 0)
    assert evidence.label.dst[1] == 8
    assert validate_tree(pow2_computer.gvas, evidence) is None


def test_complete_minimal_input(pow2_computer):
    evidence = check_complete(pow2_computer, 0, 4)
    assert evidence is not None and evidence.label.dst[1] == 1


def test_complete_rejects_small_bound(pow2_computer):
    with pytest.raises(ValueError):
        check_complete(pow2_computer, 3, 7)  # 2^3 cannot fit


def test_safe_no_violations(pow2_computer):
    for n in range(4):
        report = check_safe(pow2_computer, n, 16)
        assert report.violations == ()
        assert report.max_output == 2**n


def test_safe_detects_broken_computer(pow2_computer):
    g = pow2_computer.gvas
    bump = tuple(1 if i == 1 else 0 for i in range(g.dim))
    rules = g.rules + ((g.start, (bump, g.start)),)
    broken = WeakComputer(Gvas.from_rules(g.dim, rules, g.start), pow2_computer.aux,
                          pow2_computer.oracle)
    report = check_safe(broken, 2, 12)
    assert report.violations
    assert report.max_output > 4


def test_identity_computer(identity_computer):
    for n in range(6):
        assert check_complete(identity_computer, n, 8) is not None
        report = check_safe(identity_computer, n, 8)
        assert report.max_output == n and not report.violations


def test_max_output_monotone_in_bound(pow2_computer):
    best = [check_safe(pow2_computer, 3, b).max_output or 0 for b in (8, 12, 16)]
    assert best == sorted(best) and best[-1] == 8


def test_wc_to_definable_members(pow2_computer):
    p = wc_to_definable(pow2_computer)
    assert p.arity == 2
    assert member_bounded(p, (3, 8), 20)
    assert member_bounded(p, (3, 0), 20)
    assert member_bounded(p, (0, 1), 20)
    assert not member_bounded(p, (3, 9), 20)


def test_round_trip_preserves_membership(pow2_computer):
    p = wc_to_definable(pow2_computer)
    window = [(x, y) for x in range(5) for y in range(17)]
    got = {x for x in window if member_bounded(p, x, 20)}
    assert got == {(x, y) for x, y in window if y <= 2**x}


def test_weak_computer_needs_input_and_output_counters(pow2):
    with pytest.raises(ArityMismatchError, match="dimension 1 has no room for input and output counters"):
        WeakComputer(pow2, aux=-1, oracle=lambda n: n)


def test_definable_to_wc_needs_arity_2():
    with pytest.raises(ArityMismatchError):
        definable_to_wc(linear_set((0,), [(1,)]), lambda n: n)


def test_oracles_by_name():
    assert oracle_by_name("pow2")(5) == 32
    assert oracle_by_name("identity")(7) == 7
    assert oracle_by_name("falpha:2")(2) == 23
    assert oracle_by_name("falpha:w")(1) == 7
    with pytest.raises(ValueError):
        oracle_by_name("sqrt")
