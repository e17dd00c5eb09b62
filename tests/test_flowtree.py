import itertools

import pytest

from gvaskit import fastgrowing
from gvaskit import flowtree as ft
from gvaskit.errors import (
    ChainUndefinedError,
    DimensionMismatchError,
    InvalidPositionError,
    InvalidWitnessError,
    OutOfGridError,
    PreconditionError,
    UnknownSymbolError,
)
from gvaskit.gvas import Gvas, Transition
from gvaskit.ordinal import Ordinal
from gvaskit.reach import bounded_reach


def doubling_witness(pow2):
    """The hand-drawn 5-leaf tree for 3 ->S 2 in the doubling grammar."""
    return ft.node((3,), "S", (2,), [
        ft.action_leaf((3,), (-1,)),
        ft.node((2,), "S", (2,), [
            ft.action_leaf((2,), (-1,)),
            ft.node((1,), "S", (2,), [ft.action_leaf((1,), (1,))]),
            ft.node((2,), "T", (2,), [ft.action_leaf((2,), (0,))]),
        ]),
        ft.node((2,), "T", (2,), [ft.action_leaf((2,), (0,))]),
    ])


# --- validity -----------------------------------------------------------------


def test_validate_accepts_hand_tree(pow2):
    assert ft.validate_tree(pow2, doubling_witness(pow2)) is None


def test_validate_flags_broken_chain(pow2):
    t = doubling_witness(pow2)
    broken = ft.FlowTree(Transition((3,), "S", (5,)), t.children)
    defect = ft.validate_tree(pow2, broken)
    assert defect is not None and defect.position == ()


def test_validate_flags_action_arithmetic(pow2):
    bad = ft.FlowTree(Transition((2,), (-1,), (2,)))
    defect = ft.validate_tree(pow2, bad)
    assert defect is not None and "source" in defect.message


def test_validate_reports_shallowest_leftmost(pow2):
    t = doubling_witness(pow2)
    bad_leaf = ft.FlowTree(Transition((2,), (0,), (3,)))
    # break the T subtree at (3,) and a deeper one at (2, 3): both keep
    # their own roots, so the shallower internal break is reported
    deep_t = ft.FlowTree(ft.subtree_at(t, (2, 3)).label, (bad_leaf,))
    mid = t.children[1]
    mid2 = ft.FlowTree(mid.label, mid.children[:2] + (deep_t,))
    shallow_t = ft.FlowTree(t.children[2].label, (bad_leaf,))
    broken = ft.FlowTree(t.label, (t.children[0], mid2, shallow_t))
    defect = ft.validate_tree(pow2, broken)
    assert defect is not None and defect.position == (3,)


def test_validate_epsilon_leaf(order_demo):
    assert ft.validate_tree(order_demo, ft.node((6,), "V", (6,))) is None
    bad = ft.node((6,), "V", (7,))
    assert ft.validate_tree(order_demo, bad) is not None


# --- positions ------------------------------------------------------------------


def test_positions_preorder(pow2):
    t = doubling_witness(pow2)
    assert ft.positions(t) == [
        (), (1,), (2,), (2, 1), (2, 2), (2, 2, 1), (2, 3), (2, 3, 1), (3,), (3, 1),
    ]
    flat = ft.node((0,), "S", (1,), [ft.action_leaf((0,), (1,))])
    assert ft.positions(flat) == [(), (1,)]


def test_subtree_at(order_trees):
    tall = order_trees["tall"]
    assert ft.subtree_at(tall, ()) is tall
    assert ft.subtree_at(order_trees["base"], (2,)).label == Transition((5,), "T", (3,))
    assert ft.subtree_at(tall, (2, 2)).label == Transition((6,), "T", (4,))
    with pytest.raises(InvalidPositionError):
        ft.subtree_at(tall, (3,))


def test_shift(order_trees):
    base = order_trees["base"]
    up = ft.shift(base, (1,))
    assert up.label == Transition((3,), "S", (4,))
    assert up.children[1].children[0].label == Transition((6,), (-2,), (4,))
    assert ft.shift(base, (0,)) == base
    leaf = ft.action_leaf((2,), (3,))
    assert ft.shift(leaf, (4,)).label == Transition((6,), (3,), (9,))


def test_shift_rejects_wrong_dimension(order_trees):
    from gvaskit.errors import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        ft.shift(order_trees["base"], (1, 0))


# --- the tree ordering ----------------------------------------------------------


def test_order_triple(order_trees):
    base, wide, tall = order_trees["base"], order_trees["wide"], order_trees["tall"]
    got = ft.leq(base, tall)
    assert got is not None
    delta, wit = got
    assert delta == ft.Lifting((1,), (1,))
    # the second child must anchor one level down, at the inner T
    assert wit.anchor == () and wit.children[1].anchor == (2,)
    assert ft.leq(base, wide) is None
    assert ft.hom_embeds(base, wide)
    assert not ft.hom_embeds(tall, base)


def test_hom_embed_needs_an_anchor(order_trees):
    # a lone node above every node of the target embeds nowhere
    giant = ft.node((99,), "T", (99,))
    assert not ft.hom_embeds(giant, order_trees["tall"])
    assert ft.hom_embeds(order_trees["tall"], order_trees["tall"])


def test_order_reflexive_with_zero_lifting(order_trees):
    for t in order_trees.values():
        delta, wit = ft.leq(t, t)
        assert delta.is_zero() and wit.anchor == ()


def test_replay_accepts_and_rejects(order_trees):
    base, tall = order_trees["base"], order_trees["tall"]
    delta, wit = ft.leq(base, tall)
    assert ft.replay(wit, base, tall) == delta
    with pytest.raises(InvalidWitnessError):
        ft.replay(wit, tall, base)
    bogus = ft.EmbeddingWitness((1, 1), wit.children)
    with pytest.raises(InvalidWitnessError):
        ft.replay(bogus, base, tall)


def chain_of_depth_3001():
    """T -> V T three thousand times, then T -> (-2), in the order demo."""
    chain = ft.node((6,), "T", (4,), [ft.action_leaf((6,), (-2,))])
    for _ in range(3000):
        chain = ft.node((6,), "T", (4,), [ft.node((6,), "V", (6,)), chain])
    return chain


def test_replay_on_a_chain_of_depth_3000(order_demo):
    # the witnesses are built by hand, anchoring every node at its counterpart
    chain = chain_of_depth_3001()
    good = ft.EmbeddingWitness((), (ft.EmbeddingWitness(()),))
    bad = ft.EmbeddingWitness((), (ft.EmbeddingWitness((1,)),))  # below a leaf
    for _ in range(3000):
        good = ft.EmbeddingWitness((), (ft.EmbeddingWitness(()), good))
        bad = ft.EmbeddingWitness((), (ft.EmbeddingWitness(()), bad))
    assert ft.validate_tree(order_demo, chain) is None
    up = ft.shift(chain, (1,))
    assert ft.replay(good, chain, up) == ft.Lifting((1,), (1,))
    with pytest.raises(InvalidWitnessError, match="roots not comparable"):
        ft.replay(good, up, chain)
    with pytest.raises(InvalidWitnessError, match="invalid at depth 0"):
        ft.replay(bad, chain, up)
    delta, found = ft.leq(chain, up)
    assert ft.replay(found, chain, up) == delta == ft.Lifting((1,), (1,))
    assert flat_witness(found) == flat_witness(good)


def test_tree_algorithms_do_not_recurse(shallow_stack):
    chain = chain_of_depth_3001()
    up, w = ft.shift(chain, (1,)), root_witness(chain)
    twice = ft.shift(chain, (2,))
    assert shallow_stack(ft.shift, chain, (1,)) == up
    delta, found = shallow_stack(ft.leq, chain, up)
    assert delta == ft.Lifting((1,), (1,)) and flat_witness(found) == flat_witness(w)
    assert shallow_stack(ft.hom_embeds, chain, up)
    assert shallow_stack(ft.leq_via_adorn, chain, up)
    merged = shallow_stack(ft.amalgamate, chain, up, w, twice, w)
    assert merged == ft.shift(chain, (3,))


@pytest.mark.parametrize("order", [ft.leq, ft.hom_embeds, ft.leq_via_adorn], ids=["leq", "hom_embeds", "adorn"])
def test_orderings_refuse_trees_of_different_dimensions(order):
    # comparing through zip would relate them on the shorter length
    one, two = ft.node((1,), "S", (1,)), ft.node((2, 5), "S", (3, 5))
    for s, t in [(one, two), (two, one), (ft.node((3,), "S", (3,)), two)]:
        with pytest.raises(DimensionMismatchError, match="dimensions"):
            order(s, t)


def test_replay_and_amalgamate_refuse_trees_of_different_dimensions():
    # an empty witness once replayed into Lifting((1,), (2,)), and amalgamate into ((3 S 5))
    one, two = ft.node((1,), "S", (1,)), ft.node((2, 5), "S", (3, 5))
    w = ft.EmbeddingWitness(())
    with pytest.raises(DimensionMismatchError, match="dimensions"):
        ft.replay(w, one, two)
    with pytest.raises(DimensionMismatchError, match="dimensions"):
        ft.amalgamate(one, two, w, two, w)


def test_adorn_agreement_on_triple(order_trees):
    trees = list(order_trees.values())
    for s, t in itertools.product(trees, repeat=2):
        assert ft.leq_via_adorn(s, t) == (ft.leq(s, t) is not None)


def reference_enumerate(g, max_nodes, bound, symbols=None, sources=None):
    """The enumeration as first written: ``trees`` and ``child_seqs``
    recurse into each other once per tree level.  Takes the arguments
    :func:`ft.enumerate_trees` accepts, unchecked."""
    syms = list(symbols) if symbols is not None else list(g.nonterminals) + list(g.actions)
    grid = itertools.product(range(bound + 1), repeat=g.dim)
    srcs = [tuple(c) for c in (sources if sources is not None else grid)]

    def trees(symbol, src, budget):
        if budget < 1:
            return
        if isinstance(symbol, tuple):
            dst = tuple(a + b for a, b in zip(src, symbol))
            if all(0 <= v <= bound for v in dst):
                yield ft.FlowTree(Transition(src, symbol, dst))
            return
        for _, rhs in g.rules_for(symbol):
            if not rhs:
                yield ft.FlowTree(Transition(src, symbol, src))
                continue
            for kids in child_seqs(rhs, src, budget - 1):
                yield ft.FlowTree(Transition(src, symbol, kids[-1].label.dst), kids)

    def child_seqs(rhs, src, budget):
        if len(rhs) > budget:
            return
        head, rest = rhs[0], rhs[1:]
        for first in trees(head, src, budget - len(rest)):
            if not rest:
                yield (first,)
                continue
            used = ft.tree_size(first)
            for tail in child_seqs(rest, first.label.dst, budget - used):
                yield (first,) + tail

    return (t for symbol in syms for src in srcs for t in trees(symbol, src, max_nodes))


def enumerated(g, max_nodes, bound, limit=None, **where):
    """The first ``limit`` trees of :func:`ft.enumerate_trees`, which must
    be those of :func:`reference_enumerate`, in the same order."""
    got = list(itertools.islice(ft.enumerate_trees(g, max_nodes, bound, **where), limit))
    assert got == list(itertools.islice(reference_enumerate(g, max_nodes, bound, **where), limit))
    return got


def enumerate_pool(g, max_nodes, bound, limit):
    pool = enumerated(g, max_nodes, bound, limit)
    assert pool
    for t in pool:
        assert ft.validate_tree(g, t) is None
    return pool


def test_adorn_agreement_enumerated(pow2):
    pool = enumerate_pool(pow2, 5, 4, 120)
    for s, t in itertools.product(pool[:40], repeat=2):
        assert ft.leq_via_adorn(s, t) == (ft.leq(s, t) is not None)


def test_order_transitive_with_additive_liftings(pow2):
    pool = enumerate_pool(pow2, 5, 4, 80)
    checked = 0
    for s in pool[:40]:
        for t in pool[:40]:
            d_st = ft.leq(s, t)
            if d_st is None:
                continue
            for u in pool[:20]:
                d_tu = ft.leq(t, u)
                if d_tu is None:
                    continue
                d_su = ft.leq(s, u)
                assert d_su is not None
                assert d_su[0] == d_st[0] + d_tu[0]
                checked += 1
    assert checked > 10


def _bfs_positions(t):
    """Positions in shortest-then-lexicographic order."""
    out = []
    layer = [((), t)]
    while layer:
        out.extend(layer)
        layer = [
            (pos + (i,), c)
            for pos, nd in layer
            for i, c in enumerate(nd.children, start=1)
        ]
    return out


def reference_leq(s, t):
    """The ordering search as first written: recursive, over a cached
    breadth-first list of every visited subtree's positions."""
    bfs_cache = {}
    memo = {}

    def bfs(nd):
        got = bfs_cache.get(id(nd))
        if got is None:
            got = _bfs_positions(nd)
            bfs_cache[id(nd)] = got
        return got

    def go(a, b):
        key = (id(a), id(b))
        if key in memo:
            return memo[key]
        result = None
        if ft.transition_leq(a.label, b.label):
            for pos, candidate in bfs(b):
                if candidate.arity != a.arity:
                    continue
                if not ft.transition_leq(a.label, candidate.label):
                    continue
                ws = []
                for ca, cb in zip(a.children, candidate.children):
                    w = go(ca, cb)
                    if w is None:
                        break
                    ws.append(w)
                else:
                    result = ft.EmbeddingWitness(pos, tuple(ws))
                    break
        memo[key] = result
        return result

    w = go(s, t)
    if w is None:
        return None
    return ft.lifting_between(s.label, t.label), w


def flat_witness(w):
    """(anchor, arity) in pre-order; witnesses compared this way need no
    recursion, unlike the dataclass equality."""
    out, todo = [], [w]
    while todo:
        w = todo.pop()
        out.append((w.anchor, len(w.children)))
        todo.extend(reversed(w.children))
    return out


def test_leq_matches_reference(pow2, exchange, order_demo):
    # the whole pools of acceptance criterion 4, then witness-sized trees
    pools = [
        enumerated(g, max_nodes, bound, 400)
        for g, max_nodes, bound in [(pow2, 6, 5), (exchange, 5, 4), (order_demo, 6, 7)]
    ]
    f1 = f1_witness(25)
    pools.append([f1] + [ft.shift(f1, v) for v in ((1, 0, 0), (0, 2, 0), (1, 0, 3))])
    related = inner = 0
    for pool in pools:
        for s, t in itertools.product(pool, repeat=2):
            got, want = ft.leq(s, t), reference_leq(s, t)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0] == want[0]
                assert flat_witness(got[1]) == flat_witness(want[1])
                related += 1
                inner += has_inner_anchor(got[1])
    assert related > 800 and inner > 200, (related, inner)


# --- surgery --------------------------------------------------------------------


def test_substitute_root_and_identity(order_trees):
    tall = order_trees["tall"]
    other = ft.shift(tall, (3,))
    assert ft.substitute(tall, (), other) == other
    assert ft.substitute(tall, (2,), ft.subtree_at(tall, (2,))) == tall


def test_substitute_shifts_siblings(order_trees, order_demo):
    tall = order_trees["tall"]
    inner = ft.subtree_at(tall, (2, 2))
    out = ft.substitute(tall, (2, 2), ft.shift(inner, (1,)))
    assert ft.validate_tree(order_demo, out) is None
    assert out.label == Transition((4,), "S", (5,))
    # the whole tree relates to the result by the replaced subtree's lifting
    assert ft.leq(tall, out)[0] == ft.Lifting((1,), (1,))


def test_substitute_contract_on_samples(pow2):
    pool = enumerate_pool(pow2, 5, 4, 60)
    checked = 0
    for t in pool[:30]:
        for p in ft.positions(t):
            target = ft.subtree_at(t, p)
            for u in pool[:30]:
                cmp = ft.leq(target, u)
                if cmp is None:
                    continue
                out = ft.substitute(t, p, u)
                assert ft.validate_tree(pow2, out) is None
                assert ft.leq(t, out)[0] == cmp[0]
                checked += 1
                break
    assert checked > 15


def test_substitute_requires_order(order_trees):
    tall = order_trees["tall"]
    smaller = ft.node((5,), "T", (3,), [ft.action_leaf((5,), (-2,))])
    with pytest.raises(PreconditionError):
        ft.substitute(tall, (2,), smaller)  # 6 ->T 4 is not below 5 ->T 3


def test_replace_children(order_trees, order_demo):
    base = order_trees["base"]
    zero = ft.Lifting((0,), (0,))
    assert ft.replace_children(base, [(c, zero) for c in base.children]) == base

    lifted = [(ft.shift(c, (2,)), ft.Lifting((2,), (2,))) for c in base.children]
    out = ft.replace_children(base, lifted)
    assert out == ft.shift(base, (2,))
    assert ft.validate_tree(order_demo, out) is None

    bad = [(base.children[0], zero),
           (ft.shift(base.children[1], (1,)), ft.Lifting((1,), (1,)))]
    with pytest.raises(ChainUndefinedError):
        ft.replace_children(base, bad)


# --- amalgamation ----------------------------------------------------------------


def test_amalgamate_identity(order_trees):
    base = order_trees["base"]
    _, wit = ft.leq(base, base)
    assert ft.amalgamate(base, base, wit, base, wit) == base


def test_amalgamate_shifts_add(pow2):
    s = ft.node((0,), "S", (1,), [ft.action_leaf((0,), (1,))])
    t1 = ft.shift(s, (1,))
    t2 = ft.shift(s, (1,))
    w1 = ft.leq(s, t1)[1]
    merged = ft.amalgamate(s, t1, w1, t2, w1)
    assert merged == ft.shift(s, (2,))


def test_amalgamate_action_leaf_base_case(pow2):
    s = ft.action_leaf((0,), (1,))
    t1 = ft.shift(s, (2,))
    t2 = ft.shift(s, (3,))
    w1 = ft.leq(s, t1)[1]
    w2 = ft.leq(s, t2)[1]
    assert ft.amalgamate(s, t1, w1, t2, w2) == ft.shift(s, (5,))


def test_amalgamate_rejects_bad_witness(order_trees):
    base, tall = order_trees["base"], order_trees["tall"]
    _, wit = ft.leq(base, tall)
    with pytest.raises(InvalidWitnessError):
        ft.amalgamate(base, tall, wit, base, wit)


def test_amalgamate_postconditions_sampled(pow2):
    pool = enumerate_pool(pow2, 6, 5, 150)
    count = 0
    for s in pool:
        ups = [t for t in pool if ft.leq(s, t) is not None]
        for t1, t2 in itertools.islice(itertools.product(ups, repeat=2), 9):
            d1, w1 = ft.leq(s, t1)
            d2, w2 = ft.leq(s, t2)
            merged = ft.amalgamate(s, t1, w1, t2, w2)
            assert ft.validate_tree(pow2, merged) is None
            assert ft.leq(t1, merged)[0] == d2
            assert ft.leq(t2, merged)[0] == d1
            assert ft.leq(s, merged)[0] == d1 + d2
            count += 1
        if count > 120:
            break
    assert count > 60


def reference_amalgamate(s, t1, w1, t2, w2):
    """The amalgamation as first written: recursive, with both splices at
    every node done by :func:`ft.substitute`, which searches the ordering
    again with :func:`ft.leq`."""
    ft.replay(w1, s, t1)
    ft.replay(w2, s, t2)

    def go(a, b1, v1, b2, v2):
        sub1 = ft.subtree_at(b1, v1.anchor)
        sub2 = ft.subtree_at(b2, v2.anchor)
        d1 = ft.lifting_between(a.label, sub1.label)
        merged = tuple(
            go(ca, c1, u1, c2, u2)
            for ca, c1, u1, c2, u2 in zip(a.children, sub1.children, v1.children, sub2.children, v2.children)
        )
        lab = Transition(
            tuple(x + y for x, y in zip(sub2.label.src, d1.pre)),
            sub2.label.symbol,
            tuple(x + y for x, y in zip(sub2.label.dst, d1.post)),
        )
        widened = ft.substitute(b2, v2.anchor, ft.FlowTree(lab, merged))
        return ft.substitute(b1, v1.anchor, widened)

    return go(s, t1, w1, t2, w2)


def has_inner_anchor(w):
    todo = [w]
    while todo:
        w = todo.pop()
        if w.anchor:
            return True
        todo.extend(w.children)
    return False


def test_amalgamate_matches_reference_on_pools(pow2, exchange, order_demo):
    # the pools of acceptance criterion 4
    checked = spliced = 0
    for g, max_nodes, bound in [(pow2, 6, 5), (exchange, 5, 4), (order_demo, 6, 7)]:
        pool = enumerated(g, max_nodes, bound, 400)
        for s in pool:
            ups = [(t, got[1]) for t in pool if (got := ft.leq(s, t)) is not None]
            for (t1, w1), (t2, w2) in itertools.product(ups, repeat=2):
                assert ft.amalgamate(s, t1, w1, t2, w2) == reference_amalgamate(s, t1, w1, t2, w2)
                checked += 1
                spliced += has_inner_anchor(w1) or has_inner_anchor(w2)
    assert checked > 5000 and spliced > 2000, (checked, spliced)


def interned(t):
    """t with each class of structurally equal subtrees made one object."""
    order, todo = [], [t]
    while todo:
        nd = todo.pop()
        order.append(nd)
        todo.extend(nd.children)
    canon, table = {}, {}
    for nd in reversed(order):  # children before their parents
        kids = tuple(canon[id(c)] for c in nd.children)
        canon[id(nd)] = table.setdefault((nd.label, tuple(map(id, kids))), ft.FlowTree(nd.label, kids))
    return canon[id(t)]


def node_objects(t):
    """The number of distinct node objects in t."""
    seen, todo = set(), [t]
    while todo:
        nd = todo.pop()
        if id(nd) not in seen:
            seen.add(id(nd))
            todo.extend(nd.children)
    return len(seen)


def test_shared_subtrees_change_no_answer(pow2, exchange, order_demo):
    # one subtree object of s may merge differently in different places, so
    # amalgamate must not memoize on it; shift keeps the sharing
    merged = shared = 0
    for g, max_nodes, bound in [(pow2, 6, 5), (exchange, 5, 4), (order_demo, 6, 7)]:
        pool = enumerated(g, max_nodes, bound, 400)
        for s in pool:
            one = interned(s)
            assert one == s
            shared += ft.tree_size(s) - node_objects(one)
            assert node_objects(ft.shift(one, (1,) * g.dim)) == node_objects(one)
            ups = []
            for t in pool:
                got, again = ft.leq(s, t), ft.leq(one, t)
                assert (got is None) == (again is None)
                if got is not None:
                    assert got[0] == again[0] and flat_witness(got[1]) == flat_witness(again[1])
                    ups.append((t, got[1]))
            for (t1, w1), (t2, w2) in itertools.product(ups, repeat=2):
                assert ft.amalgamate(one, t1, w1, t2, w2) == ft.amalgamate(s, t1, w1, t2, w2)
                merged += node_objects(one) < ft.tree_size(one)
    assert shared > 0 and merged > 50, (shared, merged)
    # the pools share little: the doubling witness's two T -> (0) nodes,
    # made one object, are lifted differently in most of its amalgamations
    s = doubling_witness(pow2)
    one = interned(s)
    assert node_objects(one) == ft.tree_size(s) - 2
    ups = [(t, got[1]) for t in enumerated(pow2, 13, 8, symbols=["S"]) if (got := ft.leq(s, t)) is not None]
    assert len(ups) == 16
    for (t1, w1), (t2, w2) in itertools.product(ups, repeat=2):
        assert ft.amalgamate(one, t1, w1, t2, w2) == ft.amalgamate(s, t1, w1, t2, w2)


def f1_witness(n):
    return fastgrowing.build_witness(Ordinal((1,)), n, 1)


def test_amalgamate_matches_reference_on_shifts():
    t = f1_witness(25)
    shifted = [ft.shift(t, v) for v in ((1, 0, 0), (0, 2, 0), (0, 0, 3))]
    ws = [ft.leq(t, sh)[1] for sh in shifted]
    for i, j in ((0, 1), (1, 2), (2, 2)):
        args = (t, shifted[i], ws[i], shifted[j], ws[j])
        assert ft.amalgamate(*args) == reference_amalgamate(*args)


def test_amalgamate_postconditions_at_807_nodes():
    g = fastgrowing.build_core(1)
    s = f1_witness(100)
    assert ft.tree_size(s) == 807
    t1, t2 = ft.shift(s, (1, 0, 0)), ft.shift(s, (0, 1, 0))
    d1, w1 = ft.leq(s, t1)
    d2, w2 = ft.leq(s, t2)
    merged = ft.amalgamate(s, t1, w1, t2, w2)
    assert ft.validate_tree(g, merged) is None
    assert ft.leq(t1, merged)[0] == d2
    assert ft.leq(t2, merged)[0] == d1
    assert ft.leq(s, merged)[0] == d1 + d2


def root_witness(t):
    """The witness anchoring every node at its own counterpart, as for t
    and a shift of t; built without leq and without recursion."""
    arities, todo = [], [t]
    while todo:
        nd = todo.pop()
        arities.append(nd.arity)
        todo.extend(reversed(nd.children))
    built = []
    for arity in reversed(arities):
        built.append(ft.EmbeddingWitness((), tuple(built.pop() for _ in range(arity))))
    return built[0]


def test_embeddings_at_3207_nodes():
    t = f1_witness(400)
    assert ft.tree_size(t) == 3207
    up = ft.shift(t, (0, 0, 1))
    assert ft.hom_embeds(t, up) and not ft.hom_embeds(up, t)
    assert ft.leq_via_adorn(t, up) and not ft.leq_via_adorn(up, t)
    delta, w = ft.leq(t, up)
    assert ft.replay(w, t, up) == delta == ft.Lifting((0, 0, 1), (0, 0, 1))
    assert ft.leq(up, t) is None


def test_amalgamate_at_3207_nodes(monkeypatch):
    t = f1_witness(400)
    t1, t2 = ft.shift(t, (1, 0, 0)), ft.shift(t, (0, 0, 2))
    w = root_witness(t)
    assert ft.replay(w, t, t1) == ft.Lifting((1, 0, 0), (1, 0, 0))

    def no_search(s, t):
        raise AssertionError("amalgamate searched the ordering")

    # the replayed witnesses certify every splice
    monkeypatch.setattr(ft, "leq", no_search)
    assert ft.amalgamate(t, t1, w, t2, w) == ft.shift(t, (1, 0, 2))


# --- serialization ----------------------------------------------------------------


def test_sexpr_round_trip(order_trees, pow2):
    for t in order_trees.values():
        assert ft.parse_tree(ft.format_tree(t)) == t
    w = doubling_witness(pow2)
    text = ft.format_tree(w)
    assert text.startswith("((3 S 2)")
    assert ft.parse_tree(text) == w


def test_sexpr_round_trip_multidim():
    t = ft.node((2, 2), "S", (1, 4), [ft.action_leaf((2, 2), (-1, 2))])
    text = ft.format_tree(t)
    assert "(2,2)" in text and "(-1,2)" in text
    assert ft.parse_tree(text) == t


def test_dot_counts(pow2):
    w = doubling_witness(pow2)
    dot = ft.to_dot(w)
    assert dot.count("label=") == ft.tree_size(w)
    assert dot.count(" -> ") == ft.tree_size(w) - 1  # edge lines only


def test_enumerate_trees_deterministic(pow2):
    a = enumerated(pow2, 5, 3, 50)
    b = list(itertools.islice(ft.enumerate_trees(pow2, 5, 3), 50))
    assert a == b


def test_enumerate_trees_runs_sources_in_lexicographic_order(exchange):
    cells = [(x, y) for x in range(4) for y in range(4)]
    assert enumerated(exchange, 4, 3) == enumerated(exchange, 4, 3, sources=cells)


@pytest.mark.parametrize("max_nodes", [0, 1, 2, 3, 6, 8])
def test_enumerate_trees_matches_reference(pow2, exchange, order_demo, max_nodes):
    # whole enumerations: every rule choice, budget split and pruning
    for g, bound in [(pow2, 4), (exchange, 3), (order_demo, 6)]:
        enumerated(g, max_nodes, bound)
    enumerated(pow2, max_nodes, 6, symbols=["T", (-1,), "S"], sources=[(3,), (1,), (0,)])
    enumerated(order_demo, max_nodes, 6, symbols=["V", "U"], sources=[(2,)])


def test_enumerate_trees_does_not_recurse(shallow_stack):
    # S -> (1) S | eps: the first tree takes the first rule as long as the
    # budget allows, 500 levels of S in 999 nodes
    chain = Gvas.from_rules(1, [("S", [(1,), "S"]), ("S", [])], "S")

    def first(enumerate_trees):
        return next(iter(enumerate_trees(chain, 1000, 5000, symbols=["S"], sources=[(0,)])))

    with pytest.raises(RecursionError):
        shallow_stack(first, reference_enumerate)  # the fixture bites
    tree = shallow_stack(first, ft.enumerate_trees)
    assert ft.validate_tree(chain, tree) is None
    assert ft.tree_size(tree) == 999 and tree.label == Transition((0,), "S", (499,))


def test_enumerate_trees_checks_its_arguments_on_the_call(pow2):
    with pytest.raises(UnknownSymbolError):
        ft.enumerate_trees(pow2, 4, 3, symbols=["Q"])
    with pytest.raises(UnknownSymbolError):
        ft.enumerate_trees(pow2, 4, 3, symbols=[(3,)])
    with pytest.raises(DimensionMismatchError):
        ft.enumerate_trees(pow2, 4, 3, sources=[(1, 2)])
    (leaf,) = ft.enumerate_trees(pow2, 1, 3, symbols=[[-1]], sources=[[1]])
    assert leaf == ft.FlowTree(Transition((1,), (-1,), (0,)))


def test_enumerate_trees_refuses_sources_outside_the_grid():
    chain = Gvas.from_rules(1, [("S", [(1,), "S"]), ("S", [])], "S")
    for source in [(9,), (-1,), (4,)]:
        with pytest.raises(OutOfGridError, match=r"outside grid bound 3"):
            ft.enumerate_trees(chain, 3, 3, sources=[(0,), source])  # on the call, before any tree
    with pytest.raises(ValueError, match="bound must be non-negative"):
        ft.enumerate_trees(chain, 3, -1)
    with pytest.raises(ValueError, match="max_nodes must be non-negative"):
        ft.enumerate_trees(chain, -1, 3)
    assert [t.label.src for t in ft.enumerate_trees(chain, 3, 3, symbols=["S"], sources=[(3,)])] == [(3,)]


def test_enumeration_matches_table(pow2):
    # every enumerated root pair must be in the bounded table, and every
    # table pair must appear among enumerated roots at a generous budget
    bound = 2
    table = bounded_reach(pow2, bound)
    roots = {(t.label.src, t.label.dst) for t in enumerated(pow2, 11, bound, symbols=["S"])}
    table_pairs = set(table.pairs("S"))
    assert roots <= table_pairs
    assert table_pairs <= roots
