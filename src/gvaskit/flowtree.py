"""Flow trees: validity, ordering with explicit witnesses, surgery, amalgamation.

A flow tree pairs a derivation tree with a run: every node is labeled by
a transition ``src ->symbol dst`` and the configurations of consecutive
children chain from the parent's source to its target.

The ordering between flow trees (componentwise-larger root plus a
recursively matching equal-arity subtree) returns explicit, replayable
embedding witnesses; the amalgamation construction consumes two such
witnesses and produces a common extension realizing both liftings.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .errors import (
    ChainUndefinedError,
    DimensionMismatchError,
    InvalidPositionError,
    InvalidWitnessError,
    OutOfGridError,
    ParseError,
    PreconditionError,
)
from .gvas import Config, Gvas, Transition, _check_word, format_config

Position = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class FlowTree:
    label: Transition
    children: tuple["FlowTree", ...] = ()

    @property
    def arity(self) -> int:
        return len(self.children)

    def __eq__(self, other: object) -> bool:
        # iterative: witness chains can be thousands of nodes deep
        if not isinstance(other, FlowTree):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self) -> int:
        return hash((self.label, len(self.children)))

    def __str__(self) -> str:
        return format_tree(self)


def node(src: Sequence[int], symbol, dst: Sequence[int], children: Sequence[FlowTree] = ()) -> FlowTree:
    sym = symbol if isinstance(symbol, str) else tuple(symbol)
    return FlowTree(Transition(tuple(src), sym, tuple(dst)), tuple(children))


def action_leaf(src: Sequence[int], action: Sequence[int]) -> FlowTree:
    a = tuple(action)
    dst = tuple(v + d for v, d in zip(src, a))
    return FlowTree(Transition(tuple(src), a, dst))


def positions(t: FlowTree) -> list[Position]:
    """All positions, depth-first pre-order; () is the root."""
    out: list[Position] = []
    stack: list[tuple[Position, FlowTree]] = [((), t)]
    while stack:
        pos, nd = stack.pop()
        out.append(pos)
        for i in range(len(nd.children), 0, -1):
            stack.append((pos + (i,), nd.children[i - 1]))
    return out


def subtree_at(t: FlowTree, p: Sequence[int]) -> FlowTree:
    cur = t
    for step, i in enumerate(p):
        if not 1 <= i <= len(cur.children):
            raise InvalidPositionError(f"position {tuple(p)} invalid at depth {step}")
        cur = cur.children[i - 1]
    return cur


def tree_size(t: FlowTree) -> int:
    n = 0
    stack = [t]
    while stack:
        nd = stack.pop()
        n += 1
        stack.extend(nd.children)
    return n


def _solve(go: Callable, question, key: Optional[Callable] = None):
    """The answer of ``go(question)``, a generator that yields the
    sub-questions it needs, is resumed with their answers, and returns its
    own.  The pending questions live on an explicit stack, so deep trees
    need no recursion.  Answers are memoized on ``key(question)`` if a key
    is given."""
    memo: dict = {}
    stack = [(None if key is None else key(question), go(question))]
    answer = None
    while stack:
        k, gen = stack[-1]
        try:
            question = gen.send(answer)
        except StopIteration as done:
            stack.pop()
            answer = done.value
            if key is not None:
                memo[k] = answer
            continue
        k = None if key is None else key(question)
        if k in memo:
            answer = memo[k]  # may be None, a real answer of leq
        else:
            answer = None  # what a fresh generator is started with
            stack.append((k, go(question)))
    return answer


@dataclass(frozen=True)
class TreeDefect:
    position: Position
    message: str


def validate_tree(g: Gvas, t: FlowTree) -> Optional[TreeDefect]:
    """None when the tree is a valid flow tree of g, else the
    shallowest-leftmost violation."""
    actions = set(g.actions)
    nts = set(g.nonterminals)
    rule_set = set(g.rules)
    queue: deque[tuple[Position, FlowTree]] = deque([((), t)])
    while queue:
        pos, nd = queue.popleft()
        src, sym, dst = nd.label.src, nd.label.symbol, nd.label.dst
        if len(src) != g.dim or len(dst) != g.dim:
            return TreeDefect(pos, f"configuration length differs from dim {g.dim}")
        if any(v < 0 for v in src) or any(v < 0 for v in dst):
            return TreeDefect(pos, "negative coordinate")
        if isinstance(sym, tuple):
            if sym not in actions:
                return TreeDefect(pos, f"action {sym} not in the grammar")
            if nd.children:
                return TreeDefect(pos, "action node must be a leaf")
            if dst != tuple(a + b for a, b in zip(src, sym)):
                return TreeDefect(pos, f"target is not source + {format_config(sym)}")
        else:
            if sym not in nts:
                return TreeDefect(pos, f"unknown nonterminal {sym!r}")
            seq = tuple(c.label.symbol for c in nd.children)
            if (sym, seq) not in rule_set:
                return TreeDefect(pos, f"no rule {sym} -> {' '.join(map(str, seq)) or 'eps'}")
            if not nd.children:
                if dst != src:
                    return TreeDefect(pos, "empty-rule node must have equal source and target")
            else:
                if nd.children[0].label.src != src:
                    return TreeDefect(pos, "first child does not start at the source")
                for i in range(len(nd.children) - 1):
                    if nd.children[i].label.dst != nd.children[i + 1].label.src:
                        return TreeDefect(pos, f"children {i + 1} and {i + 2} do not chain")
                if nd.children[-1].label.dst != dst:
                    return TreeDefect(pos, "last child does not end at the target")
        for i, c in enumerate(nd.children, start=1):
            queue.append((pos + (i,), c))
    return None


def shift(t: FlowTree, v: Sequence[int]) -> FlowTree:
    """Add v to every source and target; validity is preserved."""
    a = tuple(v)
    if len(a) != len(t.label.src):
        raise DimensionMismatchError(f"shift vector {a} does not match dimension {len(t.label.src)}")

    def go(nd: FlowTree):
        kids = []
        for c in nd.children:
            kids.append((yield c))
        return FlowTree(_lift_label(nd.label, a, a), tuple(kids))

    return _solve(go, t, id)  # keyed on the node: shared subtrees stay shared


def _lift_label(lab: Transition, pre: Sequence[int], post: Sequence[int]) -> Transition:
    return Transition(
        tuple(x + y for x, y in zip(lab.src, pre)),
        lab.symbol,
        tuple(x + y for x, y in zip(lab.dst, post)),
    )


# ---------------------------------------------------------------------------
# Ordering


@dataclass(frozen=True)
class Lifting:
    """Displacement pair between comparable transitions."""

    pre: tuple[int, ...]
    post: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.pre) or any(v < 0 for v in self.post):
            raise ValueError("lifting components must be non-negative")

    def chain(self, other: "Lifting") -> "Lifting":
        if self.post != other.pre:
            raise ChainUndefinedError(f"cannot chain {self} with {other}")
        return Lifting(self.pre, other.post)

    def __add__(self, other: "Lifting") -> "Lifting":
        return Lifting(
            tuple(a + b for a, b in zip(self.pre, other.pre)),
            tuple(a + b for a, b in zip(self.post, other.post)),
        )

    def is_zero(self) -> bool:
        return not any(self.pre) and not any(self.post)


@dataclass(frozen=True)
class EmbeddingWitness:
    """Replayable certificate for the tree ordering.

    ``anchor`` is the position, inside the compared-against tree, of the
    equal-arity subtree that matches; child witnesses certify the
    children, in order.
    """

    anchor: Position
    children: tuple["EmbeddingWitness", ...] = ()


def transition_leq(a: Transition, b: Transition) -> bool:
    return (
        a.symbol == b.symbol
        and all(x <= y for x, y in zip(a.src, b.src))
        and all(x <= y for x, y in zip(a.dst, b.dst))
    )


def lifting_between(a: Transition, b: Transition) -> Lifting:
    return Lifting(
        tuple(y - x for x, y in zip(a.src, b.src)),
        tuple(y - x for x, y in zip(a.dst, b.dst)),
    )


Path = Optional[tuple["Path", int]]  # a position as (parent path, child index), root None


def _subtrees(t: FlowTree) -> Iterator[tuple[Path, FlowTree]]:
    """Subtrees with their paths, in shortest-then-lexicographic order of
    position.  Paths share their prefixes, so a scan costs O(1) per node
    however deep the tree; :func:`_position` spells one out."""
    queue: deque[tuple[Path, FlowTree]] = deque([(None, t)])
    while queue:
        path, nd = queue.popleft()
        yield path, nd
        queue.extend(((path, i), c) for i, c in enumerate(nd.children, start=1))


def _position(path: Path) -> Position:
    steps = []
    while path is not None:
        path, i = path
        steps.append(i)
    return tuple(reversed(steps))


def _pair_ids(pair: tuple[FlowTree, FlowTree]) -> tuple[int, int]:
    return id(pair[0]), id(pair[1])


def _check_dimensions(s: FlowTree, t: FlowTree) -> None:
    if len(s.label.src) != len(t.label.src):
        raise DimensionMismatchError(f"trees of dimensions {len(s.label.src)} and {len(t.label.src)} are not comparable")


def leq(s: FlowTree, t: FlowTree) -> Optional[tuple[Lifting, EmbeddingWitness]]:
    """Decide the flow-tree ordering, returning a lifting and a witness.

    Deterministic: among matching subtrees the shortest, then
    lexicographically smallest anchor wins, recursively.  Memoizes on
    node identity to avoid re-searching shared substructure.  Trees of
    different dimensions raise DimensionMismatchError.
    """
    _check_dimensions(s, t)

    def go(pair: tuple[FlowTree, FlowTree]) -> Iterator[tuple[FlowTree, FlowTree]]:
        a, b = pair
        if transition_leq(a.label, b.label):
            for path, cand in _subtrees(b):
                if cand.arity != a.arity or not transition_leq(a.label, cand.label):
                    continue
                ws = []
                for pair in zip(a.children, cand.children):
                    w = yield pair
                    if w is None:
                        break
                    ws.append(w)
                else:
                    return EmbeddingWitness(_position(path), tuple(ws))
        return None

    w = _solve(go, (s, t), _pair_ids)
    if w is None:
        return None
    return lifting_between(s.label, t.label), w


def replay(witness: EmbeddingWitness, s: FlowTree, t: FlowTree) -> Lifting:
    """Verify a witness against a tree pair in linear time.

    Returns the root lifting; raises :class:`InvalidWitnessError` on the
    first failing clause in pre-order.  Trees of different dimensions
    raise DimensionMismatchError.
    """
    _check_dimensions(s, t)
    todo = [(witness, s, t)]
    while todo:
        w, a, b = todo.pop()
        if not transition_leq(a.label, b.label):
            raise InvalidWitnessError(f"roots not comparable: {a.label} vs {b.label}")
        try:
            anchor = subtree_at(b, w.anchor)
        except InvalidPositionError as e:
            raise InvalidWitnessError(str(e)) from None
        if anchor.arity != a.arity:
            raise InvalidWitnessError(f"anchor arity {anchor.arity} differs from {a.arity}")
        if not transition_leq(a.label, anchor.label):
            raise InvalidWitnessError("anchor label not above the source root")
        if len(w.children) != a.arity:
            raise InvalidWitnessError("witness arity differs from the source arity")
        todo.extend(reversed(list(zip(w.children, a.children, anchor.children))))
    return lifting_between(s.label, t.label)


# ---------------------------------------------------------------------------
# Homeomorphic embedding and the rule-instance cross-check


def _embeds(s: FlowTree, t: FlowTree, key: Callable, le: Callable, rooted: bool = False) -> bool:
    """Homeomorphic embedding of flow trees with nodes compared as
    ``le(key(a), key(b))``; ``rooted`` adds the ordering's root clause.

    Children embed as a subsequence; greedy leftmost matching is complete
    because a later match never enables an earlier one.  Trees of
    different dimensions raise DimensionMismatchError.
    """
    _check_dimensions(s, t)
    if rooted and not transition_leq(s.label, t.label):
        return False

    def go(pair: tuple[FlowTree, FlowTree]) -> Iterator[tuple[FlowTree, FlowTree]]:
        a, b = pair
        ka = key(a)
        for _, cand in _subtrees(b):
            if a.arity > cand.arity or not le(ka, key(cand)):
                continue
            i = 0
            for child in a.children:
                while i < cand.arity and not (yield child, cand.children[i]):
                    i += 1
                if i == cand.arity:
                    break
                i += 1
            else:
                return True
        return False

    return _solve(go, (s, t), _pair_ids)


def hom_embeds(s: FlowTree, t: FlowTree) -> bool:
    """Plain homeomorphic embedding with transitions compared pointwise.

    Strictly weaker than the flow-tree ordering: arity may grow and no
    root clause is imposed.
    """
    return _embeds(s, t, lambda nd: nd.label, transition_leq)


Instance = tuple  # (kind key, configuration chain)


def _instance(nd: FlowTree) -> Instance:
    """The rule instance at a node: which rule (or action) fired together
    with the chain of configurations across the children, so label
    comparability forces equal shape."""
    if isinstance(nd.label.symbol, tuple):
        return ("act", nd.label.symbol), (nd.label.src, nd.label.dst)
    key = ("rule", nd.label.symbol, tuple(c.label.symbol for c in nd.children))
    return key, (nd.label.src,) + tuple(c.label.dst for c in nd.children)


def instance_leq(a: Instance, b: Instance) -> bool:
    return a[0] == b[0] and all(
        all(x <= y for x, y in zip(ca, cb)) for ca, cb in zip(a[1], b[1])
    )


def leq_via_adorn(s: FlowTree, t: FlowTree) -> bool:
    """Ordering decided as an embedding over rule-instance labels;
    independent cross-check of :func:`leq` as a boolean."""
    return _embeds(s, t, _instance, instance_leq, rooted=True)


# ---------------------------------------------------------------------------
# Surgery


def substitute(t: FlowTree, p: Sequence[int], u: FlowTree) -> FlowTree:
    """Replace the subtree at p by u, shifting siblings to keep the chain.

    Requires the replaced subtree to be below u in the tree ordering;
    siblings left of the spine shift by the lifting's pre component,
    siblings right of it by the post component.
    """
    cmp = leq(subtree_at(t, p), u)
    if cmp is None:
        raise PreconditionError("replaced subtree is not below the replacement")
    return _splice(t, p, u, cmp[0])


def _splice(t: FlowTree, p: Sequence[int], u: FlowTree, delta: Lifting) -> FlowTree:
    """:func:`substitute` with the lifting from the subtree at the valid
    position p to u already known: walks down to p, then rebuilds the
    spine bottom-up."""
    spine = []
    for i in p:
        spine.append((t, i))
        t = t.children[i - 1]
    for nd, i in reversed(spine):
        kids = nd.children
        u = FlowTree(
            _lift_label(nd.label, delta.pre, delta.post),
            tuple(shift(c, delta.pre) for c in kids[: i - 1]) + (u,) + tuple(shift(c, delta.post) for c in kids[i:]),
        )
    return u


def replace_children(t: FlowTree, replacements: Sequence[tuple[FlowTree, Lifting]]) -> FlowTree:
    """Swap every child for a root-wise larger tree, lifting the root by
    the chained displacements."""
    if len(replacements) != t.arity:
        raise PreconditionError(f"{len(replacements)} replacements for arity {t.arity}")
    for child, (u, d) in zip(t.children, replacements):
        expected = _lift_label(child.label, d.pre, d.post)
        if u.label != expected:
            raise PreconditionError(f"replacement root {u.label} is not {expected}")
    if t.arity == 0:
        return t
    total = replacements[0][1]
    for _, d in replacements[1:]:
        total = total.chain(d)
    return FlowTree(_lift_label(t.label, total.pre, total.post), tuple(u for u, _ in replacements))


def amalgamate(
    s: FlowTree,
    t1: FlowTree,
    w1: EmbeddingWitness,
    t2: FlowTree,
    w2: EmbeddingWitness,
) -> FlowTree:
    """Common extension of two trees extending s, realizing both liftings.

    With ``s <= t1`` via lifting D1 and ``s <= t2`` via D2, the result s'
    satisfies ``t1 <= s'`` via D2, ``t2 <= s'`` via D1, and hence
    ``s <= s'`` via D1 + D2.  Both witnesses are replayed first; the
    construction descends through the anchors, merges the children, and
    splices the merged block back into t2 and then t1.  The liftings of
    both splices are read off the labels: the replayed witnesses certify
    the ordering, so it is not searched for again.
    """
    replay(w1, s, t1)
    replay(w2, s, t2)

    def go(frame):
        a, b1, v1, b2, v2 = frame
        sub1 = subtree_at(b1, v1.anchor)
        sub2 = subtree_at(b2, v2.anchor)
        kids = []
        for child in zip(a.children, sub1.children, v1.children, sub2.children, v2.children):
            kids.append((yield child))
        d1 = lifting_between(a.label, sub1.label)
        block = FlowTree(_lift_label(sub2.label, d1.pre, d1.post), tuple(kids))
        widened = _splice(b2, v2.anchor, block, d1)
        return _splice(b1, v1.anchor, widened, lifting_between(sub1.label, widened.label))

    # no memo: one subtree object that s shares may merge differently in two places
    return _solve(go, (s, t1, w1, t2, w2))


# ---------------------------------------------------------------------------
# Bounded enumeration (property-test fuel)


def enumerate_trees(
    g: Gvas,
    max_nodes: int,
    bound: int,
    symbols: Sequence | None = None,
    sources: Sequence[Config] | None = None,
) -> Iterator[FlowTree]:
    """All valid flow trees with at most ``max_nodes`` nodes whose
    configurations stay within ``{0..bound}^dim``, in a deterministic
    order.  Intended for exhaustive desk-scale property checks.

    The arguments are checked on the call, before any tree is made, as
    the reachability engines check theirs: ValueError for a negative
    node count or bound, UnknownSymbolError for a symbol not of g,
    DimensionMismatchError for a source whose length is not g's dimension,
    OutOfGridError for a source outside the grid.
    """
    if max_nodes < 0:
        raise ValueError("max_nodes must be non-negative")
    if bound < 0:
        raise ValueError("bound must be non-negative")
    syms = list(_check_word(g, symbols)) if symbols is not None else list(g.nonterminals) + list(g.actions)
    grid = itertools.product(range(bound + 1), repeat=g.dim)
    srcs = [tuple(c) for c in (sources if sources is not None else grid)]
    for src in srcs:
        if len(src) != g.dim:
            raise DimensionMismatchError(f"source {src} has length {len(src)}, expected {g.dim}")
        if not all(0 <= v <= bound for v in src):
            raise OutOfGridError(f"{src} outside grid bound {bound}")

    alts = {nt: [rhs for _, rhs in g.rules_for(nt)] for nt in g.nonterminals}

    def trees(symbol, src: Config) -> Iterator[FlowTree]:
        # depth first over the rule choices in pre-order, so the trees come
        # lexicographically in those choices.  A node's budget is max_nodes
        # less the nodes made and one for each symbol still pending; a rule
        # whose children cannot all get one is skipped.
        nodes: list = []  # the tree so far in pre-order: leaves, and (symbol, source, arity)
        points: list[list] = []  # open choices: [symbol, next rule, source, todo, pending, nodes made]
        todo, cur, pending = (symbol, None), src, 1  # todo: the pending symbols, a linked list
        while True:
            while todo is not None:
                sym, todo = todo
                pending -= 1
                if max_nodes - len(nodes) - pending < 1:
                    break
                if not isinstance(sym, tuple):
                    points.append([sym, 0, cur, todo, pending, len(nodes)])
                    break
                dst = tuple(a + b for a, b in zip(cur, sym))
                if not all(0 <= v <= bound for v in dst):
                    break
                nodes.append(FlowTree(Transition(cur, sym, dst)))
                cur = dst
            else:
                yield _assemble(nodes)
            # take the next rule of the innermost open choice, undoing what followed it
            while points:
                point = points[-1]
                sym, i, cur, todo, pending, made = point
                del nodes[made:]
                rules = alts[sym]
                budget = max_nodes - made - pending
                while i < len(rules) and len(rules[i]) >= budget:
                    i += 1
                if i < len(rules):
                    point[1] = i + 1
                    nodes.append((sym, cur, len(rules[i])))
                    for child in reversed(rules[i]):
                        todo = (child, todo)
                    pending += len(rules[i])
                    break
                points.pop()
            else:
                return

    return (t for symbol in syms for src in srcs for t in trees(symbol, src))


def _assemble(nodes: list) -> FlowTree:
    """The tree whose nodes :func:`enumerate_trees` lists in pre-order."""

    def go(i: int):  # the subtree at nodes[i], and the index after it
        nd, i = nodes[i], i + 1
        if isinstance(nd, FlowTree):
            return nd, i
        sym, src, arity = nd
        kids = []
        for _ in range(arity):
            kid, i = yield i
            kids.append(kid)
        return FlowTree(Transition(src, sym, kids[-1].label.dst if kids else src), tuple(kids)), i

    return _solve(go, 0)[0]


# ---------------------------------------------------------------------------
# Serialization: nested s-expressions, and DOT for diagrams.


def format_tree(t: FlowTree) -> str:
    """Single-line s-expression; inverse of :func:`parse_tree`."""
    dim = len(t.label.src)

    def cfg(c: Config) -> str:
        return str(c[0]) if dim == 1 else format_config(c)

    def sym(s) -> str:
        return s if isinstance(s, str) else format_config(s)

    pieces: list[str] = []
    stack: list[tuple[str, FlowTree | None]] = [("open", t)]
    while stack:
        kind, nd = stack.pop()
        if kind == "close":
            pieces.append(")")
            continue
        label = f"({cfg(nd.label.src)} {sym(nd.label.symbol)} {cfg(nd.label.dst)})"
        pieces.append((" " if pieces else "") + "(" + label)
        stack.append(("close", None))
        for c in reversed(nd.children):
            stack.append(("open", c))
    return "".join(pieces)


_TOKEN = re.compile(r"\(|\)|-?\d+(?:,-?\d+)*|[A-Za-z_][A-Za-z0-9_']*")


def parse_tree(text: str) -> FlowTree:
    """Parse the s-expression tree format.

    Scalars are one-dimensional configurations; parenthesized comma
    tuples are vectors (actions are always written this way).
    """
    pos = 0
    tokens: list[tuple[str, int]] = []
    for m in _TOKEN.finditer(text):
        gap = text[pos : m.start()]
        if gap.strip():
            raise ParseError(f"unexpected {gap.strip()[0]!r}", 1, pos + 1)
        tokens.append((m.group(0), m.start() + 1))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"unexpected {text[pos:].strip()[0]!r}", 1, pos + 1)
    cursor = 0

    def peek() -> tuple[str, int]:
        if cursor >= len(tokens):
            raise ParseError("unexpected end of input", 1, len(text) + 1)
        return tokens[cursor]

    def take(expected: str | None = None) -> tuple[str, int]:
        nonlocal cursor
        tok = peek()
        if expected is not None and tok[0] != expected:
            raise ParseError(f"expected {expected!r}, got {tok[0]!r}", 1, tok[1])
        cursor += 1
        return tok

    def parse_value():
        tok, col = peek()
        if tok == "(":
            take()
            inner, _ = take()
            if not re.fullmatch(r"-?\d+(,-?\d+)*", inner):
                raise ParseError(f"expected a vector, got {inner!r}", 1, col)
            take(")")
            return tuple(int(v) for v in inner.split(","))
        take()
        if re.fullmatch(r"-?\d+", tok):
            return (int(tok),)
        return tok

    def parse_label() -> Transition:
        take("(")
        src = parse_value()
        symbol = parse_value()
        dst = parse_value()
        take(")")
        if isinstance(src, str) or isinstance(dst, str):
            raise ParseError("configurations must be numeric", 1, 1)
        return Transition(src, symbol, dst)

    frames: list[tuple[Transition, list[FlowTree]]] = []
    tree: FlowTree | None = None
    while tree is None:
        take("(")
        frames.append((parse_label(), []))
        while peek()[0] == ")":
            take(")")
            label, kids = frames.pop()
            closed = FlowTree(label, tuple(kids))
            if not frames:
                tree = closed
                break
            frames[-1][1].append(closed)
    if cursor != len(tokens):
        raise ParseError("trailing input after tree", 1, tokens[cursor][1])
    return tree


def to_dot(t: FlowTree, name: str = "flowtree") -> str:
    """DOT rendering with one node per transition, numbered in pre-order."""
    lines = [f"digraph {name} {{", "  node [shape=box];"]

    def sym(s) -> str:
        return s if isinstance(s, str) else format_config(s)

    counter = 0
    stack: list[tuple[FlowTree, int | None]] = [(t, None)]
    while stack:
        nd, parent = stack.pop()
        me = counter
        counter += 1
        label = f"{format_config(nd.label.src)} ->{sym(nd.label.symbol)} {format_config(nd.label.dst)}"
        lines.append(f'  n{me} [label="{label}"];')
        if parent is not None:
            lines.append(f"  n{parent} -> n{me};")
        for c in reversed(nd.children):
            stack.append((c, me))
    lines.append("}")
    return "\n".join(lines) + "\n"
