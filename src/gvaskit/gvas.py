"""Grammar-controlled vector addition systems: model, derivations, runs.

A GVAS is a context-free grammar whose terminals are integer vectors
("actions").  A sentential symbol is either a nonterminal name (``str``)
or an action (``tuple`` of ints).  Rule order and symbol order are part
of the value: deterministic witness extraction downstream depends on
them.  All types are immutable.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    DimensionMismatchError,
    NegativeCounterError,
    ParseError,
    UnknownSymbolError,
)

Action = tuple[int, ...]
Config = tuple[int, ...]
Word = tuple  # of nonterminal names and actions


@dataclass(frozen=True)
class Transition:
    """A labeled step ``src --symbol--> dst``; the node label of a flow tree."""

    src: Config
    symbol: "str | Action"
    dst: Config


@dataclass(frozen=True)
class Gvas:
    dim: int
    nonterminals: tuple[str, ...]
    actions: tuple[Action, ...]
    rules: tuple[tuple[str, Word], ...]
    start: str

    @classmethod
    def from_rules(
        cls,
        dim: int,
        rules: Sequence[tuple[str, Sequence["str | Action"]]],
        start: str,
    ) -> "Gvas":
        """Build a GVAS, inferring symbol orders from first appearance.

        Every nonterminal must be an identifier of the text format other
        than ``eps``, which denotes the empty rule there; ValueError
        names the first one that is not, so :func:`format_gvas` always
        writes text that parses back to the same grammar.
        """
        nts: dict[str, None] = {start: None}
        acts: dict[Action, None] = {}
        frozen = []
        for lhs, rhs in rules:
            nts.setdefault(lhs, None)
            row = tuple(s if isinstance(s, str) else tuple(s) for s in rhs)
            for s in row:
                if isinstance(s, str):
                    nts.setdefault(s, None)
                else:
                    acts.setdefault(s, None)
            frozen.append((lhs, row))
        for nt in nts:
            if nt == "eps":
                raise ValueError("nonterminal 'eps' would read back as the empty rule")
            if not _IDENT.fullmatch(nt):
                raise ValueError(f"nonterminal {nt!r} is not an identifier")
        return cls(dim, tuple(nts), tuple(acts), tuple(frozen), start)

    def rules_for(self, nt: str) -> list[tuple[int, Word]]:
        return [(i, rhs) for i, (lhs, rhs) in enumerate(self.rules) if lhs == nt]


@dataclass(frozen=True)
class Defect:
    code: str
    detail: str
    fatal: bool

    def __str__(self) -> str:
        kind = "error" if self.fatal else "warning"
        return f"{kind}: {self.code}: {self.detail}"


def validate(g: Gvas) -> list[Defect]:
    """Check every structural invariant; also report unproductive and
    unreachable nonterminals (permitted, but worth flagging).

    Empty list means the GVAS is clean.
    """
    defects: list[Defect] = []
    nts = set(g.nonterminals)
    acts = set(g.actions)
    for a in g.actions:
        if len(a) != g.dim:
            defects.append(Defect("dimension", f"action {a} has length {len(a)}, expected {g.dim}", True))
    if g.start not in nts:
        defects.append(Defect("bad-start", f"start symbol {g.start!r} is not a nonterminal", True))
    for i, (lhs, rhs) in enumerate(g.rules):
        if lhs not in nts:
            defects.append(Defect("unknown-symbol", f"rule {i}: left side {lhs!r} not a nonterminal", True))
        for s in rhs:
            if isinstance(s, str):
                if s not in nts:
                    defects.append(Defect("unknown-symbol", f"rule {i}: {s!r} not a nonterminal", True))
            elif s not in acts:
                defects.append(Defect("unknown-symbol", f"rule {i}: action {s} not declared", True))

    # Productive nonterminals: least fixpoint over rules.
    productive: set[str] = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.rules:
            if lhs in productive:
                continue
            if all(not isinstance(s, str) or s in productive for s in rhs):
                productive.add(lhs)
                changed = True
    for nt in g.nonterminals:
        if nt not in productive:
            defects.append(Defect("unproductive", f"{nt} generates no terminal word", False))

    # Reachable from the start symbol.
    reachable = {g.start}
    frontier = [g.start]
    while frontier:
        nt = frontier.pop()
        for _, rhs in g.rules_for(nt):
            for s in rhs:
                if isinstance(s, str) and s not in reachable:
                    reachable.add(s)
                    frontier.append(s)
    for nt in g.nonterminals:
        if nt not in reachable:
            defects.append(Defect("unreachable", f"{nt} is unreachable from {g.start}", False))
    return defects


def fatal_defects(g: Gvas) -> list[Defect]:
    return [d for d in validate(g) if d.fatal]


def _check_word(g: Gvas, w: Iterable) -> Word:
    out = []
    nts = set(g.nonterminals)
    acts = set(g.actions)
    for s in w:
        s = s if isinstance(s, str) else tuple(s)
        if isinstance(s, str):
            if s not in nts:
                raise UnknownSymbolError(f"unknown nonterminal {s!r}")
        elif s not in acts:
            raise UnknownSymbolError(f"unknown action {s}")
        out.append(s)
    return tuple(out)


def derive_step(g: Gvas, w: Sequence) -> list[Word]:
    """All words obtained by rewriting one nonterminal occurrence.

    Deterministic order: occurrence position left to right, then rule
    declaration order.  Empty for all-terminal words.
    """
    word = _check_word(g, w)
    out: list[Word] = []
    seen = set()
    for i, s in enumerate(word):
        if not isinstance(s, str):
            continue
        for _, rhs in g.rules_for(s):
            nxt = word[:i] + rhs + word[i + 1 :]
            if nxt not in seen:
                seen.add(nxt)
                out.append(nxt)
    return out


def _terminal_profile(w: Word) -> tuple:
    return tuple(s for s in w if not isinstance(s, str))


def _is_subsequence(a: tuple, b: tuple) -> bool:
    it = iter(b)
    return all(x in it for x in a)


def derives(g: Gvas, u: Sequence, v: Sequence, max_steps: int) -> tuple[Word, ...] | None:
    """Search for a derivation ``u => ... => v`` of at most ``max_steps`` steps.

    Returns the word sequence (inclusive of both ends) or None when the
    budget is exhausted; None is "unknown", never a refutation.  Breadth
    first, so a returned trace has minimal length.  Terminal symbols are
    never rewritten, so branches whose terminals stop being a subsequence
    of the target's are pruned.
    """
    src = _check_word(g, u)
    dst = _check_word(g, v)
    if src == dst:
        return (src,)
    target_terms = _terminal_profile(dst)
    parents: dict[Word, Word] = {src: src}
    frontier = [src]
    for _ in range(max_steps):
        nxt: list[Word] = []
        for w in frontier:
            for w2 in derive_step(g, w):
                if w2 in parents:
                    continue
                if not _is_subsequence(_terminal_profile(w2), target_terms):
                    continue
                parents[w2] = w
                if w2 == dst:
                    trace = [w2]
                    while trace[-1] != src:
                        trace.append(parents[trace[-1]])
                    return tuple(reversed(trace))
                nxt.append(w2)
        if not nxt:
            return None
        frontier = nxt
    return None


def run_word(g: Gvas, x: Sequence[int], w: Sequence) -> Config:
    """Fold an all-terminal word over a configuration, left to right.

    Raises :class:`NegativeCounterError` at the first coordinate that
    would drop below zero: the run is not enabled.
    """
    cur = list(x)
    if len(cur) != g.dim:
        raise DimensionMismatchError(f"configuration has length {len(cur)}, expected {g.dim}")
    word = _check_word(g, w)
    for pos, s in enumerate(word):
        if isinstance(s, str):
            raise UnknownSymbolError(f"word is not all-terminal: {s!r} at {pos}")
        for i, d in enumerate(s):
            cur[i] += d
            if cur[i] < 0:
                raise NegativeCounterError(i, pos)
    return tuple(cur)


def apply_morphism(
    g: Gvas,
    mapping: Mapping[Action, Sequence[Sequence[int]]],
    dim: int | None = None,
) -> Gvas:
    """Replace every terminal occurrence by its image word.

    ``mapping`` must be total on the grammar's actions and all images must
    share one dimension (given explicitly via ``dim`` when every image is
    the empty word).
    """
    images: dict[Action, tuple[Action, ...]] = {}
    new_dim = dim
    for a in g.actions:
        if a not in mapping:
            raise DimensionMismatchError(f"morphism is not total: no image for {a}")
        img = tuple(tuple(v) for v in mapping[a])
        for v in img:
            if new_dim is None:
                new_dim = len(v)
            elif len(v) != new_dim:
                raise DimensionMismatchError(f"image vector {v} has length {len(v)}, expected {new_dim}")
        images[a] = img
    if new_dim is None:
        raise DimensionMismatchError("cannot infer dimension from empty images; pass dim=")
    rules = [
        (lhs, tuple(itertools.chain.from_iterable([s] if isinstance(s, str) else images[s] for s in rhs)))
        for lhs, rhs in g.rules
    ]
    return Gvas.from_rules(new_dim, rules, g.start)


def _fresh(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "'"
    return name


def _disjoint(g1: Gvas, g2: Gvas) -> Gvas:
    """Rename g2's nonterminals away from g1's."""
    taken = set(g1.nonterminals)
    ren: dict[str, str] = {}
    for nt in g2.nonterminals:
        new = nt
        while new in taken or new in ren.values():
            new += "_2"
        ren[nt] = new
    rules = [
        (ren[lhs], tuple(ren[s] if isinstance(s, str) else s for s in rhs))
        for lhs, rhs in g2.rules
    ]
    return Gvas.from_rules(g2.dim, rules, ren[g2.start])


def _require_same_dim(g1: Gvas, g2: Gvas) -> None:
    if g1.dim != g2.dim:
        raise DimensionMismatchError(f"operand dimensions differ: {g1.dim} vs {g2.dim}")


def union(g1: Gvas, g2: Gvas) -> Gvas:
    """Grammar with language L(g1) | L(g2)."""
    _require_same_dim(g1, g2)
    h2 = _disjoint(g1, g2)
    s = _fresh("S", set(g1.nonterminals) | set(h2.nonterminals))
    rules = [(s, (g1.start,)), (s, (h2.start,))] + list(g1.rules) + list(h2.rules)
    return Gvas.from_rules(g1.dim, rules, s)


def concat(g1: Gvas, g2: Gvas) -> Gvas:
    """Grammar with language L(g1) . L(g2)."""
    _require_same_dim(g1, g2)
    h2 = _disjoint(g1, g2)
    s = _fresh("S", set(g1.nonterminals) | set(h2.nonterminals))
    rules = [(s, (g1.start, h2.start))] + list(g1.rules) + list(h2.rules)
    return Gvas.from_rules(g1.dim, rules, s)


def star(g: Gvas) -> Gvas:
    """Grammar with language L(g)*."""
    s = _fresh("S", set(g.nonterminals))
    rules = [(s, ()), (s, (g.start, s))] + list(g.rules)
    return Gvas.from_rules(g.dim, rules, s)


def sandwich(g: Gvas, pre: Sequence[int], post: Sequence[int]) -> Gvas:
    """Grammar with language  U_k  pre^k . L(g) . post^k."""
    a, b = tuple(pre), tuple(post)
    if len(a) != g.dim or len(b) != g.dim:
        raise DimensionMismatchError("sandwich actions must match the grammar dimension")
    s = _fresh("S", set(g.nonterminals))
    rules = [(s, (a, s, b)), (s, (g.start,))] + list(g.rules)
    return Gvas.from_rules(g.dim, rules, s)


# ---------------------------------------------------------------------------
# Text format
#
#   dim 2
#   start S
#   S -> S S | (-1,2) | (2,-1)
#   T -> eps
#
# `#` starts a comment; alternative order and rule-line order are
# significant and survive the round trip.

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_VECTOR = re.compile(r"\(\s*(-?\d+)(\s*,\s*-?\d+)*\s*\)")


def format_config(c: Sequence[int]) -> str:
    return "(" + ",".join(str(v) for v in c) + ")"


def parse_config(text: str, line: int = 1, column: int = 1) -> Config:
    m = _VECTOR.fullmatch(text.strip())
    if not m:
        raise ParseError(f"bad vector {text!r}", line, column, ("(v1,...,vd)",))
    return tuple(int(v) for v in text.strip("() \t").split(","))


def _tokenize_rhs(text: str, line: int, offset: int) -> list[tuple["str | Action", int]]:
    """Split one alternative into symbols with their column positions."""
    out: list[tuple[str | Action, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = offset + i + 1
        if ch == "(":
            m = _VECTOR.match(text, i)
            if not m:
                raise ParseError("unterminated or malformed action vector", line, col, ("(v1,...,vd)",))
            out.append((tuple(int(v) for v in m.group(0).strip("()").split(",")), col))
            i = m.end()
        else:
            m = _IDENT.match(text, i)
            if not m:
                raise ParseError(f"unexpected character {ch!r}", line, col, ("identifier", "action"))
            out.append((m.group(0), col))
            i = m.end()
    return out


def _header_value(line: str, keyword: str) -> tuple[str, int]:
    """The value after ``keyword`` on a header line, and the 1-based
    column of its first character in the line as written."""
    after = len(line) - len(line.lstrip()) + len(keyword)
    rest = line[after:]
    return rest.strip(), after + len(rest) - len(rest.lstrip()) + 1


def _header_dim(line: str, line_no: int) -> int:
    """The dimension on a ``dim`` header line, written in ASCII digits."""
    value, col = _header_value(line, "dim")
    if not re.fullmatch(r"-?[0-9]+", value):
        raise ParseError(f"bad dimension {value!r}", line_no, col, ("natural",))
    if value.startswith("-"):
        raise ParseError("dimension must be non-negative", line_no, col)
    return int(value)


def parse_gvas(text: str) -> Gvas:
    """Parse the line-oriented GVAS text format."""
    dim: int | None = None
    start: str | None = None
    rules: list[tuple[str, Word]] = []
    action_at: list[tuple[Action, int, int]] = []  # each action with its line and column
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        indent = len(line) - len(stripped)  # line is already stripped on the right
        if stripped.startswith("dim "):
            if dim is not None:
                raise ParseError("duplicate dim line", line_no, indent + 1)
            dim = _header_dim(line, line_no)
            continue
        if stripped.startswith("start "):
            if start is not None:
                raise ParseError("duplicate start line", line_no, indent + 1)
            start, col = _header_value(line, "start")
            if start == "eps" or not _IDENT.fullmatch(start):
                raise ParseError(f"bad start symbol {start!r}", line_no, col, ("identifier",))
            continue
        if "->" not in line:
            raise ParseError("expected 'dim', 'start', or a rule", line_no, indent + 1, ("LHS -> rhs",))
        lhs_text, rhs_text = line.split("->", 1)
        lhs = lhs_text.strip()
        if lhs == "eps" or not _IDENT.fullmatch(lhs):
            raise ParseError(f"bad rule left side {lhs!r}", line_no, indent + 1, ("identifier",))
        base = len(lhs_text) + 2
        for alt in rhs_text.split("|"):
            symbols = _tokenize_rhs(alt, line_no, base)
            if len(symbols) == 1 and symbols[0][0] == "eps":
                rhs: Word = ()
            else:
                for s, col in symbols:
                    if s == "eps":
                        raise ParseError("'eps' must stand alone", line_no, col)
                rhs = tuple(s for s, _ in symbols)
                action_at += ((s, line_no, col) for s, col in symbols if not isinstance(s, str))
            rules.append((lhs, rhs))
            base += len(alt) + 1
    if dim is None:
        raise ParseError("missing 'dim' line", 1, 1, ("dim N",))
    if start is None:
        raise ParseError("missing 'start' line", 1, 1, ("start S",))
    for a, line_no, col in action_at:
        if len(a) != dim:
            raise ParseError(f"action {format_config(a)} has length {len(a)}, expected {dim}", line_no, col)
    return Gvas.from_rules(dim, rules, start)


def format_gvas(g: Gvas) -> str:
    """Canonical text form; inverse of :func:`parse_gvas`.

    Consecutive rules with the same left side collapse onto one line, so
    rule order survives exactly.
    """
    out = [f"dim {g.dim}", f"start {g.start}"]
    i = 0
    while i < len(g.rules):
        lhs = g.rules[i][0]
        alts = []
        while i < len(g.rules) and g.rules[i][0] == lhs:
            rhs = g.rules[i][1]
            alts.append(" ".join(s if isinstance(s, str) else format_config(s) for s in rhs) or "eps")
            i += 1
        out.append(f"{lhs} -> " + " | ".join(alts))
    return "\n".join(out) + "\n"
