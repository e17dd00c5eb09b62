"""Pushdown vector addition systems and the translations to and from GVAS.

A PVAS action pops a word from the top of the stack, pushes another, and
adds a vector to the counters.  The stack top sits at index 0.  The
bridging convention with the grammar side is empty-stack acceptance:
grammar runs correspond to runs that fully consume the initial stack.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DimensionMismatchError,
    NotEnabledError,
    ParseError,
    ResourceLimitError,
    UnsupportedModelError,
)
from .gvas import _IDENT, Action, Config, Gvas, _header_dim, _header_value, format_config, parse_config

PvasAction = tuple[tuple[str, ...], tuple[str, ...], Action]


@dataclass(frozen=True)
class Pvas:
    dim: int
    stack_alphabet: tuple[str, ...]
    actions: tuple[PvasAction, ...]

    @classmethod
    def make(
        cls,
        dim: int,
        stack_alphabet: Sequence[str],
        actions: Sequence[tuple[Sequence[str], Sequence[str], Sequence[int]]],
    ) -> "Pvas":
        alphabet = tuple(stack_alphabet)
        for s in alphabet:  # as parse_pvas requires: "_" and "eps" denote empty words
            if s in ("_", "eps") or not _IDENT.fullmatch(s):
                raise ValueError(f"stack symbol {s!r} is not an identifier other than '_' and 'eps'")
        known = set(alphabet)
        rows = []
        for pop, push, delta in actions:
            pop_t, push_t, d = tuple(pop), tuple(push), tuple(delta)
            for s in pop_t + push_t:
                if s not in known:
                    raise UnsupportedModelError(f"stack symbol {s!r} not in the alphabet")
            if len(d) != dim:
                raise DimensionMismatchError(f"action delta {d} has length {len(d)}, expected {dim}")
            rows.append((pop_t, push_t, d))
        return cls(dim, alphabet, tuple(rows))


@dataclass(frozen=True)
class PvasConfig:
    stack: tuple[str, ...]  # top at index 0
    counters: Config

    def __str__(self) -> str:
        word = "".join(self.stack) if self.stack else "_"
        return f"({word},{format_config(self.counters)})"


def pvas_step(p: Pvas, c: PvasConfig, action_index: int) -> PvasConfig:
    """One step of the given action; raises :class:`NotEnabledError` with
    the blocking reason when the stack prefix or a counter forbids it."""
    pop, push, delta = p.actions[action_index]
    if c.stack[: len(pop)] != pop:
        raise NotEnabledError("stack-mismatch")
    counters = tuple(v + d for v, d in zip(c.counters, delta))
    if any(v < 0 for v in counters):
        raise NotEnabledError("counter-underflow")
    return PvasConfig(push + c.stack[len(pop) :], counters)


def enabled_steps(p: Pvas, c: PvasConfig) -> list[tuple[int, PvasConfig]]:
    out = []
    for i in range(len(p.actions)):
        try:
            out.append((i, pvas_step(p, c, i)))
        except NotEnabledError:
            continue
    return out


def gvas_to_pvas(g: Gvas) -> Pvas:
    """Stack machine equivalent to the grammar under empty-stack acceptance.

    The stack alphabet is the nonterminals (start first) plus one fresh
    symbol per action; rules become push actions with zero effect, actions
    become popping actions carrying their vector.  A nonterminal named
    ``_``, which would read as the empty word, gets a fresh symbol too.
    """
    nts = [g.start] + [n for n in g.nonterminals if n != g.start]
    taken = set(nts)

    def fresh(name: str) -> str:
        while name in taken:
            name = "_" + name
        taken.add(name)
        return name

    symbol: dict[str | Action, str] = {nt: nt for nt in nts}
    if "_" in symbol:
        symbol["_"] = fresh("n")
    for i, a in enumerate(g.actions):
        symbol[a] = fresh(f"a{i}")
    zero = (0,) * g.dim
    actions = [((symbol[lhs],), tuple(symbol[s] for s in rhs), zero) for lhs, rhs in g.rules]
    actions += [((symbol[a],), (), a) for a in g.actions]
    return Pvas.make(g.dim, [symbol[s] for s in nts + list(g.actions)], actions)


def pvas_to_gvas(p: Pvas, start: str | None = None, max_rules: int = 10_000) -> Gvas:
    """Grammar equivalent to the stack machine under empty-stack acceptance.

    One nonterminal per stack symbol: it generates the effect sequences of
    runs that erase that symbol (and whatever they push in the process).
    Push-only actions are expanded per stack symbol; an expansion firing
    on an intermediately empty stack is outside this fragment.  Pops of
    two or more symbols cut across push boundaries and are rejected.
    """
    for pop, _, _ in p.actions:
        if len(pop) > 1:
            raise UnsupportedModelError("pop words longer than one symbol are not supported")
    normalized: list[PvasAction] = []
    for pop, push, delta in p.actions:
        if pop:
            normalized.append((pop, push, delta))
        else:
            for s in p.stack_alphabet:
                normalized.append(((s,), push + (s,), delta))
    if len(normalized) > max_rules:
        raise ResourceLimitError(f"{len(normalized)} rules exceed the budget {max_rules}")
    start_sym = start if start is not None else p.stack_alphabet[0]
    if start_sym not in p.stack_alphabet:
        raise UnsupportedModelError(f"start symbol {start_sym!r} not in the stack alphabet")
    order = (start_sym,) + tuple(s for s in p.stack_alphabet if s != start_sym)
    rules: list[tuple[str, tuple]] = []
    deltas: dict[Action, None] = {}
    for sym in order:
        for pop, push, delta in normalized:
            if pop[0] != sym:
                continue
            deltas.setdefault(delta, None)
            rules.append((sym, (delta,) + push))
    return Gvas(p.dim, order, tuple(deltas), tuple(rules), start_sym)


def pvas_bounded_explore(
    p: Pvas,
    start: PvasConfig,
    counter_bound: int,
    stack_bound: int,
    step_bound: int,
    max_configs: int = 200_000,
) -> set[PvasConfig]:
    """Breadth-first closure of the step relation under three bounds.

    Configurations whose counters exceed ``counter_bound``, whose stack is
    longer than ``stack_bound``, or that need more than ``step_bound``
    steps are not explored.  Deterministic; includes the start.
    """
    if counter_bound < 0 or stack_bound < 0 or step_bound < 0:
        raise ValueError("bounds must be non-negative")

    def admissible(c: PvasConfig) -> bool:
        return len(c.stack) <= stack_bound and all(v <= counter_bound for v in c.counters)

    seen: set[PvasConfig] = set()
    if admissible(start):
        seen.add(start)
    frontier = [start] if admissible(start) else []
    for _ in range(step_bound):
        nxt: list[PvasConfig] = []
        for c in frontier:
            for _, c2 in enabled_steps(p, c):
                if c2 in seen or not admissible(c2):
                    continue
                seen.add(c2)
                nxt.append(c2)
                if len(seen) > max_configs:
                    raise ResourceLimitError(f"explored more than {max_configs} configurations")
        if not nxt:
            break
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# Text format
#
#   dim 2
#   stack S A B
#   action S / S S / (0,0)
#   action A / _ / (-1,2)
#
# `_` is the empty word; stack words are space-separated symbols.

def _stack_words(text: str, line_no: int, col: int) -> list[tuple[str, int]]:
    """Each symbol of one stack word with its column; ``col`` is the
    column of ``text``'s first character in its line."""
    words = [(m.group(), col + m.start()) for m in re.finditer(r"\S+", text)]
    if [s for s, _ in words] == ["_"]:
        return []
    for s, c in words:
        if s in ("_", "eps") or not _IDENT.fullmatch(s):  # "_" and "eps" denote empty words
            raise ParseError(f"bad stack symbol {s!r}", line_no, c, ("identifier", "_"))
    return words


def parse_pvas(text: str) -> Pvas:
    dim: int | None = None
    alphabet: tuple[str, ...] | None = None
    actions: list[tuple[tuple[str, ...], tuple[str, ...], Action]] = []
    delta_at: list[tuple[int, int]] = []  # (line, column) of each action's delta
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        indent = len(line) - len(stripped)
        if stripped.startswith("dim "):
            if dim is not None:
                raise ParseError("duplicate dim line", line_no, indent + 1)
            dim = _header_dim(line, line_no)
            continue
        if stripped.startswith("stack "):
            if alphabet is not None:
                raise ParseError("duplicate stack line", line_no, indent + 1)
            value, col = _header_value(line, "stack")
            words = _stack_words(value, line_no, col)
            if not words:
                raise ParseError("empty stack alphabet", line_no, col, ("identifier",))
            seen: set[str] = set()
            for a, c in words:
                if a in seen:
                    raise ParseError(f"duplicate stack symbol {a!r}", line_no, c)
                seen.add(a)
            alphabet = tuple(a for a, _ in words)
            continue
        if stripped.startswith("action "):
            at = indent + len("action")  # index of the body's first character
            parts = line[at:].split("/")
            if len(parts) != 3:
                raise ParseError("expected 'action pop / push / (delta)'", line_no, indent + 1)
            pop_text, push_text, delta_text = parts
            pop = tuple(s for s, _ in _stack_words(pop_text, line_no, at + 1))
            push = tuple(s for s, _ in _stack_words(push_text, line_no, at + len(pop_text) + 2))
            delta_text = delta_text.lstrip()  # it runs to the end of the line
            col = len(line) - len(delta_text) + 1
            actions.append((pop, push, parse_config(delta_text, line_no, col)))
            delta_at.append((line_no, col))
            continue
        raise ParseError("expected 'dim', 'stack', or 'action'", line_no, indent + 1)
    if dim is None:
        raise ParseError("missing 'dim' line", 1, 1, ("dim N",))
    if alphabet is None:
        raise ParseError("missing 'stack' line", 1, 1, ("stack A B ...",))
    for (_, _, delta), (line_no, col) in zip(actions, delta_at):
        if len(delta) != dim:
            raise ParseError(f"delta {format_config(delta)} has length {len(delta)}, expected {dim}", line_no, col)
    return Pvas.make(dim, alphabet, actions)


def format_pvas(p: Pvas) -> str:
    out = [f"dim {p.dim}", "stack " + " ".join(p.stack_alphabet)]
    for pop, push, delta in p.actions:
        pw = " ".join(pop) if pop else "_"
        qw = " ".join(push) if push else "_"
        out.append(f"action {pw} / {qw} / {format_config(delta)}")
    return "\n".join(out) + "\n"
