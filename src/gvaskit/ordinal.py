"""Ordinals below omega^omega, and the fast-growing hierarchy over them.

An ordinal is a tuple of Cantor-normal-form coefficients, least exponent
first: ``coeffs[i]`` is the coefficient of omega^i.  Zero is the empty
tuple.  Construction canonicalizes (trailing zeros are trimmed), so
structural equality is ordinal equality.

This fragment is exactly what the grammar generators need: natural sum is
coefficient-wise addition, fundamental sequences only ever peel the
smallest term, and values of the hierarchy are plain (unbounded) ints
guarded by an explicit cap.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .errors import CapExceededError, OrdinalRangeError, ParseError

#: Library default for value caps.  The hierarchy overflows any fixed
#: width almost immediately, so "too big" must stay a recoverable outcome.
DEFAULT_CAP = 2**64


@functools.total_ordering
@dataclass(frozen=True)
class Ordinal:
    """Ordinal below omega^omega as a CNF coefficient vector."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        cs = tuple(int(c) for c in self.coeffs)
        if any(c < 0 for c in cs):
            raise ValueError(f"negative CNF coefficient in {cs}")
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def omega(cls, power: int = 1, coeff: int = 1) -> "Ordinal":
        """The ordinal omega^power * coeff."""
        if power < 0:
            raise ValueError("negative exponent")
        return cls((0,) * power + (coeff,))

    @property
    def degree(self) -> int:
        """Number of CNF coefficients, i.e. 1 + largest exponent (0 for zero)."""
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_successor(self) -> bool:
        return bool(self.coeffs) and self.coeffs[0] > 0

    def is_limit(self) -> bool:
        return bool(self.coeffs) and self.coeffs[0] == 0

    def pred(self) -> "Ordinal":
        """Predecessor of a successor ordinal."""
        if not self.is_successor():
            raise OrdinalRangeError(f"{self} is not a successor")
        return Ordinal((self.coeffs[0] - 1,) + self.coeffs[1:])

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def __lt__(self, other: "Ordinal") -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        if self.degree != other.degree:
            return self.degree < other.degree
        return self.coeffs[::-1] < other.coeffs[::-1]

    def __str__(self) -> str:
        return format_ordinal(self)


ZERO = Ordinal(())
ONE = Ordinal((1,))
OMEGA = Ordinal((0, 1))


def natural_sum(a: Ordinal, b: Ordinal) -> Ordinal:
    """Natural (Hessenberg) sum; below omega^omega this is coefficient-wise."""
    n = max(a.degree, b.degree)
    return Ordinal(tuple(a.coeff(i) + b.coeff(i) for i in range(n)))


def fundamental(lam: Ordinal, n: int) -> Ordinal:
    """n-th element of the fundamental sequence of a limit ordinal.

    Peels one copy of the smallest term omega^i and replaces it with
    omega^(i-1) * (n+1).  Below omega^omega the smallest term of a limit
    always has exponent >= 1, so this single rule covers every case.
    """
    if n < 0:
        raise ValueError("negative sequence index")
    if not lam.is_limit():
        raise OrdinalRangeError(f"{lam} is not a limit ordinal")
    i = next(k for k, c in enumerate(lam.coeffs) if c > 0)
    cs = list(lam.coeffs)
    cs[i] -= 1
    cs[i - 1] = n + 1
    return Ordinal(tuple(cs))


def fast_growing(alpha: Ordinal, n: int, cap: int = DEFAULT_CAP) -> int:
    """Value of the fast-growing hierarchy at index ``alpha``, argument ``n``.

    Recursion: level 0 is successor, a successor level iterates the level
    below n+1 times, a limit level drops to the n-th fundamental-sequence
    element.  Raises :class:`CapExceededError` as soon as any value
    (argument or result) crosses ``cap``; since every level is expansive,
    that implies the final value would also exceed the cap.

    Memoizes (level, argument) pairs for the duration of one call.  The
    nested evaluation runs on an explicit stack of frames, so deep level
    reductions need no recursion.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    if n < 0:
        raise ValueError("negative argument")

    memo: dict[tuple[Ordinal, int], int] = {}
    # frames waiting on a lower level: [key, level applied, running value,
    # applications left]; a limit level applies its fundamental-sequence
    # element once, a successor level its predecessor x+1 times
    frames: list[list] = []
    key = (alpha, n)
    while True:
        a, x = key
        if x > cap:
            raise CapExceededError(f"argument {x} exceeds cap {cap}")
        r = memo.get(key)
        if r is None:
            if a.is_zero():
                r = x + 1
            elif a.is_limit():
                frames.append([key, fundamental(a, x), x, 1])
            elif (below := a.pred()).is_zero():
                r = 2 * x + 1  # x+1 successor steps, collapsed
            else:
                frames.append([key, below, x, x + 1])
        while r is not None:
            if r > cap:
                raise CapExceededError(f"value {r} exceeds cap {cap}")
            memo[key] = r
            if not frames:
                return r
            top = frames[-1]
            top[2] = r
            top[3] -= 1
            if top[3]:
                r = None
            else:
                key, _, r, _ = frames.pop()
        key = (frames[-1][1], frames[-1][2])


def fast_growing_iter(alpha: Ordinal, k: int, n: int, cap: int = DEFAULT_CAP) -> int:
    """k-fold iterate of the hierarchy function at index ``alpha``."""
    if k < 0:
        raise ValueError("negative iteration count")
    r = n
    for _ in range(k):
        r = fast_growing(alpha, r, cap)
    return r


_TERM = re.compile(r"w(?:\^(\d+))?(?:\*(\d+))?|\d+")


def parse_ordinal(text: str) -> Ordinal:
    """Parse the ordinal syntax ``w^K*C + ... + C``.

    Shorthands: ``w`` for ``w^1*1``, ``w^K`` for ``w^K*1``, and a bare
    natural for ``w^0*C``.  Exponents must be strictly decreasing across
    terms.
    """
    coeffs: dict[int, int] = {}
    last_exp: int | None = None
    pos = 0
    for part_no, part in enumerate(text.split("+")):
        term = part.strip()
        col = pos + part.index(term) + 1 if term else pos + 1
        if not term:
            raise ParseError("empty term", 1, col, ("w^K*C", "natural"))
        m = _TERM.fullmatch(term)
        if not m:
            raise ParseError(f"bad ordinal term {term!r}", 1, col, ("w^K*C", "natural"))
        if term[0] == "w":
            exp = int(m.group(1)) if m.group(1) else 1
            coef = int(m.group(2)) if m.group(2) else 1
        else:
            exp, coef = 0, int(term)
        if last_exp is not None and exp >= last_exp:
            raise ParseError(f"exponent {exp} not decreasing", 1, col)
        last_exp = exp
        coeffs[exp] = coef
        pos += len(part) + 1
    if not coeffs:
        raise ParseError("empty ordinal", 1, 1)
    top = max(coeffs)
    return Ordinal(tuple(coeffs.get(i, 0) for i in range(top + 1)))


def format_ordinal(a: Ordinal) -> str:
    """Canonical text form; inverse of :func:`parse_ordinal`."""
    if a.is_zero():
        return "0"
    parts = []
    for i in range(a.degree - 1, -1, -1):
        c = a.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("w" if c == 1 else f"w*{c}")
        else:
            parts.append(f"w^{i}" if c == 1 else f"w^{i}*{c}")
    return " + ".join(parts)
