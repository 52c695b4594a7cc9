"""Sentence language: syntax tree, parser, printer, atomic structure.

Concrete syntax (ASCII, whitespace-insensitive):

    sentence := or_expr
    or_expr  := and_expr { "or" and_expr }
    and_expr := unary { "and" unary }
    unary    := "not" unary | "snot" unary | atom | "f" | "(" sentence ")"

Keywords are `not`, `snot`, `and`, `or` and the falsity constant `f`;
atoms are any other identifier matching [a-z][a-z0-9_]*.  `not` and
`snot` bind tightest, then `and`, then `or`; both binary connectives
associate to the left.

The parsed core has no binary connectives.  `a and b` desugars to the
ternary conjunction Conj3(a, b, f) whose third slot is always the
falsity constant, and `a or b` desugars to not (not a and not b).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from .errors import ParseError, ReservedName

RESERVED = frozenset({"not", "snot", "and", "or", "f"})

_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


@dataclass(frozen=True)
class Atom:
    """Atomic sentence, identified by name."""

    name: str

    def __post_init__(self) -> None:
        if self.name in RESERVED:
            raise ReservedName(f"'{self.name}' is a reserved word, not an atom name")
        if not _ATOM_RE.match(self.name):
            raise ValueError(f"atom name must match [a-z][a-z0-9_]*, got {self.name!r}")


@dataclass(frozen=True)
class Falsity:
    """The privileged constant f, always interpreted as |0>."""


FALSITY = Falsity()


@dataclass(frozen=True)
class Neg:
    body: "Sentence"


@dataclass(frozen=True)
class SqrtNeg:
    body: "Sentence"


@dataclass(frozen=True)
class Conj3:
    """Ternary conjunction.  The third slot is the falsity constant."""

    left: "Sentence"
    right: "Sentence"
    third: "Sentence" = field(default=FALSITY)

    def __post_init__(self) -> None:
        if not isinstance(self.third, Falsity):
            raise ValueError("the third slot of a ternary conjunction must be f")


Sentence = Atom | Falsity | Neg | SqrtNeg | Conj3

R = TypeVar("R")


def conj(a: Sentence, b: Sentence) -> Sentence:
    """Binary conjunction sugar."""
    return Conj3(a, b)

def disj(a: Sentence, b: Sentence) -> Sentence:
    """Binary disjunction sugar: not (not a and not b)."""
    return Neg(Conj3(Neg(a), Neg(b)))


_TOKEN_RE = re.compile(r"[a-z][a-z0-9_]*|[()]")
_SPACE_RE = re.compile(r"\s*")


class _Parser:
    """Recursive descent over (text, position) token pairs."""

    def __init__(self, text: str):
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while True:
            pos = _SPACE_RE.match(text, pos).end()
            if pos == len(text):
                break
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            self.tokens.append((m.group(), pos))
            pos = m.end()
        self.end = len(text)
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def here(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else self.end

    def take(self) -> str:
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def or_expr(self) -> Sentence:
        out = self.and_expr()
        while self.peek() == "or":
            self.take()
            out = disj(out, self.and_expr())
        return out

    def and_expr(self) -> Sentence:
        out = self.unary()
        while self.peek() == "and":
            self.take()
            out = conj(out, self.unary())
        return out

    def unary(self) -> Sentence:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a sentence", self.here())
        if tok == "not":
            self.take()
            return Neg(self.unary())
        if tok == "snot":
            self.take()
            return SqrtNeg(self.unary())
        if tok == "f":
            self.take()
            return FALSITY
        if tok == "(":
            self.take()
            inner = self.or_expr()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.here())
            self.take()
            return inner
        if tok in RESERVED or tok in "()":
            raise ParseError(f"expected a sentence, found {tok!r}", self.here())
        self.take()
        return Atom(tok)


def parse(text: str) -> Sentence:
    """Parse sentence text into the desugared core."""
    p = _Parser(text)
    try:
        out = p.or_expr()
    except RecursionError:
        raise ParseError("sentence nested too deeply", p.here()) from None
    if p.peek() is not None:
        raise ParseError(f"unexpected {p.peek()!r} after sentence", p.here())
    return out


def children(s: Sentence) -> tuple[Sentence, ...]:
    """Immediate subsentences in order; () for an atomic sentence."""
    if isinstance(s, Conj3):
        return (s.left, s.right, s.third)
    if isinstance(s, (Neg, SqrtNeg)):
        return (s.body,)
    if isinstance(s, (Atom, Falsity)):
        return ()
    raise TypeError(f"not a sentence: {s!r}")


def fold(s: Sentence, combine: Callable[[Sentence, tuple], R]) -> R:
    """Post-order walk of s without recursion.

    combine(node, parts) gets the results for node's children, in
    order; each result is dropped once its parent has used it.
    """
    results: list = []
    stack = [(s, children(s), 0)]
    while stack:
        node, kids, base = stack[-1]
        done = len(results) - base
        if done < len(kids):
            kid = kids[done]
            grandkids = children(kid)
            if grandkids:
                stack.append((kid, grandkids, len(results)))
            else:  # a leaf needs no stack frame
                results.append(combine(kid, ()))
        else:
            stack.pop()
            parts = tuple(results[base:])
            del results[base:]
            results.append(combine(node, parts))
    return results[0]


def _leaf_text(s: Sentence) -> str:
    return s.name if isinstance(s, Atom) else "f"


def pretty_step(s: Sentence, parts: tuple[str, ...]) -> str:
    """fold step of `pretty`: a node's text from its children's texts."""
    if not parts:
        return _leaf_text(s)
    if isinstance(s, Conj3):
        # left association makes parens on the left child redundant
        left, right, _ = parts
        return f"{left} and ({right})" if isinstance(s.right, Conj3) else f"{left} and {right}"
    word = "not" if isinstance(s, Neg) else "snot"
    return f"{word} ({parts[0]})" if isinstance(s.body, Conj3) else f"{word} {parts[0]}"


def pretty(s: Sentence) -> str:
    """Minimal-parenthesis rendering; parse(pretty(s)) returns s."""
    return fold(s, pretty_step)


def atoms_of(s: Sentence) -> tuple[Sentence, ...]:
    """Leaf occurrences in left-to-right order, falsity included."""
    leaves, stack = [], [s]
    while stack:
        node = stack.pop()
        kids = children(node)
        if kids:
            stack.extend(reversed(kids))
        else:
            leaves.append(node)
    return tuple(leaves)


def atomic_complexity(s: Sentence) -> int:
    """Number of atomic occurrences, counting repeats and falsity.

    Equals the number of qubits the sentence's interpretation lives on.
    """
    return fold(s, lambda node, parts: sum(parts) if parts else 1)


def atom_names(s: Sentence) -> set[str]:
    """Distinct atom names occurring in s (falsity excluded)."""
    return {leaf.name for leaf in atoms_of(s) if isinstance(leaf, Atom)}


def ast_text(s: Sentence) -> str:
    """Constructor-style rendering of the desugared core."""
    return fold(
        s, lambda n, parts: f"{type(n).__name__}({', '.join(parts)})" if parts else _leaf_text(n)
    )


def _json_step(s: Sentence, parts: tuple[dict, ...]) -> dict:
    if isinstance(s, Atom):
        return {"kind": "atom", "name": s.name}
    if isinstance(s, Falsity):
        return {"kind": "falsity"}
    if isinstance(s, Conj3):
        return {"kind": "and", "left": parts[0], "right": parts[1]}
    return {"kind": "not" if isinstance(s, Neg) else "snot", "body": parts[0]}


def sentence_to_json(s: Sentence) -> dict:
    """JSON-ready form of a sentence."""
    return fold(s, _json_step)
