"""Recursive-descent parser for the loop source language.

The surface syntax is described in GRAMMAR.md at the repository root.
Numeric literals are exact: a decimal literal like 0.7 becomes the rational
7/10, never a binary float.  Distribution occurrences are normalized while
parsing (see program.py), so parse and pretty are inverse up to draw
renaming, which program equality ignores.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .errors import ParseError
from .program import (
    Assignment,
    Branch,
    DrawRegistry,
    DrawSpec,
    Initializer,
    LoopProgram,
    validate,
)
from .symbolic import Param, Polynomial, RationalFunction, RF_ONE

RESERVED = {"while", "true", "param", "support", "in", "bern", "gauss", "uniform", "choose", "n"}

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<num>\d+(?:\.\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>:=|[-+*/^(){}\[\];@,])
    """,
    re.VERBOSE,
)

# One number or a quotient of two, in the tokenizer's number syntax: most
# probabilities in a network file, read without tokenizing.
_QUOTIENT_RE = re.compile(r"\s*(\d+(?:\.\d+)?)\s*(?:/\s*(\d+(?:\.\d+)?)\s*)?\Z")


class Token(NamedTuple):
    kind: str  # "num" | "ident" | "op" | "eof"
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, source: str, registry: Optional[DrawRegistry] = None):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.registry = registry or DrawRegistry()
        self.params: dict[str, Param] = {}
        self.allowed: Optional[set[str]] = None  # None: any identifier is a variable

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            self.fail(f"expected {text!r}, found {tok.text!r}" if tok.text else f"expected {text!r}")
        return self.advance()

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.advance()
            return True
        return False

    def ident(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected {what}")
        if tok.text in RESERVED:
            self.fail(f"{tok.text!r} is reserved and cannot name a {what}", tok)
        return self.advance().text

    # -- expressions -------------------------------------------------------

    def expr(self, dists_ok: bool = True) -> RationalFunction:
        value = self.term(dists_ok)
        while True:
            if self.accept("+"):
                value = value + self.term(dists_ok)
            elif self.accept("-"):
                value = value - self.term(dists_ok)
            else:
                return value

    def term(self, dists_ok: bool) -> RationalFunction:
        value = self.factor(dists_ok)
        while True:
            if self.accept("*"):
                value = value * self.factor(dists_ok)
            elif self.at("/"):
                tok = self.advance()
                divisor = self.factor(dists_ok)
                bad = {s for s in divisor.symbols() if s not in self.params}
                if bad:
                    self.fail(
                        f"cannot divide by an expression containing {sorted(bad)[0]}; "
                        "only parameters and constants may appear in denominators",
                        tok,
                    )
                if divisor.is_const() and divisor.const_value() == 0:
                    self.fail("division by zero", tok)
                value = value / divisor
            else:
                return value

    def factor(self, dists_ok: bool) -> RationalFunction:
        if self.accept("-"):
            return -self.factor(dists_ok)
        if self.accept("+"):
            return self.factor(dists_ok)
        value = self.atom(dists_ok)
        while self.at("^"):
            self.advance()
            tok = self.peek()
            if tok.kind != "num" or "." in tok.text:
                self.fail("expected an integer exponent")
            self.advance()
            value = value ** int(tok.text)
        return value

    def atom(self, dists_ok: bool) -> RationalFunction:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return RationalFunction(Fraction(tok.text))
        if self.accept("("):
            value = self.expr(dists_ok)
            self.expect(")")
            return value
        if tok.kind == "ident":
            if tok.text in ("bern", "gauss", "uniform"):
                if not dists_ok:
                    self.fail("distributions are not allowed here", tok)
                return self.dist()
            if tok.text in RESERVED:
                self.fail(f"unexpected keyword {tok.text!r}", tok)
            self.advance()
            if self.allowed is not None and tok.text not in self.allowed and tok.text not in self.params:
                self.fail(f"unknown name {tok.text!r}", tok)
            return RationalFunction(Polynomial.var(tok.text))
        self.fail(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input")

    def dist(self) -> RationalFunction:
        name = self.advance().text
        self.expect("(")
        if name == "bern":
            p = self.param_expr("bern probability")
            self.expect(")")
            return RationalFunction(self.registry.fresh(DrawSpec("bern", p)))
        if name == "gauss":
            mean = self.poly_expr("Gaussian mean")
            self.expect(",")
            var = self.param_expr("Gaussian variance")
            self.expect(")")
            g = self.registry.fresh(DrawSpec("gauss0", var))
            return RationalFunction(mean + g)
        lo = self.poly_expr("uniform bound")
        self.expect(",")
        hi = self.poly_expr("uniform bound")
        self.expect(")")
        u = self.registry.fresh(DrawSpec("unif01", None))
        return RationalFunction(lo + (hi - lo) * u)

    def poly_expr(self, what: str) -> Polynomial:
        tok = self.peek()
        value = self.expr()
        if not value.is_poly():
            self.fail(f"{what} must be a polynomial", tok)
        return value.num

    def param_expr(self, what: str) -> RationalFunction:
        tok = self.peek()
        value = self.expr(dists_ok=False)
        bad = {s for s in value.symbols() if s not in self.params}
        if bad:
            self.fail(f"{what} may only use parameters, found {sorted(bad)[0]}", tok)
        return value

    def const_expr(self, what: str) -> Fraction:
        tok = self.peek()
        value = self.expr(dists_ok=False)
        if not value.is_const():
            self.fail(f"{what} must be a constant", tok)
        return value.const_value()

    # -- program structure -------------------------------------------------

    def program(self) -> LoopProgram:
        supports: dict[str, int] = {}
        inits: list[Initializer] = []
        seen_init = False
        while not self.at("while"):
            tok = self.peek()
            if tok.kind == "eof":
                self.fail("expected 'while'")
            if tok.text in ("param", "support"):
                if seen_init:
                    self.fail("directives must precede initializers", tok)
                self.directive(supports)
                continue
            seen_init = True
            target = self.ident("variable")
            self.expect(":=")
            expr = self.poly_expr("initializer")
            self.expect(";")
            inits.append(Initializer(target, expr))
        self.expect("while")
        self.expect("true")
        self.expect("{")
        updates: list[Assignment] = []
        while not self.accept("}"):
            if self.peek().kind == "eof":
                self.fail("expected '}'")
            updates.append(self.update())
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(f"unexpected {tok.text!r} after the loop", tok)
        return LoopProgram(
            params=tuple(self.params.values()),
            supports=supports,
            inits=tuple(inits),
            updates=tuple(updates),
            draws=self.registry.draws,
        )

    def directive(self, supports: dict[str, int]) -> None:
        if self.accept("param"):
            name = self.ident("parameter")
            if name in self.params:
                self.fail(f"parameter {name} declared twice")
            lo = hi = None
            if self.accept("in"):
                self.expect("(")
                lo = self.const_expr("domain bound")
                self.expect(",")
                hi = self.const_expr("domain bound")
                self.expect(")")
                if lo >= hi:
                    self.fail(f"empty domain ({lo}, {hi}) for {name}")
            self.expect(";")
            self.params[name] = Param(name, lo, hi)
            return
        self.expect("support")
        tok = self.peek()
        name = self.ident("variable")
        size_tok = self.peek()
        if size_tok.kind != "num" or "." in size_tok.text:
            self.fail("expected an integer support size")
        self.advance()
        self.expect(";")
        if name in supports:
            self.fail(f"support of {name} declared twice", tok)
        supports[name] = int(size_tok.text)

    def update(self) -> Assignment:
        target = self.ident("variable")
        self.expect(":=")
        if self.accept("choose"):
            self.expect("{")
            arms: list[Branch] = []
            while True:
                expr = self.poly_expr("branch")
                self.expect("@")
                prob = self.param_expr("branch probability")
                arms.append(Branch(prob, expr))
                if self.accept(";"):
                    if self.accept("}"):
                        break
                    continue
                self.expect("}")
                break
            if len(arms) < 2:
                self.fail("choose needs at least two branches")
            self.expect(";")
            return Assignment(target, tuple(arms))
        first = self.poly_expr("update expression")
        if self.accept("["):
            prob = self.param_expr("branch probability")
            self.expect("]")
            second = self.poly_expr("update expression")
            self.expect(";")
            return Assignment(target, (Branch(prob, first), Branch(RF_ONE - prob, second)))
        self.expect(";")
        return Assignment(target, (Branch(RF_ONE, first),))


def parse_program(source: str) -> LoopProgram:
    """Parse and validate loop source text; raises ParseError with
    line:column on bad input."""
    prog = _Parser(source).program()
    validate(prog)
    return prog


def parse_ratfun(text: str, params: Iterable[str] = ()) -> RationalFunction:
    """Parse a parameter-only expression, e.g. a probability or coefficient."""
    m = _QUOTIENT_RE.match(text)
    if m:
        num, den = Fraction(m[1]), Fraction(m[2] or 1)
        if den:  # a zero divisor goes on to the parser, which reports where
            return RationalFunction(num / den)
    parser = _Parser(text)
    parser.params = {p: Param(p) for p in params}
    parser.allowed = set()
    value = parser.param_expr("expression")
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(f"unexpected {tok.text!r}", tok)
    return value


def parse_draw_expr(
    text: str,
    params: Iterable[str] = (),
    registry: Optional[DrawRegistry] = None,
) -> Polynomial:
    """Parse an expression over parameters, constants and distribution draws.

    Used for initial values of dynamic-network nodes; draw symbols are
    allocated from the given registry so several expressions can share one
    namespace.
    """
    parser = _Parser(text, registry)
    parser.params = {p: Param(p) for p in params}
    parser.allowed = set()
    tok = parser.peek()
    value = parser.expr()
    if parser.peek().kind != "eof":
        parser.fail(f"unexpected {parser.peek().text!r}")
    if not value.is_poly():
        raise ParseError("expected a polynomial expression", tok.line, tok.col)
    return value.num


def parse_poly(text: str, symbols: Iterable[str] = (), params: Iterable[str] = ()) -> Polynomial:
    """Parse a polynomial over the given symbols (plus parameters)."""
    parser = _Parser(text)
    parser.params = {p: Param(p) for p in params}
    parser.allowed = set(symbols)
    tok = parser.peek()
    value = parser.expr(dists_ok=False)
    if parser.peek().kind != "eof":
        parser.fail(f"unexpected {parser.peek().text!r}")
    if not value.is_poly():
        raise ParseError("expected a polynomial", tok.line, tok.col)
    return value.num
