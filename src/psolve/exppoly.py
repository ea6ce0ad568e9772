"""Exponential polynomials in an integer index n.

An ExpPoly is a finite sum of terms coeff * base^n * n^degree where coeff
and base are rational functions of the parameters and degree is a natural
number.  These are exactly the sequences produced by solving first-order
linear recurrences with constant coefficients, and the closed forms the
moment engine reports.  Bases are never zero: a vanishing homogeneous
coefficient is handled piecewise upstream instead of storing 0^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping, NamedTuple, Optional, Union

from .symbolic import Param, Polynomial, RationalFunction, RF_ONE, RF_ZERO

RFLike = Union[int, Fraction, Polynomial, RationalFunction]


class ExpTerm(NamedTuple):
    coeff: RationalFunction
    base: RationalFunction
    degree: int


def _rf(value: RFLike) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    return RationalFunction(value)


class ExpPoly:
    """Canonical sum of coeff * base^n * n^degree terms.

    Terms with equal (base, degree) are merged (base equality is the
    cross-multiplication test) and zero coefficients dropped, so the empty
    term tuple is the zero sequence.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged: list[list] = []
        for t in terms:
            coeff, base, degree = _rf(t[0]), _rf(t[1]), int(t[2])
            if degree < 0:
                raise ValueError("negative n-degree")
            if base.is_zero():
                raise ValueError("0^n term is not representable; handle piecewise")
            if coeff.is_zero():
                continue
            for slot in merged:
                if slot[2] == degree and slot[1] == base:
                    slot[0] = slot[0] + coeff
                    break
            else:
                merged.append([coeff, base, degree])
        final = [ExpTerm(c, b, d) for c, b, d in merged if not c.is_zero()]
        final.sort(key=lambda t: (0 if t.base == RF_ONE else 1, str(t.base), t.degree))
        object.__setattr__(self, "terms", tuple(final))

    def __setattr__(self, name, value):
        raise AttributeError("ExpPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ExpPoly":
        return ExpPoly()

    @staticmethod
    def const(value: RFLike) -> "ExpPoly":
        return ExpPoly(((value, 1, 0),))

    @staticmethod
    def term(coeff: RFLike, base: RFLike, degree: int = 0) -> "ExpPoly":
        return ExpPoly(((coeff, base, degree),))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(t.base == RF_ONE and t.degree == 0 for t in self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "ExpPoly":
        if isinstance(other, (int, Fraction, Polynomial, RationalFunction)):
            other = ExpPoly.const(other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return ExpPoly(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self) -> "ExpPoly":
        return ExpPoly(tuple((-t.coeff, t.base, t.degree) for t in self.terms))

    def __sub__(self, other) -> "ExpPoly":
        if isinstance(other, (int, Fraction, Polynomial, RationalFunction)):
            other = ExpPoly.const(other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "ExpPoly":
        if isinstance(other, (int, Fraction, Polynomial, RationalFunction)):
            other = ExpPoly.const(other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        out = []
        for a in self.terms:
            for b in other.terms:
                out.append((a.coeff * b.coeff, a.base * b.base, a.degree + b.degree))
        return ExpPoly(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "ExpPoly":
        """The sequence n -> self(n + k); k may be negative (bases are nonzero)."""
        if k == 0:
            return self
        out = []
        for coeff, base, degree in self.terms:
            scaled = coeff * base**k
            for j in range(degree + 1):
                out.append((scaled * comb(degree, j) * Fraction(k) ** (degree - j), base, j))
        return ExpPoly(out)

    def __eq__(self, other) -> bool:
        diff = self - other
        if diff is NotImplemented:
            return NotImplemented
        return diff.is_zero()

    __hash__ = None  # type: ignore[assignment]

    # -- evaluation --------------------------------------------------------

    def at(self, n: int) -> RationalFunction:
        """Exact value at a concrete index, as a rational function of the params."""
        if n < 0:
            raise ValueError("index must be >= 0")
        total = RF_ZERO
        for coeff, base, degree in self.terms:
            if n == 0 and degree > 0:
                continue
            total = total + coeff * base**n * Fraction(n) ** degree
        return total

    def subs(self, mapping) -> "ExpPoly":
        return ExpPoly(
            tuple((t.coeff.subs(mapping), t.base.subs(mapping), t.degree) for t in self.terms)
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for coeff, base, degree in self.terms:
            factors = []
            cs = str(coeff)
            if not base == RF_ONE:
                bs = str(base)
                if any(ch in bs for ch in "/*-+^ "):
                    bs = f"({bs})"
                factors.append(f"{bs}^n")
            if degree == 1:
                factors.append("n")
            elif degree > 1:
                factors.append(f"n^{degree}")
            if not factors:
                parts.append(cs)
            elif coeff == RF_ONE:
                parts.append("*".join(factors))
            else:
                if "/" in cs or " " in cs:
                    cs = f"({cs})"
                parts.append(cs + "*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ExpPoly({self})"


@dataclass(frozen=True)
class Limit:
    """Long-run behaviour of an ExpPoly as n grows."""

    kind: str  # "converges" | "diverges" | "conditional"
    value: Optional[RationalFunction]
    assumptions: tuple[str, ...] = ()


def expoly_limit(f: ExpPoly, params: Mapping[str, Param] | None = None) -> Limit:
    """Decide lim_{n->inf} f(n).

    Numeric bases are decided exactly; symbolic bases are decided by
    interval arithmetic over declared parameter domains when possible, and
    otherwise contribute a |base| < 1 assumption (conditional limit).
    """
    bounds: dict[str, tuple[Fraction, Fraction]] = {}
    for p in (params or {}).values():
        b = p.bounds()
        if b is not None:
            bounds[p.name] = b
    value = RF_ZERO
    assumptions: list[str] = []
    for coeff, base, degree in f.terms:
        if base == RF_ONE:
            if degree == 0:
                value = value + coeff
                continue
            return Limit("diverges", None)
        if base.is_const():
            b = base.const_value()
            if abs(b) < 1:
                continue
            return Limit("diverges", None)
        iv = None
        try:
            iv = base.interval(bounds)
        except KeyError:
            iv = None
        if iv is not None:
            lo, hi = iv
            if -1 < lo and hi < 1:
                continue
            if lo > 1 or hi < -1:
                return Limit("diverges", None)
        assumptions.append(f"|{base}| < 1")
    if assumptions:
        return Limit("conditional", value, tuple(assumptions))
    return Limit("converges", value)
