"""Piecewise closed forms and first-order linear recurrences.

A `ClosedForm` is explicit values below a start index and an ExpPoly tail
from there on, with the assumptions under which it holds.  Every
coefficient here is a `symbolic.Coeff`: a plain `Fraction` where no
parameter occurs, a rational function of the parameters where one does.
`ClosedForm.at` hands out a `RationalFunction`; the solve layer evaluates
with `ClosedForm._at`, which returns the coefficient type.
`ClosedForm.combine` is the one linear combination of closed forms and
`merge_assumptions` the one ordered merge of assumption lists.

f(n+1) = c * f(n) + g(n), with g a `ClosedForm`, is iterated exactly below
g's start and solved by undetermined coefficients on g's tail.  A base
equal to c (decided exactly on rational functions) is resonant and raises
the particular-solution degree by one; a symbolic base merely unequal to c
is treated as nonresonant and the assumption recorded.  c = 0 has no
exponential closed form, so that solution is piecewise too.  A solution
lists its own assumptions, then g's.

`verify_solution` checks a closed form against the recurrence it was
solved from; the moment engine builds each moment's recurrence once and
checks against that same object.  It compares the value at n = 0, the
formal tail identity, and each step up to two past the later start.
Each combination, tail and identity here is one ExpPoly built over one
term list, not a chain of ExpPoly `+`, `*` and `shift`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .errors import InternalCheckError
from .exppoly import ExpPoly
from .symbolic import Coeff, RationalFunction, as_coeff, coeff_str, coeff_subs


def merge_assumptions(*lists: Sequence[str]) -> tuple[str, ...]:
    """The entries of every list in order, each kept at its first place."""
    return tuple(dict.fromkeys(item for items in lists for item in items))


@dataclass(frozen=True)
class ClosedForm:
    """Piecewise closed form: prefix[n] below start, tail(n) from start on."""

    prefix: tuple[Coeff, ...]
    tail: ExpPoly
    assumptions: tuple[str, ...] = ()

    @staticmethod
    def combine(
        constant: Coeff, terms: Sequence[tuple[Coeff, "ClosedForm"]]
    ) -> "ClosedForm":
        """constant + the sum of coeff * cf over the (coeff, cf) terms.

        The prefix runs to the latest start among the terms, the tail is
        the same combination of their tails, and the assumptions are the
        terms' in order.  The tail is one ExpPoly built over one term list,
        the constant and then each c * term in order, so each (base,
        degree) slot sums its coefficients in that order.
        """
        tail = [(constant, 1, 0)]
        for c, cf in terms:
            tail.extend((coeff * c, base, degree) for coeff, base, degree in cf.tail.terms)
        prefix = []
        for j in range(max((cf.start for _, cf in terms), default=0)):
            value = constant
            for c, cf in terms:
                value = value + c * cf._at(j)
            prefix.append(as_coeff(value))
        assumptions = merge_assumptions(*(cf.assumptions for _, cf in terms))
        return ClosedForm(tuple(prefix), ExpPoly(tail), assumptions)

    @property
    def start(self) -> int:
        return len(self.prefix)

    def at(self, n: int) -> RationalFunction:
        return RationalFunction._coerce(self._at(n))

    def _at(self, n: int) -> Coeff:
        if n < len(self.prefix):
            return self.prefix[n]
        return self.tail._at(n)

    def total(self) -> ExpPoly | None:
        """The tail, if it is valid from n = 0 (no piecewise exception)."""
        return self.tail if not self.prefix else None

    def normalized(self) -> "ClosedForm":
        """Drop trailing prefix values that the tail already reproduces."""
        prefix = list(self.prefix)
        while prefix and self.tail._at(len(prefix) - 1) == prefix[-1]:
            prefix.pop()
        if len(prefix) == len(self.prefix):
            return self
        return ClosedForm(tuple(prefix), self.tail, self.assumptions)

    def subs(self, mapping) -> "ClosedForm":
        """Substitute parameter values; may fail if a base becomes zero."""
        return ClosedForm(
            tuple(coeff_subs(v, mapping) for v in self.prefix),
            self.tail.subs(mapping),
            self.assumptions,
        )

    def __str__(self) -> str:
        if not self.prefix:
            return str(self.tail)
        pieces = ", ".join(f"f({i}) = {coeff_str(v)}" for i, v in enumerate(self.prefix))
        return f"{self.tail} for n >= {self.start}; {pieces}"


@dataclass(frozen=True)
class FirstOrderRecurrence:
    """f(n+1) = self_coeff * f(n) + inhomog(n) for n >= 0, f(0) = initial."""

    self_coeff: Coeff
    inhomog: ClosedForm
    initial: Coeff


def _particular(g: ExpPoly, c: Coeff) -> tuple[list, list[str]]:
    """Particular solution terms for f(n+1) - c*f(n) = g(n)."""
    groups: list[tuple[Coeff, dict[int, Coeff]]] = []
    for coeff, base, degree in g.terms:
        for b, coeffs in groups:
            if b == base:
                coeffs[degree] = coeffs.get(degree, 0) + coeff
                break
        else:
            groups.append((base, {degree: coeff}))

    terms = []
    assumptions: list[str] = []
    for base, coeffs in groups:
        top = max(coeffs)
        diff = as_coeff(base - c)
        if not diff:
            # Resonant: q has degrees 1..top+1, with r*(q(n+1) - q(n)) = p(n).
            q: dict[int, Coeff] = {}
            for j in range(top, -1, -1):
                rhs = coeffs.get(j, 0) / base
                for l in range(j + 2, top + 2):
                    if l in q:
                        rhs = rhs - q[l] * comb(l, j)
                q[j + 1] = rhs / (j + 1)
            for deg, qc in q.items():
                terms.append((qc, base, deg))
        else:
            if isinstance(diff, RationalFunction):
                assumptions.append(f"{coeff_str(base)} != {coeff_str(c)}")
            # Nonresonant: r*q(n+1) - c*q(n) = p(n) with deg q = top.
            q = {}
            for j in range(top, -1, -1):
                rhs = coeffs.get(j, 0)
                for l in range(j + 1, top + 1):
                    if l in q:
                        rhs = rhs - base * q[l] * comb(l, j)
                q[j] = rhs / diff
            for deg, qc in q.items():
                terms.append((qc, base, deg))
    return terms, assumptions


def solve_first_order(rec: FirstOrderRecurrence) -> ClosedForm:
    """Solve f(n+1) = c*f(n) + g(n), f(0) = rec.initial.

    Below g's start the values are iterated exactly; from there on g is
    its tail, and the tail of f follows by undetermined coefficients.
    """
    c, g = as_coeff(rec.self_coeff), rec.inhomog
    start = g.start
    values = [as_coeff(rec.initial)]
    for j in range(start):
        values.append(as_coeff(c * values[j] + g._at(j)))
    if not c:
        return ClosedForm(tuple(values), g.tail.shift(-1), g.assumptions).normalized()
    part_terms, assumptions = _particular(g.tail, c)
    part = ExpPoly(part_terms)
    if start > 0 and isinstance(c, RationalFunction):
        assumptions.append(f"{c} != 0")
    amp = (values[start] - part._at(start)) / c**start
    tail = ExpPoly(part.terms + ((amp, c, 0),))
    merged = merge_assumptions(assumptions, g.assumptions)
    return ClosedForm(tuple(values[:start]), tail, merged).normalized()


def verify_solution(rec: FirstOrderRecurrence, cf: ClosedForm) -> None:
    """Check the closed form against the recurrence; raise
    InternalCheckError naming the first comparison that fails.

    In order: the value at n = 0, the formal tail identity (the ExpPoly
    tail(n+1) - c*tail(n) - g.tail(n) is zero), then each step f(n+1) =
    c*f(n) + g(n) up to two past the later of the two starts, across
    both piecewise boundaries.  cf is evaluated once per index, and the
    identity is one ExpPoly over one term list.  Nothing is sampled and
    nothing is rounded.
    """
    c, g = rec.self_coeff, rec.inhomog
    values = [cf._at(n) for n in range(max(cf.start, g.start) + 3)]
    if not values[0] == rec.initial:
        raise InternalCheckError("wrong at n = 0")
    ident = cf.tail.shifted_terms(1)
    ident.extend((-(c * coeff), base, degree) for coeff, base, degree in cf.tail.terms)
    ident.extend((-coeff, base, degree) for coeff, base, degree in g.tail.terms)
    if not ExpPoly(ident).is_zero():
        raise InternalCheckError("fails back-substitution")
    for n in range(len(values) - 1):
        if not values[n + 1] == c * values[n] + g._at(n):
            raise InternalCheckError(f"fails the recurrence at n = {n}")
