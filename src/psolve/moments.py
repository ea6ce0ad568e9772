"""Moment recurrences and their closed forms.

The expected value of each monomial over program variables satisfies a
first-order linear recurrence with constant coefficients.  Extraction
substitutes every variable's update into the target monomial, last declared
variable first, so that by the end every variable reference means its value
at the start of the iteration; branchy updates contribute a probability mix
of branch powers (one shared coin per variable per monomial), and draws
turn into their raw moments.  A draw that only one update uses becomes
its moments inside that update's powers, where it enters the monomial, so
the substituted body grows with its expectation rather than with the
number of draws; a draw shared between updates, or whose moment is not a
polynomial in the parameters or is not known, stays symbolic until the
final expectation.  A worklist closes the set of needed moments, then
closed forms are solved bottom-up along the dependency order.

One `MomentEngine` serves every expectation taken of one compiled
program, and `MomentEngine.substitute_body` is its one way to substitute
the loop body into a query: the query comes as a list of factors, and
the variables are eliminated bucket by bucket, each substituted into the
product of only the factors that mention it, by one per-variable step,
`substitute_var`.  An extraction passes one monomial; a static query
passes its target and one indicator per evidence node, so negative
evidence (a factor 1 - F) does not double the polynomial.  A body that
overwrites every variable from draws and parameters alone (a compiled
static network) needs no recurrence: `MomentEngine.one_pass` substitutes
the body into the query once and takes one expectation.  Any other body
goes through `MomentEngine.closed`, which closes the query's monomials
with `compute_mbis` and combines their closed forms in n.
`compute_mbis` and `check_mbis` take a program or the engine built for
it; `closed` passes its own engine, so extraction, solving and the
back-substitution check of one query share one engine and its caches.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeCapError, InternalCheckError, ProgramError, UnsupportedError
from .exppoly import ExpPoly
from .program import LoopProgram, is_draw
from .recurrence import ClosedForm, FirstOrderRecurrence, solve_first_order, verify_solution
from .symbolic import (
    Monomial,
    Polynomial,
    RationalFunction,
    RF_ONE,
    RF_ZERO,
    reduce_finite_support,
)

DEFAULT_DEGREE_CAP = 64
_CAP_ENV = "PSOLVE_DEGREE_CAP"


def degree_cap() -> int:
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return DEFAULT_DEGREE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise UnsupportedError(f"{_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise UnsupportedError(f"{_CAP_ENV} must be positive")
    return cap


@dataclass(frozen=True)
class MomentRecurrence:
    """E[target](n+1) = self_coeff * E[target](n) + sum a_i E[N_i](n) + constant."""

    target: Monomial
    self_coeff: RationalFunction
    linear: tuple[tuple[Monomial, RationalFunction], ...]
    constant: RationalFunction


@dataclass(frozen=True)
class MBI:
    """A solved moment invariant: the recurrence and its closed form."""

    target: Monomial
    recurrence: MomentRecurrence
    closed: ClosedForm

    def at(self, n: int) -> RationalFunction:
        return self.closed.at(n)


class MomentEngine:
    """Every expectation of one program; caches its substitution data
    across many extractions."""

    def __init__(self, prog: LoopProgram):
        self.prog = prog
        self.vars = prog.variables
        self.var_set = set(self.vars)
        self.supports = dict(prog.supports)
        uses: Counter[str] = Counter()
        for upd in prog.updates:
            uses.update({s for br in upd.branches for s in br.expr.symbols() if is_draw(s)})
        self._private = frozenset(s for s, count in uses.items() if count == 1)
        self._upd_pows: dict[tuple[str, int], Polynomial] = {}
        self._moments: dict[tuple[str, int], RationalFunction] = {}
        self._init_moments: dict[tuple[str, int], RationalFunction] = {}

    # -- update powers -----------------------------------------------------

    def _upd_pow(self, var: str, k: int) -> Polynomial:
        """(var's update)^k averaged over its branch coin and its private
        draws: a polynomial in earlier variables, parameters and the draws
        that stay symbolic.  A branch whose expression is 0 adds nothing.

        A draw private to this update reaches a substituted monomial only
        through this one factor and is independent of everything else in
        it, so each power d^j is replaced by E[d^j] here.  A draw shared
        with another update, or whose moment is not a polynomial in the
        parameters or is not known, stays symbolic for `expectation`.
        """
        key = (var, k)
        cached = self._upd_pows.get(key)
        if cached is not None:
            return cached
        upd = self.prog.update_for(var)
        total = Polynomial()
        for br in upd.branches:
            if not br.prob.is_poly():
                raise UnsupportedError(
                    f"branch probability of {var} has a symbolic denominator"
                )
            if br.expr.is_zero():
                continue
            power = br.expr if k == 1 else br.expr**k
            if br.prob.is_const():
                total = total + power * br.prob.const_value()
            else:
                total = total + br.prob.num * power
        if self._private:
            total = self._integrate(total)
        total = self._reduce(total)
        self._upd_pows[key] = total
        return total

    def _integrate(self, poly: Polynomial) -> Polynomial:
        """Replace every power of a private draw whose moment is a known
        polynomial by that moment."""
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in poly.terms.items():
            keep: list[tuple[str, int]] = []
            moment = None
            for s, e in mono.powers:
                m = self._early_moment(s, e) if s in self._private else None
                if m is None:
                    keep.append((s, e))
                else:
                    moment = m if moment is None else moment * m
            if moment is None:
                out[mono] = out.get(mono, Fraction(0)) + coeff
                continue
            rest = Monomial(keep)
            for m2, c2 in moment.terms.items():
                m = rest * m2
                out[m] = out.get(m, Fraction(0)) + coeff * c2
        return Polynomial(out)

    def _early_moment(self, sym: str, k: int) -> Polynomial | None:
        """E[sym^k] as a polynomial in the parameters, or None when it is
        not one or is not known."""
        try:
            m = self._draw_moment(sym, k)
        except UnsupportedError:
            return None
        return m.num if m.is_poly() else None

    def _reduce(self, poly: Polynomial) -> Polynomial:
        """Finite-support reduction of the variables whose powers reach
        their support size, in declaration order."""
        supports = self.supports
        high = {
            s for mono in poly.terms for s, e in mono.powers
            if s in supports and e >= supports[s]
        }
        if not high:
            return poly
        for var, size in supports.items():
            if var in high:
                poly = reduce_finite_support(poly, var, size)
        return poly

    def substitute_var(self, var: str, poly: Polynomial) -> Polynomial:
        """One elimination step: every power var^e in poly becomes var's
        averaged update power, then support reduction.  poly must hold every
        occurrence of var in the query, so that var^(a+b) takes one branch
        coin."""
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in poly.terms.items():
            e = mono.exponent(var)
            if e == 0:
                out[mono] = out.get(mono, Fraction(0)) + coeff
                continue
            rest = mono.without(var)
            for m2, c2 in self._upd_pow(var, e).terms.items():
                m = rest * m2
                out[m] = out.get(m, Fraction(0)) + coeff * c2
        return self._reduce(Polynomial(out))

    def substitute_body(self, *factors: Polynomial) -> Polynomial:
        """One full body substitution into the product of one or more
        factors: the result refers only to start-of-iteration values, draws
        and parameters.

        The variables are eliminated last declared first, bucket by bucket
        (Dechter's bucket elimination): the factors that mention the
        variable are multiplied and reduced, `substitute_var` runs on that
        product alone, and its result goes back on the list.  A single
        factor, such as the monomial of an extraction, is one bucket after
        another.  Support reduction is a ring map, so the result is the
        polynomial the expanded product would give, while the work grows
        with the largest bucket, not with the number of factors.  Each
        factor left at the end is a step's reduced result or mentions no
        program variable, and no program variable is in two of them, since
        a bucket takes every factor that mentions its variable; so their
        product, the polynomial whose expectation is taken, needs no
        reduction, and draws shared between updates stay symbolic until
        then.
        """
        pending = [(f, f.symbols()) for f in factors]
        for var in reversed(self.vars):
            bucket = [f for f, syms in pending if var in syms]
            if not bucket:
                continue
            if len(bucket) < len(pending):
                pending = [(f, syms) for f, syms in pending if var not in syms]
            else:  # a lone factor, as in an extraction, leaves none behind
                pending = []
            merged = bucket[0]
            for f in bucket[1:]:
                merged = self._reduce(merged * f)
            merged = self.substitute_var(var, merged)
            pending.append((merged, merged.symbols()))
        body, *rest = (f for f, _ in pending)
        return math.prod(rest, start=body)

    # -- expectation normal form ------------------------------------------

    def _draw_moment(self, sym: str, k: int) -> RationalFunction:
        key = (sym, k)
        cached = self._moments.get(key)
        if cached is None:
            cached = self.prog.draws[sym].moment(k)
            self._moments[key] = cached
        return cached

    def expectation(self, poly: Polynomial) -> tuple[dict[Monomial, RationalFunction], RationalFunction]:
        """Split E[poly] into a linear combination of moment variables.

        Returns (linear map monomial -> coefficient, constant).  Draws are
        independent of the state and of each other, so each monomial factors
        into draw moments, a parameter monomial and one moment variable.
        The draws left in a substituted body are those `_upd_pow` keeps
        symbolic (shared, with a moment that is not a polynomial, or with
        no known moment, which raises here); an initializer's draws all
        become moments here.
        """
        acc_poly: dict[Monomial, dict[Monomial, Fraction]] = {}
        acc_rf: dict[Monomial, RationalFunction] = {}
        for mono, coeff in poly.terms.items():
            evar: list[tuple[str, int]] = []
            pmono: list[tuple[str, int]] = []
            contrib = None
            rf_factor = None
            for s, e in mono.powers:
                if s in self.var_set:
                    evar.append((s, e))
                elif is_draw(s):
                    m = self._draw_moment(s, e)
                    if m.is_zero():
                        contrib = Polynomial()
                        break
                    if m.is_poly():
                        contrib = m.num if contrib is None else contrib * m.num
                    else:
                        rf_factor = m if rf_factor is None else rf_factor * m
                else:
                    pmono.append((s, e))
            if contrib is not None and contrib.is_zero():
                continue
            base = Polynomial({Monomial(pmono): coeff})
            if contrib is not None:
                base = base * contrib
            key = Monomial(evar)
            if rf_factor is None:
                slot = acc_poly.setdefault(key, {})
                for m2, c2 in base.terms.items():
                    slot[m2] = slot.get(m2, Fraction(0)) + c2
            else:
                extra = RationalFunction(base) * rf_factor
                acc_rf[key] = acc_rf.get(key, RF_ZERO) + extra
        linear: dict[Monomial, RationalFunction] = {}
        for key, slot in acc_poly.items():
            linear[key] = RationalFunction(Polynomial(slot))
        for key, rf in acc_rf.items():
            linear[key] = linear.get(key, RF_ZERO) + rf
        constant = linear.pop(Monomial.unit(), RF_ZERO)
        linear = {k: v for k, v in linear.items() if not v.is_zero()}
        return linear, constant

    def extract(self, target: Monomial) -> MomentRecurrence:
        bad = target.symbols() - self.var_set
        if bad:
            raise ProgramError(f"unknown program variable {sorted(bad)[0]} in moment target")
        body = self.substitute_body(Polynomial({target: Fraction(1)}))
        linear, constant = self.expectation(body)
        self_coeff = linear.pop(target, RF_ZERO)
        ordered = tuple(sorted(linear.items(), key=lambda kv: kv[0], reverse=True))
        return MomentRecurrence(target, self_coeff, ordered, constant)

    def one_pass(self, *factors: Polynomial) -> RationalFunction:
        """E[product of the factors] after the first iteration of a body
        that overwrites every variable from draws and parameters alone, as
        a compiled static network does: one substitution, one expectation,
        no recurrence.  A query passes its target and one indicator per
        evidence node; each factor is reduced and goes into its own bucket
        list entry, so that it widens only the buckets of its variables."""
        body = self.substitute_body(*(self._reduce(f) for f in factors))
        linear, constant = self.expectation(body)
        if linear:
            left = ", ".join(f"E[{m}]" for m in sorted(linear, reverse=True))
            raise InternalCheckError(
                f"one body pass leaves state moments {left}; the program "
                "does not overwrite every variable"
            )
        return constant

    def closed(self, poly: Polynomial) -> ClosedForm:
        """E[poly] as a function of n: the monomials of the reduced
        polynomial closed by `compute_mbis` (every solution
        back-substituted), combined, with their assumptions merged."""
        reduced = self._reduce(poly)
        const = RationalFunction(Polynomial.const(reduced.coeff(Monomial.unit())))
        terms = [
            (m, RationalFunction(Polynomial.const(c)))
            for m, c in reduced.terms.items()
            if not m.is_unit()
        ]
        mbis = compute_mbis(self, [m for m, _ in terms])
        closeds = [(mbis[m].closed, c) for m, c in terms]
        assumptions: list[str] = []
        tail = ExpPoly.const(const)
        for cf, c in closeds:
            tail = tail + ExpPoly.const(c) * cf.tail
            for item in cf.assumptions:
                if item not in assumptions:
                    assumptions.append(item)
        prefix = []
        for j in range(max((cf.start for cf, _ in closeds), default=0)):
            value = const
            for cf, c in closeds:
                value = value + c * cf.at(j)
            prefix.append(value)
        return ClosedForm(tuple(prefix), tail, tuple(assumptions)).normalized()

    # -- initial values ----------------------------------------------------

    def initial_moment(self, target: Monomial) -> RationalFunction:
        """E[target] at n = 0; initializers are mutually independent."""
        total = RF_ONE
        for var, k in target.powers:
            key = (var, k)
            cached = self._init_moments.get(key)
            if cached is None:
                for init in self.prog.inits:
                    if init.target == var:
                        expr = init.expr
                        break
                else:
                    raise ProgramError(f"variable {var} has no initializer")
                _, cached = self.expectation(self._reduce(expr**k))
                self._init_moments[key] = cached
            total = total * cached
        return total


def _toposort(recs: dict[Monomial, MomentRecurrence]) -> list[Monomial]:
    order: list[Monomial] = []
    state: dict[Monomial, int] = {}  # 1 = visiting, 2 = done

    def visit(m: Monomial, path: list[Monomial]) -> None:
        mark = state.get(m)
        if mark == 2:
            return
        if mark == 1:
            cyc = " -> ".join(str(x) for x in path + [m])
            raise UnsupportedError(
                f"cyclic moment dependence: {cyc}; the loop is outside the "
                "Prob-solvable fragment"
            )
        state[m] = 1
        for dep, _ in recs[m].linear:
            visit(dep, path + [m])
        state[m] = 2
        order.append(m)

    for m in recs:
        visit(m, [])
    return order


def _g_tail(rec: MomentRecurrence, solved: dict[Monomial, ClosedForm]) -> ExpPoly:
    g = ExpPoly.const(rec.constant) if not rec.constant.is_zero() else ExpPoly.zero()
    for dep, a in rec.linear:
        g = g + solved[dep].tail * a
    return g


def _g_at(rec: MomentRecurrence, solved: dict[Monomial, ClosedForm], n: int) -> RationalFunction:
    g = rec.constant
    for dep, a in rec.linear:
        g = g + a * solved[dep].at(n)
    return g


def compute_mbis(
    prog: LoopProgram | MomentEngine,
    goals,
    cap: int | None = None,
    check: bool = True,
) -> dict[Monomial, MBI]:
    """Closed forms for the expected values of the goal monomials.

    `prog` is a `LoopProgram` or the `MomentEngine` built for one; a
    program gets its engine built here, once.  The worklist adds every
    moment the goals transitively depend on; a monomial whose total degree
    exceeds the cap (PSOLVE_DEGREE_CAP or 64) aborts with the chain that
    produced it.  With check=True every solution is verified by
    back-substitution on the same engine before being returned.
    """
    if cap is None:
        cap = degree_cap()
    engine = prog if isinstance(prog, MomentEngine) else MomentEngine(prog)
    recs: dict[Monomial, MomentRecurrence] = {}
    parent: dict[Monomial, Monomial] = {}
    pending: list[Monomial] = []
    for goal in goals:
        if not isinstance(goal, Monomial):
            raise TypeError("goals must be monomials over program variables")
        pending.append(goal)
    while pending:
        m = pending.pop()
        if m in recs:
            continue
        if m.degree() > cap:
            chain = [m]
            while chain[-1] in parent:
                chain.append(parent[chain[-1]])
            trail = " <- ".join(str(x) for x in chain)
            raise DegreeCapError(
                f"moment degree {m.degree()} exceeds cap {cap}: {trail}"
            )
        rec = engine.extract(m)
        recs[m] = rec
        for dep, _ in rec.linear:
            if dep not in recs:
                parent.setdefault(dep, m)
                pending.append(dep)

    solved: dict[Monomial, ClosedForm] = {}
    for m in _toposort(recs):
        rec = recs[m]
        start = max((solved[dep].start for dep, _ in rec.linear), default=0)
        values = [engine.initial_moment(m)]
        for j in range(start):
            values.append(rec.self_coeff * values[j] + _g_at(rec, solved, j))
        cf = solve_first_order(
            FirstOrderRecurrence(rec.self_coeff, _g_tail(rec, solved), values[start]),
            start=start,
            prefix=tuple(values[:start]),
        )
        solved[m] = cf

    mbis = {m: MBI(m, recs[m], solved[m]) for m in recs}
    if check:
        check_mbis(engine, mbis)
    return mbis


def check_mbis(prog: LoopProgram | MomentEngine, mbis: dict[Monomial, MBI]) -> None:
    """Back-substitution check: every closed form must satisfy its recurrence
    and initial value exactly.  Raises InternalCheckError on failure.

    `prog` is a `LoopProgram` or the `MomentEngine` built for one; the
    recurrences come from the MBIs and the initial values from the
    engine's cache, so an engine that has just solved them builds nothing
    again.
    """
    engine = prog if isinstance(prog, MomentEngine) else MomentEngine(prog)
    solved = {m: mbi.closed for m, mbi in mbis.items()}
    for m, mbi in mbis.items():
        rec = mbi.recurrence
        cf = mbi.closed
        for dep, _ in rec.linear:
            if dep not in solved:
                raise InternalCheckError(f"moment {m} depends on unsolved {dep}")
        if not cf.at(0) == engine.initial_moment(m):
            raise InternalCheckError(f"closed form of E[{m}] wrong at n = 0")
        start = max((solved[dep].start for dep, _ in rec.linear), default=0)
        fo = FirstOrderRecurrence(rec.self_coeff, _g_tail(rec, solved), cf.at(start))
        if not verify_solution(fo, cf, start=start):
            raise InternalCheckError(f"closed form of E[{m}] fails back-substitution")
        for j in range(start):
            lhs = cf.at(j + 1)
            rhs = rec.self_coeff * cf.at(j) + _g_at(rec, solved, j)
            if not lhs == rhs:
                raise InternalCheckError(
                    f"closed form of E[{m}] fails the recurrence at n = {j}"
                )
