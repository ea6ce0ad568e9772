"""Moment recurrences and their closed forms.

The expected value of each monomial over program variables satisfies a
first-order linear recurrence with constant coefficients.  Extraction
substitutes every variable's update into the target monomial, last declared
variable first, so that by the end every variable reference means its value
at the start of the iteration; branchy updates contribute a probability mix
of branch powers (one shared coin per variable per monomial), and draws
turn into their raw moments.  Every draw belongs to one statement
(`program.validate`), so the draws of an update or an initializer become
their moments inside that statement's powers (`_integrate`), where they
enter the monomial, and the substituted body grows with its expectation
rather than with the number of draws;
only a draw whose moment is not a polynomial in the parameters, or the
coin of a branch whose probability is not one, stays
symbolic until the final expectation.  One depth-first pass (`_close`)
extracts every needed moment and orders each after the moments it depends
on; then the closed forms are solved bottom-up in that order, each by
`recurrence.py` from a recurrence in n whose inhomogeneous term combines
the closed forms of the moments it depends on (`_first_order`), so it
lists their assumptions after its own.  That recurrence is built once per
moment and kept on its `MBI`; the back-substitution check verifies the
closed form against it rather than building it again.

One `MomentEngine` serves every expectation taken of one compiled
program: a loaded network builds it once (`BayesNet.engine`,
`DynBayesNet.engine`), and every query on that network uses it.
`MomentEngine.substitute_body` is its one way to substitute
the loop body into a query: the query comes as a list of factors, and
the variables are eliminated bucket by bucket, each substituted into the
product of only the factors that mention it, by one per-variable step,
`substitute_var`.  An extraction passes one monomial; a static query
passes its target and one indicator per evidence node, so negative
evidence (a factor 1 - F) does not double the polynomial.  A body that
overwrites every variable from draws and parameters alone (a compiled
static network) needs no recurrence: `MomentEngine.one_pass` substitutes
the body into the query once and takes one expectation.  Every walk,
`one_pass` or extraction, reads and fills the engine's table of bucket
messages, so the expectations of one query, and of the later queries on
the engine, build each message they share once.  A message left alone in
its walk with one term, or with one term still to substitute beside
start-of-iteration values, goes on as one factor per variable of that
term, so an extraction meets the messages other walks built: the
sampling monitor's count reuses the P(evidence) pass.  Any other body goes through `MomentEngine.closed`, which closes
the query's monomials with `compute_mbis` and combines their closed
forms in n.
`compute_mbis` takes a program or the engine built for it; `closed`
passes its own engine, so the extractions and initial values of one
query share one engine and its caches.  The engine also keeps every MBI
that passed the back-substitution check, so a later query solves and
verifies only the moments that are new to it.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeCapError, InternalCheckError, ProgramError, UnsupportedError
from .program import DrawSpec, LoopProgram, is_draw
from .recurrence import ClosedForm, FirstOrderRecurrence, solve_first_order, verify_solution
from .symbolic import (
    Coeff,
    Monomial,
    Polynomial,
    RationalFunction,
    RF_ZERO,
    _mono,
    _poly_of_sums,
    _poly_of_terms,
    as_coeff,
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
    """E[target](n+1) = self_coeff * E[target](n) + sum a_i E[N_i](n) + constant.

    The coefficients are `Coeff`s: Fractions where no parameter occurs."""

    target: Monomial
    self_coeff: Coeff
    linear: tuple[tuple[Monomial, Coeff], ...]
    constant: Coeff


@dataclass(frozen=True)
class MBI:
    """A solved moment invariant: the recurrence over moments, the
    recurrence in n it was solved from (`_first_order`), and its closed
    form."""

    target: Monomial
    recurrence: MomentRecurrence
    first_order: FirstOrderRecurrence
    closed: ClosedForm

    def at(self, n: int) -> RationalFunction:
        return self.closed.at(n)


class MomentEngine:
    """Every expectation of one program; caches its substitution data,
    bucket messages and verified closed forms across many queries."""

    def __init__(self, prog: LoopProgram):
        self.prog = prog
        self.vars = prog.variables
        self.var_set = set(self.vars)
        self.supports = dict(prog.supports)
        # the program's draws and the branch coins of `_upd_pow`
        self.draws = dict(prog.draws)
        self._upd_pows: dict[tuple[str, int], Polynomial] = {}
        self._moments: dict[tuple[str, int], RationalFunction] = {}
        self._init_moments: dict[tuple[str, int], Coeff] = {}
        self._rank = {var: i for i, var in enumerate(self.vars)}
        # the message table of every walk: (var, the id of the bucket's
        # lone factor or the sorted ids of its factors) -> (message, its
        # symbols, its id, its split or None; see `_split`)
        self._messages: dict[tuple[str, object], tuple] = {}
        self._interned: dict[frozenset, int] = {}
        self._ids = itertools.count()
        # every MBI `compute_mbis` solved on this engine and `check_mbis`
        # verified; later closures read them instead of solving again
        self._verified: dict[Monomial, MBI] = {}

    # -- update powers -----------------------------------------------------

    def _upd_pow(self, var: str, k: int) -> Polynomial:
        """(var's update)^k averaged over its branch coin and its draws: a
        polynomial in earlier variables, parameters and the draws that stay
        symbolic.  A branch whose expression is 0 adds nothing.

        A draw of this update belongs to no other statement, so it reaches
        a substituted monomial only through this one factor and is
        independent of everything else in it: each power d^j is replaced
        by E[d^j] here.  A draw whose moment is not a polynomial in the
        parameters, such as bern(1/(1 + b)), stays symbolic for
        `expectation`.  So does a branch probability that is not a
        polynomial: branch j takes the Bernoulli coin `$<var>#<j>` of that
        probability as its weight, registered in `self.draws`.  Each term
        holds at most one coin of var, so E[coin] = p averages it exactly.
        """
        key = (var, k)
        cached = self._upd_pows.get(key)
        if cached is not None:
            return cached
        upd = self.prog.update_for(var)
        total = Polynomial()
        for j, br in enumerate(upd.branches):
            if br.expr.is_zero():
                continue
            power = br.expr if k == 1 else br.expr**k
            if br.prob.is_const():
                total = total + power * br.prob.const_value()
            elif br.prob.is_poly():
                total = total + br.prob.num * power
            else:
                coin = f"${var}#{j}"
                self.draws[coin] = DrawSpec("bern", br.prob)
                total = total + Polynomial.var(coin) * power
        total = self._reduce(self._integrate(total))
        self._upd_pows[key] = total
        return total

    def _integrate(self, poly: Polynomial) -> Polynomial:
        """Replace every power of a draw whose moment is a polynomial in the
        parameters by that moment (`map_powers`); a draw whose moment is
        not a polynomial stays symbolic for `expectation`."""
        draws = self.prog.draws
        if not draws:
            return poly

        def image(s: str, e: int):
            if s not in draws:
                return None
            moment = self._draw_moment(s, e)
            return moment.num if moment.is_poly() else None

        return poly.map_powers(image)

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
        averaged update power (`_upd_pow`), then support reduction.  poly
        must hold every occurrence of var in the query, so that var^(a+b)
        takes one branch coin.

        The result equals `poly.substitute({var: update})` averaged over
        var's coin and draws and then reduced; `map_powers` expands each
        term once against the cached update power."""

        def image(s: str, e: int):
            return self._upd_pow(var, e) if s == var else None

        return self._reduce(poly.map_powers(image))

    def _intern(self, poly: Polynomial) -> int:
        """The message-table id of a bucket factor or product, interned by
        its terms, so that equal polynomials get one id."""
        key = frozenset(poly.terms.items())
        pid = self._interned.get(key)
        if pid is None:
            pid = self._interned[key] = next(self._ids)
        return pid

    def substitute_body(self, *factors: Polynomial) -> Polynomial:
        """One full body substitution into the product of one or more
        factors: the result refers only to start-of-iteration values, draws
        and parameters.

        The variables are eliminated last declared first, bucket by bucket
        (Dechter's bucket elimination): the factors that mention the
        variable are multiplied and reduced, `substitute_var` runs on that
        product alone, and its result, the bucket's message, goes back on
        the list.  A single factor, such as the monomial of an extraction,
        is one bucket after another.  Support reduction is a ring map, so
        the result is the polynomial the expanded product would give, while
        the work grows with the largest bucket, not with the number of
        factors.  Each factor left at the end is a message or mentions no
        program variable, and no program variable is in two of them, since
        a bucket takes every factor that mentions its variable; so their
        product needs no reduction.  No factors at all is the empty
        product, 1.

        Every walk goes through the engine's message table, so that the
        expectations of one query (numerator and denominator, the states of
        a distribution, the targets of a check, the moments of a closure)
        build each message once, as in Kask, Dechter, Larrosa and Dechter's
        bucket trees.  A message is fixed by its variable and the product
        of its bucket.  Each input factor is interned by its terms and each
        message gets a fresh small id; a bucket is keyed by its variable
        and the ids of its factors (`_message`), and a bucket seen before
        skips its product, reduction and step.  No polynomial is hashed on
        a hit.

        A message that is the only factor left may split (`_split`): the
        part of it that needs no more substitution is set aside, and the
        rest goes on as one factor per variable still to eliminate, which
        are interned, so that the walk meets the buckets other walks have
        built.  A split walk returns the sum of what it set aside and the
        scaled product of its last factors.  An update reads only earlier
        variables and its own, so a start-of-iteration value enters the
        walk in its variable's message alone: no program variable is in
        two factors of those products, and they need no reduction.
        """
        pending = [(f, f.symbols(), self._intern(f), None) for f in factors]
        aside = None  # the walk's polynomial is aside + scale * coeff * pending
        for var in reversed(self.vars):
            bucket = [entry for entry in pending if var in entry[1]]
            if not bucket:
                continue
            if len(bucket) < len(pending):
                pending = [entry for entry in pending if var not in entry[1]]
            else:  # a lone factor, as in an extraction, leaves none behind
                pending = []
            message = self._message(var, bucket)
            if pending or message[3] is None:
                pending.append(message)
                continue
            terms, mono, c, ahead = message[3]  # the only factor left splits
            if aside is None:
                aside, scale, coeff = dict(terms), mono, c
            else:
                _add_scaled(aside, terms, scale, coeff)
                scale, coeff = scale * mono, coeff * c
            pending = list(ahead)
        if pending:
            body, *rest = (entry[0] for entry in pending)
            body = math.prod(rest, start=body)
        else:
            body = Polynomial.const(1)
        if aside is None:
            return body
        _add_scaled(aside, body.terms, scale, coeff)
        return _poly_of_sums(aside)

    def _product(self, bucket: list) -> Polynomial:
        """The reduced product of a bucket's factors."""
        merged = bucket[0][0]
        for entry in bucket[1:]:
            merged = self._reduce(merged * entry[0])
        return merged

    def _message(self, var: str, bucket: list) -> tuple:
        """A bucket's message from the table, built and stored on a miss.
        A lone factor's bucket is keyed by var and the factor's id, a
        bucket of several by var and their sorted ids.  On a miss, the
        product of several factors is interned and taken as a lone factor,
        so that other factors whose product agrees, as under a
        deterministic node, share its message."""
        table = self._messages
        if len(bucket) == 1:
            key = (var, bucket[0][2])
            message = table.get(key)
            if message is None:
                merged = self.substitute_var(var, bucket[0][0])
                syms = merged.symbols()
                split = (self._split(var, merged, syms)
                         if len(merged.terms) == 1 or var in syms else None)
                message = table[key] = (merged, syms, next(self._ids), split)
            return message
        key = (var, tuple(sorted([entry[2] for entry in bucket])))
        message = table.get(key)
        if message is None:
            product = self._product(bucket)
            message = self._message(var, [(product, None, self._intern(product), None)])
            table[key] = message
        return message

    def _split(self, var: str, message: Polynomial, syms: frozenset[str]):
        """How var's message goes on when it is the only factor left:
        (aside, scale, coeff, factors), or None when it does not split.

        A message with exactly one term that mentions a variable still to
        eliminate splits.  That term goes on as coeff * scale times one
        factor per such variable, where coeff is its coefficient and the
        monomial scale holds its other symbols: parameters, draws and
        start-of-iteration values of variables already eliminated.  The
        other terms (the term dict aside) need no more substitution, and
        the message is aside + coeff * scale * the product of the factors.
        `_message` asks only for a message with one term or one that
        mentions var's own start-of-iteration value, which only an
        extraction walk carries, so the test costs O(1) on any other
        message.  This is what turns the sampling monitor's
        `continue*(1 - ev)` into the lone factor ev.
        """
        rank = self._rank
        r = rank[var]
        ahead = {s for s in syms if rank.get(s, r) < r}
        if not ahead:
            return None
        terms = message.terms
        live = None
        for mono in terms:
            for s, _ in mono.powers:
                if s in ahead:
                    if live is not None:
                        return None
                    live = mono
                    break
        keep, factors = [], []
        for s, e in live.powers:
            if s in ahead:
                factor = _poly_of_terms({_mono(((s, e),)): Fraction(1)})
                factors.append((factor, frozenset((s,)), self._intern(factor), None))
            else:
                keep.append((s, e))
        aside = {m: c for m, c in terms.items() if m is not live}
        return aside, _mono(tuple(keep)), terms[live], tuple(factors)

    # -- expectation normal form ------------------------------------------

    def _draw_moment(self, sym: str, k: int) -> RationalFunction:
        key = (sym, k)
        cached = self._moments.get(key)
        if cached is None:
            cached = self.draws[sym].moment(k)
            self._moments[key] = cached
        return cached

    def expectation(self, poly: Polynomial) -> tuple[dict[Monomial, Coeff], Coeff]:
        """Split E[poly] into a linear combination of moment variables.

        Returns (linear map monomial -> coefficient, constant), each a
        `Coeff`: a Fraction where no parameter occurs.  Draws are
        independent of the state and of each other, so each monomial factors
        into draw moments, a parameter monomial and one moment variable.
        Every draw whose moment is a polynomial has already become that
        moment (`_integrate`, in each update power and each initializer
        power), so the draws left here are those whose moments are not
        polynomials; their terms are summed as rational functions.
        """
        acc_poly: dict[Monomial, dict[Monomial, Fraction]] = {}
        acc_rf: dict[Monomial, RationalFunction] = {}
        for mono, coeff in poly.terms.items():
            evar: list[tuple[str, int]] = []
            pmono: list[tuple[str, int]] = []
            rf_factor = None
            for s, e in mono.powers:
                if s in self.var_set:
                    evar.append((s, e))
                elif is_draw(s):
                    m = self._draw_moment(s, e)
                    rf_factor = m if rf_factor is None else rf_factor * m
                else:
                    pmono.append((s, e))
            key, pm = _mono(tuple(evar)), _mono(tuple(pmono))
            if rf_factor is None:
                slot = acc_poly.setdefault(key, {})
                prev = slot.get(pm)
                slot[pm] = coeff if prev is None else prev + coeff
            else:
                extra = RationalFunction(_poly_of_terms({pm: coeff})) * rf_factor
                acc_rf[key] = acc_rf.get(key, RF_ZERO) + extra
        linear: dict[Monomial, Coeff] = {}
        for key, slot in acc_poly.items():
            linear[key] = as_coeff(_poly_of_sums(slot))
        for key, rf in acc_rf.items():
            linear[key] = as_coeff(linear.get(key, 0) + rf)
        constant = linear.pop(Monomial.unit(), Fraction(0))
        linear = {k: v for k, v in linear.items() if v}
        return linear, constant

    def extract(self, target: Monomial) -> MomentRecurrence:
        bad = target.symbols() - self.var_set
        if bad:
            raise ProgramError(f"unknown program variable {sorted(bad)[0]} in moment target")
        body = self.substitute_body(Polynomial({target: Fraction(1)}))
        linear, constant = self.expectation(body)
        self_coeff = linear.pop(target, Fraction(0))
        ordered = tuple(sorted(linear.items(), key=lambda kv: kv[0], reverse=True))
        return MomentRecurrence(target, self_coeff, ordered, constant)

    def one_pass(self, *factors: Polynomial) -> RationalFunction:
        """E[product of the factors] after the first iteration of a body
        that overwrites every variable from draws and parameters alone, as
        a compiled static network does: one substitution, one expectation,
        no recurrence.  A query passes its target and one indicator per
        evidence node; each factor is reduced and goes into its own bucket
        list entry, so that it widens only the buckets of its variables.
        The walk shares the engine's message table, so a later pass with
        some of the same factors (the numerator after the denominator of a
        conditional, a distribution's next state, the pair targets of a
        check after their single ones) rebuilds none of their messages
        below the bucket where a new factor joins."""
        body = self.substitute_body(*(self._reduce(f) for f in factors))
        linear, constant = self.expectation(body)
        if linear:
            left = ", ".join(f"E[{m}]" for m in sorted(linear, reverse=True))
            raise InternalCheckError(
                f"one body pass leaves state moments {left}; the program "
                "does not overwrite every variable"
            )
        return RationalFunction._coerce(constant)

    def closed(self, poly: Polynomial) -> ClosedForm:
        """E[poly] as a function of n: the monomials of the reduced
        polynomial closed by `compute_mbis` (every solution
        back-substituted), combined, with their assumptions merged."""
        reduced = self._reduce(poly)
        const = reduced.coeff(Monomial.unit())
        terms = [(m, c) for m, c in reduced.terms.items() if not m.is_unit()]
        mbis = compute_mbis(self, [m for m, _ in terms])
        return ClosedForm.combine(const, [(c, mbis[m].closed) for m, c in terms]).normalized()

    # -- initial values ----------------------------------------------------

    def initial_moment(self, target: Monomial) -> Coeff:
        """E[target] at n = 0; initializers are mutually independent."""
        total = Fraction(1)
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
                _, cached = self.expectation(self._reduce(self._integrate(expr**k)))
                self._init_moments[key] = cached
            total = total * cached
        return as_coeff(total)


def _add_scaled(acc: dict, terms: dict, mono: Monomial, coeff: Fraction) -> None:
    """acc += coeff * mono * (the polynomial of these terms), term by term."""
    for m, c in terms.items():
        m, c = mono * m, coeff * c
        prev = acc.get(m)
        acc[m] = c if prev is None else prev + c


def _close(
    engine: MomentEngine,
    m: Monomial,
    path: list[Monomial],
    recs: dict[Monomial, MomentRecurrence],
    order: list[Monomial],
    cap: int,
) -> None:
    """Close E[m] depth first: extract its recurrence into `recs`, or read
    it from the engine's verified MBI of m, close the moments it depends
    on, then append m to `order`, after all of them.  `path` holds the
    moments from a goal down to the one that needs m.  A moment met again
    on its own path is a cycle, and a monomial above the degree cap aborts
    with the path that reached it; a verified moment is walked like any
    other, so both errors do not depend on what the engine has solved."""
    if m in recs:
        if m in path:
            cyc = " -> ".join(str(x) for x in path[path.index(m):] + [m])
            raise UnsupportedError(
                f"cyclic moment dependence: {cyc}; the loop is outside the "
                "Prob-solvable fragment"
            )
        return
    if m.degree() > cap:
        trail = " <- ".join(str(x) for x in reversed(path + [m]))
        raise DegreeCapError(f"moment degree {m.degree()} exceeds cap {cap}: {trail}")
    known = engine._verified.get(m)
    rec = recs[m] = engine.extract(m) if known is None else known.recurrence
    path.append(m)
    for dep, _ in rec.linear:
        _close(engine, dep, path, recs, order, cap)
    path.pop()
    order.append(m)


def _first_order(
    engine: MomentEngine, m: Monomial, rec: MomentRecurrence, solved: dict[Monomial, ClosedForm]
) -> FirstOrderRecurrence:
    """E[m]'s recurrence in n alone: its inhomogeneous term is the constant
    plus the solved closed forms of the moments it depends on."""
    g = ClosedForm.combine(rec.constant, [(a, solved[dep]) for dep, a in rec.linear])
    return FirstOrderRecurrence(rec.self_coeff, g, engine.initial_moment(m))


def compute_mbis(
    prog: LoopProgram | MomentEngine,
    goals,
    check: bool = True,
) -> dict[Monomial, MBI]:
    """Closed forms for the expected values of the goal monomials and of
    every moment they depend on.

    `prog` is a `LoopProgram` or the `MomentEngine` built for one; a
    program gets its engine built here, once.  `_close` walks every
    moment the goals transitively depend on, the last goal first, and
    orders them; a cyclic dependence, or a monomial whose total degree
    exceeds the cap (PSOLVE_DEGREE_CAP, read on every call, or 64), aborts
    with the chain that reached it.  Every recurrence is extracted before
    any is solved, in that order.  Each moment's recurrence in n is built
    once, by `_first_order` from the closed forms of the moments it
    depends on; it is solved and kept on the MBI.  With check=True every
    new solution is verified by back-substitution against that kept
    recurrence (`check_mbis`) before being returned.

    The engine keeps every MBI that passed the check, so a later call
    solves, combines and verifies only the moments it has not verified
    yet; the walk reads the kept recurrences, and the result holds the
    kept MBIs of the closure beside the new ones.  An MBI returned with
    check=False is never kept.
    """
    cap = degree_cap()
    engine = prog if isinstance(prog, MomentEngine) else MomentEngine(prog)
    goals = list(goals)
    for goal in goals:
        if not isinstance(goal, Monomial):
            raise TypeError("goals must be monomials over program variables")
    recs: dict[Monomial, MomentRecurrence] = {}
    order: list[Monomial] = []
    for goal in reversed(goals):
        _close(engine, goal, [], recs, order, cap)

    verified = engine._verified
    solved: dict[Monomial, ClosedForm] = {}
    new: dict[Monomial, MBI] = {}
    for m in order:
        known = verified.get(m)
        if known is not None:
            solved[m] = known.closed
            continue
        first = _first_order(engine, m, recs[m], solved)
        solved[m] = solve_first_order(first)
        new[m] = MBI(m, recs[m], first, solved[m])

    if check:
        check_mbis(engine, new)
        verified.update(new)
    return {m: new[m] if m in new else verified[m] for m in recs}


def check_mbis(prog: LoopProgram | MomentEngine, mbis: dict[Monomial, MBI]) -> None:
    """Back-substitution check: every closed form must satisfy its recurrence
    and initial value exactly.  Each closed form is checked against the
    recurrence in n its MBI keeps, the one it was solved from, so a wrong
    closed form is blamed on its own moment, not on the moments that read
    it; every dependency must be among the MBIs or the MBIs the engine
    has already verified.
    `recurrence.verify_solution` makes the comparisons (the value at
    n = 0, the formal tail identity, each step across the piecewise
    boundaries); the InternalCheckError it raises is reraised with the
    moment named.

    `prog` is the `LoopProgram` or `MomentEngine` the MBIs were solved
    for; the MBIs carry their recurrences, so the check reads only an
    engine's verified MBIs from it.
    """
    verified = prog._verified if isinstance(prog, MomentEngine) else {}
    for m, mbi in mbis.items():
        for dep, _ in mbi.recurrence.linear:
            if dep not in mbis and dep not in verified:
                raise InternalCheckError(f"moment {m} depends on unsolved {dep}")
        try:
            verify_solution(mbi.first_order, mbi.closed)
        except InternalCheckError as exc:
            raise InternalCheckError(f"closed form of E[{m}] {exc}") from None
