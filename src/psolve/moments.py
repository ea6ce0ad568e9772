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
`DynBayesNet.engine`), and every query on that network uses it.  The
sampling monitor's engine is layered on its network's (see
`MomentEngine`), so the network's part of a monitor's walks is built
once per network too.
`MomentEngine._walk` is its one way to substitute the loop body into a
query: the query comes as a list of factors, and the variables are
eliminated bucket by bucket, each substituted into the product of only
the factors that mention it, by one per-variable step, `_step`.  The
walks run on packed polynomials (`packed`): ints for monomials, integer
numerators over one denominator, over one symbol table per engine; the
public methods (`one_pass`, `extract`, `closed`, `initial_moment`) take
and return `Polynomial`s, `Monomial`s and `Coeff`s, and convert only where
a walk begins and ends.  An
extraction passes one monomial; a static query
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
sampling monitor's count reuses the P(evidence) pass.  Any other body
goes through `MomentEngine.closed`, which closes
the query's monomials with `compute_mbis` and combines their closed
forms in n.
`compute_mbis` takes a program or the engine built for it; `closed`
passes its own engine, so the extractions and initial values of one
query share one engine and its caches.  The engine also keeps every MBI
that passed the back-substitution check, so a later query solves and
verifies only the moments that are new to it.
"""

from __future__ import annotations

import collections
import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeCapError, InternalCheckError, ProgramError, UnsupportedError
from .program import DrawSpec, LoopProgram
from .recurrence import ClosedForm, FirstOrderRecurrence, solve_first_order, verify_solution
from . import packed
from .symbolic import (
    Coeff,
    Monomial,
    Polynomial,
    RationalFunction,
    RF_ZERO,
    _poly_of_terms,
    as_coeff,
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
    bucket messages and verified closed forms across many queries.

    Its walks run on packed polynomials (`packed`) over one symbol table
    that only grows: the program variables in declaration order first,
    then the draws, branch coins and parameters as the walks meet them.
    A walk packs its factors where it begins and converts its result
    where it ends (`one_pass`, `extract`, `initial_moment`); in between,
    the update powers, the messages and the intern keys are dicts and
    tuples of ints.  A product
    whose exponent reaches a field's guard bit widens the table, which
    voids every packed cache, and the walk starts over.

    An engine may be layered on a base engine whose program its own program
    extends (`program.extend`), as the sampling monitor's engine is on its
    network's.  The bucket of a base variable is the base's: its message
    comes from the base's table, built there on a miss with the base's
    update powers.  A base update reads no later variable, so that message
    is the layered program's too.  The layered engine appends its own
    variables to the base's symbol table, so that the base's keys stay
    valid and their intern ids agree, and sees the branch coins the base
    registers.  It keeps its own messages and update powers for its own
    variables, its draw moments, initial values and verified MBIs, so
    engines layered on one base, which may name their variables alike,
    never read each other's entries.  A message of its own gets the
    interned id of its polynomial, not a fresh one, so that a message in
    the base's variables alone, such as an evidence flag's indicator,
    meets the walks the base has built.
    """

    def __init__(self, prog: LoopProgram, base: MomentEngine | None = None, _bits: int = 4):
        self.prog = prog
        self.vars = prog.variables
        self.var_set = set(self.vars)
        self.supports = dict(prog.supports)
        self.base = base
        self._moments: dict[tuple[str, int], RationalFunction] = {}
        self._init_moments: dict[tuple[str, int], Coeff] = {}
        # every MBI `compute_mbis` solved on this engine and `check_mbis`
        # verified; later closures read them instead of solving again
        self._verified: dict[Monomial, MBI] = {}
        if base is None:
            # the program's draws and the branch coins of `_upd_pow`
            self.draws = dict(prog.draws)
            self._table = packed.SymbolTable(_bits)
        else:
            if prog.draws is not base.prog.draws or self.vars[:len(base.vars)] != base.vars:
                raise ValueError("a layered engine's program must extend its base's")
            self.draws = collections.ChainMap({}, base.draws)
            self._table = base._table
        self._reset()

    # -- packed state ------------------------------------------------------

    def _reset(self) -> None:
        """Empty the packed caches and lay out the fields of the variables
        at the table's current width."""
        table = self._table
        self._bits = table.bits
        # the message table of every walk: (var, the id of the bucket's
        # lone factor or the sorted ids of its factors) -> the message as
        # a pending entry (see `_new_message`)
        self._messages: dict[tuple[str, object], tuple] = {}
        # (var, k) -> the terms and the denominator of `_upd_pow`, kept in
        # two dicts since the collector tracks a tuple that holds a dict
        self._upd_terms: dict[tuple[str, int], dict] = {}
        self._upd_dens: dict[tuple[str, int], int] = {}
        self._draw_polys: dict[tuple[str, int], object] = {}
        self._below_of: dict[str, int] = {}
        # the shift of each variable's field, field index -> rank of the
        # variables, whether their fields ascend with their ranks (they do
        # unless a sibling layered engine added some of their names first),
        # and the OR of their fields
        self._shift = {var: table.add(var) for var in self.vars}
        fields = [shift // table.bits for shift in self._shift.values()]
        self._var_at = {i: rank for rank, i in enumerate(fields)}
        self._ascending = fields == sorted(fields)
        self._var_mask = sum(table.top << shift for shift in self._shift.values())
        # Adding `_high_add` to a reduced key leaves every guard bit clear;
        # a support variable whose power reaches its size sets its own.
        # `_support_of`: field index -> (rank among the supports, size,
        # shift) of the support variables.
        self._high_add = self._high_guard = 0
        self._support_of: dict[int, tuple[int, int, int]] = {}
        for rank, (var, size) in enumerate(self.supports.items()):
            shift = table.add(var)
            if size <= table.limit:
                self._high_add |= (table.limit - size) << shift
                self._high_guard |= table.limit << shift
                self._support_of[shift // table.bits] = (rank, size, shift)

    def _below(self, var: str) -> int:
        """The OR of the fields of the variables declared before var."""
        if self._ascending:
            return self._var_mask & ((1 << self._shift[var]) - 1)
        below = self._below_of.get(var)
        if below is None:
            rank = self._var_at[self._shift[var] // self._table.bits]
            below = self._below_of[var] = sum(
                self._table.top << self._shift[v] for v in self.vars[:rank])
        return below

    def _run(self, walk):
        """walk() on the table's current width; on an overflow, again on
        a wider table."""
        while True:
            if self.base is not None and self.base._bits != self._table.bits:
                self.base._reset()
            if self._bits != self._table.bits:
                self._reset()
            try:
                return walk()
            except packed.Overflow:
                self._table.widen()

    # -- update powers -----------------------------------------------------

    def _upd_pow(self, var: str, k: int) -> tuple[dict, int]:
        """(var's update)^k averaged over its branch coin and its draws: a
        polynomial in earlier variables, parameters and the draws that stay
        symbolic.  A branch whose expression is 0 adds nothing.

        A draw of this update belongs to no other statement, so it reaches
        a substituted monomial only through this one factor and is
        independent of everything else in it: each power d^j is replaced
        by E[d^j] here.  A draw whose moment is not a polynomial in the
        parameters, such as bern(1/(1 + b)), stays symbolic for
        `_expect`.  So does a branch probability that is not a
        polynomial: branch j takes the Bernoulli coin `$<var>#<j>` of that
        probability as its weight, registered in `self.draws`.  Each term
        holds at most one coin of var, so E[coin] = p averages it exactly.
        """
        key = (var, k)
        terms = self._upd_terms.get(key)
        if terms is not None:
            return terms, self._upd_dens[key]
        table = self._table
        total = packed.ZERO
        for j, br in enumerate(self.prog.update_for(var).branches):
            if not br.expr.terms:
                continue
            power = table.pack(br.expr)
            if k != 1:
                power = packed.power(power, k, table)
            if br.prob._const is not None:
                power = packed.scale(power, br.prob._const)
            elif br.prob.is_poly():
                power = packed.mul(table.pack(br.prob.num), power, table)
            else:
                coin = f"${var}#{j}"
                self.draws[coin] = DrawSpec("bern", br.prob)
                power = packed.mul(({1 << table.add(coin): 1}, 1), power, table)
            total = packed.add(total, power) if total[0] else power
        if self.prog.draws:
            total = self._integrate(total)
        terms, den = self._reduce(total)
        self._upd_terms[key], self._upd_dens[key] = terms, den
        return terms, den

    def _integrate(self, poly: tuple[dict, int]) -> tuple[dict, int]:
        """Replace every power of a draw whose moment is a polynomial in the
        parameters by that moment; a draw whose moment is not a polynomial
        stays symbolic for `_expect`."""
        return packed.expand(poly, self._table.draws, self._draw_image, self._table)

    def _draw_image(self, part: int):
        """The `packed.expand` image of the draw powers of a term: the
        moments of the draws of the program whose moments are polynomials,
        multiplied by name, with the other draws kept."""
        table, draws, kept, factor = self._table, self.prog.draws, 0, None
        for s, i, e in table.named(part):
            img = None
            if s in draws:
                img = self._draw_polys.get((s, e), False)
                if img is False:
                    moment = self._draw_moment(s, e)
                    img = self._draw_polys[(s, e)] = (
                        table.pack(moment.num) if moment.is_poly() else None)
            if img is None:
                kept |= e << (i * table.bits)
            else:
                factor = img if factor is None else packed.mul(factor, img, table)
        return None if factor is None else (kept, factor)

    def _reduce(self, poly: tuple[dict, int]) -> tuple[dict, int]:
        """Finite-support reduction of the variables whose powers reach
        their support size, in the order of the program's supports: each
        power var^e is replaced by its residue (`packed.residues`)."""
        add, guard = self._high_add, self._high_guard
        high = 0
        for key in poly[0]:
            high |= (key + add) & guard
        if not high:
            return poly
        bits, found = self._table.bits, []
        while high:
            low = high & -high
            found.append(self._support_of[low.bit_length() // bits - 1])
            high ^= low
        for _, size, shift in sorted(found):
            poly = packed.expand(poly, self._table.top << shift, packed.residues(size, shift),
                                 self._table)
        return poly

    def _step(self, var: str, poly: tuple[dict, int]) -> tuple[dict, int]:
        """One elimination step: every power var^e in poly becomes var's
        averaged update power (`_upd_pow`), then support reduction.  poly
        must hold every occurrence of var in the query, so that var^(a+b)
        takes one branch coin.  The result equals
        `poly.substitute({var: update})` averaged over var's coin and
        draws and then reduced."""
        shift = self._shift[var]
        return self._reduce(packed.expand(
            poly, self._table.top << shift, lambda part: (0, self._upd_pow(var, part >> shift)),
            self._table))

    # -- bucket elimination ------------------------------------------------

    def _entry(self, poly: tuple[dict, int]) -> tuple:
        """An input factor as a pending entry (see `_new_message`)."""
        terms, den = poly
        syms = packed.symbols(terms)
        return (terms, den, syms, self._table.intern(terms, den), None,
                self._last(syms & self._var_mask))

    def _last(self, fields: int) -> int:
        """The rank of the last declared variable whose field is in fields,
        or -1 where there is none."""
        if not fields:
            return -1
        if self._ascending:
            return self._var_at[(fields.bit_length() - 1) // self._table.bits]
        return max(self._var_at[i] for i, _ in self._table.powers(fields))

    def _walk(self, factors: list) -> tuple[dict, int]:
        """The body substituted into the product of packed factors.

        The variables are eliminated last declared first, bucket by bucket
        (Dechter's bucket elimination): the factors that mention the
        variable are multiplied and reduced, `_step` runs on that
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
        message gets a fresh small id (a layered engine's own message its
        interned id; see the class); a bucket is keyed by its variable
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
        table = self._table
        # Each entry knows the last variable it holds that is still to
        # eliminate, and pending is kept in descending order of that rank,
        # entries of one rank in the order they joined, so a bucket is the
        # run of entries at the front, in the order the factors came.
        pending = sorted([self._entry(f) for f in factors], key=_minus_rank)
        aside = None  # the walk's polynomial is aside + scale * pending
        while pending:
            rank = pending[0][5]
            if rank < 0:
                break
            n, size = 1, len(pending)
            while n < size and pending[n][5] == rank:
                n += 1
            message = self._message(self.vars[rank], pending[:n])
            del pending[:n]
            if pending or message[4] is None:
                last, i = message[5], 0
                while i < len(pending) and pending[i][5] >= last:
                    i += 1
                pending.insert(i, message)
            else:  # the only factor left splits
                terms, den, mono, num, ahead = message[4]
                if aside is None:
                    aside, scale = (terms, den), ({mono: num}, den)
                else:
                    aside = packed.add(aside, packed.mul(scale, (terms, den), table))
                    scale = packed.mul(scale, ({mono: num}, den), table)
                pending = sorted(ahead, key=_minus_rank)
        body = packed.ONE
        if pending:
            body = pending[0][:2]
            for entry in pending[1:]:
                body = packed.mul(body, entry[:2], table)
        if aside is None:
            return body
        return packed.add(aside, packed.mul(scale, body, table))

    def _product(self, bucket: list) -> tuple[dict, int]:
        """The reduced product of a bucket's factors."""
        merged = bucket[0][:2]
        for entry in bucket[1:]:
            merged = self._reduce(packed.mul(merged, entry[:2], self._table))
        return merged

    def _message(self, var: str, bucket: list) -> tuple:
        """A bucket's message from the table, built and stored on a miss.
        A lone factor's bucket is keyed by var and the factor's id, a
        bucket of several by var and their sorted ids.  On a miss, the
        product of several factors is interned and taken as a lone factor,
        so that other factors whose product agrees, as under a
        deterministic node, share its message.  A layered engine passes
        the buckets that are its base's to the base (see the class)."""
        base = self.base
        if base is not None and var in base.var_set:
            return base._message(var, bucket)
        table = self._messages
        if len(bucket) == 1:
            key = (var, bucket[0][3])
            message = table.get(key)
            if message is None:
                message = table[key] = self._new_message(var, bucket[0][:2])
            return message
        key = (var, tuple(sorted([entry[3] for entry in bucket])))
        message = table.get(key)
        if message is None:
            product = self._product(bucket)
            lone = (var, self._table.intern(*product))
            message = table.get(lone)
            if message is None:
                message = table[lone] = self._new_message(var, product)
            table[key] = message
        return message

    def _new_message(self, var: str, poly: tuple[dict, int]) -> tuple:
        """var's message for the product poly of its bucket, as the table
        holds it: a pending entry (terms, den, the OR of the keys, id,
        split, the rank of the last variable in it still to eliminate)."""
        table = self._table
        terms, den = packed.normal(self._step(var, poly))
        syms = packed.symbols(terms)
        ahead = syms & self._below(var)  # the variables still to eliminate
        split = (self._split(terms, den, ahead)
                 if len(terms) == 1 or (syms >> self._shift[var]) & table.top else None)
        pid = table.next_id() if self.base is None else table.intern(terms, den)
        return terms, den, syms, pid, split, self._last(ahead)

    def _split(self, terms: dict, den: int, ahead: int):
        """How a message (terms over den) goes on when it is the only
        factor left: (aside terms, den, scale, numerator, factors), or None
        when it does not split.  ahead holds the fields of the variables
        still to eliminate that occur in it.

        A message with exactly one term that mentions a variable still to
        eliminate splits.  That term goes on as numerator/den * scale times
        one factor per such variable, where the monomial scale holds its
        other symbols: parameters, draws and start-of-iteration values of
        variables already eliminated.  The other terms (aside, over den)
        need no more substitution, and the message is aside +
        numerator/den * scale * the product of the factors, which are
        listed by name.  `_message` asks only for a message with one term
        or one that mentions var's own start-of-iteration value, which only
        an extraction walk carries, so the test costs O(1) on any other
        message.  This is what turns the sampling monitor's
        `continue*(1 - ev)` into the lone factor ev.
        """
        if not ahead:
            return None
        live = None
        for key in terms:
            if key & ahead:
                if live is not None:
                    return None
                live = key
        table = self._table
        part = live & ahead
        factors = []
        for _, i, e in table.named(part):
            key = e << (i * table.bits)
            factors.append(({key: 1}, 1, key, table.intern({key: 1}, 1), None, self._var_at[i]))
        aside = {k: c for k, c in terms.items() if k != live}
        return aside, den, live ^ part, terms[live], tuple(factors)

    # -- expectation normal form ------------------------------------------

    def _draw_moment(self, sym: str, k: int) -> RationalFunction:
        key = (sym, k)
        cached = self._moments.get(key)
        if cached is None:
            cached = self.draws[sym].moment(k)
            self._moments[key] = cached
        return cached

    def _expect(self, poly: tuple[dict, int]) -> tuple[dict[Monomial, Coeff], Coeff]:
        """E of a packed polynomial as a linear combination of moment
        variables.

        Returns (linear map monomial -> coefficient, constant), each a
        `Coeff`: a Fraction where no parameter occurs.  Draws are
        independent of the state and of each other, so each monomial factors
        into draw moments, a parameter monomial and one moment variable.
        Every draw whose moment is a polynomial has already become that
        moment (`_integrate`, in each update power and each initializer
        power), so the draws left here are those whose moments are not
        polynomials; their terms are summed as rational functions, in the
        order of the terms, each term's moments multiplied by name.
        """
        terms, den = poly
        table = self._table
        var_mask, draw_mask = self._var_mask, table.draws
        params = ~(var_mask | draw_mask)
        acc_poly: dict[int, dict[int, int]] = {}
        acc_rf: dict[int, RationalFunction] = {}
        for key, num in terms.items():
            mono = key & var_mask
            drawn = key & draw_mask
            if not drawn:
                slot = acc_poly.get(mono)
                if slot is None:
                    slot = acc_poly[mono] = {}
                rest = key ^ mono
                slot[rest] = slot.get(rest, 0) + num
                continue
            rf_factor = None
            for s, _, e in table.named(drawn):
                m = self._draw_moment(s, e)
                rf_factor = m if rf_factor is None else rf_factor * m
            pm = table.unpack_mono(key & params)
            extra = RationalFunction(_poly_of_terms({pm: Fraction(num, den)})) * rf_factor
            acc_rf[mono] = acc_rf.get(mono, RF_ZERO) + extra
        linear: dict = {}
        for mono, slot in acc_poly.items():
            if len(slot) == 1 and 0 in slot:
                linear[mono] = Fraction(slot[0], den)
            else:
                linear[mono] = as_coeff(table.unpack(({k: n for k, n in slot.items() if n}, den)))
        for mono, rf in acc_rf.items():
            linear[mono] = as_coeff(linear.get(mono, 0) + rf)
        constant = linear.pop(0, Fraction(0))
        return {table.unpack_mono(m): v for m, v in linear.items() if v}, constant

    def extract(self, target: Monomial) -> MomentRecurrence:
        bad = target.symbols() - self.var_set
        if bad:
            raise ProgramError(f"unknown program variable {sorted(bad)[0]} in moment target")
        linear, constant = self._run(
            lambda: self._expect(self._walk([({self._table.pack_mono(target): 1}, 1)])))
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
        table = self._table
        linear, constant = self._run(lambda: self._expect(self._walk(
            [self._reduce(table.pack(f)) for f in factors])))
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
        supports = self.supports
        reduced = poly
        if any(e >= supports.get(s, e + 1) for mono in poly.terms for s, e in mono.powers):
            table = self._table
            reduced = self._run(lambda: table.unpack(self._reduce(table.pack(poly))))
        const = reduced.coeff(Monomial.unit())
        terms = [(m, c) for m, c in reduced.terms.items() if not m.is_unit()]
        mbis = compute_mbis(self, [m for m, _ in terms])
        return ClosedForm.combine(const, [(c, mbis[m].closed) for m, c in terms]).normalized()

    # -- initial values ----------------------------------------------------

    def initial_moment(self, target: Monomial) -> Coeff:
        """E[target] at n = 0; initializers are mutually independent."""
        total = Fraction(1)
        table = self._table
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
                _, cached = self._run(lambda: self._expect(self._reduce(self._integrate(
                    packed.power(table.pack(expr), k, table)))))
                self._init_moments[key] = cached
            total = total * cached
        return as_coeff(total)


def _minus_rank(entry: tuple) -> int:
    return -entry[5]


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
