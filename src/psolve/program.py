"""Loop program model.

A program is a sequence of initializers followed by an unconditional loop
whose body updates every variable exactly once, in declaration order.  Each
update picks one of finitely many branches with fixed probabilities; branch
expressions are polynomials over earlier-updated variables, parameters and
distribution draws, plus an optional linear occurrence of the updated
variable itself.

Distribution occurrences are normalized at construction time: a Gaussian
with expression mean becomes mean + g with g a fresh zero-mean draw, and
uniform(lo, hi) becomes lo + (hi - lo) * u with u a fresh standard uniform
draw.  Draw symbols start with '$' so they can never collide with source
identifiers; every occurrence is an independent draw, fresh each iteration.

Every draw belongs to one statement: `validate` requires each draw that an
initializer or an update uses to have a known distribution and to occur in
no other statement, though the branches of one update may share it.
`extend` appends statements to a valid program and validates only those.
`check_draw`, the rule for a draw's constant argument, also checks a
network's slice-zero draws, `initial_law`, the rule for a finite-support
variable's initial value, its discrete slice-zero values, and
`finite_outcomes`, the walk behind it, its deterministic nodes.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .errors import InputError, ProgramError, UnsupportedError
from .symbolic import (
    Monomial,
    Param,
    Polynomial,
    RationalFunction,
    RF_ONE,
    RF_ZERO,
    _number_str,
    _poly_of_terms,
    sums_to_one,
)


def _doublefact(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@dataclass(frozen=True)
class DrawSpec:
    """A normalized distribution draw: zero-mean Gaussian, standard uniform
    or Bernoulli."""

    kind: str  # "gauss0" | "unif01" | "bern"
    arg: Optional[RationalFunction] = None  # variance, success probability

    def moment(self, k: int) -> RationalFunction:
        if k == 0:
            return RF_ONE
        if self.kind == "gauss0":
            if k % 2:
                return RationalFunction(0)
            return self.arg ** (k // 2) * _doublefact(k - 1)
        if self.kind == "unif01":
            return RationalFunction(Fraction(1, k + 1))
        if self.kind == "bern":
            return self.arg
        raise ValueError(f"unknown draw kind {self.kind}")

    def subs(self, values: Mapping[str, Fraction]) -> "DrawSpec":
        return DrawSpec(
            kind=self.kind,
            arg=None if self.arg is None else self.arg.subs(values),
        )

    def render(self) -> str:
        if self.kind == "gauss0":
            return f"gauss(0, {self.arg})"
        if self.kind == "unif01":
            return "uniform(0, 1)"
        if self.kind == "bern":
            return f"bern({self.arg})"
        raise ValueError(f"unknown draw kind {self.kind}")


@dataclass(frozen=True)
class Branch:
    prob: RationalFunction
    expr: Polynomial


@dataclass(frozen=True)
class Assignment:
    target: str
    branches: tuple[Branch, ...]


@dataclass(frozen=True)
class Initializer:
    target: str
    expr: Polynomial  # over params and draw symbols only


@dataclass(frozen=True)
class LoopProgram:
    params: tuple[Param, ...]
    supports: Mapping[str, int]
    inits: tuple[Initializer, ...]
    updates: tuple[Assignment, ...]
    draws: Mapping[str, DrawSpec]

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(i.target for i in self.inits)

    @property
    def param_names(self) -> frozenset[str]:
        return frozenset(p.name for p in self.params)

    def param_map(self) -> dict[str, Param]:
        return {p.name: p for p in self.params}

    def update_for(self, var: str) -> Assignment:
        return self._update_by_target[var]

    @functools.cached_property
    def _update_by_target(self) -> dict[str, Assignment]:
        # reversed: an unvalidated program may update a variable twice, and
        # the first update is the one a scan would find
        return {u.target: u for u in reversed(self.updates)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, LoopProgram):
            return NotImplemented
        return _canonical_key(self) == _canonical_key(other)

    __hash__ = None  # type: ignore[assignment]


def check_binding(params, values: Mapping[str, Fraction]) -> dict[str, Fraction]:
    """Numeric values for some of the declared parameters.  A name that is
    not a parameter, or a value outside its parameter's closed interval, is
    an InputError naming every binding."""
    domains = {p.name: p.bounds() for p in params}
    out: dict[str, Fraction] = {}
    for name, value in values.items():
        value = Fraction(value)
        if name not in domains:
            raise binding_error(values, f"no parameter named {name}")
        bounds = domains[name]
        if bounds is not None and not bounds[0] <= value <= bounds[1]:
            raise binding_error(
                values, f"{name}={value} is outside the domain [{bounds[0]}, {bounds[1]}] of {name}"
            )
        out[name] = value
    return out


def binding_error(values: Mapping[str, Fraction], problem) -> InputError:
    shown = ", ".join(f"{name}={value}" for name, value in values.items())
    return InputError(f"binding {shown}: {problem}")


def bind(prog: LoopProgram, values: Mapping[str, Fraction]) -> LoopProgram:
    """The program with the given parameters replaced by numbers, the
    others left symbolic; the bound program is validated again."""
    sub = check_binding(prog.params, values)
    if not sub:
        return prog
    try:
        bound = LoopProgram(
            params=tuple(p for p in prog.params if p.name not in sub),
            supports=dict(prog.supports),
            inits=tuple(Initializer(i.target, i.expr.substitute(sub)) for i in prog.inits),
            updates=tuple(
                Assignment(u.target, tuple(
                    Branch(b.prob.subs(sub), b.expr.substitute(sub)) for b in u.branches
                ))
                for u in prog.updates
            ),
            draws={sym: spec.subs(sub) for sym, spec in prog.draws.items()},
        )
    except ZeroDivisionError as exc:
        raise binding_error(values, exc) from exc
    validate(bound)
    return bound


def is_draw(sym: str) -> bool:
    return sym.startswith("$")


class DrawRegistry:
    """Allocates fresh draw symbols while building a program."""

    def __init__(self):
        self.draws: dict[str, DrawSpec] = {}

    def fresh(self, spec: DrawSpec) -> Polynomial:
        sym = f"${len(self.draws)}"
        self.draws[sym] = spec
        return Polynomial.var(sym)


def split_self(expr: Polynomial, var: str) -> tuple[Polynomial, Polynomial]:
    """Write expr as coeff*var + rest; requires degree <= 1 in var."""
    coeff: dict[Monomial, Fraction] = {}
    rest: dict[Monomial, Fraction] = {}
    for mono, c in expr.terms.items():
        e = mono.exponent(var)
        if e == 0:
            rest[mono] = c
        elif e == 1:
            coeff[mono.without(var)] = c
        else:
            raise ProgramError(f"nonlinear self-dependence of {var} (degree {e})")
    return _poly_of_terms(coeff), _poly_of_terms(rest)


def validate(prog: LoopProgram) -> None:
    """Check the structural rules; raises ProgramError on the first violation."""
    _validate(prog, 0)


def extend(base: LoopProgram, inits, updates, supports: Mapping[str, int]) -> LoopProgram:
    """base followed by the initializers and updates of new variables, with
    the supports of some of them.  base must be valid; its statements,
    parameters and draws are shared, not copied.

    Only the new statements are validated, each seeing base's variables as
    declared earlier, by the rules and with the messages of `validate`, so
    the first violation is the one `validate` would report.  A new
    statement that mentions a draw, which a statement of base may own, or a
    support for one of base's variables has the whole program validated.
    """
    prog = LoopProgram(
        params=base.params,
        supports={**base.supports, **supports},
        inits=base.inits + tuple(inits),
        updates=base.updates + tuple(updates),
        draws=base.draws,
    )
    exprs = [i.expr for i in inits] + [br.expr for u in updates for br in u.branches]
    if (any(is_draw(s) for expr in exprs for s in expr.symbols())
            or any(var in base._update_by_target for var in supports)):
        validate(prog)
    else:
        _validate(prog, len(base.inits))
    return prog


_prob = operator.attrgetter("prob")


def _validate(prog: LoopProgram, start: int) -> None:
    """`validate`, taking the first `start` initializers and updates as
    checked: they are a valid program's, with the same parameters, draws
    and supports."""
    variables = prog.variables
    var_set = set(variables)
    if len(var_set) != len(variables):
        raise ProgramError("duplicate variable declaration")
    params = prog.param_names
    if "n" in var_set or "n" in params:
        raise ProgramError("'n' is reserved for the iteration index")
    if var_set & params:
        clash = sorted(var_set & params)[0]
        raise ProgramError(f"name {clash} is both a variable and a parameter")

    if tuple(u.target for u in prog.updates) != variables:
        raise ProgramError(
            "updates must cover exactly the declared variables, in declaration order"
        )

    for var, size in prog.supports.items():
        if var not in var_set:
            raise ProgramError(f"support declared for unknown variable {var}")
        if size < 2:
            raise ProgramError(f"support of {var} must be at least 2")

    owners: dict[str, tuple[str, str]] = {}  # draw -> its statement
    for init in prog.inits[start:]:
        if not init.expr.terms:
            continue  # 0 mentions nothing and lies in every support
        symbols = init.expr.symbols()
        bad = {s for s in symbols if not is_draw(s)} - params
        if bad:
            raise ProgramError(
                f"initializer of {init.target} references {sorted(bad)[0]}; "
                "only parameters and known distributions are allowed"
            )
        drawn = [s for s in symbols if is_draw(s)]
        if drawn:
            _claim_draws(prog, owners, drawn, ("initializer", init.target))
        size = prog.supports.get(init.target)
        if size is not None:
            initial_law(init.target, init.expr, prog.draws, size, lambda shown: ProgramError(
                f"initializer {shown} of {init.target} outside declared support 0..{size - 1}"))

    def out_of_range(p: Fraction) -> ProgramError:  # in the update being checked
        return ProgramError(f"branch probability {_number_str(p)} of {target} outside [0, 1]")

    known = set(params).union(variables[:start])  # what an update may read
    for upd in prog.updates[start:]:
        target = upd.target
        one = sums_to_one(map(_prob, upd.branches), out_of_range)
        drawn = []
        for br in upd.branches:
            if not br.prob.is_const():
                bad = br.prob.symbols() - params
                if bad:
                    raise ProgramError(
                        f"branch probability of {target} references {sorted(bad)[0]}"
                    )
            outside = br.expr.symbols() - known
            if not outside:
                continue
            if target in outside:
                split_self(br.expr, target)  # raises unless linear in the target
                outside = outside - {target}
            bad = [s for s in outside if not is_draw(s)]
            if bad:
                raise ProgramError(
                    f"update of {target} references {min(bad)}, "
                    "which is not declared earlier"
                )
            drawn += outside  # every symbol left is a draw
        if not one:
            raise ProgramError(f"branch probabilities of {target} do not sum to 1")
        if drawn:
            _claim_draws(prog, owners, drawn, ("update", target))
        known.add(target)

    if start:
        return  # the draws are the checked program's
    for sym, spec in prog.draws.items():
        if spec.arg is not None:
            bad = spec.arg.symbols() - params
            if bad:
                raise ProgramError(
                    f"distribution argument references {sorted(bad)[0]}; "
                    "variance and success probability must be parameter-only"
                )
        check_draw(spec)


def check_draw(spec: DrawSpec) -> None:
    """Raises ProgramError for a constant Bernoulli probability outside
    [0, 1] or a constant negative Gaussian variance."""
    if spec.arg is None or not spec.arg.is_const():
        return
    value = spec.arg.const_value()
    if spec.kind == "bern" and not 0 <= value <= 1:
        raise ProgramError(f"bern({value}) probability outside [0, 1]")
    if spec.kind == "gauss0" and value < 0:
        raise ProgramError("negative Gaussian variance")


def _claim_draws(prog: LoopProgram, owners, draws, stmt: tuple[str, str]) -> None:
    """Record stmt, a statement's kind and target, as the owner of its draws,
    each with a known distribution and no other owner; the alphabetically
    first draw that breaks this is reported."""
    for sym in sorted(draws):
        owner = owners.setdefault(sym, stmt)
        if owner != stmt:
            raise ProgramError("draw {} occurs in the {} of {} and in the {} of {}".format(
                sym, *owner, *stmt))
        spec = prog.draws.get(sym)
        if spec is None or spec.kind not in ("gauss0", "unif01", "bern"):
            problem = "no distribution" if spec is None else f"unknown kind {spec.kind!r}"
            raise ProgramError("draw {} in the {} of {} has {}".format(sym, *stmt, problem))


MAX_OUTCOMES = 4096  # most outcomes enumerated: of bern draws, or of a det node's parents


def finite_outcomes(expr: Polynomial, axes: Sequence[tuple[str, int]], size: int,
                    outside: Callable[[Polynomial, dict[str, int]], Exception], too_many: str,
                    weights: Optional[Sequence[tuple[RationalFunction, ...]]] = None,
                    ) -> Optional[tuple[RationalFunction, ...]]:
    """The one check of a finite-outcome value: expr is an integer in
    0..size-1 wherever each symbol s of `axes`, an (s, n) pair, is in
    0..n-1, else outside(value, point) is raised, point holding the symbols
    assigned; more points than MAX_OUTCOMES are an UnsupportedError that
    begins with `too_many`.  Symbols are assigned one at a time, in `axes`
    order and values ascending (as `itertools.product` runs), into the
    partial polynomial, and a subtree whose value is a constant is checked
    once.  With `weights`, one per value of each axis, the walk goes on to
    every point and returns P(value = v) for v in 0..size-1, a point
    weighing the product of its weights from RF_ONE in axis order."""
    if math.prod(n for _, n in axes) > MAX_OUTCOMES:
        raise UnsupportedError(f"{too_many}, more than {MAX_OUTCOMES} outcomes to enumerate")
    law = None if weights is None else [RF_ZERO] * size

    def walk(i: int, value: Polynomial, point: tuple, weight: RationalFunction) -> None:
        if i < len(axes) and (law is not None or not value.is_const()):
            sym, n = axes[i]
            for x in range(n):
                walk(i + 1, value.substitute({sym: x}), point + ((sym, x),),
                     weight if law is None else weight * weights[i][x])
            return
        v = value.const_value() if value.is_const() else None
        if v is None or v.denominator != 1 or not 0 <= v < size:
            raise outside(value, dict(point))
        if law is not None:
            law[int(v)] += weight

    walk(0, expr, (), RF_ONE)
    return None if law is None else tuple(law)


def initial_law(name: str, expr: Polynomial, draws: Mapping[str, DrawSpec], size: int,
                outside: Callable[[str], Exception]) -> tuple[RationalFunction, ...]:
    """P(value = v) for v in 0..size-1 of expr, the initial value of the
    finite-support variable `name`, by `finite_outcomes` over its `bern`
    draws: the one rule for such a value, so `1 - bern(3/10)` is a coin
    with p = 7/10.  A draw that is no `bern` is a ProgramError, more draws
    than MAX_OUTCOMES allow an UnsupportedError, and an outcome that is no
    integer in 0..size-1 (2 of `2*bern(1/2)`, a bare parameter) raises
    `outside(shown)`, shown being the outcome and its expression."""
    drawn = sorted(filter(is_draw, expr.symbols()))
    specs = [draws[s] for s in drawn]
    if any(spec.kind != "bern" for spec in specs):
        raise ProgramError(f"continuous initializer for finite-support variable {name}")

    def refused(value: Polynomial, point) -> Exception:
        try:
            of = f" (an outcome of {_poly_str(expr, draws)})" if drawn else ""
        except UnsupportedError:  # an expression with no printed form
            of = " (an outcome of its draws)"
        return outside(_poly_str(value, draws) + of)

    return finite_outcomes(expr, [(s, 2) for s in drawn], size, refused,
                           f"initializer of {name} has {len(drawn)} bern draws",
                           [(RF_ONE - spec.arg, spec.arg) for spec in specs])


# -- pretty printing -------------------------------------------------------


def _poly_str(poly: Polynomial, draws: Mapping[str, DrawSpec]) -> str:
    """Render with each draw symbol as one textual occurrence.

    Re-parsing makes every textual distribution an independent draw, so a
    draw shared by several monomials must be printed once, factored out:
    bern(p)*(1 - r) and not bern(p) - bern(p)*r.  Entangled sharing (one
    monomial holding two shared draws, or one draw at mixed powers) has no
    faithful rendering and is rejected.
    """
    if poly.is_zero():
        return "0"
    counts: dict[str, int] = {}
    for mono in poly.terms:
        for s, _ in mono.powers:
            if is_draw(s):
                counts[s] = counts.get(s, 0) + 1

    direct: list[tuple[Monomial, Fraction]] = []
    groups: dict[str, tuple[int, dict[Monomial, Fraction]]] = {}
    for mono, coeff in poly.terms.items():
        shared = [(s, e) for s, e in mono.powers if is_draw(s) and counts[s] > 1]
        if not shared:
            direct.append((mono, coeff))
            continue
        if len(shared) > 1:
            raise UnsupportedError("cannot render entangled draws in one monomial")
        sym, exp = shared[0]
        prev = groups.get(sym)
        if prev is None:
            groups[sym] = (exp, {mono.without(sym): coeff})
        else:
            if prev[0] != exp:
                raise UnsupportedError(f"draw {sym} occurs at mixed powers; cannot render")
            prev[1][mono.without(sym)] = coeff

    def factor(sym: str, exp: int) -> str:
        body = draws[sym].render() if is_draw(sym) else sym
        return body if exp == 1 else f"{body}^{exp}"

    def mono_body(mono: Monomial, coeff: Fraction) -> str:
        if mono.is_unit():
            return _number_str(abs(coeff))
        factors = [factor(s, e) for s, e in mono.powers]
        if abs(coeff) != 1:
            factors.insert(0, _number_str(abs(coeff)))
        return "*".join(factors)

    pieces: list[tuple[bool, str]] = []  # (positive, body)
    for mono, coeff in sorted(direct, key=lambda t: t[0], reverse=True):
        pieces.append((coeff > 0, mono_body(mono, coeff)))
    for sym in sorted(groups):
        exp, cof = groups[sym]
        # the monomials that share the draw are two or more distinct
        # monomials times it, so the cofactor has two or more terms
        pieces.append((True, f"{factor(sym, exp)}*({_poly_str(Polynomial(cof), draws)})"))

    parts: list[str] = []
    for positive, body in pieces:
        if not parts:
            parts.append(body if positive else f"-{body}")
        else:
            parts.append(f"+ {body}" if positive else f"- {body}")
    return " ".join(parts)


def pretty(prog: LoopProgram) -> str:
    """Render a program as parseable source text (normalized form)."""
    lines: list[str] = []
    for p in prog.params:
        if p.lo is not None and p.hi is not None:
            lines.append(f"param {p.name} in ({p.lo}, {p.hi});")
        else:
            lines.append(f"param {p.name};")
    for var, size in prog.supports.items():
        lines.append(f"support {var} {size};")
    for init in prog.inits:
        lines.append(f"{init.target} := {_poly_str(init.expr, prog.draws)};")
    lines.append("while true {")
    for upd in prog.updates:
        if len(upd.branches) == 1:
            rhs = _poly_str(upd.branches[0].expr, prog.draws)
        elif len(upd.branches) == 2:
            a, b = upd.branches
            rhs = f"{_poly_str(a.expr, prog.draws)} [{a.prob}] {_poly_str(b.expr, prog.draws)}"
        else:
            arms = "; ".join(
                f"{_poly_str(br.expr, prog.draws)} @ {br.prob}" for br in upd.branches
            )
            rhs = f"choose {{ {arms} }}"
        lines.append(f"    {upd.target} := {rhs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- structural equality modulo draw renaming ------------------------------


def _spec_key(spec: DrawSpec) -> tuple:
    return (spec.kind, str(spec.arg))


def _canonical_key(prog: LoopProgram) -> tuple:
    relabel: dict[str, int] = {}

    def mono_key(mono: Monomial, coeff: Fraction) -> tuple:
        nondraw = tuple((s, e) for s, e in mono.powers if not is_draw(s))
        dspecs = tuple(
            sorted((_spec_key(prog.draws[s]), e) for s, e in mono.powers if is_draw(s))
        )
        return (nondraw, dspecs, coeff)

    def walk(expr: Polynomial) -> tuple:
        out = []
        for mono, coeff in sorted(expr.terms.items(), key=lambda t: mono_key(t[0], t[1])):
            syms = []
            for s, e in mono.powers:
                if is_draw(s):
                    if s not in relabel:
                        relabel[s] = len(relabel)
                    syms.append((("draw", relabel[s], _spec_key(prog.draws[s])), e))
                else:
                    syms.append((("var", s), e))
            syms.sort(key=lambda it: (repr(it[0]), it[1]))
            out.append((tuple(syms), coeff))
        return tuple(out)

    inits = tuple((i.target, walk(i.expr)) for i in prog.inits)
    upds = tuple(
        (u.target, tuple((str(b.prob), walk(b.expr)) for b in u.branches))
        for u in prog.updates
    )
    return (
        tuple((p.name, p.lo, p.hi) for p in prog.params),
        tuple(sorted(prog.supports.items())),
        inits,
        upds,
    )
