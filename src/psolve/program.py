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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .errors import InputError, ProgramError, UnsupportedError
from .symbolic import (
    Monomial,
    Param,
    Polynomial,
    RationalFunction,
    RF_ONE,
    RF_ZERO,
)


def _doublefact(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@dataclass(frozen=True)
class DrawSpec:
    """A normalized distribution draw: zero-mean Gaussian, standard uniform,
    Bernoulli, or an explicit raw-moment sequence."""

    kind: str  # "gauss0" | "unif01" | "bern" | "moments"
    arg: Optional[RationalFunction] = None  # variance, success probability
    raw_moments: tuple[RationalFunction, ...] = ()

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
        if self.kind == "moments":
            if k > len(self.raw_moments):
                raise UnsupportedError(f"moment {k} not known for this draw")
            return self.raw_moments[k - 1]
        raise ValueError(f"unknown draw kind {self.kind}")

    def subs(self, values: Mapping[str, Fraction]) -> "DrawSpec":
        return DrawSpec(
            kind=self.kind,
            arg=None if self.arg is None else self.arg.subs(values),
            raw_moments=tuple(m.subs(values) for m in self.raw_moments),
        )

    def render(self) -> str:
        if self.kind == "gauss0":
            return f"gauss(0, {self.arg})"
        if self.kind == "unif01":
            return "uniform(0, 1)"
        if self.kind == "bern":
            return f"bern({self.arg})"
        return f"moments({', '.join(str(m) for m in self.raw_moments)})"


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
    return Polynomial(coeff), Polynomial(rest)


def validate(prog: LoopProgram) -> None:
    """Check the structural rules; raises ProgramError on the first violation."""
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

    for init in prog.inits:
        bad = {s for s in init.expr.symbols() if not is_draw(s)} - params
        if bad:
            raise ProgramError(
                f"initializer of {init.target} references {sorted(bad)[0]}; "
                "only parameters and known distributions are allowed"
            )
        size = prog.supports.get(init.target)
        if size is not None:
            _check_init_support(init, size, prog)

    earlier: set[str] = set()
    for upd in prog.updates:
        target = upd.target
        total = RF_ZERO
        for br in upd.branches:
            if not br.prob.is_poly():
                raise UnsupportedError(
                    f"branch probability of {target} has a symbolic denominator"
                )
            bad = br.prob.symbols() - params
            if bad:
                raise ProgramError(
                    f"branch probability of {target} references {sorted(bad)[0]}"
                )
            if br.prob.is_const():
                p = br.prob.const_value()
                if p < 0 or p > 1:
                    raise ProgramError(f"branch probability {p} of {target} outside [0, 1]")
            total = total + br.prob
            symbols = br.expr.symbols()
            if target in symbols:
                split_self(br.expr, target)  # raises unless linear in the target
            bad = [
                s for s in symbols
                if s != target and s not in params and s not in earlier and not is_draw(s)
            ]
            if bad:
                raise ProgramError(
                    f"update of {target} references {min(bad)}, "
                    "which is not declared earlier"
                )
        if total != 1:
            raise ProgramError(f"branch probabilities of {target} do not sum to 1")
        earlier.add(target)

    for sym, spec in prog.draws.items():
        if spec.arg is not None:
            bad = spec.arg.symbols() - params
            if bad:
                raise ProgramError(
                    f"distribution argument references {sorted(bad)[0]}; "
                    "variance and success probability must be parameter-only"
                )
        if spec.kind == "bern" and spec.arg.is_const():
            p = spec.arg.const_value()
            if p < 0 or p > 1:
                raise ProgramError(f"bern({p}) probability outside [0, 1]")
        if spec.kind == "gauss0" and spec.arg.is_const():
            if spec.arg.const_value() < 0:
                raise ProgramError("negative Gaussian variance")


def _check_init_support(init: Initializer, size: int, prog: LoopProgram) -> None:
    expr = init.expr
    if expr.is_const():
        v = expr.const_value()
        if v.denominator != 1 or not 0 <= v < size:
            raise ProgramError(
                f"initializer {v} of {init.target} outside declared support 0..{size - 1}"
            )
        return
    for s in expr.symbols():
        if is_draw(s) and prog.draws[s].kind in ("gauss0", "unif01"):
            raise ProgramError(
                f"continuous initializer for finite-support variable {init.target}"
            )


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
            return str(abs(coeff))
        factors = [factor(s, e) for s, e in mono.powers]
        if abs(coeff) != 1:
            factors.insert(0, str(abs(coeff)))
        return "*".join(factors)

    pieces: list[tuple[bool, str]] = []  # (positive, body)
    for mono, coeff in sorted(direct, key=lambda t: t[0], reverse=True):
        pieces.append((coeff > 0, mono_body(mono, coeff)))
    for sym in sorted(groups):
        exp, cof = groups[sym]
        cofactor = Polynomial(cof)
        head = factor(sym, exp)
        if cofactor == Polynomial.const(1):
            pieces.append((True, head))
        elif len(cofactor.terms) == 1:
            mono, coeff = next(iter(cofactor.terms.items()))
            pieces.append((coeff > 0, f"{head}*{mono_body(mono, coeff)}"))
        else:
            pieces.append((True, f"{head}*({_poly_str(cofactor, draws)})"))

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
    return (spec.kind, str(spec.arg), tuple(str(m) for m in spec.raw_moments))


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
