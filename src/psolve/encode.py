"""Compile Bayesian networks into loop programs.

A static network becomes a loop whose body draws one joint sample per
iteration: every variable starts at 0 and each pass overwrites all of them
in topological order, so moments read at n = 1 are moments of the network.

Each CPT row gets its own auxiliary variable holding the node's value when
that parent assignment is active and 0 otherwise; the node is the sum of
its row variables.  Rows are mutually exclusive, so products of two row
variables vanish under finite-support reduction.  Conditional Gaussians
work the same way with one auxiliary per discrete configuration.

Dynamic networks run one time slice per iteration.  A node reading its own
previous-slice value does so as the plain self-reference of its update, so
row auxiliaries are unavailable (they would need the value before the node
updates, but they update first).  Binary nodes instead take one Bernoulli
draw per row as a coefficient on the row indicator, which has identical
moments of every order.  A node with three or more values cannot depend on
its own previous slice at all: the indicator of such a node is nonlinear.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Tuple

from .bayesnet import (
    BayesNet,
    CLG,
    CPT,
    Deterministic,
    DynBayesNet,
    LinearGaussian,
    Node,
)
from .errors import QueryError, SchemaError, UnsupportedError
from .program import (
    Assignment,
    Branch,
    DrawRegistry,
    DrawSpec,
    Initializer,
    LoopProgram,
    validate,
)
from .symbolic import Monomial, Polynomial, RationalFunction, RF_ONE


@functools.lru_cache(maxsize=1024)
def indicator_poly(name: str, value: int, support: int) -> Polynomial:
    """The polynomial in one variable that is 1 at value and 0 at every
    other point of 0..support-1; built once per argument triple and shared, as
    polynomials are immutable."""
    if not 0 <= value < support:
        raise SchemaError(f"value {value} outside 0..{support - 1}")
    x = Polynomial.var(name)
    out = Polynomial.const(Fraction(1))
    for i in range(support):
        if i != value:
            out = (x - Polynomial.const(Fraction(i))) * out * Polynomial.const(
                Fraction(1, value - i)
            )
    return out


def normalize_evidence(
    bn: BayesNet, evidence
) -> Tuple[Tuple[str, int], ...]:
    """Turn {node: state} (or pairs) into ((name, index), ...), checking
    that every node is discrete and mentioned at most once."""
    items = evidence.items() if isinstance(evidence, Mapping) else evidence
    out: list[tuple[str, int]] = []
    for name, value in items:
        node = bn.node(name)
        if not node.is_discrete:
            raise UnsupportedError(
                f"evidence on continuous node {name} is not supported; "
                "condition on discrete nodes only"
            )
        if any(name == seen for seen, _ in out):
            raise QueryError(f"evidence lists {name} twice")
        out.append((name, node.state_index(value)))
    return tuple(out)


def evidence_indicator(bn: BayesNet, evidence) -> Polynomial:
    """Product of per-node indicators; 1 exactly on samples matching the
    evidence.  A CPT or CLG row's indicator is this product over the row's
    parent assignment."""
    factors = [
        indicator_poly(name, value, bn.node(name).support)
        for name, value in normalize_evidence(bn, evidence)
    ]
    if not factors:
        return Polynomial.const(Fraction(1))
    return math.prod(factors[1:], start=factors[0])


class _Builder:
    def __init__(self):
        self.registry = DrawRegistry()
        self.inits: list[Initializer] = []
        self.updates: list[Assignment] = []
        self.supports: dict[str, int] = {}
        self.used: set[str] = set()

    def fresh(self, base: str) -> str:
        name = base
        while name in self.used:
            name += "_"
        self.used.add(name)
        return name

    def emit(self, name, branches, init: Polynomial, support=None) -> None:
        self.inits.append(Initializer(name, init))
        self.updates.append(Assignment(name, tuple(branches)))
        if support is not None:
            self.supports[name] = support

    def program(self, params) -> LoopProgram:
        prog = LoopProgram(
            params=tuple(params),
            supports=self.supports,
            inits=tuple(self.inits),
            updates=tuple(self.updates),
            draws=self.registry.draws,
        )
        validate(prog)
        return prog


def compile_bn(bn: BayesNet) -> LoopProgram:
    """One loop iteration = one joint sample; variables in topological
    order; moments are read at n = 1."""
    builder = _static_builder(bn)
    return builder.program(bn.params)


def _static_builder(bn: BayesNet) -> _Builder:
    builder = _Builder()
    builder.used.update(bn.node_names)
    zero = Polynomial.zero()
    for name in bn.order:
        node = bn.node(name)
        m = node.model
        if isinstance(m, CPT):
            _emit_cpt(builder, bn, node, init=zero)
        elif isinstance(m, Deterministic):
            builder.emit(name, [Branch(RF_ONE, m.expr)], zero, node.support)
        elif isinstance(m, LinearGaussian):
            expr = _gauss_expr(builder, m, name)
            builder.emit(name, [Branch(RF_ONE, expr)], zero)
        else:
            _emit_clg(builder, bn, node, init=zero)
    return builder


def _emit_cpt(builder: _Builder, bn: BayesNet, node: Node, init: Polynomial) -> None:
    cpt: CPT = node.model
    m = cpt.support
    if not cpt.parents:
        vec = cpt.rows[0][1]
        builder.emit(node.name, _value_branches(vec, Polynomial.const(Fraction(1)), m),
                     init, m)
        return
    aux_names = []
    for i, (assignment, vec) in enumerate(cpt.rows):
        ind = evidence_indicator(bn, zip(cpt.parents, assignment))
        aux = builder.fresh(f"{node.name}_{i + 1}")
        builder.emit(aux, _value_branches(vec, ind, m), Polynomial.zero(), m)
        aux_names.append(aux)
    builder.emit(node.name, [Branch(RF_ONE, _sum_of_vars(aux_names))], init, m)


def _sum_of_vars(names) -> Polynomial:
    return Polynomial({Monomial.of(name): 1 for name in names})


def _value_branches(vec, ind: Polynomial, m: int):
    """Branches realizing P(X = j) = vec[j] on the row selected by ind."""
    if m == 2:
        return (Branch(vec[1], ind), Branch(vec[0], Polynomial.zero()))
    return tuple(
        Branch(vec[j], Polynomial.const(Fraction(j)) * ind) for j in range(m)
    )


def _gauss_expr(builder: _Builder, lg: LinearGaussian, where: str) -> Polynomial:
    mean = lg.intercept
    for parent, coeff in lg.coeffs:
        mean = mean + coeff * RationalFunction(Polynomial.var(parent))
    if not mean.is_poly():
        raise UnsupportedError(
            f"node {where}: Gaussian mean has a parameter denominator"
        )
    return mean.num + builder.registry.fresh(DrawSpec("gauss0", lg.variance))


def _emit_clg(builder: _Builder, bn: BayesNet, node: Node, init: Polynomial) -> None:
    clg: CLG = node.model
    aux_names = []
    for i, (assignment, lg) in enumerate(clg.table):
        ind = evidence_indicator(bn, zip(clg.parents, assignment))
        expr = ind * _gauss_expr(builder, lg, node.name)
        aux = builder.fresh(f"{node.name}_{i + 1}")
        builder.emit(aux, [Branch(RF_ONE, expr)], Polynomial.zero())
        aux_names.append(aux)
    builder.emit(node.name, [Branch(RF_ONE, _sum_of_vars(aux_names))], init)


def compile_dynbn(dyn: DynBayesNet) -> LoopProgram:
    """Iteration n of the loop is time slice n; slice zero lives in the
    initializers."""
    bn = dyn.net
    builder = _Builder()
    builder.registry.draws.update(dyn.draws)
    builder.used.update(bn.node_names)
    for name in bn.order:
        node = bn.node(name)
        temporal = name in dyn.temporal
        init = dyn.initial_expr(name)
        m = node.model
        if isinstance(m, CPT):
            _emit_dyn_cpt(builder, bn, node, temporal, init)
        elif isinstance(m, Deterministic):
            builder.emit(name, [Branch(RF_ONE, m.expr)], init, node.support)
        elif isinstance(m, LinearGaussian):
            expr = _gauss_expr(builder, m, name)
            builder.emit(name, [Branch(RF_ONE, expr)], init)
        else:
            if temporal:
                raise UnsupportedError(
                    f"node {name}: a switched Gaussian cannot read its own "
                    "previous slice; its per-configuration parts update first"
                )
            _emit_clg(builder, bn, node, init)
    return builder.program(bn.params)


def _emit_dyn_cpt(builder, bn, node, temporal: bool, init: Polynomial) -> None:
    cpt: CPT = node.model
    m = cpt.support
    if m == 2:
        # One Bernoulli draw per row as the coefficient of its indicator:
        # rows are exclusive, so all joint moments match the CPT exactly.
        expr = Polynomial.zero()
        for assignment, vec in cpt.rows:
            ind = evidence_indicator(bn, zip(cpt.parents, assignment))
            expr = expr + builder.registry.fresh(DrawSpec("bern", vec[1])) * ind
        builder.emit(node.name, [Branch(RF_ONE, expr)], init, m)
        return
    if temporal:
        raise UnsupportedError(
            f"node {node.name}: previous-slice dependence of a {m}-valued "
            "node is nonlinear (its indicator has degree "
            f"{m - 1}); only two-valued nodes may read their own past"
        )
    _emit_cpt(builder, bn, node, init)


@dataclass(frozen=True)
class MonitorProgram:
    """A compiled network extended with the rejection-sampling bookkeeping."""

    program: LoopProgram
    evidence_var: str
    continue_var: str
    count_var: str


def compile_sampling_monitor(bn: BayesNet, evidence) -> MonitorProgram:
    """Append variables that stop counting at the first sample matching the
    evidence; lim E[count] is the expected number of samples drawn.

    count starts at 1: it must include the accepted sample itself, and the
    update reads the already-updated continue flag, whose sum alone counts
    only the rejected prefix.
    """
    if isinstance(bn, DynBayesNet):
        raise UnsupportedError("sampling monitors apply to static networks")
    pairs = normalize_evidence(bn, evidence)
    if not pairs:
        raise QueryError("empty evidence: every sample would be accepted")
    builder = _static_builder(bn)
    ind = evidence_indicator(bn, pairs)
    one = Polynomial.const(Fraction(1))

    ev = builder.fresh("ev")
    builder.emit(ev, [Branch(RF_ONE, ind)], Polynomial.zero(), 2)
    cont = builder.fresh("continue")
    keep = Polynomial.var(cont) * (one - Polynomial.var(ev))
    builder.emit(cont, [Branch(RF_ONE, keep)], one, 2)
    count = builder.fresh("count")
    total = Polynomial.var(count) + Polynomial.var(cont)
    builder.emit(count, [Branch(RF_ONE, total)], one)

    return MonitorProgram(
        program=builder.program(bn.params),
        evidence_var=ev,
        continue_var=cont,
        count_var=count,
    )
