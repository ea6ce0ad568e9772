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
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .bayesnet import (
    BayesNet,
    CPT,
    Deterministic,
    DynBayesNet,
    LinearGaussian,
)
from .errors import QueryError, SchemaError, UnsupportedError
from .program import (
    Assignment,
    Branch,
    DrawRegistry,
    DrawSpec,
    Initializer,
    LoopProgram,
    extend,
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
    """Turn {node: state} (or a list or tuple of [node, state] pairs) into
    ((name, index), ...), checking that every name is a string, every node
    is discrete and mentioned at most once."""
    if isinstance(evidence, Mapping):
        items = evidence.items()
    elif isinstance(evidence, (list, tuple)):
        items = evidence
    else:
        raise QueryError(
            f"evidence must be a mapping or a list of [node, state] pairs, got {evidence!r}"
        )
    out: list[tuple[str, int]] = []
    for item in items:
        if not isinstance(item, (list, tuple)) or len(item) != 2 or not isinstance(item[0], str):
            raise QueryError(f"evidence entry {item!r} is not a [node, state] pair")
        name, value = item
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
    evidence, which `normalize_evidence` checks first."""
    return _indicator_product(bn, normalize_evidence(bn, evidence))


def indicator_factors(bn: BayesNet, pairs) -> list[Polynomial]:
    """One indicator factor per (node, state index) pair, taken as checked:
    pairs from `normalize_evidence` or a row's loaded parent assignment."""
    return [indicator_poly(name, value, bn.node(name).support) for name, value in pairs]


def _indicator_product(bn: BayesNet, pairs) -> Polynomial:
    """The product of the pairs' indicators, 1 for no pairs; a CPT or CLG
    row's indicator is this product over the row's parent assignment."""
    factors = indicator_factors(bn, pairs)
    if not factors:
        return Polynomial.const(Fraction(1))
    return math.prod(factors[1:], start=factors[0])


def sample_evidence(bn: BayesNet, evidence) -> Tuple[Tuple[str, int], ...]:
    """A sample-count query's evidence, normalized, non-empty, on a static network."""
    if isinstance(bn, DynBayesNet):
        raise UnsupportedError("sample-count queries apply to static networks")
    pairs = normalize_evidence(bn, evidence)
    if not pairs:
        raise QueryError("empty evidence: every sample would be accepted")
    return pairs


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
    return _build(bn).program(bn.params)


def compile_dynbn(dyn: DynBayesNet) -> LoopProgram:
    """Iteration n of the loop is time slice n; slice zero lives in the
    initializers."""
    return _build(dyn.net, dyn).program(dyn.net.params)


def _build(bn: BayesNet, dyn: DynBayesNet | None = None) -> _Builder:
    """The one node loop of every compile, over bn in topological order.
    Without dyn every variable starts at 0.  With dyn, whose net is bn,
    each starts at its slice-zero value, a two-valued CPT node takes one
    Bernoulli draw per row, and any other row-structured node must not
    read its own previous slice (see the module docstring)."""
    builder = _Builder()
    if dyn is not None:
        builder.registry.draws.update(dyn.draws)
    builder.used.update(bn.node_names, bn.param_names)
    zero = Polynomial.zero()
    for name in bn.order:
        node = bn.node(name)
        init = zero if dyn is None else dyn.initial_expr(name)
        temporal = dyn is not None and name in dyn.temporal
        m = node.model
        if isinstance(m, CPT):
            support = m.support
            if dyn is not None and support == 2:
                # One Bernoulli draw per row as the coefficient of its indicator:
                # rows are exclusive, so all joint moments match the CPT exactly.
                expr = zero
                for assignment, vec in m.rows:
                    ind = _indicator_product(bn, zip(m.parents, assignment))
                    expr = expr + builder.registry.fresh(DrawSpec("bern", vec[1])) * ind
                builder.emit(name, [Branch(RF_ONE, expr)], init, support)
            elif temporal:
                raise UnsupportedError(
                    f"node {name}: previous-slice dependence of a {support}-valued "
                    "node is nonlinear (its indicator has degree "
                    f"{support - 1}); only two-valued nodes may read their own past"
                )
            else:
                _emit_rows(builder, bn, name, m.parents, m.rows, init, support,
                           functools.partial(_value_branches, m=support))
        elif isinstance(m, Deterministic):
            builder.emit(name, [Branch(RF_ONE, m.expr)], init, node.support)
        elif isinstance(m, LinearGaussian):
            expr = _gauss_expr(builder, m, name)
            builder.emit(name, [Branch(RF_ONE, expr)], init)
        elif temporal:
            raise UnsupportedError(
                f"node {name}: a switched Gaussian cannot read its own "
                "previous slice; its per-configuration parts update first"
            )
        else:
            _emit_rows(builder, bn, name, m.parents, m.table, init, None,
                       lambda lg, ind: [Branch(RF_ONE, ind * _gauss_expr(builder, lg, name))])
    return builder


def _emit_rows(builder: _Builder, bn: BayesNet, name: str, parents, rows,
               init: Polynomial, support, branches) -> None:
    """The row emitter of CPTs and CLGs: one auxiliary per row, whose
    `branches(model, indicator)` hold the node's value when the row's parent
    assignment is active and 0 otherwise, and the node as their sum.  A
    node without parents has one row and takes its branches directly."""
    if not parents:
        builder.emit(name, branches(rows[0][1], Polynomial.const(Fraction(1))),
                     init, support)
        return
    aux_names = []
    for i, (assignment, model) in enumerate(rows):
        ind = _indicator_product(bn, zip(parents, assignment))
        aux = builder.fresh(f"{name}_{i + 1}")
        builder.emit(aux, branches(model, ind), Polynomial.zero(), support)
        aux_names.append(aux)
    total = Polynomial({Monomial.of(aux): 1 for aux in aux_names})
    builder.emit(name, [Branch(RF_ONE, total)], init, support)


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


@dataclass(frozen=True)
class MonitorProgram:
    """A compiled network extended with the rejection-sampling bookkeeping:
    one flag variable per evidence node (`evidence_vars`, in evidence
    order), their product, the acceptance flag `evidence_var`, and the
    sample count `count_var`, which a cross-checked `samples` solves."""

    program: LoopProgram
    evidence_vars: Tuple[str, ...]
    evidence_var: str
    continue_var: str
    count_var: str


def compile_sampling_monitor(bn: BayesNet, evidence) -> MonitorProgram:
    """Append variables that stop counting at the first sample matching the
    evidence; lim E[count] is the expected number of samples drawn.

    The evidence is checked (`sample_evidence`) before anything compiles.
    The monitor's statements are appended to the network's compiled
    program, `bn.engine.prog`, compiled once per network object: the
    program begins with that program's own initializer and update objects,
    and only the appended statements depend on the evidence and are
    validated (`program.extend`).

    Each evidence node gets a flag, `ev_<node>`, set to its indicator, and
    the acceptance flag ev is their product, one monomial, so that a
    negative value (an indicator 1 - X) does not double its terms.  count
    starts at 1: it must include the accepted sample itself, and the
    update reads the already-updated continue flag, whose sum alone counts
    only the rejected prefix.
    """
    pairs = sample_evidence(bn, evidence)
    base = bn.engine.prog
    builder = _Builder()
    builder.used.update(base.variables, bn.param_names)
    one = Polynomial.const(Fraction(1))
    zero = Polynomial.zero()

    flags = []
    for (name, _), ind in zip(pairs, indicator_factors(bn, pairs)):
        flags.append(builder.fresh(f"ev_{name}"))
        builder.emit(flags[-1], [Branch(RF_ONE, ind)], zero, 2)
    ev = builder.fresh("ev")
    accept = Polynomial({Monomial((flag, 1) for flag in flags): Fraction(1)})
    builder.emit(ev, [Branch(RF_ONE, accept)], zero, 2)
    cont = builder.fresh("continue")
    keep = Polynomial.var(cont) * (one - Polynomial.var(ev))
    builder.emit(cont, [Branch(RF_ONE, keep)], one, 2)
    count = builder.fresh("count")
    total = Polynomial.var(count) + Polynomial.var(cont)
    builder.emit(count, [Branch(RF_ONE, total)], one)

    return MonitorProgram(
        program=extend(base, builder.inits, builder.updates, builder.supports),
        evidence_vars=tuple(flags),
        evidence_var=ev,
        continue_var=cont,
        count_var=count,
    )
