"""Network analyses on top of moment invariants.

A loaded network is compiled once, on its first query, and every
expectation of every query on it comes from the one `MomentEngine` of that
program (`BayesNet.engine`, `DynBayesNet.engine`), whose bucket messages and
verified closed forms serve the later queries.  Static networks are compiled
to loops whose first pass produces one joint sample, so every query reads
moments at n = 1.  That pass overwrites every variable from draws and
parameters, so a static expectation is one body substitution into the
query and one expectation (`MomentEngine.one_pass`), and solves no
recurrence.  A static query passes its factors: the target, and one
indicator per evidence node, which the engine multiplies only where they
share a variable.  Conditioning adds the evidence indicators to the
target's factors and divides by the expectation of the indicators alone;
a distribution divides each state's indicator the same way.  Dynamic
networks keep n symbolic: prediction returns the closed form
(`MomentEngine.closed`), its value at a horizon, or its limit, from the
moment recurrences, each of which is back-substituted before it is used.
`predict_loop` does this on the engine of any loop program; `predict`
calls it with a network's engine and the command line's `analyze` with
the engine of a parsed program.

Everything is exact.  Symbolic parameters flow through unchanged, so the
same code path answers numeric queries and sensitivity queries; decisions
that hold only generically (a nonzero denominator, a base inside the unit
interval) are recorded as assumption strings on the result.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .bayesnet import BayesNet, DynBayesNet, joint_rows
from .encode import (
    compile_sampling_monitor,
    indicator_factors,
    indicator_poly,
    normalize_evidence,
    sample_evidence,
)
from .errors import InternalCheckError, QueryError, UnsupportedError
from .exppoly import expoly_limit
from .moments import MomentEngine
from .parser import parse_poly
from .program import LoopProgram
from .recurrence import ClosedForm, merge_assumptions
from .symbolic import (
    Monomial,
    Polynomial,
    RationalFunction,
    RF_ONE,
    RF_ZERO,
    _rf_const,
    clear_denominators,
    decimal_str,
    int_content,
    poly_content,
    poly_divide,
)

Value = Union[RationalFunction, ClosedForm, tuple]


@dataclass(frozen=True)
class QueryResult:
    kind: str
    value: Value
    assumptions: tuple[str, ...] = ()
    diagnostics: tuple[str, ...] = ()
    extras: tuple[tuple[str, str], ...] = ()

    def exact(self) -> str:
        return _exact_str(self.value)

    def decimal(self, digits: int = 6) -> str:
        return _decimal_str(self.value, digits)

    def to_json(self, digits: int = 6) -> dict:
        out = {
            "query": self.kind,
            "exact": self.exact(),
            "decimal": self.decimal(digits),
            "assumptions": list(self.assumptions),
        }
        if self.diagnostics:
            out["diagnostics"] = list(self.diagnostics)
        for key, value in self.extras:
            out[key] = value
        return out


def _exact_str(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, tuple):
        return "(" + ", ".join(_exact_str(v) for v in value) + ")"
    return str(value)


def _decimal_str(value, digits: int) -> str:
    """The decimal of a result value, entry by entry for a tuple; an entry
    with no decimal (see `decimal_or_none`) prints exactly."""
    if value is None:
        return "undefined"
    if isinstance(value, tuple):
        return "(" + ", ".join(_decimal_str(v, digits) for v in value) + ")"
    dec = decimal_or_none(value, digits)
    return _exact_str(value) if dec is None else dec


def decimal_or_none(value, digits: int) -> Optional[str]:
    """The fixed-point decimal of a numeric value, or None if it is not one.

    A constant rational function is numeric, and so is a closed form with
    no prefix and a constant tail, whose value is that constant; a tuple
    is numeric when every entry is."""
    if isinstance(value, tuple):
        parts = [decimal_or_none(v, digits) for v in value]
        if all(p is not None for p in parts):
            return "(" + ", ".join(parts) + ")"
        return None
    if isinstance(value, ClosedForm) and not value.prefix and value.tail.is_const():
        value = value.tail.at(0)
    if isinstance(value, RationalFunction) and value.is_const():
        return decimal_str(value.const_value(), digits)
    return None


# -- expectation plumbing --------------------------------------------------


def expectation_at(prog: LoopProgram, poly: Polynomial, n: int):
    """E[poly] after n loop iterations, with solver assumptions."""
    closed = MomentEngine(prog).closed(poly)
    return closed.at(n), closed.assumptions


def _target_factors(bn: BayesNet, target, k: int = 1) -> list[Polynomial]:
    """A query target to the k-th power as factors: one indicator per node
    of an event mapping {node: state}, one polynomial for a node name, an
    expression string over nodes, a monomial or a polynomial.  A dynamic
    query takes their product."""
    if isinstance(target, Mapping):
        return [f**k for f in indicator_factors(bn, normalize_evidence(bn, target))]
    if isinstance(target, Monomial):
        target = Polynomial({target: Fraction(1)})
    elif isinstance(target, str):
        target = parse_poly(target, bn.node_names, bn.param_names)
    elif not isinstance(target, Polynomial):
        raise QueryError(f"cannot interpret query target {target!r}")
    return [target**k]


# -- static-network queries ------------------------------------------------


def joint_moment(bn, target, k: int = 1) -> QueryResult:
    """E[target^k]; at n = 1 for a static network, closed form in n for a
    dynamic one."""
    if k < 1:
        raise QueryError(f"moment order must be positive, got {k}")
    if isinstance(bn, DynBayesNet):
        poly = math.prod(_target_factors(bn.net, target), start=Polynomial.const(1)) ** k
        closed = bn.engine.closed(poly)
        return QueryResult("moment", closed, closed.assumptions)
    factors = _target_factors(bn, target, k)
    return QueryResult("moment", bn.engine.one_pass(*factors))


def _evidence_mass(engine: MomentEngine, pairs, factors):
    """P(evidence), one pass over the factors that stand for the evidence
    pairs on the engine of a compiled static network, and the assumption a
    symbolic P(evidence) carries; evidence of probability zero is a
    QueryError."""
    p = engine.one_pass(*factors)
    if p.is_zero():
        detail = ", ".join(f"{name}={value}" for name, value in pairs)
        raise QueryError(f"evidence {detail} has probability zero")
    return p, (() if p.is_const() else (f"({p}) != 0",))


def conditional_moment(bn: BayesNet, target, k: int, evidence) -> QueryResult:
    """E[target^k | evidence] as a ratio of two joint moments."""
    if isinstance(bn, DynBayesNet):
        raise UnsupportedError("conditional queries apply to static networks")
    if k < 1:
        raise QueryError(f"moment order must be positive, got {k}")
    pairs = normalize_evidence(bn, evidence)
    if not pairs:
        raise QueryError("conditional query needs non-empty evidence")
    factors = _target_factors(bn, target, k)
    engine = bn.engine
    inds = indicator_factors(bn, pairs)
    den, assumptions = _evidence_mass(engine, pairs, inds)
    return QueryResult("conditional", engine.one_pass(*factors, *inds) / den, assumptions)


def node_distribution(bn: BayesNet, name: str, evidence=None) -> QueryResult:
    """The (conditional) distribution of one discrete node: the expectation
    of each state's indicator, times the evidence indicator, over
    P(evidence)."""
    if isinstance(bn, DynBayesNet):
        raise UnsupportedError("distribution queries apply to static networks")
    node = bn.node(name)
    if not node.is_discrete:
        raise QueryError(f"node {name} is continuous; it has no state vector")
    engine = bn.engine
    states = [indicator_poly(name, i, node.support) for i in range(node.support)]
    pairs = () if evidence is None else normalize_evidence(bn, evidence)
    if not pairs:
        return QueryResult("distribution", tuple(engine.one_pass(s) for s in states))
    inds = indicator_factors(bn, pairs)
    den, assumptions = _evidence_mass(engine, pairs, inds)
    vector = tuple(engine.one_pass(s, *inds) / den for s in states)
    return QueryResult("distribution", vector, assumptions)


def expected_samples(bn: BayesNet, evidence, cross_check: bool = True) -> QueryResult:
    """Expected number of samples drawn until the first one matching the
    evidence, i.e. 1/P(evidence).

    Only the rejection-monitor program is compiled: P(evidence) is one body
    pass over the monitor's per-node evidence flags, and with cross_check
    the monitor's count is solved as well, on the same engine, and its
    limit must equal 1/p exactly.  The count's extraction walks reach the
    flags through the acceptance flag's message and reuse the messages
    that pass built.
    """
    monitor = compile_sampling_monitor(bn, evidence)
    engine = MomentEngine(monitor.program)
    flags = [Polynomial.var(flag) for flag in monitor.evidence_vars]
    p, assumptions = _evidence_mass(engine, monitor.evidence, flags)
    value = RF_ONE / p
    extras = [("probability", str(p))]
    if cross_check:
        count = engine.closed(Polynomial.var(monitor.count_var))
        limit = expoly_limit(count.tail, {p.name: p for p in bn.params})
        if limit.kind == "diverges" or limit.value is None:
            raise InternalCheckError(
                "monitor count diverges although the evidence has "
                f"probability {p}"
            )
        if limit.value != value:
            raise InternalCheckError(
                f"monitor limit {limit.value} disagrees with 1/p = {value}"
            )
        assumptions = merge_assumptions(assumptions, limit.assumptions)
        extras.append(("monitor_limit", str(limit.value)))
    return QueryResult("samples", value, assumptions, extras=tuple(extras))


def expected_positive(bn: BayesNet, evidence, n_samples: int) -> QueryResult:
    """Expected number of evidence-matching instances among n samples,
    n * P(evidence), from one pass on the compiled network."""
    if n_samples < 0:
        raise QueryError(f"sample count must be nonnegative, got {n_samples}")
    pairs = sample_evidence(bn, evidence)
    p, assumptions = _evidence_mass(bn.engine, pairs, indicator_factors(bn, pairs))
    value = p * RationalFunction(Polynomial.const(Fraction(n_samples)))
    return QueryResult("positive", value, assumptions)


def sensitivity(bn, query_spec: Mapping) -> QueryResult:
    """Run any query on a network with symbolic parameters; the answer is a
    rational function (or exponential polynomial) in those parameters."""
    return run_query(bn, query_spec)


# -- dynamic-network queries -----------------------------------------------


def predict(
    dyn: DynBayesNet,
    target,
    at: Optional[int] = None,
    limit: bool = False,
) -> QueryResult:
    """E[target] over time: the closed form in n, its value at a horizon,
    or its limit."""
    if not isinstance(dyn, DynBayesNet):
        raise UnsupportedError("predict queries apply to dynamic networks")
    poly = math.prod(_target_factors(dyn.net, target), start=Polynomial.const(1))
    return predict_loop(dyn.engine, poly, at, limit)


def predict_loop(
    engine: MomentEngine, poly: Polynomial, at: Optional[int], limit: bool
) -> QueryResult:
    """E[poly] of a loop program over time, from the engine of that
    program: the closed form in n, its value after `at` iterations, or its
    limit, which is decided over the program's parameter domains; a
    diverging limit has the value None and the diagnostic "diverges".
    `at` and `limit` exclude each other."""
    if at is not None and limit:
        raise QueryError('"at" and "limit" are mutually exclusive')
    if at is not None and at < 0:
        raise QueryError(f"horizon must be nonnegative, got {at}")
    closed = engine.closed(poly)
    if at is not None:
        return QueryResult("predict", closed.at(at), closed.assumptions)
    if limit:
        lim = expoly_limit(closed.tail, engine.prog.param_map())
        assumptions = merge_assumptions(closed.assumptions, lim.assumptions)
        if lim.kind == "diverges":
            return QueryResult("predict", None, assumptions, diagnostics=("diverges",))
        return QueryResult("predict", lim.value, assumptions)
    return QueryResult("predict", closed, closed.assumptions)


def forward_filter(dyn: DynBayesNet, observations) -> QueryResult:
    """Posterior over the temporal state after each observation step.

    Implements the forward pass on integer weights, one per state: Python
    ints when the network has no parameters, polynomials with integer
    coefficients when it has.  One loop serves both.  The prior and each
    step's distribution P(next state, obs | previous state) are cleared of
    denominators once, when they are built (`symbolic.clear_denominators`):
    every entry is multiplied by one common factor, the lcm of the constant
    denominators times the product of the distinct polynomial ones.  The factor is
    common to every previous state a step reads, so it scales every new
    weight alike and leaves the beliefs unchanged.  A step sums
    w[prev] * N[prev][next] into the new weights and divides them by their
    common integer content; it emits each state's belief as its weight over
    the weights' total.  No `RationalFunction` arithmetic runs per step,
    and a numeric step runs no `Fraction` arithmetic either: it multiplies,
    adds and takes one gcd of ints, and builds its beliefs.  Since only the
    emitted beliefs are divided, a symbolic belief's degree grows linearly
    in the number of steps instead of doubling.  A step may observe any
    subset of non-temporal discrete nodes; an empty step is a pure
    prediction step.  The one-step distribution is the chain-rule joint of
    the slice (`bayesnet.joint_rows`) given the previous state and the
    step's observations, summed onto the new state and memoized per
    observation.

    A symbolic filter records one assumption: the last step's total, made
    primitive, is nonzero.  That total is P(all observations) up to a
    constant and the cleared denominators, and P(obs_1..T) <= P(obs_1..t),
    so it covers the division at every step.
    """
    if not isinstance(dyn, DynBayesNet):
        raise UnsupportedError("filter queries apply to dynamic networks")
    if not isinstance(observations, (list, tuple)):
        raise QueryError(f"observations must be a list of steps, got {observations!r}")
    states, prior = _filter_setup(dyn)
    slices = _normalize_steps(dyn.net, observations)
    for nd in dyn.net.nodes:
        if not nd.is_discrete:
            raise UnsupportedError(
                f"filtering needs an all-discrete slice, {nd.name} is not"
            )
    symbolic = bool(dyn.net.params)
    content, divide, belief = (
        (poly_content, poly_divide, RationalFunction) if symbolic
        else (int_content, operator.floordiv, _int_belief)
    )
    space = tuple(prior)
    memo: dict = {}
    weights = clear_denominators({(): prior}, symbolic)[0][()]
    total = None
    out = []
    for t, obs in enumerate(slices, start=1):
        if obs not in memo:
            memo[obs] = clear_denominators(
                {prev: _step_dist(dyn, prev, obs) for prev in space}, symbolic
            )[0]
        step = memo[obs]
        new: dict = {}
        for prev, weight in weights.items():
            for state, n in step[prev].items():
                acc = new.get(state)
                new[state] = weight * n if acc is None else acc + weight * n
        total = sum(new.values())
        if total == 0:
            raise QueryError(
                f"observation step {t} ({obs}) has zero likelihood under "
                "the current belief"
            )
        g = math.gcd(*map(content, new.values()))
        if g != 1:
            new = {s: divide(w, g) for s, w in new.items()}
            total = divide(total, g)
        out.append(tuple(belief(new[s], total) if s in new else RF_ZERO for s in space))
        weights = new
    assumptions = ()
    if symbolic and total is not None and not total.is_const():
        assumptions = (f"({total * (1 / total.content())}) != 0",)
    labels = tuple(", ".join(f"{n}={v}" for n, v in zip(states, s)) for s in space)
    return QueryResult(
        "filter",
        tuple(out),
        assumptions,
        extras=(("states", " | ".join(labels)),),
    )


def _normalize_steps(net: BayesNet, observations) -> list:
    """`normalize_evidence` of every observation step, run once per
    distinct step.  A mapping step is memoized by its items, each value
    with its type (True == 1, but only 1 is a state); a step that is no
    mapping, or whose items do not hash, goes straight to
    `normalize_evidence`, so every error and its order stay as they are."""
    memo: dict = {}
    out = []
    for step in observations:
        if not isinstance(step, Mapping):
            out.append(normalize_evidence(net, step))
            continue
        key = tuple((name, type(value), value) for name, value in step.items())
        try:
            pairs = memo.get(key)
        except TypeError:  # an unhashable name or value
            out.append(normalize_evidence(net, step))
            continue
        if pairs is None:
            pairs = memo[key] = normalize_evidence(net, step)
        out.append(pairs)
    return out


def _int_belief(weight: int, total: int) -> RationalFunction:
    return _rf_const(Fraction(weight, total))


def _step_dist(dyn: DynBayesNet, prev, obs) -> dict:
    """P(next state, obs | previous state) for each reachable next state."""
    dist: dict = {}
    for values, weight in joint_rows(dyn.net, zip(dyn.temporal, prev), obs):
        state = tuple(values[s] for s in dyn.temporal)
        dist[state] = dist.get(state, RF_ZERO) + weight
    return dist


def _filter_setup(dyn: DynBayesNet):
    states = tuple(dyn.temporal)
    if not states:
        raise QueryError("network has no temporal nodes to track")
    for name in states:
        if not dyn.net.node(name).is_discrete:
            raise UnsupportedError(f"filtering needs a discrete state, {name} is not")
    prior: dict[tuple[int, ...], RationalFunction] = {}
    marginals = [_initial_marginal(dyn, name) for name in states]
    for assignment in itertools.product(*(range(dyn.net.node(s).support) for s in states)):
        weight = RF_ONE
        for value, marginal in zip(assignment, marginals):
            weight = weight * marginal[value]
        prior[assignment] = weight
    return states, prior


def _initial_marginal(dyn: DynBayesNet, name: str):
    """P(node = v) at slice zero, from the initial expression."""
    node = dyn.net.node(name)
    expr = dyn.initial_expr(name)
    if expr.is_const():
        value = expr.const_value()
        if value.denominator != 1 or not 0 <= value < node.support:
            raise QueryError(f"initial value {value} of {name} is not a state")
        return [RF_ONE if i == value else RF_ZERO for i in range(node.support)]
    draws = [s for s in expr.symbols()]
    if len(draws) == 1 and expr == Polynomial.var(draws[0]):
        spec = dyn.draws.get(draws[0])
        if spec is not None and spec.kind == "bern" and node.support == 2:
            return [RF_ONE - spec.arg, spec.arg]
    raise UnsupportedError(
        f"filtering needs a discrete initial distribution for {name}; "
        f"got {expr}"
    )


# -- query documents -------------------------------------------------------


def run_query(bn, spec: Mapping) -> QueryResult:
    """Dispatch a JSON-style query document against a network."""
    if not isinstance(spec, Mapping) or "query" not in spec:
        raise QueryError('a query document needs a "query" field')
    kind = spec["query"]
    if kind == "conditional":
        _require(spec, {"query", "target", "k", "evidence"})
        return conditional_moment(
            bn, spec.get("target"), _int_field(spec, "k", 1), spec.get("evidence", {})
        )
    if kind == "moment":
        _require(spec, {"query", "target", "k"})
        return joint_moment(bn, spec.get("target"), _int_field(spec, "k", 1))
    if kind == "samples":
        _require(spec, {"query", "evidence", "N", "cross_check"})
        cross_check = _bool_field(spec, "cross_check", "N" not in spec)
        if "N" in spec:
            if cross_check:
                raise QueryError('"N" and "cross_check" are mutually exclusive')
            return expected_positive(bn, spec.get("evidence", {}), _int_field(spec, "N"))
        return expected_samples(bn, spec.get("evidence", {}), cross_check)
    if kind == "predict":
        _require(spec, {"query", "target", "node", "at", "limit"})
        target = spec.get("target", spec.get("node"))
        if target is None:
            raise QueryError('predict needs a "target" node or expression')
        return predict(bn, target, _int_field(spec, "at"), _bool_field(spec, "limit", False))
    if kind == "filter":
        _require(spec, {"query", "observations"})
        return forward_filter(bn, spec.get("observations", []))
    if kind == "distribution":
        _require(spec, {"query", "node", "evidence"})
        if not isinstance(spec.get("node"), str):
            raise QueryError('distribution needs a "node" name')
        return node_distribution(bn, spec["node"], spec.get("evidence"))
    raise QueryError(f"unknown query kind {kind!r}")


def _require(spec: Mapping, allowed: set) -> None:
    extra = set(spec) - allowed
    if extra:
        raise QueryError(f"unknown query fields {sorted(extra)}")


def _int_field(spec: Mapping, name: str, default: Optional[int] = None):
    """An integer field of a query document; JSON true/false are not
    integers here."""
    if name not in spec:
        return default
    value = spec[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise QueryError(f'query field "{name}" must be an integer, got {value!r}')
    return value


def _bool_field(spec: Mapping, name: str, default: bool) -> bool:
    """A boolean field of a query document: JSON true or false only."""
    if name not in spec:
        return default
    value = spec[name]
    if not isinstance(value, bool):
        raise QueryError(f'query field "{name}" must be true or false, got {value!r}')
    return value
