"""Network analyses on top of moment invariants.

Each query compiles its network once, and every expectation it needs comes
from the one `MomentEngine` of that program.  Static networks are compiled
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
`predict_loop` does this for any loop program; `predict` calls it on a
compiled network and the command line's `analyze` on a parsed program.

Everything is exact.  Symbolic parameters flow through unchanged, so the
same code path answers numeric queries and sensitivity queries; decisions
that hold only generically (a nonzero denominator, a base inside the unit
interval) are recorded as assumption strings on the result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .bayesnet import BayesNet, DynBayesNet, joint_rows
from .encode import (
    compile_bn,
    compile_dynbn,
    compile_sampling_monitor,
    evidence_indicator,
    indicator_poly,
    normalize_evidence,
)
from .errors import InternalCheckError, QueryError, UnsupportedError
from .exppoly import expoly_limit
from .moments import MomentEngine
from .parser import parse_poly
from .program import LoopProgram
from .recurrence import ClosedForm
from .symbolic import (
    Monomial,
    Polynomial,
    RationalFunction,
    RF_ONE,
    RF_ZERO,
    decimal_str,
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
    if value is None:
        return "undefined"
    if isinstance(value, tuple):
        return "(" + ", ".join(_decimal_str(v, digits) for v in value) + ")"
    if isinstance(value, RationalFunction) and value.is_const():
        return decimal_str(value.const_value(), digits)
    return _exact_str(value)


# -- expectation plumbing --------------------------------------------------


def expectation_at(prog: LoopProgram, poly: Polynomial, n: int):
    """E[poly] after n loop iterations, with solver assumptions."""
    closed = MomentEngine(prog).closed(poly)
    return closed.at(n), closed.assumptions


def _merge(into: list[str], new: Sequence[str]) -> None:
    for item in new:
        if item not in into:
            into.append(item)


def _target_poly(bn: BayesNet, target) -> Polynomial:
    """A query target: a node name, an expression string over nodes, a
    polynomial, or an event mapping {node: state}."""
    if isinstance(target, Polynomial):
        return target
    if isinstance(target, Monomial):
        return Polynomial({target: Fraction(1)})
    if isinstance(target, Mapping):
        return evidence_indicator(bn, target)
    if isinstance(target, str):
        return parse_poly(target, bn.node_names, bn.param_names)
    raise QueryError(f"cannot interpret query target {target!r}")


# -- static-network queries ------------------------------------------------


def joint_moment(bn, target, k: int = 1) -> QueryResult:
    """E[target^k]; at n = 1 for a static network, closed form in n for a
    dynamic one."""
    if k < 1:
        raise QueryError(f"moment order must be positive, got {k}")
    if isinstance(bn, DynBayesNet):
        poly = _target_poly(bn.net, target) ** k
        closed = MomentEngine(compile_dynbn(bn)).closed(poly)
        return QueryResult("moment", closed, closed.assumptions)
    factors = _target_factors(bn, target, k)
    return QueryResult("moment", MomentEngine(compile_bn(bn)).one_pass(*factors))


def _indicators(bn: BayesNet, pairs) -> list[Polynomial]:
    """One indicator factor per (node, state) pair."""
    return [indicator_poly(name, value, bn.node(name).support) for name, value in pairs]


def _target_factors(bn: BayesNet, target, k: int) -> list[Polynomial]:
    """The static target to the k-th power as factors: one per node of an
    event mapping, one for any other target."""
    if isinstance(target, Mapping):
        return [f**k for f in _indicators(bn, normalize_evidence(bn, target))]
    return [_target_poly(bn, target) ** k]


def _evidence_mass(engine: MomentEngine, bn: BayesNet, pairs):
    """The evidence's indicator factors, P(evidence) on the engine of a
    compiled static network, and the assumption a symbolic P(evidence)
    carries; evidence of probability zero is a QueryError."""
    inds = _indicators(bn, pairs)
    p = engine.one_pass(*inds)
    if p.is_zero():
        detail = ", ".join(f"{name}={value}" for name, value in pairs)
        raise QueryError(f"evidence {detail} has probability zero")
    return inds, p, (() if p.is_const() else (f"({p}) != 0",))


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
    engine = MomentEngine(compile_bn(bn))
    inds, den, assumptions = _evidence_mass(engine, bn, pairs)
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
    engine = MomentEngine(compile_bn(bn))
    states = [indicator_poly(name, i, node.support) for i in range(node.support)]
    if not evidence:
        return QueryResult("distribution", tuple(engine.one_pass(s) for s in states))
    inds, den, assumptions = _evidence_mass(engine, bn, normalize_evidence(bn, evidence))
    vector = tuple(engine.one_pass(s, *inds) / den for s in states)
    return QueryResult("distribution", vector, assumptions)


def _sample_evidence(bn: BayesNet, evidence):
    """A sample-count query's evidence, normalized: non-empty, on a static
    network."""
    if isinstance(bn, DynBayesNet):
        raise UnsupportedError("sample-count queries apply to static networks")
    pairs = normalize_evidence(bn, evidence)
    if not pairs:
        raise QueryError("empty evidence: every sample would be accepted")
    return pairs


def expected_samples(bn: BayesNet, evidence, cross_check: bool = True) -> QueryResult:
    """Expected number of samples drawn until the first one matching the
    evidence, i.e. 1/P(evidence).

    Only the rejection-monitor program is compiled: P(evidence) is one body
    pass over its network variables, and with cross_check the monitor's
    count is solved as well and its limit must equal 1/p exactly.
    """
    pairs = _sample_evidence(bn, evidence)
    monitor = compile_sampling_monitor(bn, pairs)
    engine = MomentEngine(monitor.program)
    _, p, assumptions = _evidence_mass(engine, bn, pairs)
    assumptions = list(assumptions)
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
        _merge(assumptions, limit.assumptions)
        extras.append(("monitor_limit", str(limit.value)))
    return QueryResult("samples", value, tuple(assumptions), extras=tuple(extras))


def expected_positive(bn: BayesNet, evidence, n_samples: int) -> QueryResult:
    """Expected number of evidence-matching instances among n samples,
    n * P(evidence), from one pass on the compiled network."""
    if n_samples < 0:
        raise QueryError(f"sample count must be nonnegative, got {n_samples}")
    pairs = _sample_evidence(bn, evidence)
    _, p, assumptions = _evidence_mass(MomentEngine(compile_bn(bn)), bn, pairs)
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
    poly = _target_poly(dyn.net, target)
    return predict_loop(compile_dynbn(dyn), poly, at, limit)


def predict_loop(
    prog: LoopProgram, poly: Polynomial, at: Optional[int], limit: bool
) -> QueryResult:
    """E[poly] of a loop program over time: the closed form in n, its
    value after `at` iterations, or its limit, which is decided over the
    program's parameter domains; a diverging limit has the value None and
    the diagnostic "diverges"."""
    closed = MomentEngine(prog).closed(poly)
    if at is not None:
        if at < 0:
            raise QueryError(f"horizon must be nonnegative, got {at}")
        return QueryResult("predict", closed.at(at), closed.assumptions)
    if limit:
        lim = expoly_limit(closed.tail, prog.param_map())
        assumptions = list(closed.assumptions)
        _merge(assumptions, lim.assumptions)
        if lim.kind == "diverges":
            return QueryResult(
                "predict", None, tuple(assumptions), diagnostics=("diverges",)
            )
        return QueryResult("predict", lim.value, tuple(assumptions))
    return QueryResult("predict", closed, closed.assumptions)


def forward_filter(dyn: DynBayesNet, observations) -> QueryResult:
    """Posterior over the temporal state after each observation step.

    Implements the forward pass on unnormalized messages: predict one slice
    ahead through the transition model and reweight by the likelihood of
    the step's observations.  The step's belief is emitted as the message
    divided by its total, one division per state.  The carried message is
    not divided by the total: every state is multiplied by one common
    factor, the product of the message's distinct denominators over the
    content of the total's numerator, which leaves the next beliefs
    unchanged.  For a numeric model that factor is 1/total, so the carried
    message is the normalized belief.  For a symbolic one, dividing by the
    total would double the degree at each step (nothing cancels without a
    polynomial gcd); the factor keeps coefficients small and the carried
    message polynomial, so the degree grows linearly in the number of
    steps.  A step may observe any subset of non-temporal discrete nodes;
    an empty step is a pure prediction step.  The one-step distribution is
    the chain-rule joint of the slice (`bayesnet.joint_rows`) given the
    previous state and the step's observations, summed onto the new state
    and memoized per call.
    """
    states, prior = _filter_setup(dyn)
    slices = [_normalize_obs(dyn.net, step) for step in observations]
    for nd in dyn.net.nodes:
        if not nd.is_discrete:
            raise UnsupportedError(
                f"filtering needs an all-discrete slice, {nd.name} is not"
            )
    space = tuple(prior)
    memo: dict = {}
    message = prior
    out = []
    for t, obs in enumerate(slices, start=1):
        new_message = {s: RF_ZERO for s in space}
        for prev, weight in message.items():
            if weight.is_zero():
                continue
            if (prev, obs) not in memo:
                memo[prev, obs] = _step_dist(dyn, prev, obs)
            for state, prob in memo[prev, obs].items():
                new_message[state] = new_message[state] + weight * prob
        total = sum(new_message.values(), RF_ZERO)
        if total.is_zero():
            raise QueryError(
                f"observation step {t} ({obs}) has zero likelihood under "
                "the current belief"
            )
        out.append(tuple(new_message[s] / total for s in space))
        dens: list[Polynomial] = []
        for v in new_message.values():
            if v.den not in dens:
                dens.append(v.den)
        scale = math.prod(dens, start=Polynomial.const(1 / total.num.content()))
        message = {s: RationalFunction(v.num * scale, v.den) for s, v in new_message.items()}
    labels = tuple(", ".join(f"{n}={v}" for n, v in zip(states, s)) for s in space)
    return QueryResult(
        "filter",
        tuple(out),
        extras=(("states", " | ".join(labels)),),
    )


def _step_dist(dyn: DynBayesNet, prev, obs) -> dict:
    """P(next state, obs | previous state) for each reachable next state."""
    dist: dict = {}
    for values, weight in joint_rows(dyn.net, zip(dyn.temporal, prev), obs):
        state = tuple(values[s] for s in dyn.temporal)
        dist[state] = dist.get(state, RF_ZERO) + weight
    return dist


def _normalize_obs(bn: BayesNet, step) -> tuple[tuple[str, int], ...]:
    if not isinstance(step, Mapping) and not isinstance(step, Sequence):
        raise QueryError(f"each observation step must be a mapping, got {step!r}")
    return normalize_evidence(bn, step)


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
        at, limit = _int_field(spec, "at"), _bool_field(spec, "limit", False)
        if at is not None and limit:
            raise QueryError('"at" and "limit" are mutually exclusive')
        return predict(bn, target, at, limit)
    if kind == "filter":
        _require(spec, {"query", "observations"})
        return forward_filter(bn, spec.get("observations", []))
    if kind == "distribution":
        _require(spec, {"query", "node", "evidence"})
        if "node" not in spec:
            raise QueryError('distribution needs a "node"')
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
