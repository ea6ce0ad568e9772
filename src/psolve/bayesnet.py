"""Bayesian network models and their JSON wire format.

A network is a DAG of named nodes.  Discrete nodes carry a conditional
probability table over integer values 0..m-1 (state names map to indices by
declaration order), or a polynomial of their parents when the dependency is
deterministic.  Continuous nodes are linear Gaussians, optionally switched
by discrete parents with one Gaussian per parent configuration.

All probabilities and coefficients are exact: JSON carries them as strings
(or integers), parsed into rationals or parameter expressions.  Binary
floats are rejected at load time so no value is silently approximated.

A dynamic network reuses the same node table as a repeating time slice.  A
node may additionally read its own previous-slice value, which appears as
the node's own name in its parent list and must be declared under
"inter_edges".  Initial values for slice zero come from the "initial" map.

`joint_rows` walks an all-discrete network by the chain rule; the
enumeration oracle and the forward filter both take their rows from it.

A network object carries the moment engine of its compiled program
(`engine`), built on its first query and kept as long as the object;
`bind`, `dataclasses.replace` and every load give a new object, and so a
new engine.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
import sys
from collections.abc import Mapping
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .errors import InputError, ParseError, SchemaError, UnsupportedError
from .parser import RESERVED, parse_draw_expr, parse_poly, parse_ratfun
from .program import DrawRegistry, DrawSpec, binding_error, check_binding
from .symbolic import (
    Coeff, Param, Polynomial, RationalFunction, RF_ONE, _number_str, _rf_const, as_coeff, coeff_str,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# A state an error echoes is cut to this many characters.
_ECHO_CHARS = 40


def _echo(text: str) -> str:
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "..."

Assignment = tuple[int, ...]


@dataclass(frozen=True)
class CPT:
    """Rows ordered as given in the file; each row is (parent values, vector).

    The vector lists P(X = 0), ..., P(X = m-1) for one parent assignment.
    After loading, assignments hold integer state indices.
    """

    parents: tuple[str, ...]
    rows: tuple[tuple[Assignment, tuple[RationalFunction, ...]], ...]

    @property
    def support(self) -> int:
        return len(self.rows[0][1])

    def vector(self, assignment: Assignment) -> tuple[RationalFunction, ...]:
        return self._by_assignment[assignment]

    @functools.cached_property
    def _by_assignment(self) -> dict:
        return dict(self.rows)

    @functools.cached_property
    def weights(self) -> dict:
        """{parent assignment: {value: probability}} with the zero entries
        dropped: the weight table `joint_rows` multiplies by default."""
        return {given: {v: p for v, p in enumerate(vec) if p} for given, vec in self.rows}


@dataclass(frozen=True)
class LinearGaussian:
    """X ~ N(intercept + sum of coeff * parent, variance)."""

    intercept: RationalFunction
    coeffs: tuple[tuple[str, RationalFunction], ...]
    variance: RationalFunction

    @property
    def parents(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.coeffs)


@dataclass(frozen=True)
class CLG:
    """One LinearGaussian per assignment of the discrete parents."""

    parents: tuple[str, ...]
    table: tuple[tuple[Assignment, LinearGaussian], ...]

    def branch(self, assignment: Assignment) -> LinearGaussian:
        return self._by_assignment[assignment]

    @functools.cached_property
    def _by_assignment(self) -> dict:
        return dict(self.table)

    @property
    def continuous_parents(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(name for _, lg in self.table for name in lg.parents))


@dataclass(frozen=True)
class Deterministic:
    """X := expr(parents), values inside the node's support."""

    expr: Polynomial
    parents: tuple[str, ...]


LocalModel = Union[CPT, LinearGaussian, CLG, Deterministic]


@dataclass(frozen=True)
class Node:
    name: str
    states: Optional[tuple[str, ...]]  # None for continuous nodes
    model: LocalModel

    @property
    def is_discrete(self) -> bool:
        return self.states is not None

    @property
    def support(self) -> int:
        if self.states is None:
            raise SchemaError(f"node {self.name} is continuous and has no support")
        return len(self.states)

    @property
    def parents(self) -> tuple[str, ...]:
        m = self.model
        if isinstance(m, (CPT, Deterministic, LinearGaussian)):
            return m.parents
        return m.parents + m.continuous_parents

    def state_index(self, value: Union[int, str]) -> int:
        """Map a state name or index to its integer encoding."""
        if self.states is None:
            raise SchemaError(f"node {self.name} is continuous, not discrete")
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise SchemaError(f"bad state {value!r} for node {self.name}")
        if isinstance(value, str):
            if value in self.states:
                return self.states.index(value)
            if value.isdecimal():
                try:
                    index = int(value)
                except ValueError:  # more digits than int() converts: no state
                    index = len(self.states)
                if index < len(self.states):
                    return index
            raise SchemaError(f"unknown state {_echo(value)!r} of node {self.name}")
        if not 0 <= value < len(self.states):
            raise SchemaError(
                f"state {_echo(_number_str(value))} out of range for node {self.name}"
            )
        return value


@dataclass(frozen=True)
class BayesNet:
    params: tuple[Param, ...]
    nodes: tuple[Node, ...]
    order: tuple[str, ...]  # a topological order over node names

    def node(self, name: str) -> Node:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown node {name!r}") from None

    @functools.cached_property
    def _by_name(self) -> dict[str, Node]:
        return {nd.name: nd for nd in self.nodes}

    @functools.cached_property
    def engine(self):
        """The `MomentEngine` of this network's compiled program, built on
        first use; every query on this object reads it."""
        from . import encode
        from .moments import MomentEngine

        return MomentEngine(encode.compile_bn(self))

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(nd.name for nd in self.nodes)

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (parent, nd.name) for nd in self.nodes for parent in nd.parents
        )


@dataclass(frozen=True)
class DynBayesNet:
    """A repeating slice plus temporal self-edges and initial values."""

    net: BayesNet
    temporal: tuple[str, ...]  # nodes reading their own previous-slice value
    initial: tuple[tuple[str, Polynomial], ...]
    draws: Mapping[str, DrawSpec]  # draw symbols used by initial expressions

    def initial_expr(self, name: str) -> Polynomial:
        expr = self._initial_by_name.get(name)
        return Polynomial.zero() if expr is None else expr

    @functools.cached_property
    def _initial_by_name(self) -> dict[str, Polynomial]:
        return dict(self.initial)

    @functools.cached_property
    def engine(self):
        """The `MomentEngine` of this network's compiled program, built on
        first use; every query on this object reads it."""
        from . import encode
        from .moments import MomentEngine

        return MomentEngine(encode.compile_dynbn(self))

    def edges(self) -> tuple[tuple[str, str], ...]:
        intra = tuple(
            (parent, nd.name)
            for nd in self.net.nodes
            for parent in nd.parents
            if not (parent == nd.name and nd.name in self.temporal)
        )
        return intra + tuple((name, name) for name in self.temporal)


# -- chain rule ------------------------------------------------------------


def joint_rows(bn: BayesNet, given=(), evidence=(), tables=None):
    """The chain-rule joint of an all-discrete network as (values, weight)
    rows, drawing the nodes in topological order.

    A row's weight is the product of one entry per CPT node, read from
    `tables[name][parent assignment][value]`.  The default tables are the
    CPTs' own probabilities (`CPT.weights`); the enumeration oracle passes
    the same tables with their denominators cleared.  A table lists no
    zero entry, so no row weighs zero.  The weights start at one, as a
    `RationalFunction` for the default tables and as the int 1 for given
    ones, and a deterministic node multiplies nothing in.

    `given` seeds values that nodes read before they are drawn, which is
    how a dynamic slice sees its previous temporal state.  Rows that
    contradict `evidence` are dropped.
    """
    observed = dict(evidence)
    rows = [(dict(given), RF_ONE if tables is None else 1)]
    for name in bn.order:
        m = bn.node(name).model
        nxt = []
        if isinstance(m, CPT):
            table = m.weights if tables is None else tables[name]
            for values, weight in rows:
                for value, prob in table[tuple(values[p] for p in m.parents)].items():
                    if observed.get(name, value) == value:
                        nxt.append(({**values, name: value}, weight * prob))
        elif isinstance(m, Deterministic):
            for values, weight in rows:
                try:
                    value = int(m.expr.eval(values))
                except KeyError as exc:
                    raise UnsupportedError(
                        f"deterministic node {name} depends on {exc.args[0]}, "
                        "which has no value to enumerate"
                    ) from None
                if observed.get(name, value) == value:
                    nxt.append(({**values, name: value}, weight))
        else:
            raise UnsupportedError(f"node {name} has no discrete local model to enumerate")
        rows = nxt
    return rows


# -- parameter binding -----------------------------------------------------


def bind(net: Union[BayesNet, DynBayesNet], values: Mapping[str, Fraction]):
    """The network with the given parameters replaced by numbers, the
    others left symbolic.  Names that are not parameters, values outside a
    declared domain, and values that make a denominator vanish or a
    probability leave [0, 1] are InputErrors naming every binding."""
    if not values:
        return net
    bn = net.net if isinstance(net, DynBayesNet) else net
    temporal = net.temporal if isinstance(net, DynBayesNet) else ()
    sub = check_binding(bn.params, values)
    try:
        nodes = tuple(replace(nd, model=_bind_model(nd.model, sub)) for nd in bn.nodes)
        by_name = {nd.name: nd for nd in nodes}
        nodes = tuple(_resolve_node(nd, by_name, temporal) for nd in nodes)
    except (ZeroDivisionError, SchemaError) as exc:
        raise binding_error(values, exc) from exc
    bn = replace(bn, params=tuple(p for p in bn.params if p.name not in sub), nodes=nodes)
    if not isinstance(net, DynBayesNet):
        return bn
    initial = tuple((name, expr.substitute(sub)) for name, expr in net.initial)
    draws = {sym: spec.subs(sub) for sym, spec in net.draws.items()}
    return replace(net, net=bn, initial=initial, draws=draws)


def _bind_model(m: LocalModel, sub) -> LocalModel:
    if isinstance(m, CPT):
        return replace(m, rows=tuple((g, tuple(p.subs(sub) for p in vec)) for g, vec in m.rows))
    if isinstance(m, Deterministic):
        return replace(m, expr=m.expr.substitute(sub))
    if isinstance(m, LinearGaussian):
        coeffs = tuple((name, c.subs(sub)) for name, c in m.coeffs)
        return LinearGaussian(m.intercept.subs(sub), coeffs, m.variance.subs(sub))
    return replace(m, table=tuple((g, _bind_model(lg, sub)) for g, lg in m.table))


# -- JSON ingestion --------------------------------------------------------


def unique_keys(pairs) -> dict:
    """`object_pairs_hook` for `json.loads`: an object that lists one key
    twice is an InputError, where plain `json` keeps the last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"JSON object lists {json.dumps(key)} twice")
        out[key] = value
    return out


def parse_json(text: str, what: str, invalid: str, error: type[InputError] = InputError):
    """json.loads(text) with `unique_keys`.  Text that is not JSON raises
    error(f"{invalid}: {detail}").  An integer with more digits than the
    interpreter converts is valid JSON that Python refuses, so it raises
    error(f"{what}: number has more than N digits"), as the program parser
    says it; the limit itself is left alone."""
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise error(f"{invalid}: {exc}") from exc
    except ValueError:  # an int past the digit limit
        limit = sys.get_int_max_str_digits()
        raise error(f"{what}: number has more than {limit} digits") from None


def load_bn_path(path: Union[str, Path]) -> Union[BayesNet, DynBayesNet]:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"cannot decode {path}: {exc}") from exc
    return load_bn(parse_json(text, str(path), f"{path}: not valid JSON", SchemaError))


def load_bn(doc: Mapping) -> Union[BayesNet, DynBayesNet]:
    """Build and validate a network from a parsed JSON document."""
    if not isinstance(doc, Mapping):
        raise SchemaError("top level must be a JSON object")
    kind = doc.get("type", "bn")
    if kind not in ("bn", "dynbn"):
        raise SchemaError(f"unknown network type {kind!r}")
    known = {"type", "params", "nodes", "comment"}
    if kind == "dynbn":
        known |= {"inter_edges", "initial"}
    extra = set(doc) - known
    if extra:
        raise SchemaError(f"unknown top-level keys {sorted(extra)}")

    params = _load_params(doc.get("params", []))
    param_names = tuple(p.name for p in params)
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise SchemaError('"nodes" must be a non-empty list')

    temporal: tuple[str, ...] = ()
    if kind == "dynbn":
        temporal = _load_inter_edges(doc.get("inter_edges", {}))

    # Only string names can be parents; the others fail in _load_node.
    node_names = {
        e["name"] for e in raw_nodes if isinstance(e, Mapping) and isinstance(e.get("name"), str)
    }
    nodes = tuple(_load_node(e, node_names, param_names) for e in raw_nodes)
    _check_names(nodes, param_names)
    by_name = {nd.name: nd for nd in nodes}
    nodes = tuple(_resolve_node(nd, by_name, temporal) for nd in nodes)
    order = _topo_order(nodes, temporal)
    net = BayesNet(params=params, nodes=nodes, order=order)

    if kind == "bn":
        return net
    for name in temporal:
        node = net.node(name)
        if name not in node.parents:
            raise SchemaError(
                f"inter_edges declares a previous-slice value for {name}, "
                "but its model never reads it"
            )
    registry = DrawRegistry()
    initial = _load_initial(doc.get("initial", {}), net, registry)
    return DynBayesNet(net=net, temporal=temporal, initial=initial, draws=registry.draws)


def _load_params(raw) -> tuple[Param, ...]:
    if not isinstance(raw, list):
        raise SchemaError('"params" must be a list')
    params: list[Param] = []
    for entry in raw:
        if isinstance(entry, str):
            entry = {"name": entry}
        if not isinstance(entry, Mapping) or "name" not in entry:
            raise SchemaError(f"bad parameter entry {entry!r}")
        name = entry["name"]
        if not isinstance(name, str) or not _NAME_RE.match(name) or name in RESERVED:
            raise SchemaError(f"bad parameter name {name!r}")
        if any(p.name == name for p in params):
            raise SchemaError(f"parameter {name} declared twice")
        lo = hi = None
        if "domain" in entry:
            dom = entry["domain"]
            if not isinstance(dom, list) or len(dom) != 2:
                raise SchemaError(f"domain of {name} must be a [lo, hi] pair")
            lo = _fraction(dom[0], f"domain of {name}")
            hi = _fraction(dom[1], f"domain of {name}")
            if lo >= hi:
                raise SchemaError(f"empty domain ({lo}, {hi}) for parameter {name}")
        params.append(Param(name, lo, hi))
    return tuple(params)


def _load_inter_edges(raw) -> tuple[str, ...]:
    if not isinstance(raw, Mapping):
        raise SchemaError('"inter_edges" must be an object')
    temporal: list[str] = []
    for name, parents in raw.items():
        if not isinstance(parents, list):
            raise SchemaError(f"inter_edges[{name!r}] must be a list")
        for parent in parents:
            if parent != name:
                raise SchemaError(
                    f"node {name} may only read its own previous-slice value, "
                    f"not {parent!r}"
                )
        if parents:
            temporal.append(name)
    return tuple(temporal)


def _load_node(entry, node_names, param_names) -> Node:
    if not isinstance(entry, Mapping) or "name" not in entry:
        raise SchemaError(f"bad node entry {entry!r}")
    name = entry["name"]
    if not isinstance(name, str) or not _NAME_RE.match(name) or name in RESERVED:
        raise SchemaError(f"bad node name {name!r}")
    where = f"node {name}"
    extra = set(entry) - {"name", "states", "model", "comment"}
    if extra:
        raise SchemaError(f"{where}: unknown keys {sorted(extra)}")
    model = entry.get("model")
    if not isinstance(model, Mapping) or "kind" not in model:
        raise SchemaError(f'{where}: "model" must be an object with a "kind"')
    kind = model["kind"]

    states: Optional[tuple[str, ...]] = None
    if "states" in entry:
        raw_states = entry["states"]
        if (
            not isinstance(raw_states, list)
            or len(raw_states) < 2
            or not all(isinstance(s, str) for s in raw_states)
            or len(set(raw_states)) != len(raw_states)
        ):
            raise SchemaError(f"{where}: states must be >= 2 distinct strings")
        states = tuple(raw_states)

    if kind == "cpt":
        cpt = _load_cpt(model, name, node_names, param_names)
        if states is None:
            states = tuple(str(i) for i in range(cpt.support))
        elif len(states) != cpt.support:
            raise SchemaError(
                f"{where}: {len(states)} states but probability vectors "
                f"of length {cpt.support}"
            )
        return Node(name, states, cpt)
    if kind == "det":
        if states is None:
            states = ("0", "1")
        return Node(name, states, _load_det(model, name, node_names, param_names))
    if kind == "lingauss":
        if states is not None:
            raise SchemaError(f"{where}: a Gaussian node has no states")
        return Node(name, None, _load_lingauss(model, where, param_names))
    if kind == "clg":
        if states is not None:
            raise SchemaError(f"{where}: a Gaussian node has no states")
        return Node(name, None, _load_clg(model, name, param_names))
    raise SchemaError(f"{where}: unknown model kind {kind!r}")


def _load_cpt(model, name, node_names, param_names) -> CPT:
    where = f"node {name}"
    extra = set(model) - {"kind", "parents", "rows", "p", "comment"}
    if extra:
        raise SchemaError(f"{where}: unknown model keys {sorted(extra)}")
    parents = _parent_list(model.get("parents", []), where, node_names)
    raw_rows = model.get("rows")
    if raw_rows is None:
        if "p" not in model:
            raise SchemaError(f'{where}: a cpt needs "rows" (or "p" for a root)')
        if parents:
            raise SchemaError(f'{where}: "p" shorthand is only for parentless nodes')
        raw_rows = [{"given": [], "p": model["p"]}]
    if not isinstance(raw_rows, list) or not raw_rows:
        raise SchemaError(f'{where}: "rows" must be a non-empty list')
    rows = []
    for row in raw_rows:
        if not isinstance(row, Mapping) or set(row) - {"given", "p", "comment"}:
            raise SchemaError(f"{where}: each row is {{'given': [...], 'p': [...]}}")
        given = row.get("given", [])
        if not isinstance(given, list) or len(given) != len(parents):
            raise SchemaError(
                f"{where}: row 'given' must list one value per parent {list(parents)}"
            )
        vec = row.get("p")
        if not isinstance(vec, list) or len(vec) < 2:
            raise SchemaError(f"{where}: row 'p' must list >= 2 probabilities")
        probs = tuple(_ratfun(v, param_names, f"{where} probability") for v in vec)
        rows.append((tuple(given), probs))  # state names resolved later
    width = len(rows[0][1])
    for _, vec in rows:
        if len(vec) != width:
            raise SchemaError(f"{where}: probability vectors differ in length")
    return CPT(parents=parents, rows=tuple(rows))


def _load_det(model, name, node_names, param_names) -> Deterministic:
    where = f"node {name}"
    extra = set(model) - {"kind", "expr", "comment"}
    if extra:
        raise SchemaError(f"{where}: unknown model keys {sorted(extra)}")
    raw = model.get("expr")
    if not isinstance(raw, str):
        raise SchemaError(f'{where}: det needs an "expr" string')
    try:
        expr = parse_poly(raw, node_names, param_names)
    except ParseError as exc:
        raise SchemaError(f"{where}: bad expr: {exc}") from exc
    parents = tuple(s for s in sorted(expr.symbols()) if s in node_names)
    return Deterministic(expr=expr, parents=parents)


def _load_lingauss(model, where, param_names) -> LinearGaussian:
    extra = set(model) - {"kind", "intercept", "coeffs", "variance", "comment"}
    if extra:
        raise SchemaError(f"{where}: unknown model keys {sorted(extra)}")
    if "variance" not in model:
        raise SchemaError(f"{where}: a Gaussian needs a variance")
    intercept = _ratfun(model.get("intercept", 0), param_names, f"{where} intercept")
    variance = _ratfun(model["variance"], param_names, f"{where} variance")
    raw_coeffs = model.get("coeffs", {})
    if not isinstance(raw_coeffs, Mapping):
        raise SchemaError(f'{where}: "coeffs" must map parent -> coefficient')
    coeffs = tuple(
        (parent, _ratfun(value, param_names, f"{where} coefficient of {parent}"))
        for parent, value in raw_coeffs.items()
    )
    if variance.is_const() and variance.const_value() < 0:
        raise SchemaError(f"{where}: negative variance")
    return LinearGaussian(intercept=intercept, coeffs=coeffs, variance=variance)


def _load_clg(model, name, param_names) -> CLG:
    where = f"node {name}"
    extra = set(model) - {"kind", "parents", "table", "comment"}
    if extra:
        raise SchemaError(f"{where}: unknown model keys {sorted(extra)}")
    parents = model.get("parents")
    if not isinstance(parents, list) or not parents:
        raise SchemaError(f"{where}: clg needs discrete parents")
    raw_table = model.get("table")
    if not isinstance(raw_table, list) or not raw_table:
        raise SchemaError(f'{where}: clg needs a "table" list')
    table = []
    for row in raw_table:
        if not isinstance(row, Mapping) or "given" not in row:
            raise SchemaError(f"{where}: each table row needs a 'given' assignment")
        given = row["given"]
        if not isinstance(given, list) or len(given) != len(parents):
            raise SchemaError(
                f"{where}: row 'given' must list one value per parent {list(parents)}"
            )
        lg_doc = {k: v for k, v in row.items() if k != "given"}
        lg_doc["kind"] = "lingauss"
        table.append((tuple(given), _load_lingauss(lg_doc, where, param_names)))
    return CLG(parents=tuple(parents), table=tuple(table))


def _parent_list(raw, where, node_names) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(p, str) for p in raw):
        raise SchemaError(f'{where}: "parents" must be a list of node names')
    for p in raw:
        if p not in node_names:
            raise SchemaError(f"{where}: unknown parent {p!r}")
    if len(set(raw)) != len(raw):
        raise SchemaError(f"{where}: duplicate parent")
    return tuple(raw)


def _load_initial(raw, net: BayesNet, registry: DrawRegistry):
    if not isinstance(raw, Mapping):
        raise SchemaError('"initial" must map node -> expression')
    initial: list[tuple[str, Polynomial]] = []
    for name, value in raw.items():
        node = net.node(name)  # raises on unknown names
        where = f"initial value of {name}"
        if isinstance(value, bool):
            raise SchemaError(f"{where}: write 0 or 1, not a boolean")
        if isinstance(value, int):
            expr: Polynomial = Polynomial.const(Fraction(value))
        elif isinstance(value, str):
            try:
                expr = parse_draw_expr(value, net.param_names, registry)
            except ParseError as exc:
                raise SchemaError(f"{where}: {exc}") from exc
        else:
            raise SchemaError(f"{where}: expected an integer or expression string")
        if node.is_discrete and expr.is_const():
            c = expr.const_value()
            if c.denominator != 1 or not 0 <= c < node.support:
                raise SchemaError(f"{where}: {c} is outside the node's support")
        initial.append((name, expr))
    return tuple(initial)


# -- validation ------------------------------------------------------------


def _check_names(nodes: tuple[Node, ...], param_names) -> None:
    seen: set[str] = set()
    for nd in nodes:
        if nd.name in seen:
            raise SchemaError(f"node {nd.name} declared twice")
        if nd.name in param_names:
            raise SchemaError(f"{nd.name} names both a node and a parameter")
        seen.add(nd.name)


def _resolve_node(nd: Node, by_name: Mapping[str, Node], temporal) -> Node:
    """Check one node against the full table, given by name; returns the
    node with state names in assignments replaced by integer indices."""
    where = f"node {nd.name}"
    for parent in nd.parents:
        if parent == nd.name and nd.name not in temporal:
            raise SchemaError(f"{where}: depends on itself (missing inter edge?)")

    def known(name: str) -> Node:
        p = by_name.get(name)
        if p is None:
            raise SchemaError(f"{where}: unknown parent {name!r}")
        return p

    def discrete_parent(name: str) -> Node:
        p = known(name)
        if not p.is_discrete:
            raise SchemaError(
                f"{where}: continuous node {name} cannot parent a discrete "
                "dependency"
            )
        return p

    m = nd.model
    if isinstance(m, CPT):
        shape = [discrete_parent(p).support for p in m.parents]
        resolved = _resolve_assignments(
            [given for given, _ in m.rows], m.parents, by_name, where
        )
        if len(resolved) != math.prod(shape):
            raise SchemaError(
                f"{where}: {len(resolved)} rows but {math.prod(shape)} "
                "parent assignments"
            )
        for (_, vec), given in zip(m.rows, resolved):
            total: Coeff = Fraction(0)
            for entry in vec:
                c = as_coeff(entry)
                if type(c) is Fraction and not 0 <= c <= 1:
                    raise SchemaError(
                        f"{where}: probability {_number_str(c)} outside [0, 1]"
                    )
                total = total + c
            if total != 1:
                raise SchemaError(
                    f"{where}: probabilities for {list(given)} sum to {coeff_str(total)}"
                )
        rows = tuple((idx, vec) for idx, (_, vec) in zip(resolved, m.rows))
        return replace(nd, model=replace(m, rows=rows))
    if isinstance(m, Deterministic):
        for p in m.parents:
            discrete_parent(p)
        _check_det_range(nd, m, by_name)
        return nd
    if isinstance(m, LinearGaussian):
        for p in m.parents:
            if known(p).is_discrete:
                raise SchemaError(
                    f"{where}: discrete parent {p} in a plain Gaussian mean; "
                    "use a clg model instead"
                )
        return nd
    shape = [discrete_parent(p).support for p in m.parents]
    resolved = _resolve_assignments(
        [given for given, _ in m.table], m.parents, by_name, where
    )
    if len(resolved) != math.prod(shape):
        raise SchemaError(
            f"{where}: {len(resolved)} table rows but {math.prod(shape)} assignments"
        )
    for _, lg in m.table:
        for cp in lg.parents:
            if known(cp).is_discrete:
                raise SchemaError(
                    f"{where}: discrete parent {cp} belongs in the clg "
                    "'parents' list, not in coefficients"
                )
    table = tuple((idx, lg) for idx, (_, lg) in zip(resolved, m.table))
    return replace(nd, model=replace(m, table=table))


def _resolve_assignments(rows, parents, by_name, where) -> list[Assignment]:
    resolved: list[Assignment] = []
    seen: set[Assignment] = set()
    for given in rows:
        idx = tuple(by_name[p].state_index(v) for p, v in zip(parents, given))
        if idx in seen:
            raise SchemaError(f"{where}: duplicate row for assignment {list(given)}")
        seen.add(idx)
        resolved.append(idx)
    return resolved


def _check_det_range(nd: Node, m: Deterministic, by_name) -> None:
    if any(s not in by_name for s in m.expr.symbols()):
        return  # parameters present; the range is the user's promise
    shape = [by_name[p].support for p in m.parents]
    if math.prod(shape) > 4096:
        return
    for assignment in itertools.product(*map(range, shape)):
        value = m.expr.eval(dict(zip(m.parents, map(Fraction, assignment))))
        if value.denominator != 1 or not 0 <= value < nd.support:
            raise SchemaError(
                f"node {nd.name}: expr evaluates to {value} at "
                f"{dict(zip(m.parents, assignment))}, outside 0..{nd.support - 1}"
            )


def _topo_order(nodes: tuple[Node, ...], temporal) -> tuple[str, ...]:
    """Kahn's algorithm by layers: a layer holds the nodes whose last
    dependency was placed in the layer before, in declaration order."""
    temporal = set(temporal)
    deps = {
        nd.name: set(nd.parents) - ({nd.name} if nd.name in temporal else set())
        for nd in nodes
    }
    position = {name: i for i, name in enumerate(deps)}
    missing = {name: len(parents) for name, parents in deps.items()}
    children: dict[str, list[str]] = {name: [] for name in deps}
    for name, parents in deps.items():
        for parent in parents:
            children[parent].append(name)
    order: list[str] = []
    layer = [name for name, count in missing.items() if not count]
    while layer:
        order.extend(layer)
        ready = []
        for name in layer:
            for child in children[name]:
                missing[child] -= 1
                if not missing[child]:
                    ready.append(child)
        layer = sorted(ready, key=position.__getitem__)
    if len(order) < len(deps):
        placed = set(order)
        pending = {name: parents for name, parents in deps.items() if name not in placed}
        raise SchemaError("dependency cycle: " + " -> ".join(_find_cycle(pending, placed)))
    return tuple(order)


def _find_cycle(pending: dict, placed: set) -> list[str]:
    start = next(iter(pending))
    path = [start]
    current = start
    while True:
        nxt = next(p for p in sorted(pending[current]) if p not in placed)
        if nxt in path:
            return path[path.index(nxt):] + [nxt]
        path.append(nxt)
        current = nxt


def _fraction(value, where) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError(f"{where}: expected a number, found a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise SchemaError(f"{where}: write numbers as strings, not binary floats")
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{where}: bad number {value!r}") from exc
    raise SchemaError(f"{where}: expected a number, found {type(value).__name__}")


def _ratfun(value, param_names, where) -> RationalFunction:
    if isinstance(value, bool):
        raise SchemaError(f"{where}: expected a number, found a boolean")
    if isinstance(value, int):
        return _rf_const(Fraction(value))
    if isinstance(value, float):
        raise SchemaError(
            f"{where}: {value!r} is a binary float; write it as a string "
            'like "0.95" so it stays exact'
        )
    if isinstance(value, str):
        try:
            return parse_ratfun(value, param_names)
        except ParseError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    raise SchemaError(f"{where}: expected a value, found {type(value).__name__}")
