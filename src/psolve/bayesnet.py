"""Bayesian network models and their JSON wire format.

A network is a DAG of named nodes.  Discrete nodes carry a conditional
probability table over integer values 0..m-1 (state names map to indices by
declaration order), or a polynomial of their parents when the dependency is
deterministic.  Continuous nodes are linear Gaussians, optionally switched
by discrete parents with one Gaussian per parent configuration.

All probabilities and coefficients are exact: JSON carries them as strings
(or integers), parsed into rationals or parameter expressions.  Binary
floats are rejected at load time so no value is silently approximated.

`load_bn` reads every node entry on its own first, then builds each node
once against all of them: a row's parent assignment needs its parents'
states, and a parent may be declared after its child.  Each CPT row is
checked as it is resolved, its constant probabilities added as integers
over the lcm of their denominators (`symbolic.sums_to_one`, the rule
program validation uses), so a numeric network loads without Fraction
arithmetic.  `bind` rebuilds each node whose model mentions a bound
parameter through the same `_build_node`, which checks it as on loading.

A dynamic network reuses the same node table as a repeating time slice.  A
node may additionally read its own previous-slice value, which appears as
the node's own name in its parent list and must be declared under
"inter_edges".  Initial values for slice zero come from the "initial" map;
a `DynBayesNet` checks their draws and a discrete node's value as programs
do (`check_draw`, `initial_law`), and keeps the laws the latter gives.

`joint_rows` walks an all-discrete network by the chain rule on the
integer weights of `BayesNet.cleared`, each CPT cleared of denominators
once; the enumeration oracle and the forward filter both take their rows
from it.

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
import operator
import re
import sys
from collections.abc import Mapping
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional, Union

from .errors import InputError, ParseError, ProgramError, SchemaError, UnsupportedError
from .parser import RESERVED, parse_draw_expr, parse_poly, parse_ratfun
from .program import (
    DrawRegistry, DrawSpec, binding_error, check_binding, check_draw, finite_outcomes,
    initial_law, is_draw)
from .symbolic import (
    Param, Polynomial, RationalFunction, _number_str, _rf_const, as_coeff, clear_denominators,
    coeff_str, sums_to_one,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# A JSON object: any Mapping, with dict named first, since testing a dict
# against the Mapping ABC alone runs Python code.
_OBJECT = (dict, Mapping)
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
        return m.parents + m.continuous_parents if isinstance(m, CLG) else m.parents

    def state_index(self, value: Union[int, str]) -> int:
        """Map a state name or index to its integer encoding."""
        if self.states is None:
            raise SchemaError(f"node {self.name} is continuous, not discrete")
        return _state_index(self.name, self.states, value)


def _state_index(name: str, states: tuple[str, ...], value: Union[int, str]) -> int:
    if type(value) is int and 0 <= value < len(states):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"bad state {value!r} for node {name}")
    if isinstance(value, str):
        if value in states:
            return states.index(value)
        if value.isdecimal():
            try:
                index = int(value)
            except ValueError:  # more digits than int() converts: no state
                index = len(states)
            if index < len(states):
                return index
        raise SchemaError(f"unknown state {_echo(value)!r} of node {name}")
    if not 0 <= value < len(states):
        raise SchemaError(f"state {_echo(_number_str(value))} out of range for node {name}")
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

    @functools.cached_property
    def cleared(self) -> tuple[dict, Union[int, Polynomial]]:
        """Every CPT cleared of denominators once
        (`symbolic.clear_denominators`): the tables {node name: {parent
        assignment: {value: weight}}}, zero entries dropped, and the
        product of the clearing factors.  A weight is an int when the
        network has no parameters, a polynomial with integer coefficients
        when it has."""
        symbolic = bool(self.params)
        tables: dict[str, dict] = {}
        den: Union[int, Polynomial] = 1
        for nd in self.nodes:
            if isinstance(nd.model, CPT):
                tables[nd.name], scale = clear_denominators(
                    {given: dict(enumerate(vec)) for given, vec in nd.model.rows}, symbolic)
                den = den * scale
        return tables, den

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

    def __post_init__(self):
        """Each draw of an initial value passes `program.check_draw`, and
        then each discrete node's value `program.initial_law`."""
        for name, expr in self.initial:
            for sym in sorted(filter(is_draw, expr.symbols())):
                try:
                    check_draw(self.draws[sym])
                except ProgramError as exc:
                    raise SchemaError(f"initial value of {name}: {exc}") from None
        self.initial_laws

    @functools.cached_property
    def initial_laws(self) -> dict[str, tuple[RationalFunction, ...]]:
        """P(node = v) at slice zero for every discrete node, by
        `program.initial_law`; a value that breaks its rule is a
        SchemaError naming the node."""
        laws = {}
        for node in filter(operator.attrgetter("is_discrete"), self.net.nodes):
            where = f"initial value of {node.name}"
            try:
                laws[node.name] = initial_law(
                    node.name, self.initial_expr(node.name), self.draws, node.support,
                    lambda shown: SchemaError(f"{where}: {shown} is outside the node's support"))
            except ProgramError:  # the one it raises: a draw that is no bern
                raise SchemaError(f"{where}: continuous draw for a discrete node") from None
        return laws

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


def joint_rows(bn: BayesNet, given=(), evidence=()):
    """The chain-rule joint of an all-discrete network as (values, weight)
    rows, drawing the nodes in topological order.

    A row's weight is the product of one entry per CPT node from the
    cleared tables of `bn.cleared`: an int, or a polynomial with integer
    coefficients when the network has parameters.  It is the row's
    probability times the product of the CPTs' clearing factors, which
    `bn.cleared` returns beside the tables.  A table lists no zero entry,
    so no row weighs zero.  A deterministic node multiplies nothing in.

    `given` seeds values that nodes read before they are drawn, which is
    how a dynamic slice sees its previous temporal state.  Rows that
    contradict `evidence` are dropped.
    """
    observed = dict(evidence)
    tables = bn.cleared[0]
    rows = [(dict(given), 1)]
    for name in bn.order:
        m = bn.node(name).model
        nxt = []
        if isinstance(m, CPT):
            table = tables[name]
            for values, weight in rows:
                for value, prob in table[tuple(values[p] for p in m.parents)].items():
                    if observed.get(name, value) == value:
                        nxt.append(({**values, name: value}, weight * prob))
        elif isinstance(m, Deterministic):
            for values, weight in rows:
                value = int(m.expr.eval(values))
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
    declared domain, and values that make a denominator vanish or break a
    rule of the loader are InputErrors naming every binding.  Only the
    nodes whose model mentions a bound parameter are rebuilt, by
    `_build_node`; every other node is carried over as it is."""
    if not values:
        return net
    dynamic = isinstance(net, DynBayesNet)
    bn = net.net if dynamic else net
    sub = check_binding(bn.params, values)
    states_of = {nd.name: nd.states for nd in bn.nodes}
    temporal = net.temporal if dynamic else ()
    try:
        nodes = tuple(
            nd if _model_symbols(nd.model).isdisjoint(sub)
            else _build_node(nd.name, nd.states, _bind_model(nd.model, sub), states_of, temporal)
            for nd in bn.nodes
        )
        bn = replace(bn, params=tuple(p for p in bn.params if p.name not in sub), nodes=nodes)
        if not dynamic:
            return bn
        initial = tuple((name, expr.substitute(sub)) for name, expr in net.initial)
        draws = {sym: spec.subs(sub) for sym, spec in net.draws.items()}
        return replace(net, net=bn, initial=initial, draws=draws)  # checks the draws
    except (ZeroDivisionError, SchemaError) as exc:
        raise binding_error(values, exc) from exc


def _model_symbols(m: LocalModel) -> frozenset[str]:
    """The symbols a local model's expressions mention: its parameters,
    and a deterministic node's parents."""
    if isinstance(m, CPT):
        return frozenset().union(*(p.symbols() for _, vec in m.rows for p in vec))
    if isinstance(m, Deterministic):
        return m.expr.symbols()
    if isinstance(m, LinearGaussian):
        return frozenset().union(
            m.intercept.symbols(), m.variance.symbols(), *(c.symbols() for _, c in m.coeffs)
        )
    return frozenset().union(*(_model_symbols(lg) for _, lg in m.table))


def _bind_model(m: LocalModel, sub) -> Union[_Rows, LinearGaussian]:
    """m, no deterministic node's, with sub substituted, in the shape
    `_build_node` builds from."""
    if isinstance(m, CPT):
        return _Rows(CPT, m.parents, [(g, tuple(p.subs(sub) for p in vec)) for g, vec in m.rows])
    if isinstance(m, LinearGaussian):
        coeffs = tuple((name, c.subs(sub)) for name, c in m.coeffs)
        return LinearGaussian(m.intercept.subs(sub), coeffs, m.variance.subs(sub))
    return _Rows(CLG, m.parents, [(g, _bind_model(lg, sub)) for g, lg in m.table])


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
    if not isinstance(doc, _OBJECT):
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

    # Only string names can be parents; the others fail in _load_entry.
    names = (e.get("name") for e in raw_nodes if isinstance(e, _OBJECT))
    node_names = {name for name in names if isinstance(name, str)}
    # Every entry is read before any node is built: a row's parent
    # assignment needs its parents' states, and a parent may be declared
    # after its child.
    entries = [_load_entry(e, node_names, param_names) for e in raw_nodes]
    states_of = {name: states for name, states, _ in entries}
    if len(states_of) < len(entries) or not states_of.keys().isdisjoint(param_names):
        _check_names(entries, param_names)
    nodes = tuple(_build_node(*entry, states_of, temporal) for entry in entries)
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
        if not isinstance(entry, _OBJECT) or "name" not in entry:
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
            lo = read_number(dom[0], f"domain of {name}")
            hi = read_number(dom[1], f"domain of {name}")
            if lo >= hi:
                raise SchemaError(f"empty domain ({lo}, {hi}) for parameter {name}")
        params.append(Param(name, lo, hi))
    return tuple(params)


def _load_inter_edges(raw) -> tuple[str, ...]:
    if not isinstance(raw, _OBJECT):
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


_NODE_KEYS = frozenset({"name", "states", "model", "comment"})
_CPT_KEYS = frozenset({"kind", "parents", "rows", "p", "comment"})
_ROW_KEYS = frozenset({"given", "p", "comment"})
_DET_KEYS = frozenset({"kind", "expr", "comment"})
_GAUSS_KEYS = frozenset({"kind", "intercept", "coeffs", "variance", "comment"})
_CLG_KEYS = frozenset({"kind", "parents", "table", "comment"})


class _Rows(NamedTuple):
    """A CPT's or CLG's rows as the file lists them: each 'given' still
    holds state names or indices, which `_build_node` resolves."""

    kind: type  # CPT or CLG
    parents: tuple[str, ...]
    rows: list  # (given, probability vector or LinearGaussian)


# A node entry read on its own: its name, states and local model, whose
# rows `_build_node` resolves against the other entries' states.
_Entry = tuple[str, Optional[tuple[str, ...]], Union[_Rows, Deterministic, LinearGaussian]]


def _load_entry(entry, node_names, param_names) -> _Entry:
    if not isinstance(entry, _OBJECT) or "name" not in entry:
        raise SchemaError(f"bad node entry {entry!r}")
    name = entry["name"]
    if not isinstance(name, str) or not _NAME_RE.match(name) or name in RESERVED:
        raise SchemaError(f"bad node name {name!r}")
    where = f"node {name}"
    if not entry.keys() <= _NODE_KEYS:
        raise SchemaError(f"{where}: unknown keys {sorted(set(entry) - _NODE_KEYS)}")
    model = entry.get("model")
    if not isinstance(model, _OBJECT) or "kind" not in model:
        raise SchemaError(f'{where}: "model" must be an object with a "kind"')
    kind = model["kind"]
    states = _load_states(entry["states"], where) if "states" in entry else None
    if kind == "cpt":
        rows = _load_cpt(model, where, node_names, param_names)
        width = len(rows.rows[0][1])
        if states is None:
            states = tuple(map(str, range(width)))
        elif len(states) != width:
            raise SchemaError(
                f"{where}: {len(states)} states but probability vectors of length {width}"
            )
        return name, states, rows
    if kind == "det":
        return name, states or ("0", "1"), _load_det(model, where, node_names, param_names)
    if kind == "lingauss":
        if states is not None:
            raise SchemaError(f"{where}: a Gaussian node has no states")
        return name, None, _load_lingauss(model, where, param_names)
    if kind == "clg":
        if states is not None:
            raise SchemaError(f"{where}: a Gaussian node has no states")
        return name, None, _load_clg(model, where, node_names, param_names)
    raise SchemaError(f"{where}: unknown model kind {kind!r}")


def _load_states(raw, where) -> tuple[str, ...]:
    if (
        not isinstance(raw, list)
        or len(raw) < 2
        or not all(isinstance(s, str) for s in raw)
        or len(set(raw)) != len(raw)
    ):
        raise SchemaError(f"{where}: states must be >= 2 distinct strings")
    return tuple(raw)


def _load_cpt(model, where, node_names, param_names) -> _Rows:
    if not model.keys() <= _CPT_KEYS:
        raise SchemaError(f"{where}: unknown model keys {sorted(set(model) - _CPT_KEYS)}")
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
    read = functools.partial(_ratfun, param_names=param_names, where=f"{where} probability")
    rows = []
    for row in raw_rows:
        if not isinstance(row, _OBJECT) or not row.keys() <= _ROW_KEYS:
            raise SchemaError(f"{where}: each row is {{'given': [...], 'p': [...]}}")
        given, vec = row.get("given", []), row.get("p")
        if not isinstance(given, list) or len(given) != len(parents):
            raise SchemaError(
                f"{where}: row 'given' must list one value per parent {list(parents)}"
            )
        if not isinstance(vec, list) or len(vec) < 2:
            raise SchemaError(f"{where}: row 'p' must list >= 2 probabilities")
        rows.append((given, tuple(map(read, vec))))
    width = len(rows[0][1])
    if any(len(vec) != width for _, vec in rows):
        raise SchemaError(f"{where}: probability vectors differ in length")
    return _Rows(CPT, parents, rows)


def _load_det(model, where, node_names, param_names) -> Deterministic:
    if not model.keys() <= _DET_KEYS:
        raise SchemaError(f"{where}: unknown model keys {sorted(set(model) - _DET_KEYS)}")
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
    if not model.keys() <= _GAUSS_KEYS:
        raise SchemaError(f"{where}: unknown model keys {sorted(set(model) - _GAUSS_KEYS)}")
    if "variance" not in model:
        raise SchemaError(f"{where}: a Gaussian needs a variance")
    intercept = _ratfun(model.get("intercept", 0), param_names, f"{where} intercept")
    variance = _ratfun(model["variance"], param_names, f"{where} variance")
    raw_coeffs = model.get("coeffs", {})
    if not isinstance(raw_coeffs, _OBJECT):
        raise SchemaError(f'{where}: "coeffs" must map parent -> coefficient')
    coeffs = tuple(
        (parent, _ratfun(value, param_names, f"{where} coefficient of {parent}"))
        for parent, value in raw_coeffs.items()
    )
    return LinearGaussian(intercept=intercept, coeffs=coeffs, variance=variance)


def _load_clg(model, where, node_names, param_names) -> _Rows:
    if not model.keys() <= _CLG_KEYS:
        raise SchemaError(f"{where}: unknown model keys {sorted(set(model) - _CLG_KEYS)}")
    parents = model.get("parents")
    if not isinstance(parents, list) or not parents:
        raise SchemaError(f"{where}: clg needs discrete parents")
    parents = _parent_list(parents, where, node_names)
    raw_table = model.get("table")
    if not isinstance(raw_table, list) or not raw_table:
        raise SchemaError(f'{where}: clg needs a "table" list')
    table = []
    for row in raw_table:
        if not isinstance(row, _OBJECT) or "given" not in row:
            raise SchemaError(f"{where}: each table row needs a 'given' assignment")
        given = row["given"]
        if not isinstance(given, list) or len(given) != len(parents):
            raise SchemaError(
                f"{where}: row 'given' must list one value per parent {list(parents)}"
            )
        lg_doc = {k: v for k, v in row.items() if k != "given"}
        lg_doc["kind"] = "lingauss"
        table.append((given, _load_lingauss(lg_doc, where, param_names)))
    return _Rows(CLG, parents, table)


def _parent_list(raw, where, node_names) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(map(isinstance, raw, itertools.repeat(str))):
        raise SchemaError(f'{where}: "parents" must be a list of node names')
    if not node_names.issuperset(raw):
        unknown = next(p for p in raw if p not in node_names)
        raise SchemaError(f"{where}: unknown parent {unknown!r}")
    if len(set(raw)) != len(raw):
        raise SchemaError(f"{where}: duplicate parent")
    return tuple(raw)


def _load_initial(raw, net: BayesNet, registry: DrawRegistry):
    if not isinstance(raw, _OBJECT):
        raise SchemaError('"initial" must map node -> expression')
    initial: list[tuple[str, Polynomial]] = []
    for name, value in raw.items():
        net.node(name)  # raises on unknown names
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
        initial.append((name, expr))
    return tuple(initial)


# -- validation ------------------------------------------------------------


def _check_names(entries: list[_Entry], param_names) -> None:
    """Raises on the first entry whose name an earlier entry or a parameter
    already has."""
    seen: set[str] = set()
    for name, _, _ in entries:
        if name in seen:
            raise SchemaError(f"node {name} declared twice")
        if name in param_names:
            raise SchemaError(f"{name} names both a node and a parameter")
        seen.add(name)


def _build_node(name, states, model, states_of: Mapping, temporal) -> Node:
    """The node of one entry, checked against every node's states
    (`states_of`, by name; None for a continuous node).  A CPT's or CLG's
    rows get their parent assignments as integer state indices."""
    where = f"node {name}"
    kind = model.kind if type(model) is _Rows else type(model)
    parents = model.parents
    gaussians = [model] if kind is LinearGaussian else []
    if kind is CLG:
        gaussians = [lg for _, lg in model.rows]
        parents += tuple(dict.fromkeys(p for lg in gaussians for p in lg.parents))
    if any(lg.variance.is_const() and lg.variance.const_value() < 0 for lg in gaussians):
        raise SchemaError(f"{where}: negative variance")
    if name in parents and name not in temporal:
        raise SchemaError(f"{where}: depends on itself (missing inter edge?)")
    if kind is LinearGaussian:
        for p in parents:
            if _parent_states(where, states_of, p) is not None:
                raise SchemaError(
                    f"{where}: discrete parent {p} in a plain Gaussian mean; "
                    "use a clg model instead"
                )
        return Node(name, states, model)
    tables = list(map(states_of.get, model.parents))
    if None in tables:  # an unknown or a continuous parent
        for p in model.parents:
            if _parent_states(where, states_of, p) is None:
                raise SchemaError(
                    f"{where}: continuous node {p} cannot parent a discrete dependency"
                )
    size = math.prod(map(len, tables))
    if kind is Deterministic:
        top = len(states) - 1
        finite_outcomes(model.expr, list(zip(model.parents, map(len, tables))), top + 1,
                        lambda v, at: SchemaError(
                            f"{where}: expr evaluates to {v} at {at}, outside 0..{top}"),
                        f"{where} has {size} parent assignments")
        return Node(name, states, model)
    outside = functools.partial(_outside, where)
    # each row's parent assignment as state indices, and the row checked
    rows = {}
    for given, row in model.rows:
        idx = tuple(map(_state_index, model.parents, tables, given))
        if idx in rows:
            raise SchemaError(f"{where}: duplicate row for assignment {list(given)}")
        if kind is CPT and not sums_to_one(row, outside):
            raise _sum_error(where, given, row)
        rows[idx] = row
    if kind is CPT:
        if len(rows) != size:
            raise SchemaError(f"{where}: {len(rows)} rows but {size} parent assignments")
        return Node(name, states, CPT(model.parents, tuple(rows.items())))
    if len(rows) != size:
        raise SchemaError(f"{where}: {len(rows)} table rows but {size} assignments")
    for lg in rows.values():
        for cp in lg.parents:
            if _parent_states(where, states_of, cp) is not None:
                raise SchemaError(
                    f"{where}: discrete parent {cp} belongs in the clg "
                    "'parents' list, not in coefficients"
                )
    return Node(name, states, CLG(model.parents, tuple(rows.items())))


def _parent_states(where: str, states_of: Mapping, parent: str) -> Optional[tuple[str, ...]]:
    if parent not in states_of:
        raise SchemaError(f"{where}: unknown parent {parent!r}")
    return states_of[parent]


def _outside(where: str, value: Fraction) -> SchemaError:
    """The error for a CPT probability outside [0, 1]."""
    return SchemaError(f"{where}: probability {_number_str(value)} outside [0, 1]")


def _sum_error(where: str, given, vec: tuple[RationalFunction, ...]) -> SchemaError:
    """The error for a CPT row whose probabilities do not sum to 1; `given`
    is the row's parent assignment as the error shows it."""
    total = sum(map(as_coeff, vec), Fraction(0))
    return SchemaError(f"{where}: probabilities for {list(given)} sum to {coeff_str(total)}")


def _topo_order(nodes: tuple[Node, ...], temporal) -> tuple[str, ...]:
    """Kahn's algorithm by layers: a node's layer is one past that of its
    last dependency placed, and the order lists the layers in turn, each
    in declaration order."""
    temporal = set(temporal)
    deps = {nd.name: set(nd.parents) - ({nd.name} & temporal) for nd in nodes}
    missing = {name: len(parents) for name, parents in deps.items()}
    children: dict[str, list[str]] = {name: [] for name in deps}
    for name, parents in deps.items():
        for parent in parents:
            children[parent].append(name)
    placed = [name for name, count in missing.items() if not count]
    layer = dict.fromkeys(placed, 0)
    for name in placed:  # first in, first out: by layers, so a node's last
        for child in children[name]:  # dependency placed is its deepest
            missing[child] -= 1
            if not missing[child]:
                layer[child] = layer[name] + 1
                placed.append(child)
    if len(placed) < len(deps):
        pending = {name: parents for name, parents in deps.items() if name not in layer}
        raise SchemaError("dependency cycle: " + " -> ".join(_find_cycle(pending, set(layer))))
    return tuple(sorted(deps, key=layer.__getitem__))


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


def read_number(value, where: str, error: type[InputError] = SchemaError) -> Fraction:
    """A number given as an int or as a string that Fraction reads; any other
    value raises error(f"{where}: ..."), worded for a long number as in `parse_json`."""
    if isinstance(value, bool):
        raise error(f"{where}: expected a number, found a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise error(f"{where}: write numbers as strings, not binary floats")
    if not isinstance(value, str):
        raise error(f"{where}: expected a number, found {type(value).__name__}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        limit = sys.get_int_max_str_digits()
        problem = f"bad number {value!r}"
        if limit and re.search(rf"\d{{{limit + 1}}}", value):
            problem = f"number has more than {limit} digits"
        raise error(f"{where}: {problem}") from None


def _ratfun(value, param_names, where) -> RationalFunction:
    if isinstance(value, str):
        try:
            return parse_ratfun(value, param_names)
        except ParseError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    if isinstance(value, bool):
        raise SchemaError(f"{where}: expected a number, found a boolean")
    if isinstance(value, int):
        return _rf_const(Fraction(value))
    if isinstance(value, float):
        raise SchemaError(
            f"{where}: {value!r} is a binary float; write it as a string "
            'like "0.95" so it stays exact'
        )
    raise SchemaError(f"{where}: expected a value, found {type(value).__name__}")
