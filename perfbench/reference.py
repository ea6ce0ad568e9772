"""Independent exact references for the benchmark's answers.

Nothing here imports psolve.  Models are read straight from their JSON
documents and every computation is plain `Fraction` arithmetic:
enumeration of small discrete joints, 2x2 transfer-matrix products for
chains, Bayes' rule for naive Bayes, the 2^N-state slice chain and its
exact stationary distribution for coupled dynamic networks, and an HMM
forward filter.  psolve's printed answers are read back with `evaluate`,
a small evaluator over exact rationals, so a symbolic answer is compared
with the reference at several rational parameter points.
"""

from __future__ import annotations

import ast
import itertools
import re
from fractions import Fraction
from typing import Mapping, Sequence

# -- reading printed answers -------------------------------------------------


def evaluate(text: str, env: Mapping[str, Fraction] | None = None):
    """Exact value of a printed expression (numbers, names, + - * / ^,
    parentheses and tuples).  Decimal literals are read exactly."""
    env = env or {}
    src = re.sub(r"\d*\.\d+", lambda m: f"({Fraction(m.group())})", text.replace("^", "**"))
    tree = ast.parse(src, mode="eval")

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Tuple):
            return tuple(walk(e) for e in node.elts)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            return env[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            value = walk(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, ast.BinOp):
            a, b = walk(node.left), walk(node.right)
            op = node.op
            if isinstance(op, ast.Add):
                return a + b
            if isinstance(op, ast.Sub):
                return a - b
            if isinstance(op, ast.Mult):
                return a * b
            if isinstance(op, ast.Div):
                return a / b
            if isinstance(op, ast.Pow) and b.denominator == 1:
                return a ** int(b)
        raise ValueError(f"cannot evaluate {ast.dump(node)} in {text!r}")

    return walk(tree)


def closed_form_at(text: str, n: int, env: Mapping[str, Fraction] | None = None) -> Fraction:
    """Value at n of a printed closed form, either `tail` or
    `tail for n >= k; f(0) = v0, f(1) = v1, ...`."""
    tail, sep, rest = text.partition(" for n >= ")
    if sep:
        start_text, _, prefix_text = rest.partition("; ")
        if n < int(start_text):
            for piece in prefix_text.split(", f("):
                index, _, value = piece.removeprefix("f(").partition(") = ")
                if int(index) == n:
                    return evaluate(value, env)
            raise ValueError(f"no prefix value f({n}) in {text!r}")
    return evaluate(tail, {**(env or {}), "n": Fraction(n)})


def _prob(entry, env: Mapping[str, Fraction]) -> Fraction:
    return Fraction(entry) if isinstance(entry, int) else evaluate(entry, env)


# -- discrete networks by enumeration ---------------------------------------


class Joint:
    """Exact joint of an all-discrete static network document, with any
    parameters bound to the given values."""

    def __init__(self, doc: Mapping, env: Mapping[str, Fraction] | None = None):
        env = dict(env or {})
        rows = [({}, Fraction(1))]
        for node in doc["nodes"]:
            name, model = node["name"], node["model"]
            nxt = []
            for values, weight in rows:
                for value, p in _local(model, values, env):
                    if p:
                        nxt.append(({**values, name: value}, weight * p))
            rows = nxt
        self.rows = rows
        self.env = env

    def _value(self, expr, values) -> Fraction:
        if isinstance(expr, Mapping):
            return Fraction(all(values[k] == v for k, v in expr.items()))
        return evaluate(expr, {**self.env, **{k: Fraction(v) for k, v in values.items()}})

    def expect(self, expr, k: int = 1, evidence: Mapping | None = None) -> Fraction:
        evidence = evidence or {}
        num = den = Fraction(0)
        for values, weight in self.rows:
            if all(values[name] == v for name, v in evidence.items()):
                den += weight
                num += weight * self._value(expr, values) ** k
        return num / den


def _local(model: Mapping, values: Mapping[str, int], env):
    if model["kind"] == "det":
        env2 = {**env, **{k: Fraction(v) for k, v in values.items()}}
        return [(int(evaluate(model["expr"], env2)), Fraction(1))]
    parents = model.get("parents", [])
    if not parents:
        vec = model["p"]
    else:
        key = [values[p] for p in parents]
        vec = next(r["p"] for r in model["rows"] if r["given"] == key)
    return [(i, _prob(p, env)) for i, p in enumerate(vec)]


# -- linear-Gaussian means ---------------------------------------------------


def gaussian_mean(doc: Mapping, target: str, config: Mapping[str, int],
                  env: Mapping[str, Fraction] | None = None) -> Fraction:
    """E[target | discrete nodes fixed to config] for lingauss/clg nodes;
    the mean is linear, so it propagates parent means."""
    env = dict(env or {})
    nodes = {nd["name"]: nd["model"] for nd in doc["nodes"]}

    def mean(name: str) -> Fraction:
        model = nodes[name]
        if model["kind"] == "clg":
            key = [config[p] for p in model["parents"]]
            model = next(r for r in model["table"] if r["given"] == key)
        out = evaluate(model["intercept"], env)
        for parent, coeff in model.get("coeffs", {}).items():
            out += evaluate(coeff, env) * mean(parent)
        return out

    return mean(target)


# -- chains and naive Bayes --------------------------------------------------


def _cpt_row(node: Mapping, given: Sequence[int]) -> list[Fraction]:
    rows = node["model"]["rows"]
    return [Fraction(p) for p in next(r["p"] for r in rows if r["given"] == list(given))]


def chain_joint_ends(doc: Mapping) -> list[list[Fraction]]:
    """P(X0 = a, X_{N-1} = b) as a 2x2 table: the prior row times the
    product of the 2x2 transfer matrices M_i[a][b] = P(X_i = b | X_{i-1} = a)."""
    nodes = doc["nodes"]
    prior = [Fraction(p) for p in nodes[0]["model"]["p"]]
    prod = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for node in nodes[1:]:
        m = [_cpt_row(node, [a]) for a in (0, 1)]
        prod = [
            [sum(prod[a][c] * m[c][b] for c in (0, 1)) for b in (0, 1)]
            for a in (0, 1)
        ]
    return [[prior[a] * prod[a][b] for b in (0, 1)] for a in (0, 1)]


def chain_posterior_first(doc: Mapping, last_value: int) -> Fraction:
    """P(X0 = 1 | X_{N-1} = last_value)."""
    t = chain_joint_ends(doc)
    return t[1][last_value] / (t[0][last_value] + t[1][last_value])


def chain_expected_samples(doc: Mapping, last_value: int) -> Fraction:
    """1 / P(X_{N-1} = last_value)."""
    t = chain_joint_ends(doc)
    return 1 / (t[0][last_value] + t[1][last_value])


def naive_posterior(doc: Mapping, evidence: Mapping[str, int]) -> Fraction:
    """P(C = 1 | evidence) by Bayes' rule over the two classes."""
    nodes = {nd["name"]: nd for nd in doc["nodes"]}
    prior = [Fraction(p) for p in nodes["C"]["model"]["p"]]
    score = []
    for c in (0, 1):
        s = prior[c]
        for name, v in evidence.items():
            s *= _cpt_row(nodes[name], [c])[v]
        score.append(s)
    return score[1] / (score[0] + score[1])


# -- coupled dynamic networks ------------------------------------------------


class SliceChain:
    """The Markov chain of whole slices (S_0, ..., S_{N-1}) of a coupled
    dynamic network, on its 2^N states."""

    def __init__(self, doc: Mapping):
        self.nodes = doc["nodes"]
        self.n = len(self.nodes)
        self.states = list(itertools.product((0, 1), repeat=self.n))
        self.index = {s: i for i, s in enumerate(self.states)}
        init = tuple(int(doc["initial"][nd["name"]]) for nd in self.nodes)
        self.initial = [Fraction(s == init) for s in self.states]
        self.matrix = [[self._step(s, t) for t in self.states] for s in self.states]

    def _step(self, prev: tuple, new: tuple) -> Fraction:
        p = Fraction(1)
        for i, node in enumerate(self.nodes):
            given = [prev[i]] if i == 0 else [prev[i], new[i - 1]]
            p *= _cpt_row(node, given)[new[i]]
        return p

    def distribution(self, horizon: int) -> list[Fraction]:
        dist = self.initial
        for _ in range(horizon):
            dist = [
                sum(dist[i] * self.matrix[i][j] for i in range(len(dist)))
                for j in range(len(dist))
            ]
        return dist

    def stationary(self) -> list[Fraction]:
        """pi = pi * P with sum(pi) = 1, by Gauss-Jordan elimination."""
        size = len(self.states)
        rows = [
            [self.matrix[i][j] - (1 if i == j else 0) for i in range(size)] + [Fraction(0)]
            for j in range(size)
        ]
        rows[-1] = [Fraction(1)] * size + [Fraction(1)]
        for col in range(size):
            pivot = next(r for r in range(col, size) if rows[r][col])
            rows[col], rows[pivot] = rows[pivot], rows[col]
            inv = 1 / rows[col][col]
            rows[col] = [x * inv for x in rows[col]]
            for r in range(size):
                if r != col and rows[r][col]:
                    f = rows[r][col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
        return [rows[i][size] for i in range(size)]

    def mean(self, dist: Sequence[Fraction], node: int) -> Fraction:
        return sum((p for s, p in zip(self.states, dist) if s[node]), Fraction(0))


# -- HMM filtering -----------------------------------------------------------


def hmm_filter(doc: Mapping, observations: Sequence[Mapping[str, int]],
               env: Mapping[str, Fraction] | None = None) -> list[tuple[Fraction, Fraction]]:
    """Forward filter of a dynamic network with one binary temporal node
    (reading only its own past) and observed children of that node; returns
    (P(state=0), P(state=1)) after each step."""
    env = dict(env or {})
    state = next(iter(doc["inter_edges"]))
    models = {nd["name"]: nd["model"] for nd in doc["nodes"]}
    init = doc["initial"][state]
    if isinstance(init, int):
        belief = [Fraction(init == 0), Fraction(init == 1)]
    else:
        p1 = evaluate(init.removeprefix("bern(").removesuffix(")"), env)
        belief = [1 - p1, p1]

    def row(name: str, given: int) -> list[Fraction]:
        rows = models[name]["rows"]
        return [_prob(p, env) for p in next(r["p"] for r in rows if r["given"] == [given])]

    out = []
    for obs in observations:
        new = [sum(belief[a] * row(state, a)[b] for a in (0, 1)) for b in (0, 1)]
        for name, value in obs.items():
            new = [new[b] * row(name, b)[value] for b in (0, 1)]
        total = new[0] + new[1]
        belief = [x / total for x in new]
        out.append((belief[0], belief[1]))
    return out
