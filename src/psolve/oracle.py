"""Independent ground-truth engines for differential testing.

Three oracles, in increasing generality and decreasing precision:

- exact joint enumeration for discrete networks, from the chain-rule
  rows of `bayesnet.joint_rows` (the forward filter's one-step rows come
  from the same function).  Each CPT is cleared of denominators once
  (`symbolic.clear_denominators`), so a row's weight is an int, or a
  polynomial with integer coefficients when the network has parameters,
  over one denominator common to all rows; every query is a column sum
  over those weights with one division at the end;
- exact mean/covariance propagation for linear-Gaussian and conditional
  linear-Gaussian networks, one summary per discrete configuration;
- Monte Carlo simulation of the compiled loop program for anything
  samplable.

The first two keep symbolic parameters exact, so they can cross-check
sensitivity answers too.  The sampler is deterministic given
(seed, sample count, chunk size): it derives every random number from a
counter-based SplitMix64 stream keyed by (seed, draw slot, iteration), so
results never depend on execution order or worker count.  numpy is
imported by the sampler alone (`mc_estimate` and its helpers), so the
exact oracles and a `check` without Monte Carlo never load it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

from .bayesnet import (
    BayesNet,
    CLG,
    CPT,
    DynBayesNet,
    LinearGaussian,
    Node,
    joint_rows,
)
from .errors import QueryError, UnsupportedError
from .parser import parse_poly
from .moments import MomentEngine
from .program import Assignment, LoopProgram
from .queries import forward_filter
from .recurrence import ClosedForm
from .symbolic import (
    Monomial,
    Polynomial,
    RationalFunction,
    RF_ONE,
    RF_ZERO,
    clear_denominators,
)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_STATE_CAP = 1 << 20
DEFAULT_CHUNK = 65536


# -- exact enumeration -----------------------------------------------------


# A cleared weight: an int for a numeric network, a polynomial with integer
# coefficients for a symbolic one.
Weight = Union[int, Polynomial]


@dataclass(frozen=True)
class JointTable:
    """Exact joint distribution of a discrete network: one row per full
    assignment, in the network's node order, with its cleared weight, and
    one denominator common to every row.  A row's probability is its
    weight over `den`.

    Every query is a column sum over the weights: E[poly] sums, for each
    monomial of poly, the weights times the monomial's value on the row,
    and divides once by `den`.  Numeric weights are ints, so a numeric
    query does integer arithmetic until that one division; symbolic
    weights take the same path as polynomials."""

    names: tuple[str, ...]
    rows: tuple[tuple[tuple[int, ...], Weight], ...]
    den: Weight

    @functools.cached_property
    def _column(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def total(self) -> RationalFunction:
        return RationalFunction(self._sum(_ONE_POLY, self.rows), self.den)

    def expectation(self, poly: Polynomial) -> RationalFunction:
        """E[poly] with the polynomial read over node names."""
        return self.expectations([poly])[0]

    def expectations(self, polys: Sequence[Polynomial]) -> list[RationalFunction]:
        """E[poly] for every poly."""
        return [RationalFunction(self._sum(poly, self.rows), self.den) for poly in polys]

    def probability(self, event: Sequence[tuple[str, int]]) -> RationalFunction:
        return RationalFunction(self._sum(_ONE_POLY, self._where(event)), self.den)

    def conditional(self, poly: Polynomial, event) -> RationalFunction:
        """E[poly | event]; raises if the event has no numeric mass.  The
        common denominator cancels from the ratio."""
        rows = self._where(event)
        mass = self._sum(_ONE_POLY, rows)
        if mass == 0:
            raise QueryError(f"event {tuple(event)} has probability zero")
        return RationalFunction(self._sum(poly, rows), mass)

    def _where(self, event) -> list:
        """The rows that agree with every (name, value) pair of the event."""
        cols = [(self._column[name], value) for name, value in event]
        return [row for row in self.rows if all(row[0][c] == v for c, v in cols)]

    def _sum(self, poly: Polynomial, rows) -> Union[Weight, Fraction]:
        """The sum of weight * poly(assignment) over the rows: one column
        sum per monomial, times its coefficient."""
        out = 0
        for mono, coeff in poly.terms.items():
            cols = [(self._column[s], e) for s, e in mono.powers]
            column = 0
            for assignment, weight in rows:
                for c, e in cols:
                    v = assignment[c]
                    if not v:
                        break
                    if v != 1:
                        weight = weight * v**e
                else:
                    column = column + weight
            out = out + (column if coeff == 1 else coeff * column)
        return out


_ONE_POLY = Polynomial.const(1)


def enumerate_discrete(bn: BayesNet, cap: int = DEFAULT_STATE_CAP) -> JointTable:
    """The exact joint of an all-discrete network whose state space fits
    under the cap.  Each CPT is cleared of denominators once
    (`symbolic.clear_denominators`); the rows are the chain-rule rows of
    `bayesnet.joint_rows` over those cleared tables, and the common
    denominator is the product of the CPTs' clearing factors."""
    size = 1
    for node in bn.nodes:
        if not node.is_discrete:
            raise UnsupportedError(
                f"cannot enumerate {node.name}: it is continuous"
            )
        size *= node.support
        if size > cap:
            raise UnsupportedError(
                f"state space exceeds {cap} assignments; raise the cap to "
                "enumerate this network"
            )
    symbolic = bool(bn.params)
    tables: dict[str, dict] = {}
    den: Weight = 1
    for node in bn.nodes:
        if isinstance(node.model, CPT):
            tables[node.name], scale = clear_denominators(node.model.weights, symbolic)
            den = den * scale
    names = bn.node_names
    rows = tuple(
        (tuple(values[n] for n in names), weight)
        for values, weight in joint_rows(bn, tables=tables)
    )
    return JointTable(names, rows, den)


# -- Gaussian propagation --------------------------------------------------


@dataclass(frozen=True)
class GaussianSummary:
    """First two moments of the continuous nodes under one assignment of
    the discrete nodes."""

    config: tuple[tuple[str, int], ...]
    weight: RationalFunction
    names: tuple[str, ...]
    mean: tuple[RationalFunction, ...]
    cov: tuple[tuple[RationalFunction, ...], ...]

    def index(self, name: str) -> int:
        return self.names.index(name)


@dataclass(frozen=True)
class GaussianMixture:
    """All configuration summaries of a (conditional) linear-Gaussian
    network, with exact mixture moments."""

    summaries: tuple[GaussianSummary, ...]

    def _select(self, evidence) -> tuple[GaussianSummary, ...]:
        if not evidence:
            return self.summaries
        keep = []
        for s in self.summaries:
            env = dict(s.config)
            if all(env.get(name) == value for name, value in evidence):
                keep.append(s)
        if not keep:
            raise QueryError(f"no configuration matches {tuple(evidence)}")
        return tuple(keep)

    def moment1(self, name: str, evidence=()) -> RationalFunction:
        chosen = self._select(evidence)
        num = RF_ZERO
        den = RF_ZERO
        for s in chosen:
            num = num + s.weight * s.mean[s.index(name)]
            den = den + s.weight
        return num / den

    def moment2(self, a: str, b: Optional[str] = None, evidence=()) -> RationalFunction:
        """E[a*b | evidence] (b defaults to a, giving the raw second
        moment)."""
        b = a if b is None else b
        chosen = self._select(evidence)
        num = RF_ZERO
        den = RF_ZERO
        for s in chosen:
            i, j = s.index(a), s.index(b)
            second = s.cov[i][j] + s.mean[i] * s.mean[j]
            num = num + s.weight * second
            den = den + s.weight
        return num / den


def gaussian_propagate(bn: BayesNet) -> GaussianMixture:
    """Exact means and covariances of every continuous node, per discrete
    configuration, weighted by the discrete subnet's joint."""
    discrete = [nd for nd in bn.nodes if nd.is_discrete]
    continuous = [name for name in bn.order if not bn.node(name).is_discrete]
    if not continuous:
        raise UnsupportedError("network has no continuous nodes to propagate")
    if discrete:
        sub = BayesNet(
            params=bn.params,
            nodes=tuple(discrete),
            order=tuple(n for n in bn.order if bn.node(n).is_discrete),
        )
        table = enumerate_discrete(sub)
        configs = [
            (tuple(zip(table.names, assignment)), RationalFunction(weight, table.den))
            for assignment, weight in table.rows
        ]
    else:
        configs = [((), RF_ONE)]

    summaries = []
    for config, weight in configs:
        env = dict(config)
        mean: dict[str, RationalFunction] = {}
        cov: dict[tuple[str, str], RationalFunction] = {}
        for name in continuous:
            lg = _linear_model(bn.node(name), env)
            mu = lg.intercept
            for parent, coeff in lg.coeffs:
                mu = mu + coeff * mean[parent]
            mean[name] = mu
            for other in continuous:
                if other == name:
                    break
                c = RF_ZERO
                for parent, coeff in lg.coeffs:
                    c = c + coeff * _cov(cov, parent, other)
                cov[(name, other)] = cov[(other, name)] = c
            var = lg.variance
            for pa, ca in lg.coeffs:
                for pb, cb in lg.coeffs:
                    var = var + ca * cb * _cov(cov, pa, pb)
            cov[(name, name)] = var
        names = tuple(continuous)
        summaries.append(
            GaussianSummary(
                config=config,
                weight=weight,
                names=names,
                mean=tuple(mean[n] for n in names),
                cov=tuple(
                    tuple(_cov(cov, a, b) for b in names) for a in names
                ),
            )
        )
    return GaussianMixture(tuple(summaries))


def _cov(cov, a: str, b: str) -> RationalFunction:
    return cov.get((a, b), RF_ZERO)


def _linear_model(node: Node, env: Mapping[str, int]) -> LinearGaussian:
    m = node.model
    if isinstance(m, LinearGaussian):
        return m
    if isinstance(m, CLG):
        assignment = tuple(env[p] for p in m.parents)
        return m.branch(assignment)
    raise UnsupportedError(f"node {node.name} is not linear-Gaussian")


# -- Monte Carlo simulation ------------------------------------------------

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64_scalar(x: int) -> int:
    x &= _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    return x


def _stream_key(*parts: int) -> int:
    h = _GAMMA
    for p in parts:
        h = _mix64_scalar(h ^ (p & _MASK))
        h = (h * _GAMMA + 1) & _MASK
    return h


def _mix64(x: np.ndarray) -> np.ndarray:
    import numpy as np

    x = x.copy()
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _uniforms(key: int, start: int, count: int) -> np.ndarray:
    """count uniforms in (0, 1) at counter positions start..start+count-1."""
    import numpy as np

    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    bits = _mix64(np.uint64(key) + idx * np.uint64(_GAMMA))
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) / float(1 << 53)


@dataclass(frozen=True)
class MCEstimate:
    target: str
    mean: float
    stderr: float
    n_samples: int


class _Simulator:
    """Vectorized execution of a parameter-free loop program."""

    def __init__(self, prog: LoopProgram, seed: int, chunk: int):
        self.prog = prog
        self.seed = seed
        self.chunk = chunk
        self.slots: dict[tuple, int] = {}
        for i, init in enumerate(prog.inits):
            for sym in _draw_syms(prog, init.expr):
                self._slot(("init", i, sym))
        for i, upd in enumerate(prog.updates):
            self._slot(("select", i))
            for br in upd.branches:
                for sym in _draw_syms(prog, br.expr):
                    self._slot(("update", i, sym))

    def _slot(self, key) -> int:
        if key not in self.slots:
            self.slots[key] = len(self.slots)
        return self.slots[key]

    def _draw(self, key, iteration: int, start: int, count: int) -> np.ndarray:
        import numpy as np

        slot = self.slots[key]
        sym = key[2]
        spec = self.prog.draws[sym]
        k1 = _stream_key(self.seed, slot, iteration, 0)
        u = _uniforms(k1, start, count)
        if spec.kind == "bern":
            p = float(spec.arg.const_value())
            return (u < p).astype(np.float64)
        if spec.kind == "unif01":
            return u
        if spec.kind == "gauss0":
            k2 = _stream_key(self.seed, slot, iteration, 1)
            u2 = _uniforms(k2, start, count)
            z = np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * math.pi * u2)
            return math.sqrt(float(spec.arg.const_value())) * z
        raise UnsupportedError(f"unknown draw kind {spec.kind}")

    def run_chunk(self, start: int, count: int, n_iters: int) -> dict[str, np.ndarray]:
        env: dict[str, np.ndarray] = {}
        for i, init in enumerate(self.prog.inits):
            for sym in _draw_syms(self.prog, init.expr):
                env[sym] = self._draw(("init", i, sym), 0, start, count)
            env[init.target] = _eval_poly(init.expr, env, count)
        for t in range(n_iters):
            for i, upd in enumerate(self.prog.updates):
                env[upd.target] = self._step(i, upd, t, env, start, count)
        return env

    def _step(self, i: int, upd: Assignment, t: int, env, start, count):
        values = []
        for br in upd.branches:
            for sym in _draw_syms(self.prog, br.expr):
                env[sym] = self._draw(("update", i, sym), t, start, count)
            values.append(_eval_poly(br.expr, env, count))
        if len(values) == 1:
            return values[0]
        key = _stream_key(self.seed, self.slots[("select", i)], t, 0)
        u = _uniforms(key, start, count)
        out = values[-1].copy()
        acc = 0.0
        for br, val in zip(upd.branches[:-1], values[:-1]):
            p = float(br.prob.const_value())
            mask = (u >= acc) & (u < acc + p)
            out[mask] = val[mask]
            acc += p
        return out


def _draw_syms(prog: LoopProgram, poly: Polynomial) -> list[str]:
    syms = {s for s in poly.symbols() if s in prog.draws}
    return sorted(syms, key=lambda s: (len(s), s))


def _eval_poly(poly: Polynomial, env: Mapping[str, np.ndarray], count: int) -> np.ndarray:
    import numpy as np

    out = np.zeros(count)
    for mono, coeff in poly.terms.items():
        term = np.full(count, float(coeff))
        for s, e in mono.powers:
            term = term * env[s] ** e
        out += term
    return out


def mc_estimate(
    model: Union[BayesNet, DynBayesNet, LoopProgram],
    targets: Sequence[Union[str, Monomial, Polynomial]],
    n_samples: int,
    seed: int = 0,
    n_iters: int = 1,
    chunk: int = DEFAULT_CHUNK,
) -> list[MCEstimate]:
    """Sample means and standard errors of target expressions after
    n_iters loop iterations.  The model must have no free parameters:
    bind them first (`bayesnet.bind`, `program.bind`)."""
    import numpy as np

    if n_samples < 1:
        raise QueryError(f"sample count must be positive, got {n_samples}")
    prog = model.engine.prog if isinstance(model, (BayesNet, DynBayesNet)) else model
    missing = [p.name for p in prog.params]
    if missing:
        raise QueryError(
            f"simulation needs numeric values for parameters {missing}"
        )
    polys = []
    for t in targets:
        if isinstance(t, Polynomial):
            polys.append((str(t), t))
        elif isinstance(t, Monomial):
            polys.append((str(t), Polynomial({t: Fraction(1)})))
        else:
            polys.append(
                (t, parse_poly(t, tuple(v for v in prog.variables), ()))
            )
    sim = _Simulator(prog, seed, chunk)
    sums = [0.0] * len(polys)
    sqsums = [0.0] * len(polys)
    done = 0
    while done < n_samples:
        count = min(chunk, n_samples - done)
        env = sim.run_chunk(done, count, n_iters)
        for j, (_, poly) in enumerate(polys):
            vals = _eval_poly(poly, env, count)
            sums[j] += float(np.sum(vals))
            sqsums[j] += float(np.sum(vals * vals))
        done += count
    out = []
    for (label, _), s, ss in zip(polys, sums, sqsums):
        mean = s / n_samples
        var = max(ss / n_samples - mean * mean, 0.0)
        stderr = math.sqrt(var / n_samples)
        out.append(MCEstimate(label, mean, stderr, n_samples))
    return out


# -- differential checks ---------------------------------------------------


@dataclass(frozen=True)
class CheckLine:
    label: str
    engine: str
    oracle: str
    ok: bool


def differential_check(
    bn: Union[BayesNet, DynBayesNet],
    mc_samples: Optional[int] = None,
    seed: int = 0,
) -> list[CheckLine]:
    """Engine-vs-oracle comparison on a network's basic moments.

    Every engine value comes from the network's one moment engine
    (`BayesNet.engine`), which the queries on it share.  A pair target
    E[X*Y] goes to the engine as the two factors X and Y, so its walk
    reuses the bucket messages of the E[X] and E[Y] walks up to the bucket
    where the two meet; the enumeration oracle gets the product.  The
    Monte Carlo comparison (enabled by mc_samples) samples the same
    program and accepts anything within four standard errors.  Exact
    oracles compare exactly.  A dynamic network with a continuous node has
    only the Monte Carlo oracle, which needs mc_samples and no free
    parameters; without it the check would compare nothing, so that is an
    UnsupportedError saying why.
    """
    lines: list[CheckLine] = []
    closeds: dict[str, ClosedForm] = {}
    if isinstance(bn, DynBayesNet):
        discrete = all(nd.is_discrete for nd in bn.net.nodes)
        params = [p.name for p in bn.net.params]
        if not discrete and (params or not mc_samples):
            why = "a slice with a continuous node is checked only by Monte Carlo"
            if params:
                why += f", which needs numeric values for the free parameters {params}"
            else:
                why += "; ask for it with --mc N"
            raise UnsupportedError(f"no independent oracle applies: {why}")
        engine = bn.engine
        closeds = {name: engine.closed(Polynomial.var(name)) for name in bn.temporal}
        if discrete:
            lines += _check_dyn(bn, closeds)
    else:
        if all(nd.is_discrete for nd in bn.nodes):
            table = enumerate_discrete(bn)
            total = table.total()
            lines.append(CheckLine("joint total", "1", str(total), total == RF_ONE))
            xs = {nd.name: Polynomial.var(nd.name) for nd in bn.nodes}
            splits = [(f"E[{a}]", (x,)) for a, x in xs.items()] + [
                (f"E[{a}*{b}]", (xs[a], xs[b])) for a, b in itertools.combinations(xs, 2)
            ]
            wants = table.expectations([math.prod(fs[1:], start=fs[0]) for _, fs in splits])
            targets = [(label, fs, want) for (label, fs), want in zip(splits, wants)]
        else:
            mix = gaussian_propagate(bn)
            targets = []
            for name in bn.order:
                if not bn.node(name).is_discrete:
                    x = Polynomial.var(name)
                    targets.append((f"E[{name}]", (x,), mix.moment1(name)))
                    targets.append((f"E[{name}^2]", (x ** 2,), mix.moment2(name)))
        engine = bn.engine
        for label, factors, want in targets:
            got = engine.one_pass(*factors)
            lines.append(CheckLine(label, str(got), str(want), got == want))
    if mc_samples:
        lines += _check_mc(bn, engine, closeds, mc_samples, seed)
    return lines


def _check_dyn(dyn: DynBayesNet, closeds: Mapping[str, ClosedForm]) -> list[CheckLine]:
    """Closed forms of an all-discrete dynamic network's temporal nodes
    against forward filtering without observations."""
    lines = []
    horizon = 3
    beliefs = forward_filter(dyn, [{}] * horizon).value
    shape = [dyn.net.node(v).support for v in dyn.temporal]
    space = tuple(itertools.product(*map(range, shape)))
    for name in dyn.temporal:
        closed = closeds[name]
        idx = dyn.temporal.index(name)
        for t in range(1, horizon + 1):
            want = RF_ZERO
            for state, prob in zip(space, beliefs[t - 1]):
                want = want + prob * Fraction(state[idx])
            got = closed.at(t)
            lines.append(
                CheckLine(f"E[{name}] at n={t}", str(got), str(want), got == want)
            )
    return lines


def _check_mc(
    bn, engine: MomentEngine, closeds: Mapping[str, ClosedForm], n_samples: int, seed: int
) -> list[CheckLine]:
    """Monte Carlo estimates of every target from one simulation of the
    engine's program; the streams are keyed by draw slot and iteration,
    not by target, so the estimates equal those of one run per target.
    A dynamic network's exact values come from `closeds`, the closed form
    of each temporal node.  A network with free parameters gets no lines:
    the sampler needs numbers."""
    if (bn.net if isinstance(bn, DynBayesNet) else bn).params:
        return []
    lines = []
    if isinstance(bn, DynBayesNet):
        horizon = 5
        names = list(bn.temporal)
        ests = mc_estimate(engine.prog, names, n_samples, seed, n_iters=horizon)
        for name, est in zip(names, ests):
            exact = closeds[name].at(horizon)
            lines.append(_band_line(f"MC E[{name}] at n={horizon}", exact, est))
    else:
        names = [nd.name for nd in bn.nodes]
        ests = mc_estimate(engine.prog, names, n_samples, seed)
        for name, est in zip(names, ests):
            exact = engine.one_pass(Polynomial.var(name))
            lines.append(_band_line(f"MC E[{name}]", exact, est))
    return lines


def _band_line(label: str, exact: RationalFunction, est: MCEstimate) -> CheckLine:
    value = float(exact.const_value())
    band = 4.0 * est.stderr
    ok = abs(est.mean - value) <= max(band, 1e-12)
    return CheckLine(
        label,
        f"{value:.6f}",
        f"{est.mean:.6f} (se {est.stderr:.2e})",
        ok,
    )
