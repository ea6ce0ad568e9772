"""Factored evidence: a static query passes its target and one indicator
per evidence node to `MomentEngine.one_pass`, which eliminates the
variables bucket by bucket instead of expanding the product first, and
builds each bucket message once per engine."""

import itertools
import math
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from psolve.bayesnet import load_bn, load_bn_path
from psolve.encode import compile_bn, indicator_poly
from psolve.errors import QueryError
from psolve.moments import MomentEngine
from psolve.oracle import differential_check, enumerate_discrete
from psolve.queries import (
    conditional_moment,
    expected_samples,
    joint_moment,
    node_distribution,
)
from psolve.symbolic import Polynomial

DATA = Path(__file__).resolve().parent.parent / "data"


def _vector(rng, size):
    """A random probability vector of `size` entries, zeros allowed."""
    cuts = sorted(rng.randint(0, 12) for _ in range(size - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [12])]
    return [str(F(p, 12)) for p in parts]


def mixed_doc(rng, n_nodes):
    """A random network of two- and three-state CPT nodes."""
    names = [f"X{i}" for i in range(n_nodes)]
    sizes = [rng.choice((2, 2, 3)) for _ in names]
    nodes = []
    for i, name in enumerate(names):
        parents = sorted(rng.sample(range(i), min(i, rng.choice((0, 1, 2, 2, 3)))))
        if not parents:
            model = {"kind": "cpt", "p": _vector(rng, sizes[i])}
        else:
            rows = [{"given": list(given), "p": _vector(rng, sizes[i])}
                    for given in itertools.product(*(range(sizes[p]) for p in parents))]
            model = {"kind": "cpt", "parents": [names[p] for p in parents], "rows": rows}
        nodes.append({"name": name, "model": model})
    return {"type": "bn", "nodes": nodes}


class TestMatchesEnumeration:
    def test_random_networks_with_mixed_evidence(self):
        t0 = time.monotonic()
        rng = random.Random(20261018)
        factored = 0
        for i in range(40):
            bn = load_bn(mixed_doc(rng, rng.randint(2, 7)))
            table = enumerate_discrete(bn)
            target = rng.choice(bn.nodes)
            others = [nd for nd in bn.nodes if nd is not target]
            chosen = rng.sample(others, rng.randint(1, min(4, len(others))))
            event = tuple((nd.name, rng.randrange(nd.support)) for nd in chosen)
            evidence = dict(event)
            factored += sum(value != nd.support - 1 or nd.support > 2
                            for nd, (_, value) in zip(chosen, event)) > 1
            if table.probability(event).is_zero():
                with pytest.raises(QueryError, match="probability zero"):
                    conditional_moment(bn, target.name, 1, evidence)
                continue
            x = Polynomial.var(target.name)
            for k in (1, 2):
                got = conditional_moment(bn, target.name, k, evidence).value
                want = table.conditional(x**k, event)
                assert str(got) == str(want), (i, k, evidence)
            got = node_distribution(bn, target.name, evidence).value
            want = tuple(
                table.conditional(indicator_poly(target.name, v, target.support), event)
                for v in range(target.support)
            )
            assert [str(g) for g in got] == [str(w) for w in want], (i, evidence)
            state = rng.randrange(target.support)
            got = conditional_moment(bn, {target.name: state}, 1, evidence).value
            assert got == want[state], (i, evidence)
            p = table.probability(event)
            assert str(joint_moment(bn, evidence).value) == str(p), (i, evidence)
            samples = expected_samples(bn, evidence, cross_check=False)
            assert dict(samples.extras)["probability"] == str(p), (i, evidence)
        assert factored >= 10
        assert time.monotonic() - t0 < 30.0


def naive_bayes(k):
    """Class C and k binary features; feature j reads 1 with probability
    a_j given C = 1 and b_j given C = 0."""
    a = [F(j % 7 + 2, 10) for j in range(k)]
    b = [F(j % 5 + 1, 9) for j in range(k)]
    nodes = [{"name": "C", "model": {"kind": "cpt", "p": ["2/3", "1/3"]}}]
    for j in range(k):
        nodes.append({"name": f"F{j}", "model": {
            "kind": "cpt", "parents": ["C"], "rows": [
                {"given": [1], "p": [str(1 - a[j]), str(a[j])]},
                {"given": [0], "p": [str(1 - b[j]), str(b[j])]},
            ]}})
    return load_bn({"type": "bn", "nodes": nodes}), a, b


class TestNaiveBayes:
    @pytest.mark.parametrize("k", [20, 30, 40])
    def test_half_negative_evidence_stays_small(self, k, monkeypatch):
        sizes = []
        original = MomentEngine._step

        def counted(self, var, poly):
            sizes.append(len(poly[0]))  # the terms of the packed bucket product
            return original(self, var, poly)

        monkeypatch.setattr(MomentEngine, "_step", counted)
        bn, a, b = naive_bayes(k)
        evidence = {f"F{j}": j % 2 for j in range(k)}
        got = conditional_moment(bn, "C", 1, evidence).value
        # Bayes' rule over the features' likelihoods
        like1, like0 = F(1, 3), F(2, 3)
        for j in range(k):
            like1 *= a[j] if j % 2 else 1 - a[j]
            like0 *= b[j] if j % 2 else 1 - b[j]
        assert got == like1 / (like1 + like0)
        assert sizes and max(sizes) <= 4, max(sizes)


class TestBundledAnswers:
    """Answers pinned from the expanded-product implementation: the factors
    change how the work is done, not one printed character."""

    @pytest.mark.parametrize("net, fn, args, exact, assumptions", [
        ("alarm", conditional_moment, ("B", 1, {"A": 1}), "156670/419407", ()),
        ("alarm", conditional_moment, ({"EQ": 1}, 1, {"M": 1}), "21055540/586817249", ()),
        ("alarm", conditional_moment, ("(1 - EQ)*(1 - B)", 1, {"A": 1, "J": 1}),
         "166167/419407", ()),
        ("alarm", node_distribution, ("A", {"J": 1}),
         "(498741779/521389757, 22647978/521389757)", ()),
        ("alarm_sens", conditional_moment, ("B", 1, {"A": 1}),
         "(-10*b*q - 940*b)/(279*b*q - 939*b - 289*q - 1)",
         ("(-279/1000*b*q + 939/1000*b + 289/1000*q + 1/1000) != 0",)),
        ("alarm_sens", conditional_moment, ("(1 - EQ)*B", 1, {"A": 0, "J": 0, "M": 1}),
         "(-60*b*q + 60*b)/(279*b*q - 939*b - 289*q + 999)",
         ("(5301/2000000*b*q - 17841/2000000*b - 5491/2000000*q + 18981/2000000) != 0",)),
        ("alarm_sens", expected_samples, ({"A": 0, "J": 0},),
         "20000/19/(279*b*q - 939*b - 289*q + 999)",
         ("(5301/20000*b*q - 17841/20000*b - 5491/20000*q + 18981/20000) != 0",
          "|-5301/20000*b*q + 17841/20000*b + 5491/20000*q + 1019/20000| < 1")),
        ("asia", conditional_moment, ("Asia*Lung", 1, {"Dysp": 1}), "2240/2179853", ()),
        ("asia", expected_samples, ({"Asia": 1, "Lung": 1},), "20000/11", ()),
        ("asia", node_distribution, ("Lung", {"Xray": 0, "Dysp": 0, "Smoke": 1}),
         "(1410297/1411547, 1250/1411547)", ()),
        ("grass", conditional_moment, ("R", 1, {"G": 1}), "1001/1101", ()),
        ("rats", conditional_moment, ("W2", 1, {"D": 1}), "751/50", ()),
        ("rats_sens", conditional_moment, ("W2", 1, {"D": 1}), "56/25*a + 751/50", ()),
    ])
    def test_printed_answer(self, net, fn, args, exact, assumptions):
        result = fn(load_bn_path(DATA / f"{net}.json"), *args)
        assert result.exact() == exact
        assert result.assumptions == assumptions


@pytest.fixture
def steps(monkeypatch):
    """The number of `MomentEngine._step` calls made so far: one per
    bucket message built."""
    count = [0]
    original = MomentEngine._step

    def counted(self, var, poly):
        count[0] += 1
        return original(self, var, poly)

    monkeypatch.setattr(MomentEngine, "_step", counted)
    return count


@pytest.fixture
def step_vars(monkeypatch):
    """The variable of every `MomentEngine._step` call made so far."""
    names = []
    original = MomentEngine._step

    def counted(self, var, poly):
        names.append(var)
        return original(self, var, poly)

    monkeypatch.setattr(MomentEngine, "_step", counted)
    return names


def chain(n):
    """Binary chain X0 -> ... -> X{n-1} with rows that differ."""
    nodes = [{"name": "X0", "model": {"kind": "cpt", "p": ["3/5", "2/5"]}}]
    for i in range(1, n):
        p1, p0 = F(i % 7 + 2, 11), F(i % 5 + 1, 13)
        nodes.append({"name": f"X{i}", "model": {
            "kind": "cpt", "parents": [f"X{i - 1}"], "rows": [
                {"given": [1], "p": [str(1 - p1), str(p1)]},
                {"given": [0], "p": [str(1 - p0), str(p0)]},
            ]}})
    return load_bn({"type": "bn", "nodes": nodes})


def grid(n):
    """An n x n binary grid; G{i}_{j} has the parents above and left."""
    nodes = []
    for i in range(n):
        for j in range(n):
            parents = [f"G{a}_{b}" for a, b in ((i - 1, j), (i, j - 1)) if a >= 0 and b >= 0]
            rows = []
            for given in itertools.product((0, 1), repeat=len(parents)):
                p1 = F(1 + 2 * sum(given), 3 + 2 * len(parents))
                rows.append({"given": list(given), "p": [str(1 - p1), str(p1)]})
            model = ({"kind": "cpt", "parents": parents, "rows": rows} if parents
                     else {"kind": "cpt", "p": ["2/3", "1/3"]})
            nodes.append({"name": f"G{i}_{j}", "model": model})
    return load_bn({"type": "bn", "nodes": nodes})


class TestMessageCounts:
    """The expectations of one query share every bucket message they have
    in common: each is built once per engine."""

    def test_chain_conditional_is_one_pass_and_the_targets_bucket(self, steps):
        bn = chain(12)
        MomentEngine(compile_bn(bn)).one_pass(indicator_poly("X11", 1, 2))
        one_pass = steps[0]
        steps[0] = 0
        got = conditional_moment(bn, "X0", 1, {"X11": 1}).value
        assert steps[0] == one_pass + 1, (steps[0], one_pass)
        assert got == enumerate_discrete(bn).conditional(Polynomial.var("X0"), [("X11", 1)])

    def test_check_asia_shares_the_walks_of_its_targets(self, steps):
        lines = differential_check(load_bn_path(DATA / "asia.json"))
        assert len(lines) == 37 and all(line.ok for line in lines)
        assert steps[0] <= 154, steps[0]  # 410 with one walk per target

    def test_grid_conditional_costs_about_one_pass(self, steps):
        t0 = time.monotonic()
        bn = grid(6)
        corners = {"G0_5": 0, "G5_0": 0, "G5_5": 0}
        inds = [indicator_poly(name, value, 2) for name, value in corners.items()]
        MomentEngine(compile_bn(bn)).one_pass(*inds)
        one_pass = steps[0]
        steps[0] = 0
        got = conditional_moment(bn, "G0_0", 1, corners)
        assert got.exact() == "682168308233/2092467098587"
        assert steps[0] <= 1.1 * one_pass, (steps[0], one_pass)
        assert time.monotonic() - t0 < 10.0

    def test_samples_cross_check_reuses_the_evidence_pass(self, steps):
        bn = chain(40)
        evidence = {"X39": 0, "X20": 1}
        alone = expected_samples(bn, evidence, cross_check=False)
        without = steps[0]
        steps[0] = 0
        got = expected_samples(bn, evidence)
        # the count's walks build only the monitor's own buckets (count,
        # continue, ev) and then meet the messages of the P(evidence) pass
        assert steps[0] <= without + 4, (steps[0], without)
        assert got.value == alone.value
        assert dict(got.extras)["monitor_limit"] == str(alone.value)

    @pytest.mark.parametrize("evidence", [{"X39": 0, "X20": 1}, {"X39": 1}, {"X39": 0}])
    def test_samples_after_a_conditional_walks_no_network_variable(self, evidence, step_vars):
        # the monitor's engine is layered on the network's, and a flag's
        # message is its indicator, so the conditional's walks serve it
        bn = chain(40)
        conditional_moment(bn, "X0", 1, evidence)
        step_vars.clear()
        got = expected_samples(bn, evidence)
        network = set(bn.engine.vars)
        assert step_vars and not network & set(step_vars), step_vars
        fresh = expected_samples(chain(40), evidence)
        assert (got.exact(), got.assumptions, got.extras) == (
            fresh.exact(), fresh.assumptions, fresh.extras)


class TestWarmEngine:
    """An engine that has answered other expectations gives the answers a
    fresh engine gives, whatever the order of the questions."""

    @staticmethod
    def _questions(rng, bn):
        """(label, factors of the numerator, factors of the denominator or
        None) for E[X], E[X*Y] as one factor and split, conditionals and
        distribution states."""
        names = [nd.name for nd in bn.nodes]
        xs = {name: Polynomial.var(name) for name in names}
        out = [(f"E[{a}]", [xs[a]], None) for a in names]
        for a, b in itertools.combinations(names, 2):
            out.append((f"E[{a}*{b}]", [xs[a] * xs[b]], None))
            out.append((f"E[{a}]E[{b}]", [xs[a], xs[b]], None))
        for nd in rng.sample(bn.nodes, min(3, len(bn.nodes))):
            others = [o for o in bn.nodes if o is not nd]
            chosen = rng.sample(others, rng.randint(0, min(3, len(others))))
            inds = [indicator_poly(o.name, rng.randrange(o.support), o.support)
                    for o in chosen]
            for v in range(nd.support):
                state = indicator_poly(nd.name, v, nd.support)
                out.append((f"P({nd.name}={v} | {len(inds)})", [state, *inds], inds or None))
            out.append((f"E[{nd.name}^2 | {len(inds)}]", [xs[nd.name] ** 2, *inds], inds or None))
        rng.shuffle(out)
        return out

    def test_shared_engine_matches_fresh_engines_and_enumeration(self):
        t0 = time.monotonic()
        rng = random.Random(20261019)
        asked = 0
        for i in range(12):
            bn = load_bn(mixed_doc(rng, rng.randint(3, 6)))
            table = enumerate_discrete(bn)
            prog = compile_bn(bn)
            warm = MomentEngine(prog)
            for label, num, den in self._questions(rng, bn):
                product = math.prod(num, start=Polynomial.const(1))
                want = table.expectation(product)
                got = warm.one_pass(*num)
                fresh = MomentEngine(prog).one_pass(*num)
                if den is not None:
                    mass = table.expectation(math.prod(den, start=Polynomial.const(1)))
                    if mass.is_zero():
                        continue
                    want = want / mass
                    got = got / warm.one_pass(*den)
                    fresh = fresh / MomentEngine(prog).one_pass(*den)
                assert got.const_value() == fresh.const_value() == want.const_value(), (i, label)
                assert str(got) == str(fresh) == str(want), (i, label)
                asked += 1
            assert warm._messages
        assert asked >= 300, asked
        assert time.monotonic() - t0 < 30.0
