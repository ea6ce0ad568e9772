"""Independent engines: exact enumeration, Gaussian propagation, simulation."""

import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from psolve.bayesnet import CPT, bind, joint_rows, load_bn, load_bn_path
from psolve import moments
from psolve.encode import compile_bn
from psolve.errors import QueryError, SchemaError, UnsupportedError
from psolve.oracle import (
    differential_check,
    enumerate_discrete,
    gaussian_propagate,
    mc_estimate,
)
from psolve.parser import parse_poly, parse_program
from psolve.queries import conditional_moment
from psolve.symbolic import RF_ONE, RF_ZERO, Polynomial

from conftest import random_clgbn, random_discrete_bn, random_discrete_doc, random_gbn

DATA = Path(__file__).resolve().parent.parent / "data"

# a dynamic network's slice whose Gaussian node reads its own previous value
GAUSS_CHAIN = {
    "type": "dynbn",
    "nodes": [{"name": "X", "model": {
        "kind": "lingauss", "intercept": "1", "coeffs": {"X": "1/2"}, "variance": "1"}}],
    "inter_edges": {"X": ["X"]},
    "initial": {"X": 0},
}


def plain_rows(bn) -> list:
    """The assignments of `joint_rows`, each with a plain RationalFunction
    weight: the product, in topological order, of one CPT entry
    `CPT.vector(parent values)[value]` per CPT node."""
    rows = []
    for values, _ in joint_rows(bn):
        weight = RF_ONE
        for name in bn.order:
            m = bn.node(name).model
            if isinstance(m, CPT):
                weight = weight * m.vector(tuple(values[p] for p in m.parents))[values[name]]
        rows.append((values, weight))
    return rows


class TestEnumerateDiscrete:
    def test_single_node(self):
        bn = load_bn(
            {"type": "bn", "nodes": [
                {"name": "X", "model": {"kind": "cpt", "p": ["1/5", "4/5"]}}]}
        )
        table = enumerate_discrete(bn)
        assert table.total() == 1
        assert table.probability([("X", 0)]) == F(1, 5)
        assert table.probability([("X", 1)]) == F(4, 5)
        assert table.expectation(Polynomial.var("X")) == F(4, 5)

    def test_slice_reading_its_own_past_is_unsupported(self):
        with pytest.raises(UnsupportedError) as exc:
            enumerate_discrete(load_bn_path(DATA / "umbrella.json").net)
        assert str(exc.value) == "cannot enumerate R: it reads its own previous value"

    def test_alarm_joint(self):
        bn = load_bn_path(DATA / "alarm.json")
        table = enumerate_discrete(bn)
        assert table.total() == 1
        assert len(table.rows) <= 32
        burglary_given_alarm = table.conditional(Polynomial.var("B"), [("A", 1)])
        assert burglary_given_alarm == F(156670, 419407)

    def test_conditional_zero_evidence(self):
        bn = load_bn(
            {"type": "bn", "nodes": [
                {"name": "X", "model": {"kind": "cpt", "p": ["1", "0"]}}]}
        )
        table = enumerate_discrete(bn)
        with pytest.raises(QueryError):
            table.conditional(Polynomial.var("X"), [("X", 1)])

    def test_det_node(self):
        bn = load_bn(
            {"type": "bn", "nodes": [
                {"name": "A", "model": {"kind": "cpt", "p": ["1/2", "1/2"]}},
                {"name": "B", "model": {"kind": "det", "expr": "1 - A"}},
            ]}
        )
        table = enumerate_discrete(bn)
        assert table.probability([("A", 1), ("B", 0)]) == F(1, 2)
        assert table.probability([("A", 1), ("B", 1)]) == 0

    def test_parametric_det_node_is_unsupported(self):
        # refused where the network loads, so no enumeration meets it
        with pytest.raises(SchemaError) as info:
            load_bn({"type": "bn", "params": ["b"], "nodes": [
                {"name": "A", "model": {"kind": "cpt", "p": ["1/2", "1/2"]}},
                {"name": "B", "model": {"kind": "det", "expr": "b*A"}},
            ]})
        assert str(info.value) == "node B: expr evaluates to b at {'A': 1}, outside 0..1"

    @pytest.mark.parametrize("y_given_x", [
        [["1/4", "3/4"], ["1/2", "1/2"], ["9/10", "1/10"]],
        [["1 - a", "a"], ["1/2", "1/2"], ["a/3", "1 - a/3"]],
    ])
    @pytest.mark.parametrize("target", ["2*X - 1", "X^2", "(2*X - 1)*Y"])
    def test_row_values_other_than_zero_and_one(self, y_given_x, target):
        # A 3-state node makes the target take values like -1, 3 and 4 on
        # the rows; both queries must equal the plain sum over the rows.
        bn = load_bn(
            {"type": "bn", "params": ["a"], "nodes": [
                {"name": "X", "model": {"kind": "cpt", "p": ["1/6", "1/3", "1/2"]}},
                {"name": "Y", "model": {"kind": "cpt", "parents": ["X"], "rows": [
                    {"given": [x], "p": p} for x, p in enumerate(y_given_x)]}},
            ]}
        )
        poly = parse_poly(target, symbols=("X", "Y"))
        table = enumerate_discrete(bn)
        rows = plain_rows(bn)
        want = RF_ZERO
        for values, weight in rows:
            want = want + weight * poly.eval(values)
        got = table.expectation(poly)
        assert got == want and str(got) == str(want)
        num = den = RF_ZERO
        for values, weight in rows:
            if values["Y"] == 1:
                num = num + weight * poly.eval(values)
                den = den + weight
        got = table.conditional(poly, [("Y", 1)])
        assert got == num / den and str(got) == str(num / den)

    def test_expectations_in_one_pass(self):
        # every target of a static check at once equals its own plain sum
        # over the rows, printed form included
        bn = load_bn_path(DATA / "asia.json")
        names = bn.node_names
        polys = [Polynomial.var(a) for a in names] + [
            Polynomial.var(a) * Polynomial.var(b)
            for i, a in enumerate(names) for b in names[i + 1:]
        ]
        rows = plain_rows(bn)
        got = enumerate_discrete(bn).expectations(polys)
        assert len(got) == len(polys) == 36
        for poly, value in zip(polys, got):
            want = RF_ZERO
            for values, weight in rows:
                want = want + weight * poly.eval(values)
            assert value == want and str(value) == str(want), poly
        assert enumerate_discrete(bn).expectations([]) == []

    def test_state_cap(self):
        rng = random.Random(7)
        bn = random_discrete_bn(rng, 12)
        with pytest.raises(UnsupportedError):
            enumerate_discrete(bn, cap=100)


def _cpt_rows(doc: dict) -> list[dict]:
    """Every probability row of a network document, root vectors included."""
    rows = []
    for node in doc["nodes"]:
        model = node["model"]
        if model["kind"] == "cpt":
            rows += model["rows"] if "rows" in model else [model]
    return rows


@st.composite
def _oracle_cases(draw):
    """A random binary network, numeric or with parameters a and r: one
    row becomes (1 - a, a), and in the "ratden" variant another becomes
    (1/(1 + r), r/(1 + r)); plus a random event."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    doc = random_discrete_doc(rng, draw(st.integers(1, 5)), det_share=0.3)
    variant = draw(st.sampled_from(["numeric", "poly", "ratden"]))
    if variant != "numeric":
        doc["params"] = ["a", "r"]
        rows = _cpt_rows(doc)
        picks = rng.sample(rows, min(len(rows), 2))
        picks[0]["p"] = ["1 - a", "a"]
        if variant == "ratden":
            picks[-1]["p"] = ["1/(1 + r)", "r/(1 + r)"]
    bn = load_bn(doc)
    names = bn.node_names
    event = [(name, draw(st.integers(0, 1))) for name in names if draw(st.booleans())]
    return bn, variant, event


@given(_oracle_cases())
@settings(max_examples=60, deadline=None)
def test_table_queries_equal_plain_sums_over_joint_rows(case):
    # total, probability, every check target of expectations and a
    # conditional all equal a plain RationalFunction sum over the rows;
    # with constant CPT denominators the printed forms match too
    bn, variant, event = case
    names = bn.node_names
    polys = [Polynomial.const(1)] + [Polynomial.var(a) for a in names] + [
        Polynomial.var(a) * Polynomial.var(b)
        for i, a in enumerate(names) for b in names[i + 1:]
    ]
    rows = plain_rows(bn)

    def plain(poly, rows):
        out = RF_ZERO
        for values, weight in rows:
            out = out + weight * poly.eval(values)
        return out

    def same(got, want):
        assert got == want
        if variant != "ratden":
            assert str(got) == str(want)

    table = enumerate_discrete(bn)
    same(table.total(), plain(Polynomial.const(1), rows))
    got = table.expectations(polys)
    assert len(got) == 1 + len(names) + len(names) * (len(names) - 1) // 2
    for poly, value in zip(polys, got):
        same(value, plain(poly, rows))
    inside = [(v, w) for v, w in rows if all(v[n] == x for n, x in event)]
    mass = plain(Polynomial.const(1), inside)
    same(table.probability(event), mass)
    target = Polynomial.var(names[-1]) * 2 - Polynomial.var(names[0])
    if mass == 0:
        with pytest.raises(QueryError, match="probability zero"):
            table.conditional(target, event)
    else:
        same(table.conditional(target, event), plain(target, inside) / mass)


class TestGaussianPropagate:
    def test_slice_reading_its_own_past_is_unsupported(self):
        with pytest.raises(UnsupportedError) as exc:
            gaussian_propagate(load_bn(GAUSS_CHAIN).net)
        assert str(exc.value) == "cannot propagate X: it reads its own previous value"

    def test_chain_variance_adds(self):
        bn = load_bn(
            {"type": "bn", "nodes": [
                {"name": "X", "model": {
                    "kind": "lingauss", "intercept": "2", "variance": "3"}},
                {"name": "Y", "model": {
                    "kind": "lingauss", "intercept": "1",
                    "coeffs": {"X": "1"}, "variance": "4"}},
            ]}
        )
        mix = gaussian_propagate(bn)
        assert mix.moment1("Y") == F(3)
        # Var(Y) = 3 + 4, E[Y^2] = Var + mean^2
        assert mix.moment2("Y") == F(7) + F(9)
        assert mix.moment2("X", "Y") == F(3) + F(6)  # Cov + E[X]E[Y]

    def test_scaling_coefficient(self):
        bn = load_bn(
            {"type": "bn", "nodes": [
                {"name": "X", "model": {
                    "kind": "lingauss", "intercept": "0", "variance": "1"}},
                {"name": "Y", "model": {
                    "kind": "lingauss", "intercept": "0",
                    "coeffs": {"X": "-3"}, "variance": "0"}},
            ]}
        )
        mix = gaussian_propagate(bn)
        assert mix.moment1("Y") == 0
        assert mix.moment2("Y") == 9
        assert mix.moment2("X", "Y") == -3

    def test_marks_first_moments(self):
        bn = load_bn_path(DATA / "marks.json")
        mix = gaussian_propagate(bn)
        assert mix.moment1("Stat") == F(1042211, 25000)
        # the average mark is a derived quantity over the three course nodes
        average = (
            mix.moment1("ALG") + mix.moment1("ANL") + mix.moment1("Stat")
        ) / 3
        assert average == F(3470311, 75000)

    def test_rats_mixture(self):
        bn = load_bn_path(DATA / "rats.json")
        mix = gaussian_propagate(bn)
        assert mix.moment1("W2", evidence=[("D", 1)]) == F(751, 50)
        assert mix.moment2("W2", evidence=[("D", 1)]) == F(607089, 2500)

    def test_clg_evidence_selects_configs(self):
        bn = load_bn_path(DATA / "rats.json")
        mix = gaussian_propagate(bn)
        uncond = mix.moment1("W2")
        given_d = mix.moment1("W2", evidence=[("D", 1)])
        assert uncond != given_d


class TestMcEstimate:
    def test_deterministic_across_runs(self):
        bn = load_bn_path(DATA / "alarm.json")
        a = mc_estimate(bn, ["A"], 50_000, seed=3)
        b = mc_estimate(bn, ["A"], 50_000, seed=3)
        assert a[0].mean == b[0].mean
        assert a[0].stderr == b[0].stderr

    def test_seed_changes_result(self):
        bn = load_bn_path(DATA / "alarm.json")
        a = mc_estimate(bn, ["A"], 50_000, seed=3)
        b = mc_estimate(bn, ["A"], 50_000, seed=4)
        assert a[0].mean != b[0].mean

    def test_bernoulli_within_band(self):
        bn = load_bn(
            {"type": "bn", "nodes": [
                {"name": "X", "model": {"kind": "cpt", "p": ["1/2", "1/2"]}}]}
        )
        est = mc_estimate(bn, ["X"], 200_000, seed=0)[0]
        assert abs(est.mean - 0.5) < 4 * est.stderr + 1e-12

    def test_continuous_target(self):
        bn = load_bn_path(DATA / "marks.json")
        est = mc_estimate(bn, ["Stat"], 200_000, seed=1)[0]
        assert abs(est.mean - 41.68844) < 4 * est.stderr

    def test_chunking_invariant(self):
        bn = load_bn_path(DATA / "alarm.json")
        a = mc_estimate(bn, ["A"], 30_000, seed=5, chunk=65536)
        b = mc_estimate(bn, ["A"], 30_000, seed=5, chunk=4096)
        assert a[0].mean == b[0].mean

    def test_param_binding_required(self):
        bn = load_bn_path(DATA / "alarm_sens.json")
        with pytest.raises(QueryError, match="b"):
            mc_estimate(bn, ["A"], 1000, seed=0)

    def test_param_binding_applied(self):
        bn = bind(load_bn_path(DATA / "alarm_sens.json"), {"b": F(1, 2), "q": F(1, 100)})
        est = mc_estimate(bn, ["B"], 200_000, seed=2)[0]
        assert abs(est.mean - 0.5) < 4 * est.stderr

    def test_dynbn_iterations(self):
        dyn = load_bn_path(DATA / "umbrella.json")
        est = mc_estimate(dyn, ["R"], 100_000, seed=0, n_iters=3)[0]
        # E[R] after 3 steps: 1/2 + 1/2 (2/5)^3 = 0.532
        assert abs(est.mean - 0.532) < 4 * est.stderr

    def test_draws_in_initializers(self):
        prog = parse_program(
            "x := bern(1/3); y := gauss(1, 4); "
            "while true { x := 1/2*x + bern(1/2); y := y + x; }")
        engine = moments.MomentEngine(prog)
        targets = ["x", "y", "x*y"]
        estimates = mc_estimate(prog, targets, 200_000, seed=3, n_iters=2)
        for target, want, est in zip(targets, (F(5, 6), F(5, 2), F(41, 16)), estimates):
            assert engine.closed(parse_poly(target, prog.variables, ())).at(2) == want
            assert abs(est.mean - float(want)) < 4 * est.stderr, target


@pytest.mark.parametrize("seed", range(8))
def test_parametric_denominator_rows_match_enumeration(seed):
    # static networks with (1/(1 + r), r/(1 + r)) rows: the compiled program
    # weighs those branches by Bernoulli coins, enumeration sums the rows
    rng = random.Random(seed)
    doc = random_discrete_doc(rng, rng.randint(2, 6), det_share=0.2)
    doc["params"] = [{"name": "r", "domain": ["0", "1"]}]
    rows = _cpt_rows(doc)
    for row in rng.sample(rows, max(1, len(rows) // 2)):
        row["p"] = ["1/(1 + r)", "r/(1 + r)"]
    bn = load_bn(doc)
    table = enumerate_discrete(bn)
    engine = moments.MomentEngine(compile_bn(bn))
    names = bn.node_names
    for a, b in zip(names, names[1:]):
        xa, xb = Polynomial.var(a), Polynomial.var(b)
        assert engine.one_pass(xa) == table.expectation(xa)
        assert engine.one_pass(xa, xb) == table.expectation(xa * xb)
    event = [(names[-1], 1)]
    if not table.probability(event).is_zero():
        got = conditional_moment(bn, names[0], 1, dict(event)).value
        assert got == table.conditional(Polynomial.var(names[0]), event)


class TestDifferentialCheck:
    def test_bundled_networks_consistent(self):
        for name in ("alarm.json", "asia.json", "grass.json", "marks.json",
                     "rats.json", "umbrella.json"):
            lines = differential_check(load_bn_path(DATA / name))
            bad = [l for l in lines if not l.ok]
            assert not bad, (name, bad)

    def test_random_networks_consistent(self):
        rng = random.Random(123)
        for _ in range(5):
            bn = random_discrete_bn(rng, rng.randint(2, 6))
            assert all(l.ok for l in differential_check(bn))
        for _ in range(3):
            bn = random_gbn(rng, rng.randint(2, 5))
            assert all(l.ok for l in differential_check(bn))
        for _ in range(3):
            bn = random_clgbn(rng, rng.randint(1, 2), rng.randint(1, 3))
            assert all(l.ok for l in differential_check(bn))

    def test_dynamic_check_closes_each_node_once(self, monkeypatch):
        # the filter comparison and the Monte Carlo line share one closed
        # form per temporal node
        calls = []
        original = moments.compute_mbis

        def counted(prog, goals, *args, **kwargs):
            calls.append(list(goals))
            return original(prog, goals, *args, **kwargs)

        monkeypatch.setattr(moments, "compute_mbis", counted)
        dyn = load_bn_path(DATA / "umbrella.json")
        lines = differential_check(dyn, mc_samples=2000)
        assert [line.label for line in lines] == [
            "E[R] at n=1", "E[R] at n=2", "E[R] at n=3", "MC E[R] at n=5"]
        assert all(line.ok for line in lines)
        assert len(calls) == len(dyn.temporal) == 1

    def test_mc_lines_included_when_requested(self):
        bn = load_bn_path(DATA / "alarm.json")
        without = differential_check(bn)
        with_mc = differential_check(bn, mc_samples=20_000)
        assert len(with_mc) > len(without)
        assert all(l.ok for l in with_mc)
