"""User-facing query layer over engine and networks."""

import json
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import psolve.oracle
import psolve.queries
from psolve.bayesnet import bind, load_bn, load_bn_path
from psolve.encode import indicator_poly, normalize_evidence
from psolve.errors import QueryError, UnsupportedError
from psolve.oracle import differential_check, enumerate_discrete
from psolve.queries import (
    conditional_moment,
    expected_positive,
    expected_samples,
    forward_filter,
    joint_moment,
    node_distribution,
    predict,
    run_query,
    sensitivity,
)
from psolve.symbolic import Polynomial, RationalFunction, decimal_str

DATA = Path(__file__).resolve().parent.parent / "data"


def rf(v):
    return RationalFunction(v)


@pytest.fixture(scope="module")
def alarm():
    return load_bn_path(DATA / "alarm.json")


@pytest.fixture(scope="module")
def alarm_sens():
    return load_bn_path(DATA / "alarm_sens.json")


@pytest.fixture(scope="module")
def asia():
    return load_bn_path(DATA / "asia.json")


@pytest.fixture(scope="module")
def umbrella():
    return load_bn_path(DATA / "umbrella.json")


class TestConditionalMoment:
    def test_alarm_burglary_given_alarm(self, alarm):
        res = conditional_moment(alarm, "B", 1, {"A": 1})
        assert res.value == F(156670, 419407)
        assert res.exact() == "156670/419407"
        assert res.decimal() == "0.373551"

    def test_event_target(self, alarm):
        res = conditional_moment(alarm, {"EQ": 1}, 1, {"M": 1})
        assert res.decimal() == "0.035881"

    def test_polynomial_target(self, alarm):
        # P(no quake and no burglary | alarm, john calls)
        res = conditional_moment(alarm, "(1 - EQ)*(1 - B)", 1, {"A": 1, "J": 1})
        assert res.decimal() == "0.396195"

    def test_zero_probability_evidence(self):
        bn = load_bn(
            {"type": "bn", "nodes": [
                {"name": "X", "model": {"kind": "cpt", "p": ["1", "0"]}}]}
        )
        with pytest.raises(QueryError, match="zero"):
            conditional_moment(bn, "X", 1, {"X": 1})

    def test_empty_evidence_rejected(self, alarm):
        with pytest.raises(QueryError, match="evidence"):
            conditional_moment(alarm, "B", 1, {})

    def test_second_moment(self, alarm):
        # B is 0/1 so E[B^2 | A] = E[B | A]
        a = conditional_moment(alarm, "B", 2, {"A": 1})
        b = conditional_moment(alarm, "B", 1, {"A": 1})
        assert a.value == b.value


class TestSensitivity:
    SPEC = {"query": "conditional", "target": "B", "evidence": {"A": 1}}

    def test_alarm_closed_form(self, alarm_sens):
        res = sensitivity(alarm_sens, self.SPEC)
        b, q = Polynomial.var("b"), Polynomial.var("q")
        num = b * (q * F(1, 100) + F(94, 100))
        den = (
            b * q * F(-279, 1000) + b * F(939, 1000)
            + q * F(289, 1000) + F(1, 1000)
        )
        assert res.value == RationalFunction(num, den)

    def test_denominator_assumption_recorded(self, alarm_sens):
        res = sensitivity(alarm_sens, self.SPEC)
        assert any("!= 0" in a for a in res.assumptions)

    def test_point_binding_matches_numeric(self, alarm_sens):
        res = sensitivity(alarm_sens, self.SPEC)
        bound = res.value.subs({"b": F(1, 1000), "q": F(2, 1000)})
        assert bound == F(156670, 419407)


class TestJointMoment:
    def test_static_first_moment(self, alarm):
        res = joint_moment(alarm, "B")
        assert res.value == F(1, 1000)

    def test_monomial_string(self, asia):
        res = joint_moment(asia, "Asia*Lung")
        assert res.value == F(11, 20000)

    def test_bad_order(self, alarm):
        with pytest.raises(QueryError, match="order"):
            joint_moment(alarm, "B", 0)

    def test_dyn_closed_form(self, umbrella):
        res = joint_moment(umbrella, "R")
        total = res.value.total()
        assert total is not None
        assert total.at(0) == rf(1)
        assert total.at(4) == rf(F(1, 2) + F(1, 2) * F(16, 625))


class TestNodeDistribution:
    def test_alarm_given_evidence(self, alarm):
        res = node_distribution(alarm, "B", {"A": 1})
        p0, p1 = res.value
        assert p0 + p1 == rf(1)
        assert p1 == F(156670, 419407)

    def test_three_state_node(self):
        doc = {
            "type": "bn",
            "nodes": [
                {"name": "X", "states": ["lo", "mid", "hi"],
                 "model": {"kind": "cpt", "p": ["1/2", "1/3", "1/6"]}},
            ],
        }
        bn = load_bn(doc)
        res = node_distribution(bn, "X")
        assert res.value == (rf(F(1, 2)), rf(F(1, 3)), rf(F(1, 6)))

    def test_continuous_node_rejected(self):
        bn = load_bn_path(DATA / "marks.json")
        with pytest.raises(QueryError, match="continuous"):
            node_distribution(bn, "Stat")

    def test_three_state_node_given_evidence(self):
        doc = {
            "type": "bn",
            "nodes": [
                {"name": "X", "states": ["lo", "mid", "hi"],
                 "model": {"kind": "cpt", "p": ["1/2", "1/3", "1/6"]}},
                {"name": "Y", "states": ["a", "b", "c"],
                 "model": {"kind": "cpt", "parents": ["X"], "rows": [
                     {"given": ["lo"], "p": ["1/4", "1/4", "1/2"]},
                     {"given": ["mid"], "p": ["1/5", "3/5", "1/5"]},
                     {"given": ["hi"], "p": ["2/3", "0", "1/3"]},
                 ]}},
            ],
        }
        bn = load_bn(doc)
        table = enumerate_discrete(bn)
        for value in ("a", "b", "c"):
            res = node_distribution(bn, "X", {"Y": value})
            event = normalize_evidence(bn, {"Y": value})
            assert len(res.value) == 3
            for i, p in enumerate(res.value):
                assert p == table.conditional(indicator_poly("X", i, 3), event)
            assert res.assumptions == ()

    def test_symbolic_matches_enumeration(self, alarm_sens):
        table = enumerate_discrete(alarm_sens)
        for name, evidence in (("A", {"J": 1}), ("B", {"M": 1, "J": 0})):
            res = node_distribution(alarm_sens, name, evidence)
            event = normalize_evidence(alarm_sens, evidence)
            for i, p in enumerate(res.value):
                assert p == table.conditional(indicator_poly(name, i, 2), event)
            assert any("!= 0" in a for a in res.assumptions)

    def test_zero_probability_evidence(self):
        bn = load_bn(
            {"type": "bn", "nodes": [
                {"name": "X", "model": {"kind": "cpt", "p": ["1", "0"]}},
                {"name": "Y", "model": {"kind": "cpt", "p": ["1/2", "1/2"]}}]}
        )
        with pytest.raises(QueryError, match="probability zero"):
            node_distribution(bn, "Y", {"X": 1})


@pytest.fixture
def compiles(monkeypatch):
    """Names of the compile functions called through queries and oracle."""
    calls = []
    for module in (psolve.queries, psolve.oracle):
        for name in ("compile_bn", "compile_dynbn", "compile_sampling_monitor"):
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


class TestOneCompilePerCall:
    def test_differential_check(self, asia, compiles):
        assert all(line.ok for line in differential_check(asia))
        assert compiles == ["compile_bn"]

    def test_differential_check_with_monte_carlo(self, alarm, compiles):
        assert all(line.ok for line in differential_check(alarm, mc_samples=2000))
        assert compiles == ["compile_bn"]

    def test_differential_check_dynamic(self, umbrella, compiles):
        assert all(line.ok for line in differential_check(umbrella))
        assert compiles == ["compile_dynbn"]

    def test_node_distribution(self, alarm, compiles):
        node_distribution(alarm, "A", {"J": 1})
        assert compiles == ["compile_bn"]

    def test_expected_samples(self, asia, compiles):
        expected_samples(asia, {"Asia": 1, "Lung": 1})
        assert compiles == ["compile_sampling_monitor"]

    def test_expected_positive_compiles_no_monitor(self, asia, compiles):
        expected_positive(asia, {"Asia": 1, "Lung": 1}, 1000)
        assert compiles == ["compile_bn"]


class TestExpectedSamples:
    def test_asia_exact(self, asia):
        res = expected_samples(asia, {"Asia": 1, "Lung": 1})
        assert res.value == F(20000, 11)
        assert res.decimal(4) == "1818.1818"

    def test_monitor_route_agrees(self, asia):
        res = expected_samples(asia, {"Asia": 1, "Lung": 1})
        extras = dict(res.extras)
        assert extras["monitor_limit"] == "20000/11"
        assert extras["probability"] == "11/20000"

    def test_alarm_joint_calls(self, alarm):
        res = expected_samples(alarm, {"M": 1, "J": 1})
        p = F(dict(res.extras)["probability"])
        assert res.value == 1 / p

    def test_zero_probability(self):
        bn = load_bn(
            {"type": "bn", "nodes": [
                {"name": "X", "model": {"kind": "cpt", "p": ["1", "0"]}}]}
        )
        with pytest.raises(QueryError):
            expected_samples(bn, {"X": 1})

    def test_expected_positive(self, asia):
        res = expected_positive(asia, {"Asia": 1, "Lung": 1}, 1000)
        assert res.value == F(11, 20)


class TestPredict:
    def test_at_step(self, umbrella):
        res = predict(umbrella, "R", at=2)
        assert res.value == F(1, 2) + F(1, 2) * F(4, 25)

    def test_limit(self, umbrella):
        res = predict(umbrella, "R", limit=True)
        assert res.value == F(1, 2)

    def test_limit_symbolic(self):
        dyn = load_bn_path(DATA / "umbrella_sens.json")
        res = predict(dyn, "R", limit=True)
        r = Polynomial.var("r")
        assert res.value == RationalFunction(-3, 10 * r - 13)

    def test_closed_form_default(self, umbrella):
        res = predict(umbrella, "R")
        assert res.kind == "predict"
        assert res.value.at(0) == rf(1)

    def test_negative_horizon(self, umbrella):
        with pytest.raises(QueryError, match="horizon"):
            predict(umbrella, "R", at=-1)


class TestForwardFilter:
    def test_umbrella_two_wet_observations(self):
        dyn = load_bn_path(DATA / "umbrella_filter.json")
        res = forward_filter(dyn, [{"U": 1}, {"U": 1}])
        first, second = res.value
        # state space is (R=0,), (R=1,)
        assert first[1] == rf(F(9, 11))
        assert second[1] == rf(F(621, 703))
        assert decimal_str(second[1].const_value()) == "0.883357"

    def test_each_step_normalizes(self):
        dyn = load_bn_path(DATA / "umbrella_filter.json")
        res = forward_filter(dyn, [{"U": 1}, {}, {"U": 0}])
        for step in res.value:
            assert sum(step, rf(0)) == rf(1)

    def test_empty_observation_is_prediction(self):
        dyn = load_bn_path(DATA / "umbrella_filter.json")
        res = forward_filter(dyn, [{}])
        # fair-coin prior, symmetric transition noise: still 1/2
        assert res.value[0][1] == rf(F(1, 2))

    def test_impossible_observation(self):
        doc = {
            "type": "dynbn",
            "nodes": [
                {"name": "R", "model": {"kind": "cpt", "parents": ["R"], "rows": [
                    {"given": [0], "p": ["0", "1"]},
                    {"given": [1], "p": ["0", "1"]},
                ]}},
                {"name": "U", "model": {"kind": "cpt", "parents": ["R"], "rows": [
                    {"given": [0], "p": ["1", "0"]},
                    {"given": [1], "p": ["0", "1"]},
                ]}},
            ],
            "inter_edges": {"R": ["R"]},
            "initial": {"R": 1},
        }
        dyn = load_bn(doc)
        with pytest.raises(QueryError, match="step 1"):
            forward_filter(dyn, [{"U": 0}])


def _umbrella_steps(seed, steps):
    """Seeded observation steps: umbrella seen, not seen, or not observed."""
    rng = random.Random(seed)
    return [rng.choice(({"U": 1}, {"U": 0}, {})) for _ in range(steps)]


class TestFilterGrowth:
    """The filter carries unnormalized messages, so a symbolic belief's
    degree grows linearly in the number of steps instead of doubling."""

    def test_symbolic_degree_linear_in_steps(self):
        dyn = load_bn_path(DATA / "umbrella_sens.json")
        t0 = time.monotonic()
        res = forward_filter(dyn, _umbrella_steps(20, 20))
        assert time.monotonic() - t0 < 10.0
        assert len(res.value) == 20
        for step in res.value:
            for belief in step:
                assert belief.num.degree() <= 20
                assert belief.den.degree() <= 20

    @staticmethod
    def _assert_matches_bound(dyn, steps, symbolic, points):
        for r in points:
            numeric = forward_filter(bind(dyn, {"r": r}), steps).value
            for sym_step, num_step in zip(symbolic, numeric, strict=True):
                assert [b.eval({"r": r}) for b in sym_step] == [
                    b.const_value() for b in num_step
                ]

    def test_symbolic_beliefs_match_bound_network(self):
        dyn = load_bn_path(DATA / "umbrella_sens.json")
        steps = _umbrella_steps(20, 20)
        symbolic = forward_filter(dyn, steps).value
        self._assert_matches_bound(dyn, steps, symbolic, (F(1, 3), F(1, 2), F(9, 10)))

    def test_parametric_denominators_do_not_compound(self):
        doc = json.loads((DATA / "umbrella_sens.json").read_text())
        doc["nodes"][0]["model"]["rows"][0]["p"] = ["1/(1 + r)", "r/(1 + r)"]
        dyn = load_bn(doc)
        steps = _umbrella_steps(12, 12)
        symbolic = forward_filter(dyn, steps).value
        for t, step in enumerate(symbolic, start=1):
            for belief in step:
                assert belief.num.degree() <= t + 1
                assert belief.den.degree() <= t + 1
        self._assert_matches_bound(dyn, steps, symbolic, (F(1, 2), F(9, 10)))

    def test_numeric_long_run_matches_hand_pass(self):
        dyn = load_bn_path(DATA / "umbrella_filter.json")
        steps = _umbrella_steps(240, 240)
        stay = F(7, 10)  # P(R_t = R_{t-1}) in either state
        wet = {0: F(1, 5), 1: F(9, 10)}  # P(U = 1 | R)
        belief = {0: F(1, 2), 1: F(1, 2)}
        res = forward_filter(dyn, steps)
        assert len(res.value) == 240
        for step, got in zip(steps, res.value):
            pred = {s: belief[s] * stay + belief[1 - s] * (1 - stay) for s in (0, 1)}
            if step:
                u = step["U"]
                pred = {s: p * (wet[s] if u else 1 - wet[s]) for s, p in pred.items()}
            total = pred[0] + pred[1]
            belief = {s: p / total for s, p in pred.items()}
            assert all(b.is_const() for b in got)
            assert [b.const_value() for b in got] == [belief[0], belief[1]]


class TestRunQuery:
    def test_conditional_spec(self, alarm):
        res = run_query(alarm, {
            "query": "conditional", "target": "B", "evidence": {"A": 1}})
        assert res.decimal() == "0.373551"

    def test_samples_spec(self, asia):
        res = run_query(asia, {
            "query": "samples", "evidence": {"Asia": 1, "Lung": 1}})
        assert res.value == F(20000, 11)

    def test_samples_with_population(self, asia):
        res = run_query(asia, {
            "query": "samples", "evidence": {"Asia": 1, "Lung": 1}, "N": 1000})
        assert res.value == F(11, 20)

    def test_missing_query_field(self, alarm):
        with pytest.raises(QueryError, match="query"):
            run_query(alarm, {"kind": "conditional"})

    def test_unknown_kind(self, alarm):
        with pytest.raises(QueryError, match="unknown query kind"):
            run_query(alarm, {"query": "marginalize"})

    def test_unknown_field_rejected(self, alarm):
        with pytest.raises(QueryError, match="unknown query fields"):
            run_query(alarm, {
                "query": "conditional", "target": "B", "evidence": {},
                "tolerance": 0.1})

    def test_filter_spec(self):
        dyn = load_bn_path(DATA / "umbrella_filter.json")
        res = run_query(dyn, {
            "query": "filter", "observations": [{"U": 1}, {"U": 1}]})
        assert res.value[1][1] == rf(F(621, 703))

    def test_predict_spec(self, umbrella):
        res = run_query(umbrella, {"query": "predict", "node": "R", "limit": True})
        assert res.value == F(1, 2)

    def test_distribution_spec(self, alarm):
        res = run_query(alarm, {
            "query": "distribution", "node": "B", "evidence": {"A": 1}})
        assert res.value[1] == F(156670, 419407)

    @pytest.mark.parametrize("net, spec", [
        ("alarm", {"query": "moment", "target": "B", "k": "x"}),
        ("alarm", {"query": "moment", "target": "B", "k": 1.5}),
        ("alarm", {"query": "moment", "target": "B", "k": True}),
        ("alarm", {"query": "moment", "target": "B", "k": None}),
        ("alarm", {"query": "conditional", "target": "B", "k": "2",
                   "evidence": {"A": 1}}),
        ("umbrella", {"query": "predict", "target": "R", "at": "5"}),
        ("umbrella", {"query": "predict", "target": "R", "at": True}),
        ("umbrella", {"query": "predict", "target": "R", "at": 2.0}),
        ("asia", {"query": "samples", "evidence": {"Asia": 1}, "N": "10"}),
        ("asia", {"query": "samples", "evidence": {"Asia": 1}, "N": False}),
    ])
    def test_integer_fields_must_be_integers(self, net, spec):
        bn = load_bn_path(DATA / f"{net}.json")
        field = next(k for k in ("k", "at", "N") if k in spec)
        with pytest.raises(QueryError, match=f'"{field}" must be an integer'):
            run_query(bn, spec)

    @pytest.mark.parametrize("net, spec", [
        ("umbrella", {"query": "predict", "target": "R", "limit": "no"}),
        ("umbrella", {"query": "predict", "target": "R", "limit": 1}),
        ("umbrella", {"query": "predict", "target": "R", "limit": None}),
        ("asia", {"query": "samples", "evidence": {"Asia": 1}, "cross_check": "no"}),
        ("asia", {"query": "samples", "evidence": {"Asia": 1}, "cross_check": 0}),
    ])
    def test_boolean_fields_must_be_booleans(self, net, spec):
        bn = load_bn_path(DATA / f"{net}.json")
        field = next(k for k in ("limit", "cross_check") if k in spec)
        with pytest.raises(QueryError, match=f'"{field}" must be true or false'):
            run_query(bn, spec)


class TestQueryResult:
    def test_json_round_trip(self, alarm):
        res = conditional_moment(alarm, "B", 1, {"A": 1})
        doc = res.to_json()
        again = json.loads(json.dumps(doc))
        assert again["query"] == "conditional"
        assert again["exact"] == "156670/419407"
        assert again["decimal"] == "0.373551"

    def test_assumption_list_always_present(self, alarm):
        res = joint_moment(alarm, "B")
        assert res.assumptions == ()
        assert "assumptions" in res.to_json()

    def test_extras_serialized(self, asia):
        res = expected_samples(asia, {"Asia": 1, "Lung": 1})
        doc = res.to_json()
        assert doc["probability"] == "11/20000"


# Two coupled chains: S0 reads its previous slice, S1 reads its previous
# slice and the new S0 through a general 4-row CPT, and O observes S1.
P_S0 = {0: F(1, 3), 1: F(3, 4)}  # P(S0 = 1 | previous S0)
P_S1 = {(0, 0): F(1, 10), (0, 1): F(1, 2), (1, 0): F(7, 10), (1, 1): F(4, 5)}
P_O = {0: F(1, 4), 1: F(2, 3)}  # P(O = 1 | S1)


def _row(p):
    return [str(1 - p), str(p)]


COUPLED = {
    "type": "dynbn",
    "nodes": [
        {"name": "S0", "model": {"kind": "cpt", "parents": ["S0"], "rows": [
            {"given": [v], "p": _row(P_S0[v])} for v in (0, 1)]}},
        {"name": "S1", "model": {"kind": "cpt", "parents": ["S1", "S0"], "rows": [
            {"given": list(g), "p": _row(p)} for g, p in P_S1.items()]}},
        {"name": "O", "model": {"kind": "cpt", "parents": ["S1"], "rows": [
            {"given": [v], "p": _row(P_O[v])} for v in (0, 1)]}},
    ],
    "inter_edges": {"S0": ["S0"], "S1": ["S1"]},
    "initial": {"S0": "bern(1/2)", "S1": 1},
}

# X flips every slice by reading its own previous value; U is a noisy
# reading of X.
TOGGLE = {
    "type": "dynbn",
    "nodes": [
        {"name": "X", "model": {"kind": "det", "expr": "1 - X"}},
        {"name": "U", "model": {"kind": "cpt", "parents": ["X"], "rows": [
            {"given": [0], "p": ["9/10", "1/10"]},
            {"given": [1], "p": ["1/5", "4/5"]}]}},
    ],
    "inter_edges": {"X": ["X"]},
    "initial": {"X": "bern(1/3)"},
}


class TestSharedChainRule:
    def test_coupled_net_matches_hand_forward_pass(self):
        def bern(p, v):
            return p if v else 1 - p

        steps = [{"O": 1}, {}, {"O": 0}, {}, {"O": 1}, {"O": 1}]
        space = [(0, 0), (0, 1), (1, 0), (1, 1)]
        belief = {(0, 0): F(0), (0, 1): F(1, 2), (1, 0): F(0), (1, 1): F(1, 2)}
        want = []
        for obs in steps:
            new = {}
            for s0n, s1n in space:
                w = sum(belief[s0, s1] * bern(P_S0[s0], s0n) * bern(P_S1[s1, s0n], s1n)
                        for s0, s1 in space)
                if "O" in obs:
                    w *= bern(P_O[s1n], obs["O"])
                new[s0n, s1n] = w
            total = sum(new.values())
            belief = {s: w / total for s, w in new.items()}
            want.append([belief[s] for s in space])
        res = forward_filter(load_bn(COUPLED), steps)
        assert dict(res.extras)["states"] == (
            "S0=0, S1=0 | S0=0, S1=1 | S0=1, S1=0 | S0=1, S1=1")
        assert [list(step) for step in res.value] == want

    def test_self_reading_deterministic_node(self):
        res = forward_filter(load_bn(TOGGLE), [{"U": 1}, {}, {"U": 0}])
        # X1 = 1 - X0 is 1 w.p. 2/3; U=1 gives 2/3*4/5 : 1/3*1/10 = 16 : 1;
        # the empty step flips it; U=0 after the next flip gives
        # 16/17*1/5 : 1/17*9/10 = 32 : 9.
        want = [[F(1, 17), F(16, 17)], [F(16, 17), F(1, 17)], [F(9, 41), F(32, 41)]]
        assert [list(step) for step in res.value] == want

    def test_self_reading_deterministic_node_checks(self):
        lines = differential_check(load_bn(TOGGLE))
        assert [l.label for l in lines] == [f"E[X] at n={n}" for n in (1, 2, 3)]
        assert [l.oracle for l in lines] == ["2/3", "1/3", "2/3"]
        assert all(l.ok for l in lines)

    def test_cyclic_moment_dependence_is_unsupported(self):
        with pytest.raises(UnsupportedError) as info:
            predict(load_bn(COUPLED), "S1")
        message = str(info.value)
        assert message.startswith("cyclic moment dependence: S1 -> S0*S1 -> S1")
        assert "outside the Prob-solvable fragment" in message
