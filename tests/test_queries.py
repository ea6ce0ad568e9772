"""User-facing query layer over engine and networks."""

import json
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import psolve.encode
import psolve.queries
from psolve.bayesnet import bind, load_bn, load_bn_path
from psolve.encode import indicator_poly, normalize_evidence
from psolve.errors import QueryError, SchemaError, UnsupportedError
from psolve.moments import MomentEngine
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
    """Names of the compile functions called: a network's engine compiles
    through `psolve.encode`, and `expected_samples` compiles its sampling
    monitor through the name `psolve.queries` imports."""
    calls = []
    for module in (psolve.encode, psolve.queries):
        for name in ("compile_bn", "compile_dynbn", "compile_sampling_monitor"):
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def engines(monkeypatch):
    """Every `MomentEngine` built."""
    built = []
    original = MomentEngine.__init__

    def counted(self, *args):
        built.append(self)
        original(self, *args)

    monkeypatch.setattr(MomentEngine, "__init__", counted)
    return built


class TestOneCompilePerCall:
    # each test loads its own network: a loaded network keeps the program
    # its first query compiled, so the module fixtures are already compiled

    def test_differential_check(self, compiles):
        asia = load_bn_path(DATA / "asia.json")
        assert all(line.ok for line in differential_check(asia))
        assert compiles == ["compile_bn"]

    def test_differential_check_with_monte_carlo(self, compiles):
        alarm = load_bn_path(DATA / "alarm.json")
        assert all(line.ok for line in differential_check(alarm, mc_samples=2000))
        assert compiles == ["compile_bn"]

    def test_differential_check_dynamic(self, compiles):
        umbrella = load_bn_path(DATA / "umbrella.json")
        assert all(line.ok for line in differential_check(umbrella))
        assert compiles == ["compile_dynbn"]

    def test_node_distribution(self, compiles):
        alarm = load_bn_path(DATA / "alarm.json")
        node_distribution(alarm, "A", {"J": 1})
        assert compiles == ["compile_bn"]

    def test_expected_samples(self, compiles):
        asia = load_bn_path(DATA / "asia.json")
        expected_samples(asia, {"Asia": 1, "Lung": 1})
        assert compiles == ["compile_sampling_monitor"]

    def test_expected_positive_compiles_no_monitor(self, compiles):
        asia = load_bn_path(DATA / "asia.json")
        expected_positive(asia, {"Asia": 1, "Lung": 1}, 1000)
        assert compiles == ["compile_bn"]

    def test_three_predicts_share_one_compile(self, compiles, engines):
        umbrella = load_bn_path(DATA / "umbrella.json")
        predict(umbrella, "R")
        predict(umbrella, "R", at=5)
        predict(umbrella, "R", limit=True)
        assert compiles == ["compile_dynbn"]
        assert engines == [umbrella.engine]

    def test_bound_network_compiles_its_own(self, compiles, engines):
        sens = load_bn_path(DATA / "alarm_sens.json")
        conditional_moment(sens, "B", 1, {"A": 1})
        bound = bind(sens, {"b": F(1, 1000)})
        conditional_moment(bound, "B", 1, {"A": 1})
        conditional_moment(sens, "B", 1, {"A": 1})
        assert compiles == ["compile_bn", "compile_bn"]
        assert engines == [sens.engine, bound.engine]


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

    def test_negative_horizon_is_rejected_before_solving(self, umbrella, monkeypatch):
        calls = []
        original = psolve.queries.MomentEngine.closed

        def counted(self, poly):
            calls.append(poly)
            return original(self, poly)

        monkeypatch.setattr(psolve.queries.MomentEngine, "closed", counted)
        with pytest.raises(QueryError, match="horizon must be nonnegative, got -1"):
            predict(umbrella, "R", at=-1)
        assert calls == []

    def test_static_network_is_unsupported(self, alarm):
        with pytest.raises(UnsupportedError, match="predict queries apply to dynamic networks"):
            predict(alarm, "A")

    def test_horizon_and_limit_are_mutually_exclusive(self, umbrella):
        with pytest.raises(QueryError, match='"at" and "limit" are mutually exclusive'):
            predict(umbrella, "R", at=3, limit=True)

    def test_closed_form_lists_the_assumptions_it_was_solved_from(self):
        # U's closed form is solved from R's, which assumes 1 != r - 3/10
        dyn = load_bn_path(DATA / "umbrella_sens.json")
        assert predict(dyn, "R").assumptions == ("1 != r - 3/10",)
        assert predict(dyn, "U").assumptions == ("1 != r - 3/10",)


class TestForwardFilter:
    def test_static_network_is_unsupported(self, alarm):
        with pytest.raises(UnsupportedError, match="filter queries apply to dynamic networks"):
            forward_filter(alarm, [{"M": 1}])

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

    def test_each_distinct_step_normalizes_once(self, monkeypatch):
        dyn = load_bn_path(DATA / "umbrella_filter.json")
        steps = [{"U": 1}, {}, {"U": 1}, [["U", 0]], {}, [["U", 0]], {"U": 1}]
        # list steps are not memoized, so this is the unmemoized answer
        want = forward_filter(dyn, [list(map(list, s.items())) if isinstance(s, dict) else s
                                    for s in steps])
        seen = []
        original = psolve.queries.normalize_evidence

        def counted(net, step):
            seen.append(step)
            return original(net, step)

        monkeypatch.setattr(psolve.queries, "normalize_evidence", counted)
        assert forward_filter(dyn, steps) == want
        assert seen == [{"U": 1}, {}, [["U", 0]], [["U", 0]]]
        # True == 1, but a bool is no state: a value of another type is a
        # step of its own
        with pytest.raises(SchemaError, match="bad state True for node U"):
            forward_filter(dyn, [{"U": 1}, {"U": True}])

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

    def test_symbolic_filter_assumes_its_last_total_nonzero(self):
        dyn = load_bn_path(DATA / "umbrella_sens.json")
        res = forward_filter(dyn, [{"U": 1}, {"U": 0}])
        # P(U1 = 1, U2 = 0) = -63/100*r^2 + 301/500*r + 59/500 from R0 = 1,
        # made primitive
        assert res.assumptions == ("(-315*r^2 + 301*r + 59) != 0",)

    def test_numeric_filter_assumes_nothing(self):
        dyn = load_bn_path(DATA / "umbrella_filter.json")
        assert forward_filter(dyn, [{"U": 1}, {"U": 0}]).assumptions == ()


def _umbrella_steps(seed, steps):
    """Seeded observation steps: umbrella seen, not seen, or not observed."""
    rng = random.Random(seed)
    return [rng.choice(({"U": 1}, {"U": 0}, {})) for _ in range(steps)]


class TestFilterGrowth:
    """The filter carries integer weights and divides only the beliefs it
    emits, so a symbolic belief's degree grows linearly in the number of
    steps instead of doubling."""

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


# Deterministic reading D of the temporal node S, by the support of S.
_DET_EXPR = {2: "1 - S", 3: "S*(2 - S)"}
_DET = {2: lambda s: 1 - s, 3: lambda s: s * (2 - s)}


@st.composite
def _filter_cases(draw, symbolic=False):
    """A small dynamic network and observation steps: temporal S (2 or 3
    states), a noisy reading O of S (2 or 3 states) and a deterministic
    reading D; rows with zero entries and mixed denominators; steps that
    observe any of S, O and D, or nothing.  A symbolic case has binary S
    and O, one transition row in r and one emission row over 1 + r."""
    k, m = (2, 2) if symbolic else (draw(st.integers(2, 3)), draw(st.integers(2, 3)))

    def rows(size):
        out = []
        for v in range(k):
            weights = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size).filter(any))
            out.append({"given": [v], "p": [str(F(w, sum(weights))) for w in weights]})
        return out

    trans, emit = rows(k), rows(m)
    if symbolic:
        trans[1]["p"] = ["1 - r", "r"]
        emit[0]["p"] = ["1/(1 + r)", "r/(1 + r)"]
    if k == 2 and draw(st.booleans()):
        initial = f"bern({draw(st.sampled_from(['1/3', '1/2', '2/7']))})"
    else:
        initial = draw(st.integers(0, k - 1))
    doc = {
        "type": "dynbn",
        "nodes": [
            {"name": "S", "model": {"kind": "cpt", "parents": ["S"], "rows": trans}},
            {"name": "O", "model": {"kind": "cpt", "parents": ["S"], "rows": emit}},
            {"name": "D", "model": {"kind": "det", "expr": _DET_EXPR[k]}},
        ],
        "inter_edges": {"S": ["S"]},
        "initial": {"S": initial},
    }
    if symbolic:
        doc["params"] = [{"name": "r", "domain": ["0", "1"]}]
    steps = []
    for _ in range(draw(st.integers(0, 6))):
        step = {}
        for name, size in (("S", k), ("O", m), ("D", 2)):
            if draw(st.integers(0, 3)) == 0:
                step[name] = draw(st.integers(0, size - 1))
        steps.append(step)
    return doc, steps


def _plain_filter(doc, steps):
    """The forward pass of a `_filter_cases` network over plain Fractions,
    one belief list per step; a step of zero likelihood ends the list with
    None."""
    models = {nd["name"]: nd["model"] for nd in doc["nodes"]}
    trans = [[F(p) for p in row["p"]] for row in models["S"]["rows"]]
    emit = [[F(p) for p in row["p"]] for row in models["O"]["rows"]]
    k = len(trans)
    det = _DET[k]
    initial = doc["initial"]["S"]
    if isinstance(initial, int):
        belief = [F(s == initial) for s in range(k)]
    else:
        p = F(initial[len("bern("):-1])
        belief = [1 - p, p]
    out = []
    for obs in steps:
        new = []
        for s in range(k):
            w = sum(belief[prev] * trans[prev][s] for prev in range(k))
            if obs.get("S", s) != s or obs.get("D", det(s)) != det(s):
                w = F(0)
            if "O" in obs:
                w *= emit[s][obs["O"]]
            new.append(w)
        total = sum(new)
        if not total:
            out.append(None)
            break
        belief = [w / total for w in new]
        out.append(belief)
    return out


class TestFilterKernel:
    """The integer-weight filter against a plain Fraction forward pass, and
    a symbolic filter against the filters of its bound networks."""

    @given(_filter_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_plain_fraction_pass(self, case):
        doc, steps = case
        dyn = load_bn(doc)
        want = _plain_filter(doc, steps)
        if want and want[-1] is None:
            with pytest.raises(QueryError, match=f"step {len(want)} "):
                forward_filter(dyn, steps)
            return
        got = forward_filter(dyn, steps).value
        assert [[b.const_value() for b in step] for step in got] == want

    @given(
        _filter_cases(symbolic=True),
        st.lists(st.fractions(F(1, 20), F(19, 20), max_denominator=20), min_size=1, max_size=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_symbolic_matches_bound_network(self, case, points):
        doc, steps = case
        dyn = load_bn(doc)
        try:
            symbolic = forward_filter(dyn, steps).value
        except QueryError:
            for r in points:
                with pytest.raises(QueryError):
                    forward_filter(bind(dyn, {"r": r}), steps)
            return
        TestFilterGrowth._assert_matches_bound(dyn, steps, symbolic, points)


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

    def test_constant_closed_form_prints_its_decimal(self, umbrella):
        # E[1] over time is the closed form 1 with no prefix
        res = joint_moment(umbrella, {})
        assert res.exact() == "1"
        assert res.decimal() == "1.000000"
        assert res.decimal() == joint_moment(load_bn_path(DATA / "alarm.json"), {}).decimal()

    def test_nonconstant_closed_form_prints_exactly(self, umbrella):
        res = predict(umbrella, "R")
        assert res.decimal() == res.exact()

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

    def test_cyclic_moment_dependence_names_the_cycle_alone(self):
        # S2 reads S1, S1 reads S0: the walk from S2 passes S0*S1*S2
        # before it meets the cycle, which the message names alone
        three = dict(COUPLED, nodes=[
            *COUPLED["nodes"][:2],
            {"name": "S2", "model": {"kind": "cpt", "parents": ["S2", "S1"], "rows": [
                {"given": list(g), "p": _row(p)} for g, p in P_S1.items()]}},
        ], inter_edges={"S0": ["S0"], "S1": ["S1"], "S2": ["S2"]},
            initial={"S0": 0, "S1": 1, "S2": 0})
        with pytest.raises(UnsupportedError) as info:
            predict(load_bn(three), "S2")
        assert str(info.value).startswith("cyclic moment dependence: S0*S1 -> S1 -> S0*S1;")
