"""Compiling networks to loop programs."""

import itertools
from fractions import Fraction as F
from pathlib import Path

import pytest

from psolve.bayesnet import load_bn, load_bn_path
from psolve.encode import (
    compile_bn,
    compile_dynbn,
    compile_sampling_monitor,
    evidence_indicator,
    indicator_poly,
    normalize_evidence,
)
from psolve.errors import SchemaError, UnsupportedError
from psolve.moments import MomentEngine, compute_mbis
from psolve.program import pretty, validate
from psolve.queries import expectation_at, predict
from psolve.symbolic import Monomial, Polynomial, RationalFunction

DATA = Path(__file__).resolve().parent.parent / "data"


def rf(v):
    return RationalFunction(v)


class TestIndicators:
    def test_binary(self):
        p0 = indicator_poly("x", 0, 2)
        p1 = indicator_poly("x", 1, 2)
        for v in (F(0), F(1)):
            assert p0.eval({"x": v}) == (1 if v == 0 else 0)
            assert p1.eval({"x": v}) == v

    def test_ternary(self):
        for want in range(3):
            p = indicator_poly("x", want, 3)
            for v in range(3):
                assert p.eval({"x": F(v)}) == (1 if v == want else 0)

    def test_built_once_and_shared(self):
        assert indicator_poly("x", 1, 3) is indicator_poly("x", 1, 3)
        assert indicator_poly("x", 1, 3) is not indicator_poly("x", 1, 2)
        with pytest.raises(SchemaError):
            indicator_poly("x", 3, 3)

    def test_compile_builds_each_parent_state_once(self):
        # four CPT rows per node read (own past, previous node); each
        # (node, state) indicator is built once across all rows
        doc = {"type": "dynbn", "nodes": [], "inter_edges": {}, "initial": {}}
        for i in range(4):
            name, parents = f"S{i}", [f"S{i}"] + ([f"S{i - 1}"] if i else [])
            rows = [{"given": list(given), "p": ["1/2", "1/2"]}
                    for given in itertools.product((1, 0), repeat=len(parents))]
            doc["nodes"].append({"name": name, "model": {
                "kind": "cpt", "parents": parents, "rows": rows}})
            doc["inter_edges"][name] = [name]
            doc["initial"][name] = 0
        dyn = load_bn(doc)
        indicator_poly.cache_clear()
        compile_dynbn(dyn)
        info = indicator_poly.cache_info()
        # one lookup per parent per row: S0 has 2 rows of 1, the rest 4 of 2
        assert info.hits + info.misses == 2 * 1 + 3 * 4 * 2
        assert info.misses == 8

    def test_evidence_product(self):
        bn = load_bn_path(DATA / "alarm.json")
        ind = evidence_indicator(bn, {"A": 1, "J": 1})
        assert ind.eval({"A": F(1), "J": F(1)}) == 1
        assert ind.eval({"A": F(1), "J": F(0)}) == 0
        assert ind.eval({"A": F(0), "J": F(1)}) == 0

    def test_normalize_evidence_names(self):
        bn = load_bn_path(DATA / "alarm.json")
        assert normalize_evidence(bn, {"A": 1}) == (("A", 1),)
        assert normalize_evidence(bn, [("A", 1), ("J", 0)]) == (("A", 1), ("J", 0))


class TestCompileBn:
    def test_variable_counts(self):
        # one program variable per discrete CPT entry that needs a coin plus
        # one per node; the bundled networks have known totals
        for name, expected in [
            ("alarm.json", 13),
            ("asia.json", 24),
            ("grass.json", 9),
            ("rats.json", 10),
        ]:
            bn = load_bn_path(DATA / name)
            prog = compile_bn(bn)
            assert len(prog.variables) == expected, name

    def test_compiled_programs_validate(self):
        for name in ("alarm.json", "asia.json", "grass.json", "rats.json",
                     "marks.json", "asia_det_either.json"):
            prog = compile_bn(load_bn_path(DATA / name))
            validate(prog)

    def test_root_marginal(self):
        bn = load_bn(
            {"type": "bn", "nodes": [
                {"name": "X", "model": {"kind": "cpt", "p": ["1/5", "4/5"]}}]}
        )
        prog = compile_bn(bn)
        value, assumptions = expectation_at(prog, Polynomial.var("X"), 1)
        assert value == rf(F(4, 5))
        assert assumptions == ()

    def test_chain_joint_moment(self):
        # P(A=1) = 1/4, P(B=1|A=1) = 2/3, so E[A*B] = 1/6
        bn = load_bn(
            {"type": "bn", "nodes": [
                {"name": "A", "model": {"kind": "cpt", "p": ["3/4", "1/4"]}},
                {"name": "B", "model": {"kind": "cpt", "parents": ["A"], "rows": [
                    {"given": [0], "p": ["1/2", "1/2"]},
                    {"given": [1], "p": ["1/3", "2/3"]},
                ]}},
            ]}
        )
        prog = compile_bn(bn)
        target = Polynomial.var("A") * Polynomial.var("B")
        assert expectation_at(prog, target, 1)[0] == rf(F(1, 6))

    def test_det_node_compiles_to_polynomial(self):
        bn = load_bn_path(DATA / "asia_det_either.json")
        prog = compile_bn(bn)
        upd = prog.update_for("Either")
        assert len(upd.branches) == 1
        t, l = Polynomial.var("Tub"), Polynomial.var("Lung")
        assert upd.branches[0].expr == t + l - t * l

    def test_det_and_cpt_encodings_agree(self):
        a = compile_bn(load_bn_path(DATA / "asia.json"))
        b = compile_bn(load_bn_path(DATA / "asia_det_either.json"))
        goal = Polynomial.var("Asia") * Polynomial.var("Lung")
        assert expectation_at(a, goal, 1)[0] == rf(F(11, 20000))
        assert expectation_at(b, goal, 1)[0] == rf(F(11, 20000))
        assert len(b.variables) < len(a.variables)

    def test_gaussian_network(self):
        bn = load_bn_path(DATA / "marks.json")
        prog = compile_bn(bn)
        assert expectation_at(prog, Polynomial.var("ALG"), 1)[0] == rf(F(253, 5))

    def test_gaussian_mean_with_a_parameter_denominator_unsupported(self):
        bn = load_bn({"type": "bn", "params": ["a"], "nodes": [
            {"name": "X", "model": {"kind": "lingauss", "intercept": "1/a", "variance": "1"}}]})
        with pytest.raises(UnsupportedError) as info:
            compile_bn(bn)
        assert str(info.value) == "node X: Gaussian mean has a parameter denominator"


class TestCompileDynbn:
    def test_umbrella_two_variables(self):
        dyn = load_bn_path(DATA / "umbrella.json")
        prog = compile_dynbn(dyn)
        assert prog.variables == ("R", "U")
        rec = MomentEngine(prog).extract(Monomial.of("R"))
        assert rec.self_coeff == rf(F(2, 5))
        assert rec.constant == rf(F(3, 10))

    def test_initial_values_used(self):
        dyn = load_bn_path(DATA / "umbrella.json")
        prog = compile_dynbn(dyn)
        mbis = compute_mbis(prog, [Monomial.of("R")])
        assert mbis[Monomial.of("R")].closed.at(0) == rf(1)

    def test_symbolic_transition(self):
        dyn = load_bn_path(DATA / "umbrella_sens.json")
        prog = compile_dynbn(dyn)
        rec = MomentEngine(prog).extract(Monomial.of("R"))
        r = Polynomial.var("r")
        assert rec.self_coeff == RationalFunction(r - F(3, 10))

    def test_temporal_linear_gaussian(self):
        doc = {
            "type": "dynbn",
            "nodes": [{"name": "X", "model": {
                "kind": "lingauss", "intercept": "1", "coeffs": {"X": "1/2"},
                "variance": "1"}}],
            "inter_edges": {"X": ["X"]},
            "initial": {"X": 0},
        }
        dyn = load_bn(doc)
        prog = compile_dynbn(dyn)
        rec = MomentEngine(prog).extract(Monomial.of("X"))
        assert rec.self_coeff == rf(F(1, 2))

    def test_three_state_temporal_unsupported(self):
        doc = {
            "type": "dynbn",
            "nodes": [{"name": "X", "states": ["a", "b", "c"], "model": {
                "kind": "cpt", "parents": ["X"], "rows": [
                    {"given": [0], "p": ["1/3", "1/3", "1/3"]},
                    {"given": [1], "p": ["1/3", "1/3", "1/3"]},
                    {"given": [2], "p": ["1/3", "1/3", "1/3"]},
                ]}}],
            "inter_edges": {"X": ["X"]},
            "initial": {"X": 0},
        }
        dyn = load_bn(doc)
        with pytest.raises(UnsupportedError) as info:
            compile_dynbn(dyn)
        assert str(info.value) == (
            "node X: previous-slice dependence of a 3-valued node is nonlinear "
            "(its indicator has degree 2); only two-valued nodes may read their own past"
        )

    def test_temporal_switched_gaussian_unsupported(self):
        doc = {
            "type": "dynbn",
            "nodes": [
                {"name": "S", "model": {"kind": "cpt", "p": ["1/2", "1/2"]}},
                {"name": "O", "model": {"kind": "clg", "parents": ["S"], "table": [
                    {"given": [1], "intercept": "1", "coeffs": {"O": "1/2"}, "variance": "1"},
                    {"given": [0], "coeffs": {"O": "1/4"}, "variance": "1"}]}}],
            "inter_edges": {"O": ["O"]},
            "initial": {"O": 0},
        }
        with pytest.raises(UnsupportedError) as info:
            compile_dynbn(load_bn(doc))
        assert str(info.value) == (
            "node O: a switched Gaussian cannot read its own previous slice; "
            "its per-configuration parts update first"
        )

    # A temporal binary S (Bernoulli rows), a 3-valued child T and a CLG
    # child O that do not read their past (one auxiliary per row).
    MIXED = {
        "type": "dynbn",
        "nodes": [
            {"name": "S", "model": {"kind": "cpt", "parents": ["S"], "rows": [
                {"given": [0], "p": ["3/4", "1/4"]}, {"given": [1], "p": ["1/3", "2/3"]}]}},
            {"name": "T", "states": ["lo", "mid", "hi"], "model": {
                "kind": "cpt", "parents": ["S"], "rows": [
                    {"given": [1], "p": ["1/2", "1/4", "1/4"]},
                    {"given": [0], "p": ["1/3", "1/3", "1/3"]}]}},
            {"name": "O", "model": {"kind": "clg", "parents": ["S"], "table": [
                {"given": [1], "intercept": "1/2", "variance": "1"},
                {"given": [0], "intercept": "3/2", "variance": "2"}]}}],
        "inter_edges": {"S": ["S"]},
        "initial": {"S": 1},
    }

    def test_rows_of_non_temporal_nodes(self):
        prog = compile_dynbn(load_bn(self.MIXED))
        assert pretty(prog) == "\n".join([
            "support S 2;", "support T_1 3;", "support T_2 3;", "support T 3;",
            "S := 1;", "T_1 := 0;", "T_2 := 0;", "T := 0;", "O_1 := 0;", "O_2 := 0;", "O := 0;",
            "while true {",
            "    S := bern(2/3)*S + bern(1/4)*(-S + 1);",
            "    T_1 := choose { 0 @ 1/2; S @ 1/4; 2*S @ 1/4 };",
            "    T_2 := choose { 0 @ 1/3; -S + 1 @ 1/3; -2*S + 2 @ 1/3 };",
            "    T := T_1 + T_2;",
            "    O_1 := gauss(0, 1)*S + 1/2*S;",
            "    O_2 := -3/2*S + 3/2 + gauss(0, 2)*(-S + 1);",
            "    O := O_1 + O_2;",
            "}",
            "",
        ])

    def test_rows_of_non_temporal_nodes_answers(self):
        # S is stationary at P(S = 1) = (1/4)/(1/4 + 1/3) = 3/7, so
        # lim E[O] = 3/7*1/2 + 4/7*3/2 and lim E[T] = 3/7*3/4 + 4/7*1
        dyn = load_bn(self.MIXED)
        assert predict(dyn, "O", limit=True).value == rf(F(15, 14))
        assert predict(dyn, "T", limit=True).value == rf(F(25, 28))
        assert str(predict(dyn, "O").value) == "15/14 + (-4/7)*(5/12)^n for n >= 1; f(0) = 0"


class TestSamplingMonitor:
    def test_structure(self):
        bn = load_bn_path(DATA / "alarm.json")
        mon = compile_sampling_monitor(bn, {"A": 1})
        prog = mon.program
        validate(prog)
        assert mon.count_var in prog.variables
        assert mon.continue_var in prog.variables
        assert mon.evidence_var in prog.variables

    def test_count_grows_until_hit(self):
        # with evidence of probability p, E[count] converges to 1/p
        bn = load_bn(
            {"type": "bn", "nodes": [
                {"name": "X", "model": {"kind": "cpt", "p": ["3/4", "1/4"]}}]}
        )
        mon = compile_sampling_monitor(bn, {"X": 1})
        mbis = compute_mbis(mon.program, [Monomial.of(mon.count_var)])
        closed = mbis[Monomial.of(mon.count_var)].closed
        # E[count] after n rounds: sum_{k<n} P(still rejecting after k) + 1
        # checked against the direct geometric computation
        for n in range(1, 6):
            expected = sum(F(3, 4) ** k for k in range(n)) + F(3, 4) ** n
            assert closed.at(n) == rf(expected)
