"""End-to-end command line tests, run in process through main()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from psolve.cli import main
from psolve.oracle import CheckLine
from psolve.parser import parse_program
from psolve.program import validate

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"

ALARM = str(DATA / "alarm.json")
ALARM_SENS = str(DATA / "alarm_sens.json")
ASIA = str(DATA / "asia.json")
UMBRELLA_PSL = str(DATA / "umbrella.psl")
UMBRELLA_SENS = str(DATA / "umbrella_sens.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_closed_form(self, capsys):
        code, out, _ = run(capsys, "analyze", UMBRELLA_PSL, "--goal", "R")
        assert code == 0
        assert "goal: E[R]" in out
        assert "closed_form:" in out
        assert "(2/5)^n" in out

    def test_at_step(self, capsys):
        code, out, _ = run(capsys, "analyze", UMBRELLA_PSL, "--goal", "R",
                           "--at", "0")
        assert code == 0
        assert "exact: 1" in out

    def test_limit(self, capsys):
        code, out, _ = run(capsys, "analyze", UMBRELLA_PSL, "--goal", "R",
                           "--limit")
        assert code == 0
        assert "exact: 1/2" in out
        assert "decimal: 0.500000" in out

    def test_second_moment_of_indicator(self, capsys):
        # R is 0/1 so the second moment equals the first
        _, first, _ = run(capsys, "analyze", UMBRELLA_PSL, "--goal", "R",
                          "--limit")
        _, second, _ = run(capsys, "analyze", UMBRELLA_PSL, "--goal", "R",
                           "--k", "2", "--limit")
        assert "exact: 1/2" in second
        assert "E[(R)^2]" in second

    def test_param_binding(self, capsys, tmp_path):
        prog = tmp_path / "sens.psl"
        prog.write_text(
            "param r in (3/10, 1);\n"
            "support R 2;\n"
            "R := 1;\n"
            "while true {\n"
            "    R := bern(r)*R + bern(3/10)*(-R + 1);\n"
            "}\n"
        )
        code, out, _ = run(capsys, "analyze", str(prog), "--goal", "R",
                           "--limit", "--param", "r=1/2")
        assert code == 0
        assert "exact: 3/8" in out
        assert "decimal: 0.375000" in out

    def test_diverging_limit(self, capsys, tmp_path):
        prog = tmp_path / "grow.psl"
        prog.write_text("x := 1;\nwhile true {\n    x := 2*x + 1;\n}\n")
        code, out, _ = run(capsys, "analyze", str(prog), "--goal", "x", "--limit")
        assert code == 0
        assert out == "goal: E[x]\nexact: diverges\nassumptions: (none)\n"
        code, out, _ = run(capsys, "analyze", str(prog), "--goal", "x", "--limit",
                           "--json")
        assert code == 0
        assert json.loads(out) == {"goal": "E[x]", "exact": "diverges", "assumptions": []}

    def test_symbolic_limit_lists_its_assumptions(self, capsys, tmp_path):
        prog = tmp_path / "sym.psl"
        prog.write_text("param a;\ny := 1;\nwhile true {\n    y := a*y + 2 [1/2] y;\n}\n")
        code, out, _ = run(capsys, "analyze", str(prog), "--goal", "y", "--limit",
                           "--json")
        assert code == 0
        assert json.loads(out) == {
            "goal": "E[y]",
            "exact": "-2/(a - 1)",
            "assumptions": ["1 != 1/2*a + 1/2", "|1/2*a + 1/2| < 1"],
        }

    def test_at_and_limit_conflict(self, capsys):
        code, _, err = run(capsys, "analyze", UMBRELLA_PSL, "--goal", "R",
                           "--at", "3", "--limit")
        assert code == 1
        assert "mutually exclusive" in err

    def test_bad_moment_order(self, capsys):
        code, _, err = run(capsys, "analyze", UMBRELLA_PSL, "--goal", "R",
                           "--k", "0")
        assert code == 1
        assert "positive" in err

    def test_unknown_goal_variable(self, capsys):
        code, _, err = run(capsys, "analyze", UMBRELLA_PSL, "--goal", "Z")
        assert code == 1
        assert "error:" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "no_such.psl", "--goal", "R")
        assert code == 1
        assert "cannot read" in err

    def test_param_outside_domain(self, capsys, tmp_path):
        prog = tmp_path / "sens.psl"
        prog.write_text(
            "param r in (3/10, 1);\n"
            "support R 2;\n"
            "R := 1;\n"
            "while true {\n"
            "    R := bern(r)*R + bern(3/10)*(-R + 1);\n"
            "}\n"
        )
        code, out, err = run(capsys, "analyze", str(prog), "--goal", "R",
                             "--limit", "--param", "r=2")
        assert code == 1
        assert out == ""
        assert "r=2 is outside the domain" in err

    def test_unknown_param(self, capsys):
        code, out, err = run(capsys, "analyze", UMBRELLA_PSL, "--goal", "R",
                             "--param", "r=1/2")
        assert code == 1
        assert out == ""
        assert "no parameter named r" in err

    def test_bad_param_syntax(self, capsys):
        code, _, err = run(capsys, "analyze", UMBRELLA_PSL, "--goal", "R",
                           "--param", "r")
        assert code == 1
        assert "NAME=VALUE" in err


class TestCompile:
    def test_stdout_program_is_valid(self, capsys):
        code, out, _ = run(capsys, "compile-bn", ALARM)
        assert code == 0
        validate(parse_program(out))

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "alarm.psl"
        code, out, _ = run(capsys, "compile-bn", ALARM, "-o", str(target))
        assert code == 0
        assert out == ""
        validate(parse_program(target.read_text()))

    def test_cyclic_network(self, capsys):
        code, _, err = run(capsys, "compile-bn", str(DATA / "bad_cycle.json"))
        assert code == 1
        assert "cycle" in err

    def test_missing_network(self, capsys):
        code, _, err = run(capsys, "compile-bn", "no_such.json")
        assert code == 1
        assert "cannot read" in err

    def test_network_key_twice(self, capsys, tmp_path):
        net = tmp_path / "twice.json"
        net.write_text('{"type": "bn", "nodes": [{"name": "X", "model": '
                       '{"kind": "cpt", "p": ["1/2", "1/2"], "p": ["1", "0"]}}]}')
        code, out, err = run(capsys, "compile-bn", str(net))
        assert (code, out) == (1, "")
        assert 'JSON object lists "p" twice' in err

    @pytest.mark.parametrize("model", [
        {"kind": "lingauss", "intercept": "0", "coeffs": {"Q": "1"}, "variance": "1"},
        {"kind": "clg", "parents": ["Q"], "table": [
            {"given": [0], "intercept": "0", "variance": "1"},
            {"given": [1], "intercept": "1", "variance": "1"}]},
    ], ids=["lingauss", "clg"])
    def test_unknown_gaussian_parent_exits_1(self, capsys, tmp_path, model):
        net = tmp_path / "gauss.json"
        net.write_text(json.dumps({"type": "bn", "nodes": [
            {"name": "A", "model": {"kind": "cpt", "p": ["1/2", "1/2"]}},
            {"name": "B", "model": model}]}))
        code, out, err = run(capsys, "compile-bn", str(net))
        assert (code, out) == (1, "")
        assert err == "error: node B: unknown parent 'Q'\n"


class TestQuery:
    SPEC = '{"query": "conditional", "target": "B", "evidence": {"A": 1}}'

    def test_inline_spec(self, capsys):
        code, out, _ = run(capsys, "query", ALARM, "--spec", self.SPEC)
        assert code == 0
        assert "decimal: 0.373551" in out

    def test_spec_from_file(self, capsys, tmp_path):
        spec = tmp_path / "q.json"
        spec.write_text(self.SPEC)
        code, out, _ = run(capsys, "query", ALARM, "--spec", str(spec))
        assert code == 0
        assert "exact: 156670/419407" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "query", ALARM, "--spec", self.SPEC,
                           "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["query"] == "conditional"
        assert doc["decimal"] == "0.373551"
        assert doc["assumptions"] == []

    def test_digits_flag(self, capsys):
        code, out, _ = run(capsys, "query", ALARM, "--spec", self.SPEC,
                           "--digits", "3")
        assert code == 0
        assert "decimal: 0.374" in out

    def test_param_binding(self, capsys):
        code, out, _ = run(
            capsys, "query", str(DATA / "alarm_sens.json"),
            "--spec", self.SPEC, "--param", "b=1/1000", "--param", "q=1/500")
        assert code == 0
        assert "decimal: 0.373551" in out

    def test_negative_digits_rejected(self, capsys):
        code, out, err = run(capsys, "query", ALARM, "--spec", self.SPEC,
                             "--digits", "-3")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--digits" in err

    def test_binding_on_a_pole_rejected(self, capsys):
        code, out, err = run(
            capsys, "query", str(DATA / "alarm_sens.json"),
            "--spec", self.SPEC, "--param", "b=0", "--param", "q=-1/289")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "b=0, q=-1/289" in err

    @pytest.mark.parametrize("value, problem", [
        ("-1", "zero denominator"),
        ("-1/2", "probability 2 outside [0, 1]"),
    ])
    def test_binding_that_breaks_the_network_rejected(self, capsys, tmp_path,
                                                      value, problem):
        # a has no declared domain, so only the bound network shows the fault
        net = tmp_path / "pole.json"
        net.write_text(json.dumps({
            "type": "bn", "params": ["a"],
            "nodes": [{"name": "X", "model": {
                "kind": "cpt", "p": ["1/(1 + a)", "a/(1 + a)"]}}],
        }))
        code, out, err = run(capsys, "query", str(net), "--spec",
                             '{"query": "moment", "target": "X"}',
                             "--param", f"a={value}")
        assert code == 1
        assert out == ""
        assert f"binding a={value}: " in err and problem in err

    def test_binding_before_solving_at_a_zero_base(self, capsys):
        # r = 3/10 zeroes the base r - 3/10 of the symbolic closed form
        code, out, _ = run(capsys, "query", UMBRELLA_SENS, "--spec",
                           '{"query": "moment", "target": "R"}',
                           "--param", "r=3/10")
        assert code == 0
        assert "exact: 3/10 for n >= 1; f(0) = 1" in out
        assert "assumptions: (none)" in out

    def test_limit_binding_outside_domain(self, capsys):
        code, out, err = run(capsys, "query", UMBRELLA_SENS, "--spec",
                             '{"query": "predict", "target": "R", "limit": true}',
                             "--param", "r=2")
        assert code == 1
        assert out == ""
        assert "r=2 is outside the domain [3/10, 1] of r" in err

    def test_unknown_param(self, capsys):
        code, out, err = run(capsys, "query", ALARM, "--spec", self.SPEC,
                             "--param", "zz=5")
        assert code == 1
        assert out == ""
        assert "no parameter named zz" in err

    def test_param_twice(self, capsys):
        code, out, err = run(capsys, "query", ALARM_SENS, "--spec", self.SPEC,
                             "--param", "b=0.001", "--param", "b=0.5")
        assert (code, out) == (1, "")
        assert "--param b given twice" in err

    def test_spec_evidence_key_twice(self, capsys):
        code, out, err = run(capsys, "query", ALARM, "--spec",
                             '{"query": "conditional", "target": "B", '
                             '"evidence": {"A": 1, "A": 0}}')
        assert (code, out) == (1, "")
        assert 'JSON object lists "A" twice' in err

    def test_invalid_spec_json(self, capsys):
        code, _, err = run(capsys, "query", ALARM, "--spec", "{not json")
        assert code == 1
        assert "not valid JSON" in err

    def test_unknown_query_kind(self, capsys):
        code, _, err = run(capsys, "query", ALARM, "--spec",
                           '{"query": "marginalize"}')
        assert code == 1
        assert "unknown query kind" in err

    @pytest.mark.parametrize("net, spec, message", [
        ("umbrella.json",
         '{"query": "predict", "target": "R", "at": 3, "limit": true}',
         '"at" and "limit" are mutually exclusive'),
        ("alarm.json",
         '{"query": "samples", "evidence": {"A": 1}, "N": 10, "cross_check": true}',
         '"N" and "cross_check" are mutually exclusive'),
    ])
    def test_contradictory_fields_rejected(self, capsys, net, spec, message):
        code, out, err = run(capsys, "query", str(DATA / net), "--spec", spec)
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("net, spec, line", [
        ("umbrella.json",
         '{"query": "predict", "target": "R", "at": 3, "limit": false}',
         "exact: 133/250"),
        ("alarm.json",
         '{"query": "samples", "evidence": {"A": 1}, "N": 10, "cross_check": false}',
         "query: positive"),
    ])
    def test_false_flag_beside_its_alternative_accepted(self, capsys, net, spec, line):
        code, out, _ = run(capsys, "query", str(DATA / net), "--spec", spec)
        assert code == 0
        assert line in out


class TestSamples:
    def test_conjunction_evidence(self, capsys):
        code, out, _ = run(capsys, "samples", ASIA,
                           "--evidence", "Asia=1,Lung=1", "--digits", "4")
        assert code == 0
        assert "exact: 20000/11" in out
        assert "decimal: 1818.1818" in out

    def test_json_evidence(self, capsys):
        code, out, _ = run(capsys, "samples", ASIA,
                           "--evidence", '{"Asia": 1, "Lung": 1}')
        assert code == 0
        assert "probability: 11/20000" in out

    def test_param_binding_reaches_every_field(self, capsys):
        code, out, _ = run(capsys, "samples", ALARM_SENS, "--evidence", "A=1",
                           "--param", "b=1/1000", "--param", "q=1/500", "--json")
        assert code == 0
        doc = json.loads(out)
        _, plain, _ = run(capsys, "samples", ALARM, "--evidence", "A=1", "--json")
        assert doc == json.loads(plain)
        assert doc["exact"] == doc["monitor_limit"] == "500000000/1258221"
        assert doc["probability"] == "1258221/500000000"
        assert doc["assumptions"] == []

    def test_expected_positive_printed(self, capsys):
        spec = '{"query": "samples", "evidence": {"A": 1}, "N": 1000}'
        code, out, err = run(capsys, "query", ALARM_SENS, "--spec", spec)
        assert (code, err) == (0, "")
        assert out == (
            "query: positive\n"
            "exact: -279*b*q + 939*b + 289*q + 1\n"
            "decimal: -279*b*q + 939*b + 289*q + 1\n"
            "assumptions:\n"
            "  (-279/1000*b*q + 939/1000*b + 289/1000*q + 1/1000) != 0\n"
        )

    def test_partial_binding(self, capsys):
        code, out, _ = run(capsys, "samples", ALARM_SENS, "--evidence", "A=1",
                           "--param", "b=1/1000", "--json")
        assert code == 0
        doc = json.loads(out)
        for key in ("exact", "probability", "monitor_limit"):
            assert "b" not in doc[key] and "q" in doc[key]
        assert all("b" not in a for a in doc["assumptions"])

    def test_param_outside_domain(self, capsys):
        code, out, err = run(capsys, "samples", ALARM_SENS, "--evidence", "A=1",
                             "--param", "b=2")
        assert code == 1
        assert out == ""
        assert "b=2 is outside the domain [0, 1] of b" in err

    def test_evidence_name_twice(self, capsys):
        code, out, err = run(capsys, "samples", ASIA, "--evidence", "Asia=1,Asia=0")
        assert (code, out) == (1, "")
        assert "evidence lists Asia twice" in err

    def test_json_evidence_key_twice(self, capsys):
        code, out, err = run(capsys, "samples", ASIA,
                             "--evidence", '{"Asia": 1, "Asia": 0}')
        assert (code, out) == (1, "")
        assert 'JSON object lists "Asia" twice' in err

    def test_bad_evidence_item(self, capsys):
        code, _, err = run(capsys, "samples", ASIA, "--evidence", "Asia")
        assert code == 1
        assert "NAME=VALUE" in err


class TestFilter:
    def test_two_observations(self, capsys):
        code, out, _ = run(capsys, "filter", str(DATA / "umbrella_filter.json"),
                           "--obs", "U=1; U=1")
        assert code == 0
        assert "step 1:" in out
        assert "0.818182" in out
        assert "0.883357" in out

    def test_json_obs_list(self, capsys):
        code, out, _ = run(capsys, "filter", str(DATA / "umbrella_filter.json"),
                           "--obs", '[{"U": 1}, {"U": 1}]', "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["query"] == "filter"
        assert len(doc["steps"]) == 2

    def test_param_binding(self, capsys):
        code, out, _ = run(capsys, "filter", UMBRELLA_SENS, "--obs", "U=1; U=1",
                           "--param", "r=1/2")
        assert code == 0
        assert "exact: ((2/11, 9/11), (118/577, 459/577))" in out

    def test_unknown_param(self, capsys):
        code, out, err = run(capsys, "filter", UMBRELLA_SENS, "--obs", "U=1",
                             "--param", "zz=5")
        assert code == 1
        assert out == ""
        assert "no parameter named zz" in err

    def test_observation_name_twice(self, capsys):
        code, out, err = run(capsys, "filter", str(DATA / "umbrella_filter.json"),
                             "--obs", "U=1,U=0")
        assert (code, out) == (1, "")
        assert "evidence lists U twice" in err

    def test_json_observation_key_twice(self, capsys):
        code, out, err = run(capsys, "filter", str(DATA / "umbrella_filter.json"),
                             "--obs", '[{"U": 1, "U": 0}]')
        assert (code, out) == (1, "")
        assert 'JSON object lists "U" twice' in err

    def test_static_network_rejected(self, capsys):
        code, _, err = run(capsys, "filter", ALARM, "--obs", "U=1")
        assert code == 1
        assert "not a dynamic network" in err


class TestCheck:
    def test_alarm_passes(self, capsys):
        code, out, _ = run(capsys, "check", ALARM)
        assert code == 0
        assert "failed: 0" in out
        assert "FAIL" not in out

    def test_monte_carlo_lines(self, capsys):
        code, out, _ = run(capsys, "check", ALARM, "--mc", "2000", "--seed", "7")
        assert code == 0
        assert "MC E[" in out

    def test_parametric_dynamic_net_skips_monte_carlo(self, capsys):
        code, out, _ = run(capsys, "check", UMBRELLA_SENS, "--mc", "20000")
        assert code == 0
        assert "failed: 0" in out
        assert "MC E[" not in out

    def test_parametric_det_node_exits_1(self, capsys, tmp_path):
        net = tmp_path / "det.json"
        net.write_text(json.dumps({"params": ["b"], "nodes": [
            {"name": "A", "model": {"kind": "cpt", "p": ["1/2", "1/2"]}},
            {"name": "B", "model": {"kind": "det", "expr": "b*A"}},
        ]}))
        code, out, err = run(capsys, "check", str(net))
        assert code == 1
        assert out == ""
        assert "deterministic node B depends on b" in err

    def test_cyclic_moment_dependence_exits_1(self, capsys, tmp_path):
        net = tmp_path / "coupled.json"
        net.write_text(json.dumps({
            "type": "dynbn",
            "nodes": [
                {"name": "S0", "model": {"kind": "cpt", "parents": ["S0"], "rows": [
                    {"given": [0], "p": ["2/3", "1/3"]},
                    {"given": [1], "p": ["1/4", "3/4"]}]}},
                {"name": "S1", "model": {"kind": "cpt", "parents": ["S1", "S0"], "rows": [
                    {"given": [0, 0], "p": ["9/10", "1/10"]},
                    {"given": [0, 1], "p": ["1/2", "1/2"]},
                    {"given": [1, 0], "p": ["3/10", "7/10"]},
                    {"given": [1, 1], "p": ["1/5", "4/5"]}]}},
            ],
            "inter_edges": {"S0": ["S0"], "S1": ["S1"]},
            "initial": {"S0": 0, "S1": 1},
        }))
        spec = '{"query": "predict", "target": "S1"}'
        for argv in (("query", str(net), "--spec", spec), ("check", str(net))):
            code, out, err = run(capsys, *argv)
            assert code == 1, argv
            assert out == ""
            assert "error: cyclic moment dependence: S1 -> S0*S1 -> S1" in err
            assert "Prob-solvable" in err
        code, out, _ = run(capsys, "filter", str(net), "--obs", "S1=1; ; S0=0")
        assert code == 0
        assert "step 3:" in out

    @staticmethod
    def linear_gaussian_chain(tmp_path, variance="1", params=()):
        net = tmp_path / "lg.json"
        net.write_text(json.dumps({
            "type": "dynbn",
            "params": list(params),
            "nodes": [{"name": "X", "model": {
                "kind": "lingauss", "intercept": "1", "coeffs": {"X": "1/2"},
                "variance": variance}}],
            "inter_edges": {"X": ["X"]},
            "initial": {"X": 0},
        }))
        return str(net)

    def test_continuous_slice_needs_monte_carlo(self, capsys, tmp_path):
        net = self.linear_gaussian_chain(tmp_path)
        code, out, err = run(capsys, "check", net)
        assert code == 1
        assert out == ""
        assert "error: no independent oracle applies" in err
        assert "--mc" in err
        code, out, _ = run(capsys, "check", net, "--mc", "2000")
        assert code == 0
        # E[X] at n=5 is 2 - 2^-4
        assert "ok   MC E[X] at n=5: engine 1.937500" in out
        assert "passed: 1" in out

    def test_free_parameters_block_monte_carlo(self, capsys, tmp_path):
        net = self.linear_gaussian_chain(tmp_path, variance="s", params=["s"])
        for extra in ((), ("--mc", "2000")):
            code, out, err = run(capsys, "check", net, *extra)
            assert code == 1, extra
            assert out == ""
            assert "no independent oracle applies" in err
            assert "free parameters ['s']" in err

    def test_bad_mc_count(self, capsys):
        code, _, err = run(capsys, "check", ALARM, "--mc", "0")
        assert code == 1
        assert "positive" in err

    def test_internal_failure_exits_2(self, capsys, monkeypatch):
        def broken(bn, mc_samples=None, seed=0, cap=None):
            return [CheckLine("E[B]", "1/2", "1/3", False)]

        monkeypatch.setattr("psolve.oracle.differential_check", broken)
        code, out, err = run(capsys, "check", ALARM)
        assert code == 2
        assert "FAIL" in out
        assert "internal check failed" in err


class TestTopLevel:
    def test_no_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "subcommand" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "solve", ALARM)
        assert code == 1
        assert "error:" in err

    def test_module_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "psolve", "--help"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: psolve")
