"""End-to-end command line tests, run in process through main()."""

import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest

from psolve.cli import _build_parser, main
from psolve.oracle import CheckLine
from psolve.parser import parse_program
from psolve.program import pretty, validate

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


def python(*args):
    """Run a fresh interpreter in the repository root with src importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )


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

    def test_limit_diverging_on_a_parameter_interval(self, capsys, tmp_path):
        # the base a lies in (2, 3) by its domain, so past 1 in modulus
        prog = tmp_path / "grow.psl"
        prog.write_text("param a in (2, 3); x := 1; while true { x := a*x; }\n")
        assert run(capsys, "analyze", str(prog), "--goal", "x", "--limit") == (
            0, "goal: E[x]\nexact: diverges\nassumptions: (none)\n", "")

    def test_closed_form_lists_its_dependencies_assumptions(self, capsys, tmp_path):
        prog = tmp_path / "xyz.psl"
        prog.write_text(
            "param a; param b;\n"
            "z := 1; y := 0; x := 0;\n"
            "while true {\n    z := b*z;\n    y := a*y + z;\n    x := x + y;\n}\n"
        )
        code, out, _ = run(capsys, "analyze", str(prog), "--goal", "x")
        assert code == 0
        assert out == (
            "goal: E[x]\n"
            "closed_form: (a^2*b - 2*a*b^2 + b^3)/(a^3*b - 2*a^2*b^2 + a*b^3 - a^3"
            " + a^2*b + a*b^2 - b^3 + a^2 - 2*a*b + b^2)"
            " + (a*b/(a^2 - a*b - a + b))*a^n + (-b^2/(a*b - b^2 - a + b))*b^n\n"
            "assumptions:\n  a != 1\n  b != 1\n  b != a\n"
        )

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

    def test_negative_horizon_is_an_argument_error(self, capsys):
        assert run(capsys, "analyze", UMBRELLA_PSL, "--goal", "R", "--at", "-1") == (
            1, "", "error: argument --at: must be nonnegative, got -1\n")

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

    @pytest.mark.parametrize("net, spec, message", [
        ("alarm.json", '{"query": "conditional", "target": "B", "evidence": "A"}',
         "evidence must be a mapping or a list of [node, state] pairs, got 'A'"),
        ("alarm.json", '{"query": "conditional", "target": "B", "evidence": 5}',
         "evidence must be a mapping or a list of [node, state] pairs, got 5"),
        ("alarm.json", '{"query": "conditional", "target": "B", "evidence": [5]}',
         "evidence entry 5 is not a [node, state] pair"),
        ("alarm.json", '{"query": "conditional", "target": "B", "evidence": [["A", 1, 2]]}',
         "evidence entry ['A', 1, 2] is not a [node, state] pair"),
        ("alarm.json", '{"query": "conditional", "target": "B", "evidence": [[1, 1]]}',
         "evidence entry [1, 1] is not a [node, state] pair"),
        ("alarm.json", '{"query": "distribution", "node": ["A"]}',
         'distribution needs a "node" name'),
        ("alarm.json", '{"query": "distribution", "node": "A", "evidence": 0}',
         "evidence must be a mapping or a list of [node, state] pairs, got 0"),
        ("alarm.json", '{"query": "distribution", "node": "A", "evidence": false}',
         "evidence must be a mapping or a list of [node, state] pairs, got False"),
        ("alarm.json", '{"query": "distribution", "node": "A", "evidence": ""}',
         "evidence must be a mapping or a list of [node, state] pairs, got ''"),
        ("umbrella_filter.json", '{"query": "filter", "observations": ["U"]}',
         "evidence must be a mapping or a list of [node, state] pairs, got 'U'"),
        ("umbrella_filter.json", '{"query": "filter", "observations": "U"}',
         "observations must be a list of steps, got 'U'"),
        ("umbrella.json", '{"query": "conditional", "target": "R", "evidence": {"U": 1}}',
         "conditional queries apply to static networks"),
        ("umbrella.json", '{"query": "distribution", "node": "R"}',
         "distribution queries apply to static networks"),
    ], ids=["evidence-string", "evidence-number", "evidence-list-of-number",
            "evidence-triple", "evidence-number-name", "distribution-node-list",
            "distribution-evidence-zero", "distribution-evidence-false",
            "distribution-evidence-empty-string",
            "observation-step-string", "observations-string",
            "conditional-on-dynamic", "distribution-on-dynamic"])
    def test_malformed_document_exits_1(self, capsys, net, spec, message):
        code, out, err = run(capsys, "query", str(DATA / net), "--spec", spec)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"
        assert "Traceback" not in err

    def test_evidence_pairs_accepted(self, capsys):
        code, out, _ = run(capsys, "query", ALARM, "--spec",
                           '{"query": "conditional", "target": "B", "evidence": [["A", 1]]}')
        assert code == 0
        assert "exact: 156670/419407" in out

    @pytest.mark.parametrize("evidence", ["{}", "[]", "null"])
    def test_distribution_without_evidence(self, capsys, evidence):
        _, plain, _ = run(capsys, "query", ALARM, "--spec",
                          '{"query": "distribution", "node": "A"}')
        code, out, _ = run(capsys, "query", ALARM, "--spec",
                           f'{{"query": "distribution", "node": "A", "evidence": {evidence}}}')
        assert (code, out) == (0, plain)
        assert "exact: (498741779/500000000, 1258221/500000000)" in out

    @pytest.mark.parametrize("net, spec", [
        ("alarm.json", '{"query": "moment", "target": {}}'),
        ("alarm.json", '{"query": "conditional", "target": {}, "evidence": {"A": 1}}'),
        ("umbrella.json", '{"query": "moment", "target": {}}'),
    ], ids=["static-moment", "static-conditional", "dynamic-moment"])
    def test_empty_event_has_expectation_one(self, capsys, net, spec):
        code, out, _ = run(capsys, "query", str(DATA / net), "--spec", spec)
        assert code == 0
        assert "exact: 1\ndecimal: 1.000000\n" in out

    def test_predict_on_static_network_exits_1(self, capsys):
        code, out, err = run(capsys, "query", ALARM, "--spec",
                             '{"query": "predict", "target": "A"}')
        assert (code, out) == (1, "")
        assert err == "error: predict queries apply to dynamic networks\n"

    def test_filter_on_static_network_exits_1(self, capsys):
        code, out, err = run(capsys, "query", ALARM, "--spec",
                             '{"query": "filter", "observations": [{"M": 1}]}')
        assert (code, out) == (1, "")
        assert err == "error: filter queries apply to dynamic networks\n"


def _long_int(text):
    """int(text) for a decimal string longer than the interpreter's digit
    limit, read a thousand digits at a time."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


class TestLongAnswers:
    """An exact answer whose integers have more digits than str() allows
    by default is printed in full."""

    @pytest.mark.parametrize("argv, n", [
        (["query", str(DATA / "umbrella.json"), "--spec",
          '{"query": "predict", "target": "R", "at": 100000}'], 100000),
        (["analyze", UMBRELLA_PSL, "--goal", "R", "--at", "20000"], 20000),
    ])
    def test_umbrella_far_ahead(self, capsys, argv, n):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        exact = next(line for line in out.splitlines() if line.startswith("exact: "))
        num, den = exact.removeprefix("exact: ").split("/")
        assert len(den) > 4300
        # E[R](n) = 1/2 + (1/2)(2/5)^n
        assert F(_long_int(num), _long_int(den)) == F(1, 2) + F(1, 2) * F(2, 5) ** n
        assert "decimal: 0.500000" in out


class TestUnreadableFiles:
    """An input file that is not text, or an output path that cannot be
    written, ends in one error line and exit code 1."""

    @pytest.mark.parametrize("argv", [
        ["query", "BAD", "--spec", '{"query": "moment", "target": "A"}'],
        ["analyze", "BAD", "--goal", "x"],
        ["query", ALARM, "--spec", "BAD"],
    ], ids=["network", "program", "spec"])
    def test_undecodable_file(self, capsys, tmp_path, argv):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, *(str(path) if a == "BAD" else a for a in argv))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot decode {path}: ")

    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "no_such_dir" / "out.psl"
        code, out, err = run(capsys, "compile-bn", ALARM, "-o", str(target))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {target}: No such file or directory\n"


LIMIT = sys.get_int_max_str_digits()
TOO_LONG = "7" * (LIMIT + 1)


@pytest.mark.skipif(LIMIT == 0, reason="int-string conversion is unlimited")
class TestNumbersPastTheDigitLimit:
    """A number with more digits than the interpreter converts to an int
    ends in an error, not a traceback; the limit is left as it is."""

    @pytest.mark.parametrize("source, where", [
        (f"x := 1; while true {{ x := x^{TOO_LONG}; }}", "1:29"),
        (f"support x {TOO_LONG}; x := bern(1/2); while true {{ x := x; }}", "1:11"),
    ], ids=["exponent", "support"])
    def test_program_source(self, capsys, tmp_path, source, where):
        prog = tmp_path / "long.psl"
        prog.write_text(source)
        code, out, err = run(capsys, "analyze", str(prog), "--goal", "x")
        assert (code, out) == (1, "")
        assert err == f"error: {where}: number has more than {LIMIT} digits\n"

    def test_branch_probability_past_the_limit(self, capsys, tmp_path):
        # 2^20000 parses, and its error prints all of its digits
        prog = tmp_path / "long.psl"
        prog.write_text("x := 0; while true { x := x + 1 [2^20000] x; }")
        code, out, err = run(capsys, "analyze", str(prog), "--goal", "x")
        assert (code, out) == (1, "")
        assert err.startswith("error: branch probability 3980")
        assert err.endswith("9376 of x outside [0, 1]\n") and len(err) > 6000

    @pytest.mark.parametrize("goal", [f"R^{TOO_LONG}"], ids=["exponent"])
    def test_goal(self, capsys, goal):
        code, out, err = run(capsys, "analyze", UMBRELLA_PSL, "--goal", goal)
        assert (code, out) == (1, "")
        assert err == f"error: 1:3: number has more than {LIMIT} digits\n"

    @pytest.mark.parametrize("where", ["program", "goal"])
    def test_literal_past_the_limit_parses(self, capsys, tmp_path, where):
        # a value's literal is built from chunks the interpreter converts,
        # so it parses and prints back in full
        prog = tmp_path / "long.psl"
        if where == "program":
            prog.write_text(f"x := {TOO_LONG}; while true {{ x := x; }}")
            argv = ["analyze", str(prog), "--goal", "x"]
        else:
            argv = ["analyze", UMBRELLA_PSL, "--goal", f"R*{TOO_LONG}"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert TOO_LONG in out

    def test_cpt_probability(self, capsys, tmp_path):
        net = tmp_path / "long.json"
        net.write_text(json.dumps({"type": "bn", "nodes": [
            {"name": "A", "model": {"kind": "cpt", "p": [f"1/{TOO_LONG}", "1"]}}]}))
        code, out, err = run(capsys, "compile-bn", str(net))
        assert (code, out) == (1, "")
        assert err == f"error: node A probability: 1:3: number has more than {LIMIT} digits\n"

    def test_compiled_coefficient_prints_in_full(self, capsys, tmp_path):
        # "10^5000" is a short text for a long number: the compiled program
        # prints all of its digits, and that text parses back to the same
        # program, and through `analyze`, at the interpreter's digit limit
        net = tmp_path / "big.json"
        net.write_text(json.dumps({"type": "bn", "nodes": [
            {"name": "A", "model": {"kind": "lingauss", "intercept": "1", "variance": "1"}},
            {"name": "B", "model": {"kind": "lingauss", "coeffs": {"A": "10^5000"},
                                    "variance": "1"}}]}))
        code, out, err = run(capsys, "compile-bn", str(net))
        assert (code, err) == (0, "")
        assert f"    B := gauss(0, 1) + 1{'0' * 5000}*A;\n" in out
        assert pretty(parse_program(out)) == out
        assert sys.get_int_max_str_digits() == LIMIT
        program = tmp_path / "big.psl"
        program.write_text(out)
        code, analyzed, err = run(capsys, "analyze", str(program), "--goal", "B")
        assert (code, err) == (0, "")
        assert f"1{'0' * 5000}" in analyzed

    def test_network_integer(self, capsys, tmp_path):
        # valid JSON that Python will not convert: named as the parser
        # names it, with no advice to raise the interpreter's limit
        net = tmp_path / "long.json"
        net.write_text('{"type": "bn", "nodes": [{"name": "A", "model": '
                       f'{{"kind": "cpt", "p": [1, {TOO_LONG}]}}}}]}}')
        code, out, err = run(capsys, "compile-bn", str(net))
        assert (code, out) == (1, "")
        assert err == f"error: {net}: number has more than {LIMIT} digits\n"

    @pytest.mark.parametrize("argv, what", [
        (["query", ALARM, "--spec", f'{{"query": "moment", "target": "B", "k": {TOO_LONG}}}'],
         "query spec"),
        (["samples", ALARM, "--evidence", f'{{"J": {TOO_LONG}}}'], "evidence"),
        (["filter", str(DATA / "umbrella.json"), "--obs", f'[{{"U": {TOO_LONG}}}]'],
         "observations"),
    ], ids=["spec", "evidence", "observations"])
    def test_json_integer(self, capsys, argv, what):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {what}: number has more than {LIMIT} digits\n"

    def test_param_value(self, capsys):
        code, out, err = run(capsys, "query", ALARM_SENS, "--param", f"b={TOO_LONG}",
                             "--spec", '{"query": "moment", "target": "B"}')
        assert (code, out) == (1, "")
        assert err == f"error: --param b: number has more than {LIMIT} digits\n"

    def test_evidence_state(self, capsys):
        code, out, err = run(capsys, "samples", ALARM, "--evidence", f"J={TOO_LONG}")
        assert (code, out) == (1, "")
        assert err == f"error: evidence state has more than {LIMIT} digits\n"

    def test_state_index_string(self, capsys):
        code, out, err = run(capsys, "query", ALARM, "--spec", json.dumps(
            {"query": "conditional", "target": "B", "evidence": {"J": TOO_LONG}}))
        assert (code, out) == (1, "")
        # the state is echoed up to 40 characters, not all 4301
        assert err == f"error: unknown state '{TOO_LONG[:40]}...' of node J\n"


class TestSymbolicDenominators:
    """CPT rows whose probabilities have a parameter in the denominator:
    the compiled static program weighs such a branch by a Bernoulli coin."""

    RATBN = {"type": "bn", "params": [{"name": "r", "domain": ["0.3", "1"]}], "nodes": [
        {"name": "R", "model": {"kind": "cpt", "p": ["1/(1 + r)", "r/(1 + r)"]}},
        {"name": "U", "model": {"kind": "cpt", "parents": ["R"], "rows": [
            {"given": [1], "p": ["0.1", "0.9"]}, {"given": [0], "p": ["1 - r/2", "r/2"]}]}}]}
    THREE_STATES = {"type": "bn", "params": [{"name": "r", "domain": ["0", "1"]}], "nodes": [
        {"name": "A", "model": {"kind": "cpt", "p": ["1/2", "1/2"]}},
        {"name": "T", "model": {"kind": "cpt", "parents": ["A"], "rows": [
            {"given": [1], "p": ["1/(2 + r)", "1/(2 + r)", "r/(2 + r)"]},
            {"given": [0], "p": ["1/3", "1/3", "1/3"]}]}}]}

    @staticmethod
    def _net(tmp_path, doc):
        net = tmp_path / "net.json"
        net.write_text(json.dumps(doc))
        return str(net)

    def test_conditional(self, capsys, tmp_path):
        # P(R=1 | U=1) = (9/10 * r/(1 + r)) / (7/5 * r/(1 + r))
        spec = '{"query": "conditional", "target": "R", "evidence": {"U": 1}}'
        code, out, err = run(capsys, "query", self._net(tmp_path, self.RATBN), "--spec", spec)
        assert (code, err) == (0, "")
        assert "exact: 9/14\n" in out

    @pytest.mark.parametrize("doc, line", [
        (RATBN, "ok   E[R*U]: engine 9/10*r/(r + 1), oracle 9/10*r/(r + 1)"),
        (THREE_STATES, "ok   E[A*T]: engine (r + 1/2)/(r + 2), oracle (r + 1/2)/(r + 2)"),
    ], ids=["ratbn", "three-states"])
    def test_check_passes(self, capsys, tmp_path, doc, line):
        code, out, err = run(capsys, "check", self._net(tmp_path, doc), "--json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["passed"], report["failed"]) == (4, 0)
        assert line in report["checks"]

    def test_loop_branch(self, capsys, tmp_path):
        prog = tmp_path / "coin.psl"
        prog.write_text("param b in (0, 1); x := 0; y := 0;\n"
                        "while true { x := 1 [1/(1 + b)] 0; y := y + x; }\n")
        code, out, err = run(capsys, "analyze", str(prog), "--goal", "y", "--at", "3")
        assert (code, err) == (0, "")
        assert "exact: 3/(b + 1)\n" in out


class TestParameterNamedLikeACompiledVariable:
    """A parameter may be named like a variable the compiler makes up, a
    row auxiliary `<node>_<row>` or a sampling monitor's `count`: the made-up
    variable takes another name."""

    ROW_AUX = {"type": "bn", "params": [{"name": "A_1", "domain": ["0", "1"]}], "nodes": [
        {"name": "B", "model": {"kind": "cpt", "p": ["1/2", "1/2"]}},
        {"name": "A", "model": {"kind": "cpt", "parents": ["B"], "rows": [
            {"given": [0], "p": ["1 - A_1", "A_1"]}, {"given": [1], "p": ["1/4", "3/4"]}]}}]}
    DYN_ROW_AUX = {"type": "dynbn", "params": [{"name": "T_1", "domain": ["0", "1/2"]}], "nodes": [
        {"name": "R", "model": {"kind": "cpt", "parents": ["R"], "rows": [
            {"given": [1], "p": ["0.7", "0.3"]}, {"given": [0], "p": ["0.3", "0.7"]}]}},
        {"name": "T", "model": {"kind": "cpt", "parents": ["R"], "rows": [
            {"given": [1], "p": ["T_1", "1/2", "1/2 - T_1"]},
            {"given": [0], "p": ["1/3", "1/3", "1/3"]}]}}],
        "inter_edges": {"R": ["R"]}, "initial": {"R": 1}}
    COUNT = {"type": "bn", "params": [{"name": "count", "domain": ["0", "1"]}], "nodes": [
        {"name": "A", "model": {"kind": "cpt", "p": ["1 - count", "count"]}},
        {"name": "B", "model": {"kind": "cpt", "parents": ["A"], "rows": [
            {"given": [0], "p": ["1/3", "2/3"]}, {"given": [1], "p": ["1/5", "4/5"]}]}}]}

    @pytest.mark.parametrize("doc, argv, line", [
        (ROW_AUX, ("query", "--spec",
                   '{"query": "conditional", "target": "B", "evidence": {"A": 1}}'),
         "exact: 3/(4*A_1 + 3)\n"),
        (ROW_AUX, ("samples", "--evidence", "A=1"), "monitor_limit: 8/(4*A_1 + 3)\n"),
        (DYN_ROW_AUX, ("query", "--spec", '{"query": "predict", "target": "T", "at": 2}'),
         "exact: -29/25*T_1 + 129/100\n"),
        (DYN_ROW_AUX, ("filter", "--obs", "T=2; T=0"), "states: R=0 | R=1\n"),
        (COUNT, ("samples", "--evidence", "B=1"), "monitor_limit: 15/2/(count + 5)\n"),
        (COUNT, ("query", "--spec", '{"query": "moment", "target": "B"}'),
         "exact: 2/15*count + 2/3\n"),
    ], ids=["row-aux-conditional", "row-aux-samples", "dyn-row-aux-predict",
            "dyn-row-aux-filter", "count-samples", "count-moment"])
    def test_query_answers(self, capsys, tmp_path, doc, argv, line):
        net = tmp_path / "net.json"
        net.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv[0], str(net), *argv[1:])
        assert (code, err) == (0, "")
        assert line in out

    @pytest.mark.parametrize("doc", [ROW_AUX, DYN_ROW_AUX, COUNT],
                             ids=["row-aux", "dyn-row-aux", "count"])
    def test_check_and_compile(self, capsys, tmp_path, doc):
        net = tmp_path / "net.json"
        net.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(net), "--json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["passed"] > 0 and report["failed"] == 0
        code, out, err = run(capsys, "compile-bn", str(net))
        assert (code, err) == (0, "")
        prog = parse_program(out)
        validate(prog)
        assert [p.name for p in prog.params] == [p["name"] for p in doc["params"]]


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

    @pytest.mark.parametrize("evidence", ["J=\u00b2", '{"J": "\u00b2"}'], ids=["pair", "json"])
    def test_digit_that_is_no_number(self, capsys, evidence):
        # str.isdigit() holds for a superscript two, which int() refuses
        assert run(capsys, "samples", ALARM, "--evidence", evidence) == (
            1, "", "error: unknown state '\u00b2' of node J\n")


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

    @pytest.mark.parametrize("initial, bindings, message", [
        ("bern(1.5)", [], "initial value of R: bern(3/2) probability outside [0, 1]"),
        ("bern(r)", ["--param", "r=3/2"],
         "binding r=3/2: initial value of R: bern(3/2) probability outside [0, 1]"),
    ], ids=["loaded", "bound"])
    def test_slice_zero_draw_outside_its_range(self, capsys, tmp_path, initial, bindings,
                                               message):
        # the filter never compiles the network, so loading and binding check it
        net = tmp_path / "coin.json"
        net.write_text(json.dumps({
            "type": "dynbn", "params": [{"name": "r", "domain": ["0", "2"]}],
            "nodes": [
                {"name": "R", "model": {"kind": "cpt", "parents": ["R"], "rows": [
                    {"given": [1], "p": ["0.7", "0.3"]}, {"given": [0], "p": ["0.3", "0.7"]}]}},
                {"name": "U", "model": {"kind": "cpt", "parents": ["R"], "rows": [
                    {"given": [1], "p": ["0.1", "0.9"]}, {"given": [0], "p": ["0.8", "0.2"]}]}}],
            "inter_edges": {"R": ["R"]}, "initial": {"R": initial}}))
        assert run(capsys, "filter", str(net), "--obs", "U=1; U=0", *bindings) == (
            1, "", f"error: {message}\n")

    @pytest.mark.parametrize("nodes, inter_edges, message", [
        ([{"name": "R", "model": {"kind": "cpt", "p": ["1/2", "1/2"]}}], {},
         "network has no temporal nodes to track"),
        ([{"name": "R", "model": {"kind": "cpt", "parents": ["R"], "rows": [
            {"given": [0], "p": ["1/2", "1/2"]}, {"given": [1], "p": ["1/4", "3/4"]}]}},
          {"name": "G", "model": {"kind": "lingauss", "variance": "1"}}], {"R": ["R"]},
         "filtering needs an all-discrete slice, G is not"),
    ], ids=["no-temporal-node", "continuous-node"])
    def test_slice_it_cannot_filter(self, capsys, tmp_path, nodes, inter_edges, message):
        net = tmp_path / "slice.json"
        net.write_text(json.dumps({"type": "dynbn", "nodes": nodes, "inter_edges": inter_edges}))
        assert run(capsys, "filter", str(net), "--obs", "R=1") == (1, "", f"error: {message}\n")

    def test_static_network_rejected(self, capsys):
        # the same text as a filter query document on a static network
        assert run(capsys, "filter", ALARM, "--obs", "U=1") == (
            1, "", "error: filter queries apply to dynamic networks\n")


class TestInitialValues:
    """A finite-support initial value whose outcomes are no states is
    refused where the program parses or the network loads, so no command
    prints a number for it."""

    @pytest.mark.parametrize("source, message", [
        ("support x 2; x := 2*bern(1/2); while true { x := x; }",
         "initializer 2 (an outcome of 2*bern(1/2)) of x outside declared support 0..1"),
        ("param p in (0, 1); support x 2; x := p; while true { x := x; }",
         "initializer p of x outside declared support 0..1"),
    ], ids=["two", "parameter"])
    def test_program_refused(self, capsys, tmp_path, source, message):
        prog = tmp_path / "init.psl"
        prog.write_text(source)
        assert run(capsys, "analyze", str(prog), "--goal", "x^2", "--at", "0") == (
            1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["check"], ["compile-bn"], ["filter", "--obs", "U=1"],
        ["query", "--spec", '{"query": "predict", "target": "R*R", "at": 0}'],
    ], ids=["check", "compile-bn", "filter", "predict"])
    def test_network_refused(self, capsys, tmp_path, argv):
        doc = json.loads((DATA / "umbrella_filter.json").read_text())
        doc["initial"]["R"] = "2*bern(1/2)"
        net = tmp_path / "two.json"
        net.write_text(json.dumps(doc))
        assert run(capsys, argv[0], str(net), *argv[1:]) == (1, "", (
            "error: initial value of R: 2 (an outcome of 2*bern(1/2)) "
            "is outside the node's support\n"))


def _gate_doc(k, expr, params=()):
    """A deterministic node D over k fair binary roots P0..P{k-1}."""
    nodes = [{"name": f"P{i}", "model": {"kind": "cpt", "p": ["1/2", "1/2"]}} for i in range(k)]
    return {"params": list(params),
            "nodes": nodes + [{"name": "D", "model": {"kind": "det", "expr": expr}}]}


class TestDeterministicNodes:
    """A deterministic node is checked on every assignment of its parents
    where the network loads, so no command prints a number for one that
    leaves its support."""

    @pytest.mark.parametrize("doc, message", [
        (_gate_doc(13, " + ".join(f"P{i}" for i in range(13))),
         "node D has 8192 parent assignments, more than 4096 outcomes to enumerate"),
        (_gate_doc(1, "a*P0", [{"name": "a", "domain": ["0", "1"]}]),
         "node D: expr evaluates to a at {'P0': 1}, outside 0..1"),
    ], ids=["sum-of-13", "parameter"])
    @pytest.mark.parametrize("argv", [
        ["query", "--spec", '{"query": "moment", "target": "D", "k": 2}'],
        ["query", "--spec", '{"query": "distribution", "node": "D"}'],
        ["check"], ["compile-bn"], ["samples", "--evidence", "P0=1"],
    ], ids=["moment", "distribution", "check", "compile-bn", "samples"])
    def test_refused(self, capsys, tmp_path, doc, message, argv):
        net = tmp_path / "det.json"
        net.write_text(json.dumps(doc))
        assert run(capsys, argv[0], str(net), *argv[1:]) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("k", [10, 12])
    def test_wide_or_gate(self, capsys, tmp_path, k):
        net = tmp_path / "or.json"
        net.write_text(json.dumps(_gate_doc(k, "1 - " + "*".join(f"(1 - P{i})" for i in range(k)))))
        code, out, _ = run(capsys, "query", str(net), "--spec",
                           '{"query": "moment", "target": "D"}')
        assert code == 0
        assert f"exact: {2**k - 1}/{2**k}\n" in out


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
        assert err == "error: node B: expr evaluates to b at {'A': 1}, outside 0..1\n"

    def test_state_space_past_the_cap_exits_1(self, capsys, tmp_path):
        net = tmp_path / "wide.json"
        net.write_text(json.dumps({"nodes": [
            {"name": f"P{i}", "model": {"kind": "cpt", "p": ["1/2", "1/2"]}} for i in range(21)]}))
        assert run(capsys, "check", str(net)) == (1, "", (
            "error: state space of 2097152 assignments exceeds the enumeration cap of 1048576\n"))

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
        proc = python("-m", "psolve", "--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: psolve")


class TestOneParserPerProcess:
    """`main` builds its parser once per process; a call leaves nothing on
    it that the next call could see."""

    SPEC = TestQuery.SPEC
    BOUND = ("query: conditional\nexact: 156670/419407\ndecimal: 0.373551\n"
             "assumptions: (none)\n")
    FREE = ("query: conditional\n"
            "exact: (-10*b*q - 940*b)/(279*b*q - 939*b - 289*q - 1)\n"
            "decimal: (-10*b*q - 940*b)/(279*b*q - 939*b - 289*q - 1)\n"
            "assumptions:\n"
            "  (-279/1000*b*q + 939/1000*b + 289/1000*q + 1/1000) != 0\n")

    def test_built_once(self):
        assert _build_parser() is _build_parser()

    def test_param_list_starts_empty_on_every_call(self, capsys):
        bound = ("--param", "b=1/1000", "--param", "q=1/500")
        query = ("query", ALARM_SENS, "--spec", self.SPEC)
        assert run(capsys, *query, *bound) == (0, self.BOUND, "")
        assert run(capsys, *query) == (0, self.FREE, "")
        assert run(capsys, *query, "--param", "b=1", "--param", "b=2") == (
            1, "", "error: --param b given twice\n")
        assert run(capsys, *query, *bound) == (0, self.BOUND, "")
        assert run(capsys, *query) == (0, self.FREE, "")

    def test_argparse_error_then_good_call(self, capsys):
        query = ("query", ALARM, "--spec", self.SPEC)
        assert run(capsys, *query, "--digits", "-3") == (
            1, "", "error: argument --digits: must be nonnegative, got -3\n")
        assert run(capsys, *query) == (0, self.BOUND, "")
        assert run(capsys, *query, "--digits", "3")[1].endswith(
            "decimal: 0.374\nassumptions: (none)\n")
        assert run(capsys, *query) == (0, self.BOUND, "")

    def test_no_subcommand_after_a_command(self, capsys):
        assert run(capsys, "query", ALARM, "--spec", self.SPEC)[0] == 0
        assert run(capsys) == (1, "", "error: pick a subcommand (try --help)\n")


class TestNumpyStaysOut:
    """Only the Monte Carlo sampler imports numpy."""

    MARKS_MC = """\
network: data/marks.json
checks:
  ok   E[ALG]: engine 253/5, oracle 253/5
  ok   E[ALG^2]: engine 66829/25, oracle 66829/25
  ok   E[ANL]: engine 11631/250, oracle 11631/250
  ok   E[ANL^2]: engine 149080491/62500, oracle 149080491/62500
  ok   E[Stat]: engine 1042211/25000, oracle 1042211/25000
  ok   E[Stat^2]: engine 1272324089651/625000000, oracle 1272324089651/625000000
  ok   MC E[ALG]: engine 50.600000, oracle 50.901435 (se 2.34e-01)
  ok   MC E[ANL]: engine 46.524000, oracle 46.587011 (se 3.17e-01)
  ok   MC E[Stat]: engine 41.688440, oracle 41.885326 (se 3.74e-01)
passed: 9
failed: 0
"""

    SCRIPT = textwrap.dedent("""\
        import contextlib, io, sys
        assert "numpy" not in sys.modules, "numpy is loaded at start-up"
        from psolve.cli import main
        assert "numpy" not in sys.modules, "import psolve.cli"

        def run(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(list(argv)) == 0, argv
            return out.getvalue()

        for argv in (
            ("query", "data/alarm.json", "--spec", '{"query": "moment", "target": "A"}'),
            ("check", "data/alarm.json"),
            ("compile-bn", "data/asia.json"),
        ):
            run(*argv)
            assert "numpy" not in sys.modules, argv
        out = run("check", "data/marks.json", "--mc", "2000")
        assert "numpy" in sys.modules, "check --mc"
        sys.stdout.write(out)
    """)

    def test_only_monte_carlo_loads_numpy(self):
        proc = python("-c", self.SCRIPT)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == self.MARKS_MC

    def test_module_entry_point_skips_numpy(self):
        proc = python("-X", "importtime", "-m", "psolve",
                      "check", "data/alarm.json", "--json")
        assert proc.returncode == 0, proc.stderr
        assert "| psolve.cli" in proc.stderr
        assert "numpy" not in proc.stderr
