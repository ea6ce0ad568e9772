"""Surface syntax: tokens, expressions, programs, error positions."""

import random
import sys
from fractions import Fraction as F

import pytest
from conftest import numeric_text

from psolve.errors import ParseError, ProgramError
from psolve.parser import parse_draw_expr, parse_poly, parse_program, parse_ratfun
from psolve.program import DrawRegistry, DrawSpec, pretty
from psolve.symbolic import Monomial, Polynomial, RationalFunction


class TestNumbers:
    def test_decimal_literals_are_exact(self):
        prog = parse_program("x := 0.7; while true { x := 0.1*x; }")
        assert prog.inits[0].expr.const_value() == F(7, 10)
        br = prog.updates[0].branches[0]
        assert br.expr.coeff(Monomial.of("x")) == F(1, 10)

    def test_fractions(self):
        p = parse_poly("2/3 + 1/6")
        assert p.const_value() == F(5, 6)


class TestNumericFastPath:
    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_parser(self, seed):
        rng = random.Random(seed)
        texts = ["0/7", "007", " 3 / 4 ", "1.50/0.250"] + [numeric_text(rng) for _ in range(200)]
        for text in texts:
            fast, parsed = parse_ratfun(text), parse_ratfun(f"({text})")
            assert fast == parsed and str(fast) == str(parsed), text

    @pytest.mark.parametrize("text, result", [
        ("1/0", "1:2: division by zero"),
        ("0/0", "1:2: division by zero"),
        (" 1 / 0.0 ", "1:4: division by zero"),
        ("-1/2", "-1/2"),
        ("1e3", "1:2: unexpected 'e3'"),
        ("1/2/3", "1/6"),
        ("r/2", "1/2*r"),
        ("1.", "1:2: unexpected character '.'"),
        ("", "1:1: unexpected end of input"),
    ])
    def test_other_texts_take_the_parser(self, text, result):
        try:
            got = str(parse_ratfun(text, ["r"]))
        except ParseError as exc:
            got = str(exc)
        assert got == result


LIMIT = sys.get_int_max_str_digits()
LONG = "9" * (LIMIT + 1)


@pytest.mark.skipif(LIMIT == 0, reason="int-string conversion is unlimited")
class TestDigitLimit:
    """A network number with more digits than the interpreter converts is
    an error at its own literal, parenthesized or not; a program's or a
    goal's is read in chunks, so that printed programs parse back."""

    @pytest.mark.parametrize("text, col", [
        (f"({LONG})", 2), (f"(1{LONG})/(2{LONG})", 2), (f"1/({LONG})", 4),
        (f"r*(1 - 1/2) + {LONG}", 15), (f"r^{LONG}", 3), (f"(1.5 + 0.{LONG})", 8),
    ], ids=["parenthesized", "quotient", "divisor", "sum", "exponent", "decimals"])
    def test_ratfun_refuses_at_the_literal(self, text, col):
        with pytest.raises(ParseError) as info:
            parse_ratfun(text, ["r"])
        assert str(info.value) == f"1:{col}: number has more than {LIMIT} digits"

    def test_parts_of_a_decimal_count_apart(self):
        part = "1" * LIMIT
        assert parse_ratfun(f"({part}.{part})") == parse_ratfun(f"{part}.{part}")

    def test_program_and_goal_read_in_chunks(self):
        value = 10 ** (LIMIT + 1) - 1
        assert parse_poly(f"({LONG})").const_value() == value
        prog = parse_program(f"x := {LONG}; while true {{ x := x; }}")
        assert prog.inits[0].expr.const_value() == value


class TestEntryPoints:
    """parse_ratfun, parse_draw_expr and parse_poly read one expression
    and refuse what follows it alike."""

    @pytest.mark.parametrize("parse", [
        lambda text: parse_ratfun(text, ["r"]),
        lambda text: parse_draw_expr(text, ["r"], DrawRegistry()),
        lambda text: parse_poly(text, ["x"], ["r"]),
    ], ids=["ratfun", "draw_expr", "poly"])
    def test_text_after_the_expression(self, parse):
        with pytest.raises(ParseError) as info:
            parse("r + 1 r")
        assert str(info.value) == "1:7: unexpected 'r'"

    @pytest.mark.parametrize("parse", [
        lambda text: parse_draw_expr(text, ["r"], DrawRegistry()),
        lambda text: parse_poly(text, ["x"], ["r"]),
    ], ids=["draw_expr", "poly"])
    def test_quotient_by_a_parameter_is_no_polynomial(self, parse):
        with pytest.raises(ParseError) as info:
            parse("1 + 1/r")
        assert str(info.value) == "1:1: expression must be a polynomial"

    def test_poly_refuses_distributions(self):
        with pytest.raises(ParseError) as info:
            parse_poly("x + bern(1/2)", ["x"])
        assert str(info.value) == "1:5: distributions are not allowed here"


class TestExpressions:
    def test_precedence(self):
        p = parse_poly("1 + 2*x^2", symbols=["x"])
        x = Polynomial.var("x")
        assert p == 2 * x**2 + 1

    def test_unary_minus(self):
        p = parse_poly("-x + - 2", symbols=["x"])
        assert p == -Polynomial.var("x") - 2

    def test_parentheses(self):
        p = parse_poly("(x + 1)^2", symbols=["x"])
        x = Polynomial.var("x")
        assert p == x**2 + 2 * x + 1

    def test_unknown_name_rejected(self):
        with pytest.raises(ParseError, match="unknown name"):
            parse_poly("x + z", symbols=["x", "y"])

    def test_param_division(self):
        q = parse_ratfun("(1 - b)/(2 - b)", params=["b"])
        b = Polynomial.var("b")
        assert q == RationalFunction(1 - b, 2 - b)

    def test_variable_division_rejected(self):
        with pytest.raises(ParseError, match="denominators"):
            parse_poly("1/x", symbols=["x"])

    def test_division_by_zero_rejected(self):
        with pytest.raises(ParseError, match="division by zero"):
            parse_poly("3/0")


class TestDistributions:
    def test_gauss_normalizes_to_mean_plus_draw(self):
        prog = parse_program("x := 0; while true { x := gauss(x + 1, 4); }")
        expr = prog.updates[0].branches[0].expr
        draws = [s for s in expr.symbols() if s.startswith("$")]
        assert len(draws) == 1
        spec = prog.draws[draws[0]]
        assert spec.kind == "gauss0" and spec.arg == RationalFunction(4)
        # mean survives as the polynomial part
        assert expr.substitute({draws[0]: Polynomial.zero()}) == Polynomial.var("x") + 1

    def test_uniform_normalizes_to_affine_standard(self):
        prog = parse_program("x := 0; while true { x := uniform(2, 6); }")
        expr = prog.updates[0].branches[0].expr
        sym = next(iter(s for s in expr.symbols() if s.startswith("$")))
        assert prog.draws[sym].kind == "unif01"
        assert expr == Polynomial.var(sym) * 4 + 2

    def test_bern_in_arithmetic(self):
        prog = parse_program("x := 0; while true { x := 3*bern(1/4) + 1; }")
        sym = next(iter(prog.draws))
        assert prog.draws[sym] == DrawSpec("bern", RationalFunction(F(1, 4)))

    def test_each_occurrence_is_fresh(self):
        prog = parse_program("x := 0; while true { x := bern(1/2) + bern(1/2); }")
        assert len(prog.draws) == 2

    def test_distribution_in_initializer(self):
        prog = parse_program("x := uniform(0, 1); while true { x := x; }")
        assert len(prog.draws) == 1


class TestBranches:
    def test_two_way_brackets(self):
        prog = parse_program("x := 0; while true { x := x + 1 [1/3] x; }")
        a, b = prog.updates[0].branches
        assert a.prob == RationalFunction(F(1, 3))
        assert b.prob == RationalFunction(F(2, 3))

    def test_choose_multiway(self):
        prog = parse_program(
            "x := 0; while true { x := choose { 1 @ 1/2; 2 @ 1/4; 0 @ 1/4; }; }"
        )
        probs = [br.prob for br in prog.updates[0].branches]
        assert probs == [RationalFunction(F(1, 2)), RationalFunction(F(1, 4)),
                         RationalFunction(F(1, 4))]

    def test_choose_single_arm_rejected(self):
        with pytest.raises(ParseError, match="at least two"):
            parse_program("x := 0; while true { x := choose { 1 @ 1; }; }")


class TestDirectives:
    def test_param_with_domain(self):
        prog = parse_program(
            "param r in (3/10, 1); x := 0; while true { x := bern(r)*x + bern(r); }"
        )
        (p,) = prog.params
        assert p.name == "r" and p.lo == F(3, 10) and p.hi == 1

    def test_param_empty_domain_rejected(self):
        with pytest.raises(ParseError, match="empty domain"):
            parse_program("param r in (1, 1); x := 0; while true { x := 0; }")

    def test_support_directive(self):
        prog = parse_program("support x 3; x := 2; while true { x := 0; }")
        assert prog.supports == {"x": 3}

    def test_directive_after_init_rejected(self):
        with pytest.raises(ParseError, match="precede"):
            parse_program("x := 0; support x 2; while true { x := 0; }")

    def test_duplicate_param_rejected(self):
        with pytest.raises(ParseError, match="twice"):
            parse_program("param a; param a; x := 0; while true { x := 0; }")


class TestErrors:
    def test_position_reported(self):
        try:
            parse_program("x := 0;\nwhile true { x := ; }")
        except ParseError as e:
            assert e.line == 2
            assert e.column > 0
        else:
            pytest.fail("expected ParseError")

    def test_reserved_word_as_variable(self):
        with pytest.raises(ParseError, match="reserved"):
            parse_program("choose := 0; while true { choose := 1; }")

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_program("x := 0 ? 1; while true { x := 0; }")

    def test_missing_loop(self):
        with pytest.raises(ParseError, match="expected 'while'"):
            parse_program("x := 0;")

    def test_unclosed_loop(self):
        with pytest.raises(ParseError, match="expected '}'"):
            parse_program("x := 0; while true { x := 0;")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="after the loop"):
            parse_program("x := 0; while true { x := 0; } y := 1;")

    @pytest.mark.parametrize("directive, error, message", [
        ("support x 1;", ProgramError, "support of x must be at least 2"),
        ("support x 2; support x 3;", ParseError, "1:22: support of x declared twice"),
        ("support x 1.5;", ParseError, "1:11: expected an integer support size"),
    ], ids=["size-one", "twice", "not-an-integer"])
    def test_bad_support_directive(self, directive, error, message):
        with pytest.raises(error) as info:
            parse_program(f"{directive} x := 0; while true {{ x := x; }}")
        assert str(info.value) == message

    def test_comments_ignored(self):
        prog = parse_program(
            "# header\nx := 0;  # init\nwhile true { x := x + 1; }"
        )
        assert prog.variables == ("x",)


class TestRoundTrip:
    def test_bundled_programs_roundtrip(self, tmp_path):
        import pathlib

        data = pathlib.Path(__file__).resolve().parent.parent / "data"
        for path in sorted(data.glob("*.psl")):
            prog = parse_program(path.read_text())
            assert parse_program(pretty(prog)) == prog
