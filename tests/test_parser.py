"""Surface syntax: tokens, expressions, programs, error positions."""

import random
from fractions import Fraction as F

import pytest

from psolve.errors import ParseError
from psolve.parser import parse_poly, parse_program, parse_ratfun
from psolve.program import DrawSpec, pretty
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


def numeric_text(rng: random.Random) -> str:
    """A number or a quotient of two in any spacing, with leading zeros."""
    def number():
        text = "0" * rng.choice([0, 0, 1, 2]) + str(rng.randint(0, 999))
        if rng.random() < 0.4:
            text += "." + str(rng.randint(0, 999)).zfill(rng.randint(1, 3))
        return text

    space = lambda: rng.choice(["", "", " ", "  ", "\t", "\n "])
    text = space() + number()
    if rng.random() < 0.6:
        den = number()
        while not F(den):
            den = number()
        text += space() + "/" + space() + den
    return text + space()


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
