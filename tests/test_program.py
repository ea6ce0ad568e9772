"""Loop program model: draw normalization, validation, pretty printing."""

from fractions import Fraction as F

import pytest

from psolve.errors import ParseError, ProgramError, UnsupportedError
from psolve.parser import parse_program
from psolve.program import (
    Assignment,
    Branch,
    DrawRegistry,
    DrawSpec,
    Initializer,
    LoopProgram,
    is_draw,
    pretty,
    split_self,
    validate,
)
from psolve.symbolic import Polynomial, RationalFunction, RF_ONE


def rf(v):
    return RationalFunction(v)


class TestDrawSpec:
    def test_bern_moments_all_equal_p(self):
        d = DrawSpec("bern", rf(F(3, 10)))
        for k in (1, 2, 5):
            assert d.moment(k) == rf(F(3, 10))

    def test_gauss_moments(self):
        d = DrawSpec("gauss0", rf(4))
        assert d.moment(1) == rf(0)
        assert d.moment(2) == rf(4)
        assert d.moment(3) == rf(0)
        assert d.moment(4) == rf(48)  # 3 sigma^4
        assert d.moment(6) == rf(15 * 64)

    def test_unif01_moments(self):
        d = DrawSpec("unif01")
        assert d.moment(1) == rf(F(1, 2))
        assert d.moment(2) == rf(F(1, 3))
        assert d.moment(7) == rf(F(1, 8))

    def test_moment_zero_is_one(self):
        assert DrawSpec("bern", rf(F(1, 2))).moment(0) == RF_ONE

    def test_explicit_moment_list(self):
        d = DrawSpec("moments", raw_moments=(rf(1), rf(2)))
        assert d.moment(2) == rf(2)
        with pytest.raises(UnsupportedError):
            d.moment(3)

    def test_symbolic_argument(self):
        p = rf(Polynomial.var("p"))
        assert DrawSpec("bern", p).moment(3) == p


class TestSplitSelf:
    def test_splits_linear(self):
        x, y = Polynomial.var("x"), Polynomial.var("y")
        coeff, rest = split_self(2 * x * y + y + 1, "x")
        assert coeff == 2 * y
        assert rest == y + 1

    def test_rejects_quadratic(self):
        x = Polynomial.var("x")
        with pytest.raises(ProgramError):
            split_self(x * x + 1, "x")


def program_of(source):
    return parse_program(source)


class TestValidate:
    def test_forward_reference_rejected(self):
        src = """
        x := 0; y := 0;
        while true { x := y + 1; y := 1; }
        """
        with pytest.raises(ProgramError, match="references y"):
            parse_program(src)

    def test_several_forward_references_name_the_first_alphabetically(self):
        src = """
        x := 0; y := 0;
        while true { x := y + z + w + q + x; y := 1; }
        """
        with pytest.raises(ProgramError) as exc:
            parse_program(src)
        assert str(exc.value) == "update of x references q, which is not declared earlier"

    def test_backward_reference_allowed(self):
        src = """
        x := 0; y := 0;
        while true { x := 1; y := x; }
        """
        parse_program(src)

    def test_self_reference_in_own_coeff_allowed(self):
        src = """
        x := 0; y := 1;
        while true { x := 1; y := x*y + 1; }
        """
        prog = parse_program(src)
        coeff, rest = split_self(prog.update_for("y").branches[0].expr, "y")
        assert coeff == Polynomial.var("x")
        assert rest == Polynomial.zero() + 1

    def test_nonlinear_self_rejected(self):
        src = "x := 0; while true { x := x*x; }"
        with pytest.raises(ProgramError, match="nonlinear"):
            parse_program(src)

    def test_branch_probs_must_sum_to_one(self):
        src = """
        x := 0;
        while true { x := choose { 1 @ 1/2; 0 @ 1/3; }; }
        """
        with pytest.raises(ProgramError, match="sum to 1"):
            parse_program(src)

    def test_symbolic_branch_probs_must_sum_to_one(self):
        bad = "param r; x := 0; while true { x := choose { 1 @ r; 0 @ 1 - 2*r; }; }"
        with pytest.raises(ProgramError, match="sum to 1"):
            parse_program(bad)
        prog = parse_program("param r; x := 0; while true { x := choose { 1 @ r; 0 @ 1 - r; }; }")
        assert len(prog.update_for("x").branches) == 2

    def test_branch_prob_out_of_range(self):
        src = "x := 0; while true { x := 1 [3/2] 0; }"
        with pytest.raises(ProgramError, match="outside"):
            parse_program(src)

    def test_update_order_must_match_declaration(self):
        prog = parse_program("x := 0; y := 0; while true { x := 0; y := 1; }")
        swapped = LoopProgram(
            prog.params, prog.supports, prog.inits,
            (prog.updates[1], prog.updates[0]), prog.draws,
        )
        with pytest.raises(ProgramError, match="declaration order"):
            validate(swapped)

    def test_support_for_unknown_variable(self):
        with pytest.raises(ProgramError, match="unknown variable"):
            parse_program("support y 2; x := 0; while true { x := 0; }")

    def test_init_outside_support(self):
        with pytest.raises(ProgramError, match="support"):
            parse_program("support x 2; x := 5; while true { x := 0; }")

    def test_continuous_init_for_finite_variable(self):
        with pytest.raises(ProgramError, match="continuous"):
            parse_program("support x 2; x := gauss(0, 1); while true { x := 0; }")

    def test_negative_variance(self):
        with pytest.raises(ProgramError, match="variance"):
            parse_program("x := 0; while true { x := gauss(0, 0 - 1); }")

    def test_bern_prob_range(self):
        with pytest.raises(ProgramError, match="probability"):
            parse_program("x := 0; while true { x := bern(2); }")

    def test_draw_arg_cannot_use_variables(self):
        src = "x := 1; while true { x := bern(x); }"
        with pytest.raises(Exception):
            parse_program(src)

    def test_variable_named_n_rejected(self):
        # the parser already reserves 'n'; a hand-built program hits validate
        with pytest.raises(ParseError):
            parse_program("n := 0; while true { n := 1; }")
        prog = parse_program("x := 0; while true { x := 1; }")
        renamed = LoopProgram(
            prog.params, prog.supports,
            (Initializer("n", Polynomial.zero()),),
            (Assignment("n", prog.updates[0].branches),),
            prog.draws,
        )
        with pytest.raises(ProgramError, match="reserved"):
            validate(renamed)


class TestPretty:
    def test_roundtrip_umbrella(self):
        src = """
        support R 2; support U 2;
        R := 1; U := 0;
        while true {
            R := bern(7/10)*R + bern(3/10)*(1 - R);
            U := bern(9/10)*R + bern(1/5)*(1 - R);
        }
        """
        prog = parse_program(src)
        again = parse_program(pretty(prog))
        assert again == prog

    def test_roundtrip_gauss_and_uniform(self):
        src = """
        param a;
        x := 0; s := 0;
        while true {
            x := gauss(x + 1, 4);
            s := s + uniform(0, a);
        }
        """
        prog = parse_program(src)
        assert parse_program(pretty(prog)) == prog

    def test_roundtrip_choose(self):
        src = """
        x := 0;
        while true {
            x := choose { x + 1 @ 1/3; x @ 1/3; 0 @ 1/3; };
        }
        """
        prog = parse_program(src)
        assert parse_program(pretty(prog)) == prog
        assert len(prog.update_for("x").branches) == 3

    def test_draw_factoring_display(self):
        # a squared Gaussian occurrence renders via its distribution, not a
        # raw draw symbol
        src = "x := 0; while true { x := gauss(0, 1)^2; }"
        text = pretty(parse_program(src))
        assert "$" not in text

    def test_entangled_shared_draws_rejected(self):
        # u*g + u + g: both draws are shared across monomials, and one
        # monomial holds both, so no faithful factoring exists
        reg = DrawRegistry()
        u = reg.fresh(DrawSpec("unif01"))
        g = reg.fresh(DrawSpec("gauss0", rf(1)))
        prog = LoopProgram(
            params=(),
            supports={},
            inits=(Initializer("x", Polynomial.zero()),),
            updates=(Assignment("x", (Branch(RF_ONE, u * g + u + g),)),),
            draws=reg.draws,
        )
        with pytest.raises(UnsupportedError, match="entangled"):
            pretty(prog)

    def test_mixed_power_shared_draw_rejected(self):
        reg = DrawRegistry()
        u = reg.fresh(DrawSpec("unif01"))
        prog = LoopProgram(
            params=(),
            supports={},
            inits=(Initializer("x", Polynomial.zero()),),
            updates=(Assignment("x", (Branch(RF_ONE, u * u + u),)),),
            draws=reg.draws,
        )
        with pytest.raises(UnsupportedError, match="mixed powers"):
            pretty(prog)

    def test_unshared_draw_product_renders(self):
        reg = DrawRegistry()
        u = reg.fresh(DrawSpec("unif01"))
        g = reg.fresh(DrawSpec("gauss0", rf(1)))
        prog = LoopProgram(
            params=(),
            supports={},
            inits=(Initializer("x", Polynomial.zero()),),
            updates=(Assignment("x", (Branch(RF_ONE, u * g),)),),
            draws=reg.draws,
        )
        text = pretty(prog)
        assert "$" not in text
        assert parse_program(text) == prog


class TestProgramEquality:
    def test_draw_renaming_ignored(self):
        a = parse_program("x := 0; while true { x := bern(1/2) + bern(1/3); }")
        b = parse_program("x := 0; while true { x := bern(1/3) + bern(1/2); }")
        assert a == b

    def test_different_probabilities_differ(self):
        a = parse_program("x := 0; while true { x := bern(1/2); }")
        b = parse_program("x := 0; while true { x := bern(1/3); }")
        assert a != b


class TestHelpers:
    def test_is_draw(self):
        assert is_draw("$0")
        assert not is_draw("x")

    def test_variables_property(self):
        prog = parse_program("x := 0; y := 1; while true { x := 0; y := 1; }")
        assert prog.variables == ("x", "y")
        assert prog.update_for("y").target == "y"
        with pytest.raises(KeyError):
            prog.update_for("z")
