"""Loop program model: draw normalization, validation, pretty printing."""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from psolve.errors import ParseError, ProgramError, UnsupportedError
from psolve.moments import MomentEngine
from psolve.parser import parse_program
from psolve.program import (
    Assignment,
    Branch,
    DrawRegistry,
    DrawSpec,
    Initializer,
    LoopProgram,
    extend,
    finite_outcomes,
    initial_law,
    is_draw,
    pretty,
    split_self,
    validate,
)
from psolve.symbolic import Monomial, Polynomial, RationalFunction, RF_ONE


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

    def test_unknown_kind_has_no_moments(self):
        with pytest.raises(ValueError, match="unknown draw kind moments"):
            DrawSpec("moments").moment(1)

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

    def test_constant_and_symbolic_branch_probs_sum_together(self):
        choose = "param r; x := 0; while true {{ x := choose {{ 1 @ {}; 2 @ r; 0 @ {} - r; }}; }}"
        assert len(parse_program(choose.format("1/2", "1/2")).update_for("x").branches) == 3
        # the symbolic probabilities cancel, so the constant ones must sum to 1
        assert len(parse_program(choose.format("1", "0")).update_for("x").branches) == 3
        for a, b in (("1/2", "1/3"), ("1/2", "0"), ("0", "0")):
            with pytest.raises(ProgramError, match="sum to 1"):
                parse_program(choose.format(a, b))

    def test_branch_prob_out_of_range(self):
        src = "x := 0; while true { x := 1 [3/2] 0; }"
        with pytest.raises(ProgramError, match="outside"):
            parse_program(src)

    @pytest.mark.parametrize("p, ok", [("0", True), ("1", True), ("0 - 1/2", False), ("101/100", False)])
    def test_branch_prob_range_is_closed(self, p, ok):
        src = f"x := 0; while true {{ x := 1 [{p}] 0; }}"
        if ok:
            parse_program(src)
        else:
            with pytest.raises(ProgramError, match=r"outside \[0, 1\]"):
                parse_program(src)

    @pytest.mark.parametrize("init", ["2", "0 - 1", "1/2"])
    def test_constant_init_outside_support(self, init):
        with pytest.raises(ProgramError, match="outside declared support 0..1"):
            parse_program(f"support x 2; x := {init}; while true {{ x := 0; }}")
        parse_program("support x 2; x := 1; while true { x := 0; }")

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


def two_updates(x_init, x_expr, y_expr, draws):
    """x, then y, each updated by one branch, built without the parser."""
    return LoopProgram(
        params=(),
        supports={},
        inits=(Initializer("x", x_init), Initializer("y", Polynomial.zero())),
        updates=(Assignment("x", (Branch(RF_ONE, x_expr),)),
                 Assignment("y", (Branch(RF_ONE, y_expr),))),
        draws=draws,
    )


def _outcomes(d: int):
    return itertools.product((0, 1), repeat=d)


@st.composite
def _initializers(draw):
    """A support size 2-4, up to four `bern` draws, and the value on each
    outcome of the draws: every value a state, or some not.  The initializer
    is the multilinear polynomial in the draws that takes those values."""
    size = draw(st.integers(2, 4))
    d = draw(st.integers(0, 4))
    probs = [F(draw(st.integers(0, 4)), 4) for _ in range(d)]
    if draw(st.booleans()):
        value = st.integers(0, size - 1)
    else:
        value = st.sampled_from([-1, F(1, 2), size, *range(size)])
    values = {outcome: F(draw(value)) for outcome in _outcomes(d)}
    expr = Polynomial.zero()
    for subset in _outcomes(d):  # the coefficient of the draws in subset
        coeff = sum(
            (-1) ** (sum(subset) - sum(inner)) * values[inner]
            for inner in _outcomes(d)
            if all(a <= b for a, b in zip(inner, subset))
        )
        mono = Monomial([(f"${i}", 1) for i, bit in enumerate(subset) if bit])
        expr = expr + Polynomial({mono: F(coeff)})
    draws = {f"${i}": DrawSpec("bern", rf(p)) for i, p in enumerate(probs)}
    return size, expr, draws, probs, values


class TestInitialLaw:
    """One rule for the initial value of a finite-support variable
    (`initial_law`): every outcome of its `bern` draws is a state."""

    @pytest.mark.parametrize("init, message", [
        ("bern(1/2) - bern(1/3)",
         "initializer -1 (an outcome of bern(1/2) - bern(1/3)) of x "
         "outside declared support 0..1"),
        # (b + c)^2 takes b at two powers, which no text can show
        ("(bern(1/2) + bern(1/3))^2",
         "initializer 4 (an outcome of its draws) of x outside declared support 0..1"),
    ], ids=["minus-one", "unprintable"])
    def test_refused(self, init, message):
        with pytest.raises(ProgramError) as info:
            parse_program(f"support x 2; x := {init}; while true {{ x := x; }}")
        assert str(info.value) == message

    def test_two_coins_on_three_values(self):
        prog = parse_program("support x 3; x := bern(1/2) + bern(1/3); while true { x := x; }")
        law = initial_law("x", prog.inits[0].expr, prog.draws, 3, ValueError)
        assert law == (F(1, 3), F(1, 2), F(1, 6))
        assert MomentEngine(prog).closed(Polynomial.var("x") ** 2).at(0) == F(7, 6)

    @pytest.mark.parametrize("d", [12, 13])
    def test_draws_are_bounded(self, d):
        source = f"support x {d + 1}; x := {' + '.join(['bern(1/2)'] * d)}; while true {{ x := x; }}"
        if d == 12:
            parse_program(source)
            return
        with pytest.raises(UnsupportedError) as info:
            parse_program(source)
        assert str(info.value) == (
            "initializer of x has 13 bern draws, more than 4096 outcomes to enumerate")

    @pytest.mark.parametrize("init", [
        "bern(1/(1 + b))*bern(1/(2 + b)) + bern(b/3)",
        "bern(b/2)*(bern(1/(1 + b)) + bern(1/3))",
        "1 - bern(1/(3 + b))",
    ])
    def test_law_is_the_same_rational_function(self, init):
        """Each outcome's probability is the product of its draws' weights
        from RF_ONE, added in the order of itertools.product, also where
        the walk decides a subtree early: with parameter denominators, a
        sum merged in another order may be written otherwise."""
        prog = parse_program(
            f"param b in (0, 1); support x 3; x := {init}; while true {{ x := x; }}")
        expr = prog.inits[0].expr
        drawn = sorted(filter(is_draw, expr.symbols()))
        specs = [prog.draws[sym] for sym in drawn]
        want = [RationalFunction(0)] * 3
        for outcome in _outcomes(len(drawn)):
            v = expr.substitute(dict(zip(drawn, outcome))).const_value()
            want[int(v)] += math.prod(
                (spec.arg if bit else RF_ONE - spec.arg for spec, bit in zip(specs, outcome)),
                start=RF_ONE)
        got = initial_law("x", expr, prog.draws, 3, ValueError)
        assert [(p.num, p.den) for p in got] == [(p.num, p.den) for p in want]

    @given(_initializers())
    @settings(max_examples=60, deadline=None)
    def test_moments_follow_the_law(self, case):
        size, expr, draws, probs, values = case
        prog = LoopProgram(
            params=(), supports={"x": size}, inits=(Initializer("x", expr),),
            updates=(Assignment("x", (Branch(RF_ONE, Polynomial.var("x")),)),), draws=draws)
        if any(v.denominator != 1 or not 0 <= v < size for v in values.values()):
            with pytest.raises(ProgramError, match="outside declared support"):
                validate(prog)
            return
        validate(prog)
        want = [F(0)] * size
        for outcome, v in values.items():
            want[int(v)] += math.prod(p if bit else 1 - p for p, bit in zip(probs, outcome))
        assert initial_law("x", expr, draws, size, ValueError) == tuple(want)
        engine = MomentEngine(prog)
        for j in range(1, 4):
            moment = sum(w * v**j for v, w in enumerate(want))
            assert engine.initial_moment(Monomial.of("x", j)) == moment
            assert engine.closed(Polynomial.var("x") ** j).at(0) == moment


@st.composite
def _boxes(draw):
    """A support size 2-4, a box of up to four symbols with 2-3 values
    each, and a polynomial in some of them: sparse with small
    coefficients, or interpolating values drawn on the box, every value a
    state or some not."""
    size = draw(st.integers(2, 4))
    axes = [(f"s{i}", draw(st.integers(2, 3))) for i in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            mono = Monomial([(s, draw(st.integers(1, 2))) for s, _ in axes if draw(st.booleans())])
            terms[mono] = draw(st.sampled_from([F(-1), F(1), F(2), F(1, 2)]))
        return size, axes, Polynomial(terms)
    if draw(st.booleans()):
        value = st.integers(0, size - 1)
    else:
        value = st.sampled_from([-1, F(1, 2), size, *range(size)])
    expr = Polynomial.zero()
    for point in itertools.product(*(range(n) for _, n in axes)):
        basis = Polynomial.const(draw(value))  # the value times the point's Lagrange basis
        for (sym, n), x in zip(axes, point):
            for j in range(n):
                if j != x:
                    basis = basis * (Polynomial.var(sym) - j) * F(1, x - j)
        expr = expr + basis
    return size, axes, expr


class TestFiniteOutcomes:
    """The one check of a finite-outcome value, walked one symbol at a time."""

    @given(_boxes())
    @settings(max_examples=200, deadline=None)
    def test_accepts_exactly_the_values_inside(self, case):
        size, axes, expr = case
        points = [dict(zip([s for s, _ in axes], point))
                  for point in itertools.product(*(range(n) for _, n in axes))]
        values = [expr.eval(point) for point in points]
        fits = [v.denominator == 1 and 0 <= v < size for v in values]
        inside = all(fits)
        seen = []

        def outside(value, point):
            seen.append((value, point))
            return ValueError()

        if inside:
            assert finite_outcomes(expr, axes, size, outside, "too many") is None
            return
        with pytest.raises(ValueError):
            finite_outcomes(expr, axes, size, outside, "too many")
        (value, point), = seen
        # the value at every point below the reported one, and the first
        # point outside in the order of itertools.product lies below it
        below = [v for p, v in zip(points, values) if p.items() >= point.items()]
        assert below and all(Polynomial.const(v) == value for v in below)
        first = next(p for p, fit in zip(points, fits) if not fit)
        assert first.items() >= point.items()

    def test_leftover_symbol_is_outside(self):
        seen = []
        with pytest.raises(ValueError):
            finite_outcomes(Polynomial.var("a") * Polynomial.var("A"), [("A", 2)], 2,
                            lambda value, point: seen.append((str(value), point)) or ValueError(),
                            "too many")
        assert seen == [("a", {"A": 1})]


class TestDrawOwnership:
    """Every draw a statement uses has a known distribution and belongs to
    that statement alone."""

    d = Polynomial.var("$0")
    gauss = {"$0": DrawSpec("gauss0", rf(3))}

    @pytest.mark.parametrize("case", ["two-updates", "init-and-update", "undeclared", "unknown-kind"])
    def test_rejected(self, case):
        d, x, zero = self.d, Polynomial.var("x"), Polynomial.zero()
        prog, message = {
            "two-updates": (
                two_updates(zero, d, x + d, self.gauss),
                "draw $0 occurs in the update of x and in the update of y",
            ),
            "init-and-update": (
                two_updates(d, x, x + d, self.gauss),
                "draw $0 occurs in the initializer of x and in the update of y",
            ),
            "undeclared": (
                two_updates(zero, Polynomial.var("$1") + d, x, {}),
                "draw $0 in the update of x has no distribution",
            ),
            "unknown-kind": (
                two_updates(zero, d, x, {"$0": DrawSpec("moments")}),
                "draw $0 in the update of x has unknown kind 'moments'",
            ),
        }[case]
        with pytest.raises(ProgramError) as info:
            validate(prog)
        assert str(info.value) == message

    def test_branches_of_one_update_share_a_draw(self):
        x = Polynomial.var("x")
        prog = LoopProgram(
            params=(),
            supports={},
            inits=(Initializer("x", Polynomial.zero()),),
            updates=(Assignment("x", (
                Branch(rf(F(1, 2)), self.d), Branch(rf(F(1, 2)), 2 * self.d + x),
            )),),
            draws=self.gauss,
        )
        validate(prog)


class TestExtend:
    """`extend` validates only the statements it appends, and reports the
    violation `validate` reports on the whole program."""

    BASE = """
    param a in (0, 1);
    x := bern(1/2); y := 0; w := gauss(0, 1);
    while true { x := x [1/3] 1; y := y + x + gauss(0, 1); w := 1/2*w; }
    """

    @staticmethod
    def _draw(stmt_expr):
        return Polynomial.var(next(s for s in stmt_expr.symbols() if is_draw(s)))

    def _cases(self, base):
        x, y, z, a = (Polynomial.var(s) for s in "xyza")
        zero, one = Polynomial.zero(), Polynomial.const(1)
        init_draw = self._draw(base.inits[0].expr)  # x's initializer
        upd_draw = self._draw(base.updates[1].branches[0].expr)  # y's update

        def one_var(name, init, *branches, supports=None):
            branches = branches or ((RF_ONE, x + y),)
            return ([Initializer(name, init)],
                    [Assignment(name, tuple(Branch(p, e) for p, e in branches))],
                    supports or {})

        return {
            "valid": one_var("z", zero, (RF_ONE, z * x + y)),
            "valid-branches": one_var("z", zero, (rf(F(1, 6)), x), (rf(F(1, 3)), y),
                                      (rf(F(1, 2)), zero), supports={"z": 2}),
            "valid-symbolic": one_var("z", zero, (rf(a), x), (rf(1 - a), zero)),
            "duplicate": one_var("x", zero),
            "reserved": one_var("n", zero),
            "parameter": one_var("a", zero),
            "undeclared": one_var("z", zero, (RF_ONE, x + Polynomial.var("u"))),
            "sum": one_var("z", zero, (rf(F(1, 2)), x), (rf(F(1, 3)), y)),
            "range": one_var("z", zero, (rf(F(3, 2)), x), (rf(F(-1, 2)), y)),
            "symbolic-sum": one_var("z", zero, (rf(a), x), (rf(a), y)),
            "symbolic-prob": one_var("z", zero, (rf(x), x), (rf(1 - x), y)),
            "nonlinear": one_var("z", zero, (RF_ONE, z * z)),
            "init-reads-variable": one_var("z", x),
            "init-support": one_var("z", Polynomial.const(3), supports={"z": 2}),
            "base-update-draw": one_var("z", zero, (RF_ONE, x + upd_draw)),
            "base-init-draw": one_var("z", init_draw),
            "base-draw-in-init": one_var("z", upd_draw),
            "undeclared-draw": one_var("z", zero, (RF_ONE, Polynomial.var("$9"))),
            "base-support": one_var("z", zero, supports={"w": 2}),
            "unknown-support": one_var("z", zero, supports={"v": 2}),
            "order": ([Initializer("z", zero), Initializer("u", one)],
                      [Assignment("u", (Branch(RF_ONE, x),)), Assignment("z", (Branch(RF_ONE, y),))],
                      {}),
        }

    def test_same_verdict_as_validate(self):
        base = program_of(self.BASE)
        verdicts = {}
        for case, (inits, updates, supports) in self._cases(base).items():
            whole = LoopProgram(base.params, {**base.supports, **supports},
                                base.inits + tuple(inits), base.updates + tuple(updates),
                                base.draws)
            try:
                validate(whole)
                want = None
            except ProgramError as exc:
                want = str(exc)
            try:
                prog = extend(base, inits, updates, supports)
                got = None
            except ProgramError as exc:
                got = str(exc)
            assert got == want, case
            verdicts[case] = want
            if got is None:
                assert prog == whole
                assert all(p is q for p, q in zip(prog.inits, base.inits))
                assert all(p is q for p, q in zip(prog.updates, base.updates))
        assert [case for case, v in verdicts.items() if v is None] == [
            "valid", "valid-branches", "valid-symbolic"]
        assert verdicts["base-draw-in-init"].endswith("in the update of y")
        assert verdicts["base-support"] == "continuous initializer for finite-support variable w"


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
