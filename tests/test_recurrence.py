"""First-order recurrence solving."""

from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from psolve.errors import InternalCheckError
from psolve.exppoly import ExpPoly
from psolve.recurrence import (
    ClosedForm,
    FirstOrderRecurrence,
    solve_first_order,
    verify_solution,
)
from psolve.symbolic import Polynomial, RationalFunction, RF_ONE


def rf(v):
    return RationalFunction(v)


def rec(c, g, f0):
    return FirstOrderRecurrence(rf(c), ClosedForm((), g), rf(f0))


class TestBasic:
    def test_umbrella_recurrence(self):
        # f(n+1) = 2/5 f(n) + 3/10, f(0) = 1  ->  1/2 + 1/2 (2/5)^n
        cf = solve_first_order(rec(F(2, 5), ExpPoly.const(F(3, 10)), 1))
        expected = ExpPoly.const(F(1, 2)) + ExpPoly.term(F(1, 2), F(2, 5))
        assert cf.prefix == ()
        assert cf.tail == expected
        verify_solution(rec(F(2, 5), ExpPoly.const(F(3, 10)), 1), cf)

    def test_homogeneous(self):
        cf = solve_first_order(rec(F(1, 3), ExpPoly.zero(), F(5)))
        assert cf.tail == ExpPoly.term(5, F(1, 3))

    def test_constant_coefficient_one(self):
        # f(n+1) = f(n) + 2, f(0) = 1: resonance of base 1 gives 2n + 1
        cf = solve_first_order(rec(1, ExpPoly.const(2), 1))
        assert cf.tail == ExpPoly.const(1) + ExpPoly.term(2, 1, degree=1)

    def test_exponential_forcing(self):
        # f(n+1) = 1/2 f(n) + (1/3)^n, f(0) = 0
        r = rec(F(1, 2), ExpPoly.term(1, F(1, 3)), 0)
        cf = solve_first_order(r)
        verify_solution(r, cf)
        assert cf.at(0) == rf(0)
        assert cf.at(1) == rf(1)
        assert cf.at(2) == rf(F(1, 2) + F(1, 3))

    def test_resonant_forcing(self):
        # f(n+1) = 2 f(n) + 2^n needs an n 2^n particular term
        r = rec(2, ExpPoly.term(1, 2), 1)
        cf = solve_first_order(r)
        verify_solution(r, cf)
        assert any(t.degree == 1 for t in cf.tail.terms)
        assert cf.at(3) == rf(8 + 3 * 4)

    def test_initial_condition_respected(self):
        for f0 in (F(0), F(1), F(-3, 7)):
            cf = solve_first_order(rec(F(3, 4), ExpPoly.const(F(1, 5)), f0))
            assert cf.at(0) == rf(f0)


class TestZeroCoefficient:
    def test_piecewise_prefix(self):
        # f(n+1) = 0*f(n) + 3, f(0) = 7: constant 3 from n = 1, exception at 0
        cf = solve_first_order(rec(0, ExpPoly.const(3), 7))
        assert cf.at(0) == rf(7)
        assert cf.at(1) == rf(3)
        assert cf.at(5) == rf(3)
        assert cf.start >= 1

    def test_zero_coeff_with_forcing(self):
        # f(n+1) = g(n) exactly
        g = ExpPoly.term(1, F(1, 2)) + ExpPoly.const(1)
        r = rec(0, g, F(9))
        cf = solve_first_order(r)
        verify_solution(r, cf)
        for n in range(1, 5):
            assert cf.at(n) == g.at(n - 1)


class TestSymbolic:
    def test_symbolic_coefficient(self):
        # f(n+1) = c f(n) + (1 - c), f(0) = 1 is constantly 1
        c = rf(Polynomial.var("c"))
        r = FirstOrderRecurrence(c, ClosedForm((), ExpPoly.const(RF_ONE - c)), RF_ONE)
        cf = solve_first_order(r)
        verify_solution(r, cf)
        for n in range(4):
            assert cf.at(n) == RF_ONE

    def test_nonresonance_assumption_recorded(self):
        # coefficient c versus forcing base r: not decidable symbolically,
        # so the solver must assume they differ and say so
        c = rf(Polynomial.var("c"))
        rr = rf(Polynomial.var("r"))
        r = FirstOrderRecurrence(c, ClosedForm((), ExpPoly.term(1, rr)), rf(1))
        cf = solve_first_order(r)
        assert cf.assumptions
        verify_solution(r, cf)

    def test_constant_difference_needs_no_assumption(self):
        # coefficient r - 3/10 versus base r differ by the constant 3/10,
        # which is decidable, so no assumption is recorded
        rr = rf(Polynomial.var("r"))
        r = FirstOrderRecurrence(rr - rf(F(3, 10)), ClosedForm((), ExpPoly.term(1, rr)), rf(1))
        cf = solve_first_order(r)
        assert cf.assumptions == ()
        verify_solution(r, cf)

    def test_assumptions_own_then_inhomogeneous_terms(self):
        # own: resonance check 1 != c, and c != 0 for the step past g's
        # prefix; then g's, without repeats
        c = rf(Polynomial.var("c"))
        g = ClosedForm((rf(1),), ExpPoly.const(1), ("g != 0", "c != 0"))
        r = FirstOrderRecurrence(c, g, rf(0))
        cf = solve_first_order(r)
        verify_solution(r, cf)
        assert cf.assumptions == ("1 != c", "c != 0", "g != 0")

    def test_unit_base_assumption(self):
        c = rf(Polynomial.var("c"))
        r = FirstOrderRecurrence(c, ClosedForm((), ExpPoly.const(1)), rf(0))
        cf = solve_first_order(r)
        # base 1 versus coefficient c needs the assumption 1 != c
        assert any("c" in a for a in cf.assumptions)


class TestClosedForm:
    def test_normalized_drops_redundant_prefix(self):
        tail = ExpPoly.const(3)
        cf = ClosedForm((rf(3), rf(3)), tail)
        assert cf.normalized().prefix == ()

    def test_normalized_keeps_exception(self):
        cf = ClosedForm((rf(7),), ExpPoly.const(3))
        assert cf.normalized() == cf

    def test_total_requires_no_prefix(self):
        assert ClosedForm((rf(7),), ExpPoly.const(3)).total() is None
        assert ClosedForm((), ExpPoly.const(3)).total() == ExpPoly.const(3)

    def test_combine(self):
        a = ClosedForm((rf(7), rf(1)), ExpPoly.term(1, F(1, 2)), ("p != 1", "q != 0"))
        b = ClosedForm((rf(-2),), ExpPoly.const(3) + ExpPoly.term(1, 2, 1), ("q != 0", "s != 2"))
        const, ca, cb = rf(F(1, 3)), rf(2), rf(F(-5, 4))
        cf = ClosedForm.combine(const, [(ca, a), (cb, b)])
        assert cf.start == 2
        for n in range(7):
            assert cf.at(n) == const + ca * a.at(n) + cb * b.at(n)
        assert cf.assumptions == ("p != 1", "q != 0", "s != 2")

    def test_subs(self):
        c = Polynomial.var("c")
        cf = ClosedForm((), ExpPoly.term(RationalFunction(c), F(1, 2)))
        assert cf.subs({"c": F(3)}).at(1) == rf(F(3, 2))


class TestVerifySolution:
    """verify_solution names the first comparison that fails."""

    UMBRELLA = rec(F(2, 5), ExpPoly.const(F(3, 10)), 1)

    def test_wrong_initial_value(self):
        cf = solve_first_order(self.UMBRELLA)
        bad = replace(cf, tail=cf.tail + ExpPoly.const(1))
        with pytest.raises(InternalCheckError, match=r"^wrong at n = 0$"):
            verify_solution(self.UMBRELLA, bad)

    def test_wrong_tail(self):
        # 1/2 + 1/2*(3/5)^n is 1 at n = 0 but solves another recurrence
        bad = ClosedForm((), ExpPoly.const(F(1, 2)) + ExpPoly.term(F(1, 2), F(3, 5)))
        with pytest.raises(InternalCheckError, match=r"^fails back-substitution$"):
            verify_solution(self.UMBRELLA, bad)

    def test_wrong_step_below_the_inhomogeneous_start(self):
        # f(n+1) = g(n) with g(0) = 5 and g = 3 after: f is 7, 5, 3, 3, ...
        r = FirstOrderRecurrence(rf(0), ClosedForm((rf(5),), ExpPoly.const(3)), rf(7))
        assert solve_first_order(r).prefix == (rf(7), rf(5))
        # right at n = 0 and a solution in the tail, but f(1) misses g(0)
        with pytest.raises(InternalCheckError, match=r"^fails the recurrence at n = 0$"):
            verify_solution(r, ClosedForm((rf(7),), ExpPoly.const(3)))


# -- property tests --------------------------------------------------------

coeffs = st.fractions(min_value=F(-3), max_value=F(3), max_denominator=5)
bases = coeffs.filter(lambda v: v != 0)


@st.composite
def recurrences(draw):
    c = draw(coeffs)
    n_terms = draw(st.integers(0, 2))
    g = ExpPoly.zero()
    for _ in range(n_terms):
        g = g + ExpPoly.term(draw(coeffs), draw(bases), draw(st.integers(0, 1)))
    return rec(c, g, draw(coeffs))


@given(recurrences())
@settings(max_examples=80, deadline=None)
def test_solution_satisfies_recurrence(r):
    cf = solve_first_order(r)
    verify_solution(r, cf)


@given(recurrences(), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_solution_matches_iteration(r, n):
    cf = solve_first_order(r)
    value = r.initial
    for i in range(n):
        value = r.self_coeff * value + r.inhomog.at(i)
    assert cf.at(n) == value


@st.composite
def piecewise_recurrences(draw):
    """A recurrence whose inhomogeneous term has 0-3 values before its tail."""
    r = draw(recurrences())
    c = draw(st.just(F(0)) | coeffs)
    prefix = tuple(rf(draw(coeffs)) for _ in range(draw(st.integers(0, 3))))
    return FirstOrderRecurrence(rf(c), ClosedForm(prefix, r.inhomog.tail), r.initial)


@given(piecewise_recurrences(), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_piecewise_inhomogeneous_term(r, n):
    cf = solve_first_order(r)
    verify_solution(r, cf)
    value = r.initial
    for i in range(n):
        value = r.self_coeff * value + r.inhomog.at(i)
    assert cf.at(n) == value


def with_fractions(r):
    """The same recurrence with every constant held as a Fraction."""
    g = r.inhomog
    prefix = tuple(v.const_value() for v in g.prefix)
    return FirstOrderRecurrence(
        r.self_coeff.const_value(), ClosedForm(prefix, g.tail), r.initial.const_value()
    )


@given(piecewise_recurrences())
@settings(max_examples=80, deadline=None)
def test_constant_rational_functions_solve_as_fractions(r):
    """Constant RationalFunctions and Fractions are one coefficient type:
    both solve to the same closed form, printed alike, with every
    coefficient a Fraction."""
    assert isinstance(r.self_coeff, RationalFunction)
    plain = with_fractions(r)
    cf, cf_plain = solve_first_order(r), solve_first_order(plain)
    verify_solution(plain, cf_plain)
    assert cf == cf_plain
    assert str(cf) == str(cf_plain)
    for closed in (cf, cf_plain):
        fields = [v for t in closed.tail.terms for v in (t.coeff, t.base)]
        assert all(type(v) is F for v in closed.prefix + tuple(fields))
