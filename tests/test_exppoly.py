"""Exponential polynomials and their limits."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from psolve.exppoly import ExpPoly, expoly_limit
from psolve.recurrence import ClosedForm
from psolve.symbolic import Param, Polynomial, RationalFunction, RF_ONE, _number_str


def rf(v):
    return RationalFunction(v)


half = F(1, 2)
two_fifths = F(2, 5)


class TestConstruction:
    def test_zero_and_const(self):
        assert ExpPoly.zero().is_zero()
        assert ExpPoly.const(3).is_const()
        assert ExpPoly.const(0).is_zero()

    def test_merge_equal_base_and_degree(self):
        e = ExpPoly.term(1, two_fifths) + ExpPoly.term(2, two_fifths)
        assert len(e.terms) == 1
        assert e.terms[0].coeff == rf(3)

    def test_merge_cross_multiplied_bases(self):
        r = Polynomial.var("r")
        b1 = RationalFunction(r, 2 * r - 1)
        b2 = RationalFunction(3 * r, 6 * r - 3)
        e = ExpPoly.term(1, b1) + ExpPoly.term(1, b2)
        assert len(e.terms) == 1

    def test_zero_base_rejected(self):
        with pytest.raises(ValueError):
            ExpPoly.term(1, 0)

    def test_cancellation(self):
        e = ExpPoly.term(1, two_fifths) - ExpPoly.term(1, two_fifths)
        assert e.is_zero()


class TestEvaluation:
    def test_umbrella_shape(self):
        # 1/2 + 1/2 * (2/5)^n
        e = ExpPoly.const(half) + ExpPoly.term(half, two_fifths)
        assert e.at(0) == RF_ONE
        assert e.at(1) == rf(F(7, 10))
        assert e.at(3) == rf(half + half * F(8, 125))

    def test_polynomial_degree_term(self):
        e = ExpPoly.term(1, 1, degree=2) + ExpPoly.term(3, 2, degree=1)
        assert e.at(4) == rf(16 + 3 * 4 * 16)

    def test_symbolic_at(self):
        r = RationalFunction(Polynomial.var("r"))
        e = ExpPoly.term(1, r)
        assert e.at(2) == r * r


class TestShift:
    def test_shift_matches_at(self):
        e = ExpPoly.const(half) + ExpPoly.term(half, two_fifths, degree=1)
        shifted = e.shift(3)
        for n in range(5):
            assert shifted.at(n) == e.at(n + 3)

    def test_shift_zero_identity(self):
        e = ExpPoly.term(2, F(1, 3), degree=2)
        assert e.shift(0) == e


class TestSubs:
    def test_substitute_param(self):
        r = RationalFunction(Polynomial.var("r"))
        e = ExpPoly.term(r, r - rf(F(3, 10)))
        bound = e.subs({"r": F(1, 2)})
        assert bound.at(1) == rf(F(1, 2) * F(1, 5))
        # a bound coefficient is a plain Fraction, as if never symbolic
        (term,) = bound.terms
        assert term == (F(1, 2), F(1, 5), 0)
        assert type(term.coeff) is F and type(term.base) is F

    def test_substitute_to_zero_base_fails(self):
        r = RationalFunction(Polynomial.var("r"))
        e = ExpPoly.term(1, r)
        with pytest.raises(ValueError):
            e.subs({"r": F(0)})


class TestLongNumbers:
    def test_prints_past_the_digit_limit(self):
        # str() refuses these integers; the terms sort and print anyway
        big = F(7**6000, 3**5000)
        cf = ClosedForm((big,), ExpPoly([(big, half, 0), (1, big, 1)]))
        text = str(cf)
        assert _number_str(big.numerator) in text and text.endswith(f"f(0) = {_number_str(big)}")


class TestLimit:
    def test_umbrella_limit(self):
        e = ExpPoly.const(half) + ExpPoly.term(half, two_fifths)
        lim = expoly_limit(e)
        assert lim.kind == "converges"
        assert lim.value == rf(half)
        assert lim.assumptions == ()

    def test_pure_const(self):
        lim = expoly_limit(ExpPoly.const(F(3, 7)))
        assert lim.kind == "converges" and lim.value == rf(F(3, 7))

    def test_diverges_large_base(self):
        lim = expoly_limit(ExpPoly.term(1, 2))
        assert lim.kind == "diverges"

    def test_diverges_polynomial_growth(self):
        lim = expoly_limit(ExpPoly.term(1, 1, degree=1))
        assert lim.kind == "diverges"

    def test_alternating_unit_base_diverges(self):
        lim = expoly_limit(ExpPoly.term(1, -1))
        assert lim.kind == "diverges"

    def test_symbolic_base_needs_assumption(self):
        r = RationalFunction(Polynomial.var("r"))
        lim = expoly_limit(ExpPoly.const(1) + ExpPoly.term(1, r))
        assert lim.kind == "conditional"
        assert any("|" in a or "<" in a for a in lim.assumptions)

    def test_symbolic_base_with_domain_converges(self):
        # umbrella closed form with symbolic persistence r in (3/10, 1):
        # -3/(10r - 13) + (10r - 10)/(10r - 13) * (r - 3/10)^n
        r = Polynomial.var("r")
        den = 10 * r - 13
        e = ExpPoly.const(RationalFunction(-3, den)) + ExpPoly.term(
            RationalFunction(10 * r - 10, den), RationalFunction(r - F(3, 10))
        )
        params = {"r": Param("r", F(3, 10), F(1))}
        lim = expoly_limit(e, params)
        assert lim.kind == "converges"
        assert lim.value == RationalFunction(-3, den)
        assert lim.value.subs({"r": F(1, 2)}) == rf(F(3, 8))

    def test_symbolic_base_domain_too_wide(self):
        r = RationalFunction(Polynomial.var("r"))
        params = {"r": Param("r", F(0), F(2))}
        lim = expoly_limit(ExpPoly.term(1, r), params)
        assert lim.kind == "conditional"


# -- property tests --------------------------------------------------------

small_fracs = st.fractions(min_value=F(-3), max_value=F(3), max_denominator=6)
nonzero_fracs = small_fracs.filter(lambda v: v != 0)


@st.composite
def exppolys(draw):
    n = draw(st.integers(0, 3))
    e = ExpPoly.zero()
    for _ in range(n):
        e = e + ExpPoly.term(
            draw(small_fracs), draw(nonzero_fracs), draw(st.integers(0, 2))
        )
    return e


@given(exppolys(), exppolys(), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_add_mul_agree_with_pointwise(a, b, n):
    assert (a + b).at(n) == a.at(n) + b.at(n)
    assert (a * b).at(n) == a.at(n) * b.at(n)


@given(exppolys(), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_shift_composes(e, j, k):
    assert e.shift(j).shift(k).at(0) == e.at(j + k)
    assert e.shift(j).at(k) == e.at(j + k)


@given(exppolys())
@settings(max_examples=40, deadline=None)
def test_convergent_limit_is_eventual_value(e):
    lim = expoly_limit(e)
    if lim.kind != "converges":
        return
    # the constant part is the limit; tails with |base| < 1 vanish
    assert lim.value == ExpPoly(
        tuple(t for t in e.terms if t.base == RF_ONE and t.degree == 0)
    ).at(0)
