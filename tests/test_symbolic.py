"""Exact arithmetic layer: monomials, polynomials, rational functions."""

from fractions import Fraction as F
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from psolve.symbolic import (
    Monomial,
    Param,
    Polynomial,
    RationalFunction,
    RF_ONE,
    RF_ZERO,
    decimal_str,
    exact_div,
    over,
    sums_to_one,
)
from psolve import packed
from psolve.bayesnet import load_bn, load_bn_path
from psolve.encode import compile_bn, compile_dynbn, compile_sampling_monitor, evidence_indicator
from psolve.moments import MomentEngine, compute_mbis
from psolve.packed import Overflow, SymbolTable
from psolve.parser import parse_poly, parse_program, parse_ratfun

x = Polynomial.var("x")
y = Polynomial.var("y")
z = Polynomial.var("z")
r = Polynomial.var("r")
s = Polynomial.var("s")


class TestMonomial:
    def test_unit(self):
        assert Monomial.unit().is_unit()
        assert Monomial.unit().degree() == 0
        assert str(Monomial.unit()) == "1"

    def test_merge_and_drop(self):
        m = Monomial([("x", 1), ("x", 2), ("y", 0)])
        assert m == Monomial.of("x", 3)
        assert m.symbols() == {"x"}

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial([("x", -1)])

    def test_graded_lex_order(self):
        # degree dominates; ties break toward the earlier symbol's power
        a = Monomial.of("x", 2)
        b = Monomial.of("x") * Monomial.of("y")
        c = Monomial.of("y", 2)
        d = Monomial.of("x", 3)
        assert sorted([d, c, a, b]) == [c, b, a, d]

    def test_division(self):
        m = Monomial.of("x", 2) * Monomial.of("y")
        assert Monomial.of("x").divides(m)
        assert m / Monomial.of("x") == Monomial.of("x") * Monomial.of("y")
        with pytest.raises(ValueError):
            Monomial.of("y") / Monomial.of("x")


class TestPolynomial:
    def test_zero_is_empty(self):
        assert (x - x).is_zero()
        assert not (x - x).terms
        assert Polynomial.zero() == x * 0

    def test_arithmetic(self):
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1

    def test_fraction_coefficients(self):
        p = x * F(1, 3) + F(1, 6)
        assert p.coeff(Monomial.of("x")) == F(1, 3)
        assert p.coeff(Monomial.unit()) == F(1, 6)

    def test_eval_exact(self):
        p = x**2 * y - 2 * x + F(1, 2)
        assert p.eval({"x": F(3), "y": F(1, 3)}) == F(3) - F(6) + F(1, 2)

    def test_eval_missing_symbol(self):
        with pytest.raises(KeyError):
            (x + y).eval({"x": F(1)})

    def test_substitute(self):
        p = x**2 + y
        q = p.substitute({"x": y + 1})
        assert q == y**2 + 3 * y + 1

    def test_degree(self):
        p = x**2 * y + z
        assert p.degree() == 3
        assert _degree_in(p, "y") == 1
        assert Polynomial.zero().degree() == 0

    def test_sorted_terms_leading(self):
        p = x + x**2 * y + y
        assert p.leading()[0] == Monomial.of("x", 2) * Monomial.of("y")
        degrees = [m.degree() for m, _ in p.sorted_terms()]
        assert degrees == sorted(degrees, reverse=True)

    def test_interval_bounds_eval(self):
        p = x**2 - 2 * x * y
        box = {"x": (F(-1), F(2)), "y": (F(0), F(1))}
        lo, hi = p.interval(box)
        for vx in (F(-1), F(0), F(2)):
            for vy in (F(0), F(1, 2), F(1)):
                v = p.eval({"x": vx, "y": vy})
                assert lo <= v <= hi


def reduce_support(poly: Polynomial, sym: str, size: int) -> Polynomial:
    """Finite-support reduction of sym through the packed kernel:
    `packed.expand` with the image `packed.residues`."""
    table = SymbolTable(8)
    shift = table.add(sym)
    return table.unpack(packed.expand(
        table.pack(poly), table.top << shift, packed.residues(size, shift), table))


class TestReduceFiniteSupport:
    def test_binary_idempotence(self):
        assert reduce_support(x**5, "x", 2) == x

    def test_three_valued_cube(self):
        # on {0, 1, 2}: x^3 agrees with 3x^2 - 2x
        reduced = reduce_support(x**3, "x", 3)
        assert reduced == 3 * x**2 - 2 * x
        for v in (F(0), F(1), F(2)):
            assert reduced.eval({"x": v}) == v**3

    def test_untouched_other_symbols(self):
        p = x**2 * y**4
        assert reduce_support(p, "x", 2) == x * y**4

    def test_closed_form_reduces_powers_at_the_support(self):
        # E[X^k] of a 3-valued support variable at k >= 3: the engine
        # reduces the power on its packed form, and the closed form prints
        # as that of the falling-factorial residue of X^k
        bn = load_bn({"type": "dynbn", "nodes": [
            {"name": "S", "model": {"kind": "cpt", "parents": ["S"], "rows": [
                {"given": [0], "p": ["2/3", "1/3"]}, {"given": [1], "p": ["1/4", "3/4"]}]}},
            {"name": "X", "model": {"kind": "cpt", "parents": ["S"], "rows": [
                {"given": [0], "p": ["1/2", "1/4", "1/4"]},
                {"given": [1], "p": ["1/5", "0", "4/5"]}]}}],
            "inter_edges": {"S": ["S"]}, "initial": {"S": 1}})
        var = Polynomial.var("X")
        for k in (3, 4, 7):
            residue = _falling_factorial_reduction(var**k, "X", 3)
            assert _degree_in(residue, "X") == 2
            got = MomentEngine(compile_dynbn(bn)).closed(var**k)
            want = MomentEngine(compile_dynbn(bn)).closed(residue)
            assert str(got) == str(want), k


class TestExactDiv:
    def test_divides(self):
        assert exact_div(x**2 - y**2, x - y) == x + y

    def test_does_not_divide(self):
        assert exact_div(x**2 + 1, x - y) is None


class TestRationalFunction:
    def test_cross_multiplied_equality(self):
        a = RationalFunction(x**2 - y**2, x - y)
        b = RationalFunction(x + y)
        assert a == b
        assert a + RF_ZERO == b

    def test_equality_scale_invariant(self):
        # the quotient of two network polynomials keeps a common factor;
        # equality must not care
        num = parse_poly("1/25*b + 1599/2500", params=["a", "b"])
        den = parse_poly("-89/500*a + 1/25*b + 1827/2500", params=["a", "b"])
        q = RationalFunction(num, den)
        scaled = RationalFunction(num * 5, den * 5)
        assert q == scaled
        assert q - scaled == RF_ZERO
        assert q.subs({"a": F(1), "b": F(0)}) == RationalFunction(
            F(1599, 2500), F(1827, 2500) - F(89, 500)
        )

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(x, Polynomial.zero())

    def test_arithmetic(self):
        a = RationalFunction(1, x)
        b = RationalFunction(1, y)
        s = a + b
        assert s == RationalFunction(x + y, x * y)
        assert a * b == RationalFunction(1, x * y)
        assert a / b == RationalFunction(y, x)

    def test_normalization_sign_and_content(self):
        a = RationalFunction(-2 * x, -4 * y)
        assert a == RationalFunction(x, 2 * y)

    def test_const_value(self):
        assert RationalFunction(F(3, 4)).const_value() == F(3, 4)
        assert RF_ONE.const_value() == 1
        with pytest.raises(ValueError):
            RationalFunction(x).const_value()

    def test_eval(self):
        q = RationalFunction(x + 1, x - 1)
        assert q.eval({"x": F(3)}) == F(2)
        with pytest.raises(ZeroDivisionError):
            q.eval({"x": F(1)})

    def test_pow(self):
        q = RationalFunction(x, y)
        assert q**3 == RationalFunction(x**3, y**3)
        assert q**0 == RF_ONE

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(RationalFunction(x))


class TestParam:
    def test_bounds(self):
        p = Param("q", F(0), F(1))
        assert p.lo == 0 and p.hi == 1
        assert Param("r").lo is None


class TestDecimalStr:
    def test_six_digit_default(self):
        assert decimal_str(F(156670, 419407)) == "0.373551"

    def test_round_half_even(self):
        assert decimal_str(F(25, 10**7)) == "0.000002"
        assert decimal_str(F(35, 10**7)) == "0.000004"

    def test_digits_and_sign(self):
        assert decimal_str(F(20000, 11), 4) == "1818.1818"
        assert decimal_str(F(-1, 8), 3) == "-0.125"
        assert decimal_str(F(5)) == "5.000000"

    def test_integers_of_any_length(self):
        # longer than str()'s default limit of 4300 digits; the zeros in
        # the middle survive the split
        big = 10**5000 + 1
        text = "1" + "0" * 4999 + "1"
        assert decimal_str(F(-big), 0) == "-" + text
        assert decimal_str(F(big, 10), 1) == text[:-1] + ".1"
        assert str(RationalFunction(F(big, 3))) == text + "/3"
        assert str(x * F(-big) + 1) == f"-{text}*x + 1"


# -- property tests --------------------------------------------------------

fractions = st.fractions(
    min_value=F(-50), max_value=F(50), max_denominator=20
)


@st.composite
def polynomials(draw, symbols=("x", "y")):
    n_terms = draw(st.integers(0, 4))
    p = Polynomial.zero()
    for _ in range(n_terms):
        mono = Monomial.unit()
        for s in symbols:
            mono = mono * Monomial.of(s, draw(st.integers(0, 3)))
        p = p + Polynomial({mono: draw(fractions)})
    return p


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Polynomial.zero() == a


@given(polynomials(), fractions, fractions)
@settings(max_examples=60, deadline=None)
def test_eval_is_ring_hom(a, vx, vy):
    env = {"x": vx, "y": vy}
    b = a * a + a
    assert b.eval(env) == a.eval(env) * a.eval(env) + a.eval(env)


@given(polynomials(), polynomials())
@settings(max_examples=40, deadline=None)
def test_substitute_then_eval(a, b):
    vx, vy = F(2), F(-3)
    env = {"x": vx, "y": vy}
    composed = a.substitute({"x": b})
    assert composed.eval(env) == a.eval({"x": b.eval(env), "y": vy})


@given(polynomials(("x", "y", "z")))
@settings(max_examples=40, deadline=None)
def test_map_powers_identity_image(a):
    same = a.map_powers(lambda s, e: None)
    assert same == a
    assert list(same.terms.items()) == list(a.terms.items())


def _degree_in(poly: Polynomial, sym: str) -> int:
    return max((m.exponent(sym) for m in poly.terms), default=0)


def _falling_factorial_reduction(poly: Polynomial, sym: str, size: int) -> Polynomial:
    """The reference reduction: expand the falling factorial
    sym*(sym-1)*...*(sym-size+1), take the image of sym^size as sym^size
    minus it, each higher power as sym times the image one below, mapped
    again, and substitute."""
    top = _degree_in(poly, sym)
    if top < size:
        return poly
    x = Polynomial.var(sym)
    falling = Polynomial.const(1)
    for i in range(size):
        falling = falling * (x - i)
    images = {size: x**size - falling}

    def image(s, e):
        return images.get(e) if s == sym else None

    for e in range(size + 1, top + 1):
        images[e] = (x * images[e - 1]).map_powers(image)
    return poly.map_powers(image)


@st.composite
def _support_cases(draw):
    """A support size 1-5 for x, a polynomial in x (exponents up to three
    times the size) and y, and a rational value for y."""
    size = draw(st.integers(1, 5))
    p = Polynomial.zero()
    for _ in range(draw(st.integers(0, 5))):
        mono = Monomial([("x", draw(st.integers(0, 3 * size))), ("y", draw(st.integers(0, 2)))])
        p = p + Polynomial({mono: draw(fractions)})
    return p, size, draw(fractions)


@given(_support_cases())
@settings(max_examples=80, deadline=None)
def test_support_reduction_agrees_on_the_support(case):
    # The defining property, checked by evaluation, and equality with the
    # falling-factorial expansion.
    p, size, vy = case
    reduced = reduce_support(p, "x", size)
    assert _degree_in(reduced, "x") < size
    assert reduced == _falling_factorial_reduction(p, "x", size)
    for vx in range(size):
        env = {"x": F(vx), "y": vy}
        assert reduced.eval(env) == p.eval(env)


def _canonical_by_division(num: Polynomial, den: Polynomial):
    """The reference canonical form of num/den, (num terms, den terms,
    constant value): `exact_div` tried on every nonconstant denominator,
    then the denominator made primitive with a positive leading
    coefficient, or divided out where it is constant; zero is 0/1."""
    if num.is_zero():
        den = Polynomial.const(1)
    elif not den.is_const():
        q = exact_div(num, den)
        if q is not None:
            num, den = q, Polynomial.const(1)
    if den.is_const():
        num = num * (1 / den.const_value())
        return num.terms, {Monomial.unit(): F(1)}, num.const_value() if num.is_const() else None
    coeffs = den.terms.values()
    c = F(gcd(*[v.numerator for v in coeffs]), lcm(*[v.denominator for v in coeffs]))
    c *= 1 if den.leading()[1] > 0 else -1
    return (num * (1 / c)).terms, (den * (1 / c)).terms, None


@st.composite
def _int_polys(draw, names, degree=2):
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, degree)] * len(names)),
        st.integers(-6, 6).filter(bool), max_size=4))
    return Polynomial({Monomial(zip(names, exps)): c for exps, c in terms.items()})


@st.composite
def _belief_cases(draw):
    """A filter step's numerator and total, integer coefficients over r,
    or over s and r, in that order: any numerator, zero, a multiple of the
    total by a constant, or by a polynomial plus a remainder."""
    names = draw(st.sampled_from([("r",), ("s", "r")]))
    total = draw(_int_polys(names).filter(lambda p: not p.is_zero()))
    kind = draw(st.sampled_from(["any", "zero", "proportional", "multiple"]))
    if kind == "any":
        num = draw(_int_polys(names))
    elif kind == "zero":
        num = Polynomial.zero()
    elif kind == "proportional":
        num = total * draw(st.integers(-6, 6).filter(bool))
    else:
        num = total * draw(_int_polys(names, 1)) + draw(_int_polys(names, 1))
    return names, num, total


@given(_belief_cases())
@example((("r",), Polynomial.zero(), Polynomial.const(6)))
@example((("s", "r"), 2 * r * s + 4, Polynomial.const(-6)))
@example((("s", "r"), -3 * (-2 * r**2 + 3 * s + 1), -2 * r**2 + 3 * s + 1))
@example((("r",), 4 * r - 2, 1 - 2 * r))
@example((("s", "r"), (r + s) * (s - 2 * r**2), s - 2 * r**2))
@example((("s", "r"), r**2 * s + 1, r - 1))
@settings(max_examples=150, deadline=None)
def test_step_beliefs_are_the_canonical_rational_functions(case):
    # the beliefs of one filter step, built on packed integer polynomials
    # over their shared total, are RationalFunction(num, total) field by
    # field, and both are the canonical form that exact division defines
    names, num, total = case
    table = SymbolTable()
    for name in names:
        table.add(name)
    got = over(table.pack(total)[0], packed.unpacker(table))(table.pack(num)[0])
    want = RationalFunction(num, total)
    assert got.num.terms == want.num.terms
    assert got.den.terms == want.den.terms
    assert got._const == want._const
    assert str(got) == str(want)
    assert (want.num.terms, want.den.terms, want._const) == _canonical_by_division(num, total)


@given(polynomials(), polynomials())
@settings(max_examples=40, deadline=None)
def test_rf_roundtrip_mul_div(a, b):
    if b.is_zero():
        return
    q = RationalFunction(a, b)
    assert q * RationalFunction(b) == RationalFunction(a)
    assert (q + RF_ONE) - RF_ONE == q


# -- constant fast path ----------------------------------------------------

# Constants (0 and 1 included) whose arithmetic must match the general
# polynomial construction of the same result term for term.
constants = st.one_of(st.sampled_from([F(0), F(1), F(-1)]), fractions)


def _same_rf(fast, general):
    assert fast.num.terms == general.num.terms
    assert fast.den.terms == general.den.terms
    assert str(fast) == str(general)
    assert fast.is_const() and general.is_const()
    assert fast.const_value() == general.const_value()


@given(constants, constants, st.integers(-3, 5))
@settings(max_examples=150, deadline=None)
def test_constant_fast_path_matches_general(fa, fb, k):
    a, b = RationalFunction(fa), RationalFunction(fb)
    _same_rf(a + b, RationalFunction(a.num * b.den + b.num * a.den, a.den * b.den))
    _same_rf(a - b, RationalFunction(a.num * b.den - b.num * a.den, a.den * b.den))
    _same_rf(-a, RationalFunction(-a.num, a.den))
    _same_rf(a * b, RationalFunction(a.num * b.num, a.den * b.den))
    # int and Fraction operands coerce onto the same path, on either side
    _same_rf(fa + b, a + b)
    _same_rf(a * fb, a * b)
    _same_rf(fa - b, a - b)
    if fb:
        _same_rf(a / b, RationalFunction(a.num * b.den, a.den * b.num))
        _same_rf(fa / b, a / b)
    if k >= 0:
        _same_rf(a**k, RationalFunction(a.num**k, a.den**k))
    elif fa:
        _same_rf(a**k, RationalFunction(a.den ** -k, a.num ** -k))
    assert (a == b) == (a.num * b.den - b.num * a.den).is_zero()
    assert (a == fb) == (fa == fb)


@pytest.mark.parametrize("expr, printed", [
    (lambda: RationalFunction(F(1, 2)) * RationalFunction(x), "1/2*x"),
    (lambda: RationalFunction(3) + RationalFunction(1, x), "(3*x + 1)/(x)"),
    (lambda: RationalFunction(x, y) / F(2, 3), "3/2*x/(y)"),
    (lambda: F(1, 2) - RationalFunction(x + 1, 2 * y), "(-1/2*x + 1/2*y - 1/2)/(y)"),
    (lambda: RationalFunction(x, y) ** -2, "y^2/(x^2)"),
    (lambda: RationalFunction(0) * RationalFunction(x, y), "0"),
    (lambda: RationalFunction(F(-4)) * RationalFunction(x + 1, 3 * y - 1), "(-4*x - 4)/(3*y - 1)"),
    (lambda: RationalFunction(F(5, 7)) / RationalFunction(x - 1, y), "5/7*y/(x - 1)"),
    (lambda: RationalFunction(x + y, x) - 1, "y/(x)"),
    (lambda: RationalFunction(2 * x, x) + F(1, 3), "7/3"),
])
def test_mixed_constant_and_symbolic_printing(expr, printed):
    assert str(expr()) == printed


def test_symbolic_cancellation_yields_a_constant():
    q = RationalFunction(2 * x + 2, x + 1)
    assert q.is_const() and q.const_value() == 2
    assert q == 2 and q * F(1, 2) == RF_ONE


def test_sums_to_one_adds_constants_on_integers():
    r = parse_ratfun("r", ["r"])
    assert sums_to_one([F(1, 3), F(1, 6), F(1, 2)], ValueError)
    assert not sums_to_one([F(1, 2), F(1, 3)], ValueError)
    assert sums_to_one([r, parse_ratfun("1/2"), parse_ratfun("1/2 - r", ["r"])], ValueError)
    assert not sums_to_one([r, F(1, 2)], ValueError)
    with pytest.raises(ValueError, match="^3/2$"):
        sums_to_one([F(1, 4), F(3, 2), F(-1, 2)], lambda c: ValueError(str(c)))


def test_constant_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(F(3, 4)) / 0
    with pytest.raises(ZeroDivisionError):
        RationalFunction(x) / 0
    with pytest.raises(ZeroDivisionError, match="division by zero rational function"):
        RationalFunction(0) ** -1
    with pytest.raises(ZeroDivisionError):
        RationalFunction(1, 0)


# -- canonical construction ------------------------------------------------

# The arithmetic builds monomials and polynomials directly, skipping the
# validating constructors; each result must be what those constructors
# would give, term for term and in the same order.

monomials = st.lists(
    st.tuples(st.sampled_from("abcd"), st.integers(0, 3)), max_size=5
).map(Monomial)


@given(monomials, monomials, st.sampled_from("abcde"), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_fast_monomial_ops_match_validating_constructor(ma, mb, sym, k):
    def same(fast, slow):
        assert fast == slow and fast.powers == slow.powers
        assert hash(fast) == hash(slow) == hash(fast.powers)

    same(ma * mb, Monomial(ma.powers + mb.powers))
    same(ma.without(sym), Monomial((s, e) for s, e in ma.powers if s != sym))
    same(ma**k, Monomial((s, e * k) for s, e in ma.powers))
    same(Monomial.of(sym, k), Monomial([(sym, k)]))
    if mb.divides(ma):
        same(ma / mb, Monomial((s, e - mb.exponent(s)) for s, e in ma.powers))
    assert ma**0 == Monomial.unit()


def _old_lt(a: Monomial, b: Monomial) -> bool:
    """Graded lex as it was first written: total degree, then the exponents
    over the union of the symbols in name order."""
    da, db = a.degree(), b.degree()
    if da != db:
        return da < db
    for s in sorted(a.symbols() | b.symbols()):
        if a.exponent(s) != b.exponent(s):
            return a.exponent(s) < b.exponent(s)
    return False


@given(monomials, monomials)
@settings(max_examples=300, deadline=None)
def test_merge_walk_order_matches_graded_lex(ma, mb):
    assert (ma < mb) == _old_lt(ma, mb)
    assert (ma > mb) == _old_lt(mb, ma)
    assert (ma <= mb) == (not _old_lt(mb, ma))
    assert (ma >= mb) == (not _old_lt(ma, mb))
    assert ((ma < mb) + (ma > mb) + (ma == mb)) == 1


@given(monomials)
@settings(max_examples=60, deadline=None)
def test_equal_monomials_hash_equal(m):
    again = Monomial(reversed(m.powers))
    assert again == m and hash(again) == hash(m) == hash(m.powers)
    assert {m: 1}[again] == 1


# Few monomials and coefficients, so that sums cancel often.
small_coeffs = st.sampled_from([F(1), F(-1), F(1, 2), F(-1, 2), F(2)])


@st.composite
def cancelling_polynomials(draw):
    terms = draw(st.lists(st.tuples(
        st.lists(st.tuples(st.sampled_from("xy"), st.integers(0, 1)), max_size=2),
        small_coeffs,
    ), max_size=5))
    p = Polynomial.zero()
    for powers, c in terms:
        p = p + Polynomial({Monomial(powers): c})
    return p


def _reference(pairs) -> dict:
    """Sum (monomial, coefficient) pairs into a plain dict, then drop zeros."""
    out: dict = {}
    for m, c in pairs:
        out[m] = out.get(m, F(0)) + c
    return {m: c for m, c in out.items() if c != 0}


def _check_terms(poly, want: dict):
    assert list(poly.terms.items()) == list(want.items())
    assert all(type(c) is F and c != 0 for c in poly.terms.values())


@given(cancelling_polynomials(), cancelling_polynomials(), st.sampled_from([0, 1, -2, F(1, 3)]))
@settings(max_examples=200, deadline=None)
def test_polynomial_ops_match_dict_reference(a, b, k):
    ta, tb = list(a.terms.items()), list(b.terms.items())
    _check_terms(a + b, _reference(ta + tb))
    _check_terms(a - b, _reference(ta + [(m, -c) for m, c in tb]))
    _check_terms(-a, _reference([(m, -c) for m, c in ta]))
    _check_terms(a * b, _reference([(ma * mb, ca * cb) for ma, ca in ta for mb, cb in tb]))
    _check_terms(a * k, _reference([(m, c * k) for m, c in ta]))
    _check_terms(k * a, _reference([(m, c * k) for m, c in ta]))
    const_k = [(Monomial.unit(), F(k))] if k else []  # Polynomial.const(0) has no terms
    _check_terms(k - a, _reference(const_k + [(m, -c) for m, c in ta]))


@st.composite
def _network_step(draw, engines):
    """A compiled network's engine, one of its variables and a reduced
    polynomial over its variables (each exponent below the support)."""
    engine = draw(st.sampled_from(engines))
    var = draw(st.sampled_from(engine.vars))
    poly = Polynomial.zero()
    for _ in range(draw(st.integers(0, 4))):
        chosen = draw(st.lists(st.sampled_from(engine.vars), max_size=3, unique=True))
        poly = poly + Polynomial({Monomial((v, 1) for v in chosen): draw(small_coeffs)})
    return engine, var, poly


def _engines():
    data = Path(__file__).resolve().parent.parent / "data"
    return [
        MomentEngine(compile_bn(load_bn_path(data / "alarm.json"))),
        MomentEngine(compile_dynbn(load_bn_path(data / "umbrella.json"))),
    ]


@given(_network_step(_engines()))
@settings(max_examples=80, deadline=None)
def test_substitute_var_matches_substitute_then_reduce(step):
    # On a reduced polynomial every variable occurs at most linearly, so
    # its branch coin and its draws average out into the mean update.
    engine, var, poly = step
    prog = engine.prog
    mean = Polynomial.zero()
    for br in prog.update_for(var).branches:
        draws = {s: prog.draws[s].moment(1).num for s in br.expr.symbols() if s in prog.draws}
        mean = mean + br.prob.num * br.expr.substitute(draws)
    want = poly.substitute({var: mean})
    for v, size in prog.supports.items():
        want = reduce_support(want, v, size)
    table = engine._table
    got = engine._step(var, table.pack(poly))
    assert table.unpack(got) == want
    assert all(type(n) is int and n != 0 for n in got[0].values())


# -- packed polynomials --------------------------------------------------------

# program variables, a symbolic draw, a branch coin and parameters
PACKED_SYMBOLS = ("x", "y", "$0", "$y#1", "a", "b")


def _items(poly: Polynomial) -> list:
    return list(poly.terms.items())


@given(polynomials(PACKED_SYMBOLS), polynomials(PACKED_SYMBOLS), polynomials(PACKED_SYMBOLS),
       st.sampled_from(PACKED_SYMBOLS), st.integers(1, 3), st.permutations(PACKED_SYMBOLS))
@settings(max_examples=150, deadline=None)
def test_packed_kernel_matches_polynomials(a, b, image, sym, size, order):
    # The packed forms give the Polynomial results term for term, in the
    # same order, whatever order the table met the symbols in.
    table = SymbolTable(8)
    for s in order:
        table.add(s)
    pa, pb = table.pack(a), table.pack(b)
    assert _items(table.unpack(pa)) == _items(a)
    assert all(type(n) is int and n for n in pa[0].values())
    assert _items(table.unpack(packed.mul(pa, pb, table))) == _items(a * b)
    assert _items(table.unpack(packed.add(pa, pb))) == _items(a + b)
    shift, pimg = table.add(sym), table.pack(image)
    step = packed.expand(
        pa, table.top << shift, lambda part: (0, packed.power(pimg, part >> shift, table)), table)
    assert _items(table.unpack(step)) == _items(a.substitute({sym: image}))
    reduced = packed.expand(pa, table.top << shift, packed.residues(size, shift), table)
    assert _items(table.unpack(reduced)) == _items(_falling_factorial_reduction(a, sym, size))
    assert table.intern(*packed.mul(pa, pb, table)) == table.intern(*table.pack(a * b))


def test_packed_guard_bits_catch_overflow():
    # 3-bit fields hold exponents up to 3: a product or a packed power that
    # reaches the guard bit raises instead of carrying into the next field
    table = SymbolTable(3)
    x3y = table.pack(x**3 * y)
    with pytest.raises(Overflow):
        packed.mul(x3y, table.pack(x), table)
    with pytest.raises(Overflow):
        table.pack(y**4)
    with pytest.raises(Overflow):  # y -> x in x^3*y
        packed.expand(x3y, table.top << table.add("y"), lambda part: (0, table.pack(x)), table)
    assert table.unpack(packed.mul(x3y, table.pack(y**2), table)) == x**3 * y**3
    table.widen()
    assert table.bits == 6
    assert table.unpack(packed.mul(table.pack(x**3 * y), table.pack(x), table)) == x**4 * y


def test_narrow_engine_widens_to_the_same_answers():
    # an engine whose fields start too narrow for its walks widens its
    # symbol table and starts the walk over; its answers are the wide ones
    prog = parse_program(
        "x := 0; y := 1; while true { x := x + bern(1/2); y := 1/2*y + x*uniform(0, 1); }")
    goal = Monomial.of("y", 4)
    narrow, wide = MomentEngine(prog, _bits=2), MomentEngine(prog)
    got, want = compute_mbis(narrow, [goal]), compute_mbis(wide, [goal])
    assert {m: str(mbi.closed) for m, mbi in got.items()} == {
        m: str(mbi.closed) for m, mbi in want.items()}
    assert narrow._table.bits > 2
    alarm = load_bn_path(Path(__file__).resolve().parent.parent / "data" / "alarm_sens.json")
    prog = compile_bn(alarm)
    narrow, wide = MomentEngine(prog, _bits=2), MomentEngine(prog)
    for evidence in ({"A": 1}, {"J": 1, "M": 0}):
        ind = evidence_indicator(alarm, evidence)
        for factors in ([ind], [Polynomial.var("B"), ind], [Polynomial.var("B") ** 2 * ind]):
            assert str(narrow.one_pass(*factors)) == str(wide.one_pass(*factors))
    assert narrow._table.bits > 2
    # a sampling monitor's engine layered on a narrow base widens the
    # table they share, and both lay out their fields again
    monitor = compile_sampling_monitor(alarm, {"J": 1, "M": 0})
    base = MomentEngine(alarm.engine.prog, _bits=2)
    layered, alone = MomentEngine(monitor.program, base), MomentEngine(monitor.program)
    flags = [Polynomial.var(flag) for flag in monitor.evidence_vars]
    count = Monomial.of(monitor.count_var)
    assert str(layered.one_pass(*flags)) == str(alone.one_pass(*flags))
    assert (str(compute_mbis(layered, [count])[count].closed)
            == str(compute_mbis(alone, [count])[count].closed))
    assert base._bits == layered._bits == base._table.bits > 2
