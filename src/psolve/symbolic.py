"""Exact symbolic arithmetic: monomials, polynomials, rational functions.

Everything here is immutable and exact.  Coefficients are
`fractions.Fraction`; symbols are plain strings (program variables,
parameters and draw markers share one namespace, kept apart by callers).
Zero coefficients are never stored, so the zero polynomial has no terms and
structural equality is semantic equality for polynomials.  Rational-function
equality is the cross-multiplication test, which also identifies
representatives that differ by a common polynomial factor; rational
functions are therefore unhashable.

A constant rational function carries its exact `Fraction` value, and
arithmetic and equality between two constants never touch polynomials, so
numeric answers run at `Fraction` speed while symbolic ones keep the
polynomial path.  The solve layer skips even that wrapper: its coefficient
type `Coeff` is a plain `Fraction` where no parameter occurs and a
`RationalFunction` where one does, and `as_coeff` collapses a constant of
any kind to its `Fraction`; `coeff_str` and `coeff_subs` print and
substitute either kind.

The public constructors `Monomial(...)` and `Polynomial(...)` validate and
canonicalize their input.  The arithmetic does not go through them: every
internal result is built by `_mono` (a power tuple already sorted by
symbol, each symbol once, every exponent positive) or `_poly_of_terms` (a
term dict with no zero coefficient; `_poly_of_sums` first drops the zero
sums of an accumulation, once).  Each operation keeps that invariant
itself, so a result is exactly what the validating constructor would give,
term for term and in the same order.  A monomial's hash is that of its
power tuple, computed once when it is built.

A rewrite of `Polynomial`s that replaces powers by polynomials and
re-expands goes through `Polynomial.map_powers`, as substitution does.
The moment engine does not work on `Polynomial`s: its body steps, draw
moments and support reduction run on the packed form of `packed.py` (a
monomial is one int, a polynomial integer numerators over one
denominator), which converts to and from these classes where a walk
begins and ends and keeps their term order.  Monomials compare in graded
lexicographic order by one merge walk over their power tuples.

`clear_denominators` turns a table of probabilities into integer weights
over one common factor (ints, or polynomials with integer coefficients),
and a network clears each CPT once (`BayesNet.cleared`); the forward
filter and the enumeration oracle both run on those weights.  A rational
function's canonical form is defined once, by `_canonical`, for term
dicts keyed by monomials or by packed monomials: `RationalFunction`
builds one numerator over its denominator with it, and `over` the
beliefs of a filter step over their shared total.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from typing import Callable, Iterable, Mapping, Optional, Union

Scalar = Union[int, Fraction]


class Monomial:
    """A power product of symbols, e.g. x^2*y.

    Stored as a tuple of (symbol, exponent) pairs sorted by symbol, all
    exponents positive.  The empty tuple is the unit monomial.  Ordering is
    graded lexicographic: total degree first, then higher power of the
    alphabetically earliest differing symbol wins.  The hash of `powers`
    is computed once, when the monomial is built.
    """

    __slots__ = ("powers", "_hash")

    def __init__(self, powers: Iterable[tuple[str, int]] = ()):
        items: dict[str, int] = {}
        for sym, exp in powers:
            if exp < 0:
                raise ValueError(f"negative exponent for {sym}")
            if exp:
                items[sym] = items.get(sym, 0) + exp
        canonical = tuple(sorted(items.items()))
        _set_powers(self, canonical)
        _set_hash(self, hash(canonical))

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @staticmethod
    def unit() -> "Monomial":
        return _UNIT

    @staticmethod
    def of(sym: str, exp: int = 1) -> "Monomial":
        if exp > 0:
            return _mono(((sym, exp),))
        if exp == 0:
            return _UNIT
        raise ValueError(f"negative exponent for {sym}")

    def degree(self) -> int:
        return sum(e for _, e in self.powers)

    def exponent(self, sym: str) -> int:
        for s, e in self.powers:
            if s == sym:
                return e
        return 0

    def symbols(self) -> frozenset[str]:
        return frozenset(s for s, _ in self.powers)

    def is_unit(self) -> bool:
        return not self.powers

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self.powers, other.powers
        if not b:
            return self
        if not a:
            return other
        # Merge the two sorted power tuples.
        out = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            sa, sb = a[i][0], b[j][0]
            if sa < sb:
                out.append(a[i])
                i += 1
            elif sb < sa:
                out.append(b[j])
                j += 1
            else:
                out.append((sa, a[i][1] + b[j][1]))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return _mono(tuple(out))

    def __pow__(self, k: int) -> "Monomial":
        if k == 1 or not self.powers:
            return self
        if k > 0:
            return _mono(tuple((s, e * k) for s, e in self.powers))
        if k == 0:
            return _UNIT
        raise ValueError(f"negative exponent for {self.powers[0][0]}")

    def without(self, sym: str) -> "Monomial":
        return _mono(tuple(p for p in self.powers if p[0] != sym))

    def divides(self, other: "Monomial") -> bool:
        return all(other.exponent(s) >= e for s, e in self.powers)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        out = dict(self.powers)
        for s, e in other.powers:
            r = out.get(s, 0) - e
            if r < 0:
                raise ValueError(f"{other} does not divide {self}")
            out[s] = r
        return _mono(tuple(p for p in out.items() if p[1]))

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.powers == other.powers

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Monomial") -> bool:
        return _order(self.powers, other.powers) < 0

    def __gt__(self, other: "Monomial") -> bool:
        return _order(self.powers, other.powers) > 0

    def __le__(self, other: "Monomial") -> bool:
        return _order(self.powers, other.powers) <= 0

    def __ge__(self, other: "Monomial") -> bool:
        return _order(self.powers, other.powers) >= 0

    def __str__(self) -> str:
        if not self.powers:
            return "1"
        return "*".join(s if e == 1 else f"{s}^{e}" for s, e in self.powers)

    def __repr__(self) -> str:
        return f"Monomial({self})"


# Slot setters that bypass the immutability guards, for the constructors
# that build canonical objects directly.
_set_powers = Monomial.powers.__set__
_set_hash = Monomial._hash.__set__


def _order(a: tuple, b: tuple) -> int:
    """The sign of a - b in graded lexicographic order, for two sorted power
    tuples: one merge walk sums both degrees and finds the first symbol,
    in name order, whose exponents differ."""
    i = j = da = db = lex = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        (sa, ea), (sb, eb) = a[i], b[j]
        if sa == sb:
            da, db, i, j = da + ea, db + eb, i + 1, j + 1
            if not lex and ea != eb:
                lex = 1 if ea > eb else -1
        elif sa < sb:  # b's exponent of sa is 0
            da, i = da + ea, i + 1
            lex = lex or 1
        else:
            db, j = db + eb, j + 1
            lex = lex or -1
    if i < na:
        da += sum(e for _, e in a[i:])
        lex = lex or 1
    if j < nb:
        db += sum(e for _, e in b[j:])
        lex = lex or -1
    if da != db:
        return 1 if da > db else -1
    return lex


def _mono(powers: tuple) -> Monomial:
    """A Monomial over an already canonical power tuple: sorted by symbol,
    each symbol once, every exponent positive."""
    mono = object.__new__(Monomial)
    _set_powers(mono, powers)
    _set_hash(mono, hash(powers))
    return mono


_UNIT = _mono(())
_ZERO = Fraction(0)
_ONE = Fraction(1)


class Polynomial:
    """Multivariate polynomial with Fraction coefficients.

    Backed by a dict Monomial -> Fraction with no zero entries.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, Scalar]] = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = coeff if type(coeff) is Fraction else Fraction(coeff)
                if c:
                    clean[mono] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value: Scalar) -> "Polynomial":
        c = value if type(value) is Fraction else Fraction(value)
        return _poly_of_terms({_UNIT: c} if c else {})

    @staticmethod
    def var(sym: str) -> "Polynomial":
        return _poly_of_terms({Monomial.of(sym): _ONE})

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _UNIT in self.terms)

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError(f"not a constant: {self}")
        return self.terms.get(_UNIT, _ZERO)

    def coeff(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, _ZERO)

    def degree(self) -> int:
        return max((m.degree() for m in self.terms), default=0)

    def symbols(self) -> frozenset[str]:
        return frozenset({s for m in self.terms for s, _ in m.powers})

    def leading(self) -> tuple[Monomial, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms)
        return m, self.terms[m]

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return Polynomial.const(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "Polynomial":
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            prev = out.get(m)
            out[m] = c if prev is None else prev + c
        return _poly_of_sums(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _poly_of_terms({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            prev = out.get(m)
            out[m] = -c if prev is None else prev - c
        return _poly_of_sums(out)

    def __rsub__(self, other) -> "Polynomial":
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = other if type(other) is Fraction else Fraction(other)
            if not c:
                return _poly_of_terms({})
            return _poly_of_terms({m: k * c for m, k in self.terms.items()})
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = ma * mb
                c = ca * cb
                prev = out.get(m)
                out[m] = c if prev is None else prev + c
        return _poly_of_sums(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    # -- substitution and evaluation ---------------------------------------

    def map_powers(self, image: Callable[[str, int], Optional["Polynomial"]]) -> "Polynomial":
        """Replace each power s^e by the polynomial image(s, e), or keep it
        where the image is None, and expand into one term dict.  The zero
        sums are dropped once, at the end, and the terms keep the order in
        which they first appear.  `image` runs once per power of each
        term, so a caller caches what it computes."""
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            keep: list[tuple[str, int]] = []
            factor = None
            for s, e in mono.powers:
                img = image(s, e)
                if img is None:
                    keep.append((s, e))
                else:
                    factor = img if factor is None else factor * img
            if factor is None:
                prev = out.get(mono)
                out[mono] = coeff if prev is None else prev + coeff
                continue
            rest = _mono(tuple(keep))
            for m2, c2 in factor.terms.items():
                m, c = rest * m2, coeff * c2
                prev = out.get(m)
                out[m] = c if prev is None else prev + c
        return _poly_of_sums(out)

    def substitute(self, mapping: Mapping[str, Union["Polynomial", Scalar]]) -> "Polynomial":
        """Replace each named symbol with a polynomial (or constant)."""
        if not mapping:
            return self
        repl = {s: Polynomial._coerce(v) for s, v in mapping.items()}

        @cache
        def image(s: str, e: int) -> Optional[Polynomial]:
            return repl[s] ** e if s in repl else None

        return self.map_powers(image)

    def eval(self, values: Mapping[str, Scalar]) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = coeff
            for s, e in mono.powers:
                v = values[s]
                term *= (v if type(v) is int else Fraction(v)) ** e
            total += term
        return total

    def interval(self, bounds: Mapping[str, tuple[Fraction, Fraction]]) -> tuple[Fraction, Fraction]:
        """Conservative interval enclosure given per-symbol bounds."""
        lo = hi = Fraction(0)
        for mono, coeff in self.terms.items():
            tlo, thi = Fraction(1), Fraction(1)
            for s, e in mono.powers:
                if s not in bounds:
                    raise KeyError(f"no bounds for symbol {s}")
                plo, phi = _interval_pow(bounds[s][0], bounds[s][1], e)
                tlo, thi = _interval_mul(tlo, thi, plo, phi)
            tlo, thi = (tlo * coeff, thi * coeff) if coeff > 0 else (thi * coeff, tlo * coeff)
            lo, hi = lo + tlo, hi + thi
        return lo, hi

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.sorted_terms():
            if mono.is_unit():
                body = _number_str(abs(coeff))
            elif abs(coeff) == 1:
                body = str(mono)
            else:
                body = f"{_number_str(abs(coeff))}*{mono}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _interval_mul(alo: Fraction, ahi: Fraction, blo: Fraction, bhi: Fraction) -> tuple[Fraction, Fraction]:
    cands = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return min(cands), max(cands)


def _interval_pow(lo: Fraction, hi: Fraction, e: int) -> tuple[Fraction, Fraction]:
    if e == 0:
        return Fraction(1), Fraction(1)
    if e % 2 == 1 or lo >= 0:
        return lo**e, hi**e
    if hi <= 0:
        return hi**e, lo**e
    # Even power over an interval straddling zero.
    return Fraction(0), max(lo**e, hi**e)


def exact_div(num: Polynomial, den: Polynomial) -> Optional[Polynomial]:
    """Quotient num/den if den divides num exactly, else None.

    Single-divisor division by leading terms in graded-lex order; for exact
    quotients the leading term of the running remainder is always divisible.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_zero():
        return Polynomial()
    dm, dc = den.leading()
    quot: dict[Monomial, Fraction] = {}
    rem = num
    while not rem.is_zero():
        rm, rc = rem.leading()
        if not dm.divides(rm):
            return None
        qm = rm / dm
        qc = rc / dc
        prev = quot.get(qm)
        quot[qm] = qc if prev is None else prev + qc
        rem = rem - den * _poly_of_terms({qm: qc})
    return _poly_of_sums(quot)


class RationalFunction:
    """Ratio of two polynomials, denominator nonzero.

    Canonical form (`_canonical`): exact polynomial cancellation is
    attempted (single divisor only, no multivariate gcd, decided by total
    degree before any division is tried), the denominator is made
    primitive with positive leading coefficient, and a zero numerator
    forces denominator 1.  Equality is cross-multiplication, so
    representatives differing by a common factor still compare equal.

    A constant (constant numerator over denominator 1) also carries its
    exact `Fraction` value in `_const` (None otherwise).  Arithmetic and
    equality between two constants work on those values alone and build
    the canonical result directly, without touching polynomials; a
    symbolic operand takes the general polynomial path.
    """

    __slots__ = ("num", "den", "_const")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = _POLY_ONE if den is None else _as_poly(den)
        if den.terms == _POLY_ONE.terms:
            den, const = _POLY_ONE, num.const_value() if num.is_const() else None
        elif den.is_zero():
            raise ZeroDivisionError("zero denominator")
        else:
            num, den, const = _canonical(den.terms, _monomial)(num.terms)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_const", const)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        """Nonzero, as for a Fraction."""
        return bool(self.num.terms)

    def is_const(self) -> bool:
        return self._const is not None

    def const_value(self) -> Fraction:
        if self._const is None:
            raise ValueError(f"not a constant: {self}")
        return self._const

    def is_poly(self) -> bool:
        return self._const is not None or self.den.terms == _POLY_ONE.terms

    def symbols(self) -> frozenset[str]:
        return self.num.symbols() | self.den.symbols()

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, (int, Fraction)):
            return _rf_const(Fraction(value))
        if isinstance(value, Polynomial):
            return RationalFunction(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "RationalFunction":
        other = RationalFunction._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._const is not None and other._const is not None:
            return _rf_const(self._const + other._const)
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        if self._const is not None:
            return _rf_const(-self._const)
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        other = RationalFunction._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._const is not None and other._const is not None:
            return _rf_const(self._const - other._const)
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        return RationalFunction._coerce(other) - self

    def __mul__(self, other) -> "RationalFunction":
        other = RationalFunction._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._const is not None and other._const is not None:
            return _rf_const(self._const * other._const)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = RationalFunction._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        if self._const is not None and other._const is not None:
            return _rf_const(self._const / other._const)
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        return RationalFunction._coerce(other) / self

    def __pow__(self, k: int) -> "RationalFunction":
        if self._const is not None and type(k) is int:
            if k < 0 and not self._const:
                raise ZeroDivisionError("division by zero rational function")
            return _rf_const(self._const**k)
        if k < 0:
            return (RationalFunction(1) / self) ** (-k)
        return RationalFunction(self.num**k, self.den**k)

    def __eq__(self, other) -> bool:
        other = RationalFunction._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._const is not None and other._const is not None:
            return self._const == other._const
        return (self.num * other.den - other.num * self.den).is_zero()

    __hash__ = None  # type: ignore[assignment]

    # -- substitution and evaluation ---------------------------------------

    def subs(self, mapping: Mapping[str, Union[Polynomial, Scalar]]) -> "RationalFunction":
        return RationalFunction(self.num.substitute(mapping), self.den.substitute(mapping))

    def eval(self, values: Mapping[str, Scalar]) -> Fraction:
        d = self.den.eval(values)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {dict(values)}")
        return self.num.eval(values) / d

    def interval(self, bounds: Mapping[str, tuple[Fraction, Fraction]]) -> Optional[tuple[Fraction, Fraction]]:
        """Conservative enclosure, or None when the denominator may vanish."""
        nlo, nhi = self.num.interval(bounds)
        dlo, dhi = self.den.interval(bounds)
        if dlo <= 0 <= dhi:
            return None
        cands = (nlo / dlo, nlo / dhi, nhi / dlo, nhi / dhi)
        return min(cands), max(cands)

    def __str__(self) -> str:
        if self._const is not None:
            return _number_str(self._const)
        if self.is_poly():
            return str(self.num)
        num = str(self.num)
        den = str(self.den)
        if len(self.num.terms) > 1:
            num = f"({num})"
        if len(self.den.terms) > 1 or not self.den.is_const():
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _as_poly(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.const(value)
    raise TypeError(f"cannot treat {value!r} as a polynomial")


_set_terms = Polynomial.terms.__set__
_set_num = RationalFunction.num.__set__
_set_den = RationalFunction.den.__set__
_set_const = RationalFunction._const.__set__


def _poly_of_terms(terms: dict) -> Polynomial:
    """A Polynomial over an already clean term dict (no zero coefficients)."""
    poly = object.__new__(Polynomial)
    _set_terms(poly, terms)
    return poly


def _poly_of_sums(sums: dict) -> Polynomial:
    """A Polynomial over an accumulated term dict: its zero coefficients are
    dropped once, and the rest keep their insertion order."""
    return _poly_of_terms({m: c for m, c in sums.items() if c})


# Shared denominator of every rational function whose denominator is 1.
_POLY_ONE = _poly_of_terms({_UNIT: _ONE})


def _rf_const(value: Fraction) -> RationalFunction:
    """The canonical constant rational function `value`, built directly,
    its numerator too: a network's every numeric entry is one."""
    rf = object.__new__(RationalFunction)
    num = object.__new__(Polynomial)
    _set_terms(num, {_UNIT: value} if value else {})
    _set_num(rf, num)
    _set_den(rf, _POLY_ONE)
    _set_const(rf, value)
    return rf


RF_ZERO = RationalFunction(0)
RF_ONE = RationalFunction(1)


# -- canonical form --------------------------------------------------------


def _monomial(mono: Monomial) -> tuple[Monomial, int]:
    """A Monomial key as `_canonical` reads keys: itself and its degree."""
    return mono, mono.degree()


def _canonical(den: Mapping, unpack: Callable) -> Callable[[Mapping], tuple]:
    """The canonical `RationalFunction` form (num, den, const) of any
    numerator over one nonzero denominator, which is made canonical once.
    den and the numerators are term dicts with int or Fraction
    coefficients, and unpack(key) is a key's (Monomial, degree): a
    Monomial key reads as itself (`_monomial`), a packed one through its
    table (`packed.unpacker`).

    Whether the denominator divides a numerator exactly is decided by
    total degree: not when the numerator's degree is lower, exactly when
    the two are proportional (`_proportion`) when it is the same, and by
    `exact_div` only when it is higher, where a constant denominator
    always divides.  A quotient comes back over 1.  Any other numerator
    is divided by what makes the denominator canonical: its content,
    signed so that its graded-lex leading coefficient is positive."""
    lead = max(den, key=lambda key: unpack(key)[0])
    degree, top = unpack(lead)[1], den[lead]
    if degree:
        num_gcd = gcd(*[c.numerator for c in den.values()])
        den_lcm = lcm(*[c.denominator for c in den.values()])
        scale = num_gcd if den_lcm == 1 else Fraction(num_gcd, den_lcm)  # int where it can be
        if top < 0:
            scale = -scale
        den_poly = _poly_of_terms({unpack(k)[0]: Fraction(c, scale) for k, c in den.items()})
    else:
        scale, den_poly = top, _POLY_ONE

    def form(num: Mapping) -> tuple[Polynomial, Polynomial, Optional[Fraction]]:
        if not num:
            return _poly_of_terms({}), _POLY_ONE, _ZERO
        d = max([unpack(k)[1] for k in num])
        if d == degree and (q := _proportion(num, den, lead)) is not None:
            return _poly_of_terms({_UNIT: q}), _POLY_ONE, q
        poly = _poly_of_terms({unpack(k)[0]: Fraction(c, scale) for k, c in num.items()})
        if not degree:
            return poly, _POLY_ONE, None
        if d > degree and (q := exact_div(poly, den_poly)) is not None:
            return q, _POLY_ONE, None
        return poly, den_poly, None

    return form


def _proportion(num: Mapping, den: Mapping, lead) -> Optional[Fraction]:
    """The constant q with num = q * den, or None: the two term dicts have
    the same keys, and num[k] * den[lead] == den[k] * num[lead] for each."""
    if len(num) != len(den) or lead not in num:
        return None
    n0, d0 = num[lead], den[lead]
    for key, d in den.items():
        n = num.get(key)
        if n is None or n * d0 != d * n0:
            return None
    return Fraction(n0, d0)


def over(den: Mapping, unpack: Callable) -> Callable[[Mapping], RationalFunction]:
    """The canonical `RationalFunction` of each numerator over one
    denominator (`_canonical`), built directly: the beliefs of a filter
    step over their total."""
    form = _canonical(den, unpack)

    def build(num: Mapping) -> RationalFunction:
        rf = object.__new__(RationalFunction)
        n, d, c = form(num)
        _set_num(rf, n)
        _set_den(rf, d)
        _set_const(rf, c)
        return rf

    return build

# A coefficient of the solve layer (closed forms, recurrences and moment
# expectations): a Fraction where no parameter occurs, a RationalFunction
# where one does.  RationalFunction takes a Fraction operand on either side,
# so ordinary operators do the arithmetic for both kinds.
Coeff = Union[Fraction, RationalFunction]


def as_coeff(value) -> Coeff:
    """value as a coefficient: an int, a Fraction, or a constant Polynomial
    or RationalFunction collapses to its Fraction, and a nonconstant
    Polynomial becomes a RationalFunction.  A symbolic result can cancel to
    a constant (r - (r - 3/10)), so a result whose constness matters goes
    through here before it is tested."""
    if type(value) is Fraction:
        return value
    if isinstance(value, RationalFunction):
        return value if value._const is None else value._const
    if isinstance(value, Polynomial):
        return value.const_value() if value.is_const() else RationalFunction(value)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"cannot treat {value!r} as a coefficient")


def coeff_str(value: Coeff) -> str:
    """The printed form of a coefficient, of any length; a Fraction prints
    as the constant RationalFunction of its value does."""
    return str(value) if isinstance(value, RationalFunction) else _number_str(value)


def coeff_subs(value: Coeff, mapping: Mapping[str, Union[Polynomial, Scalar]]) -> Coeff:
    """A coefficient with parameter values substituted."""
    return as_coeff(value.subs(mapping)) if isinstance(value, RationalFunction) else value


def sums_to_one(probs: Iterable[Coeff], outside: Callable[[Fraction], Exception]) -> bool:
    """Whether the probabilities `probs` (Fractions or RationalFunctions)
    sum to exactly 1.  The constant ones are added as integers over the lcm
    of their denominators and the symbolic ones at the end, so no Fraction
    is built for a numeric vector.  A constant outside [0, 1] raises
    `outside(value)`."""
    num, den, symbolic = 0, 1, []
    for p in probs:
        if (c := p._const if type(p) is RationalFunction else p) is None:
            symbolic.append(p)
            continue
        n, d = c.as_integer_ratio()
        if n < 0 or n > d:
            raise outside(c)
        if d == den:
            num += n
        else:
            common = lcm(den, d)
            num, den = num * (common // den) + n * (common // d), common
    if symbolic:
        return sum(symbolic, Fraction(num, den)) == 1
    return num == den


@dataclass(frozen=True)
class Param:
    """A symbolic parameter, optionally restricted to a closed interval."""

    name: str
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None

    def bounds(self) -> Optional[tuple[Fraction, Fraction]]:
        if self.lo is None or self.hi is None:
            return None
        return self.lo, self.hi


# -- cleared weights ---------------------------------------------------------


def clear_denominators(rows: dict, symbolic: bool) -> tuple[dict, Union[int, Polynomial]]:
    """Rows of probabilities ({key: {state: RationalFunction}}), each entry
    multiplied by one factor common to all rows that clears every
    denominator: ints for a numeric table, polynomials with integer
    coefficients for a symbolic one.  The factor is the lcm of the constant
    denominators times the product of the distinct polynomial ones.
    Returns the cleared rows, zero entries dropped, and the factor: an int,
    or a Polynomial for a symbolic table."""
    rows = {key: {s: v for s, v in row.items() if v} for key, row in rows.items()}
    entries = [v for row in rows.values() for v in row.values()]
    if not symbolic:
        scale = lcm(*(v.const_value().denominator for v in entries))
        return {key: {s: _scaled(v.const_value(), scale) for s, v in row.items()}
                for key, row in rows.items()}, scale
    dens: list[Polynomial] = []
    for v in entries:
        if v.den not in dens:
            dens.append(v.den)
    others = [prod(dens[:i] + dens[i + 1:], start=_POLY_ONE) for i in range(len(dens))]
    rows = {key: {s: v.num * others[dens.index(v.den)] for s, v in row.items()}
            for key, row in rows.items()}
    scale = lcm(*(c.denominator for row in rows.values() for p in row.values()
                  for c in p.terms.values()))
    return ({key: {s: p * scale for s, p in row.items()} for key, row in rows.items()},
            prod(dens, start=_POLY_ONE) * scale)


def _scaled(value: Fraction, scale: int) -> int:
    return value.numerator * (scale // value.denominator)


def _number_str(value: Scalar) -> str:
    """str(value) for an int or Fraction of any length.  str() refuses an
    int with more digits than the interpreter's limit (4300 by default), so
    such an int is split at a power of ten and printed half by half; the
    limit itself is left alone."""
    if isinstance(value, Fraction):
        if value.denominator != 1:
            return f"{_number_str(value.numerator)}/{_number_str(value.denominator)}"
        value = value.numerator
    try:
        return str(value)
    except ValueError:
        pass
    k = value.bit_length() * 3 // 20  # about half of its decimal digits
    high, low = divmod(abs(value), 10**k)
    return ("-" if value < 0 else "") + _number_str(high) + _number_str(low).zfill(k)


def decimal_str(value: Fraction, digits: int = 6) -> str:
    """Exact fixed-point rendering with round-half-to-even."""
    scaled = round(value * Fraction(10) ** digits)  # Fraction rounds half-even
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 10**digits)
    if digits == 0:
        return f"{sign}{_number_str(whole)}"
    return f"{sign}{_number_str(whole)}.{_number_str(frac).zfill(digits)}"
