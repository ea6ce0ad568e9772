"""Packed polynomials: the working form of the moment engine and of the
symbolic forward filter.

A `SymbolTable` gives each symbol one fixed-width bit field of an int, in
the order the symbols are added, and a packed monomial is that int: the
field of symbol i, bits [i*w, (i+1)*w) for the table's width w, holds the
symbol's exponent, and the unit monomial is 0 (Johnson, "Sparse polynomial
arithmetic", 1974; Monagan and Pearce, 2011).  The top bit of every field
is a guard bit that no stored exponent reaches, so the product of two
monomials is one int addition, and it overflowed exactly when the sum has
a guard bit set; a symbol's exponent is a shift and a mask.  Every product
here checks the guard bits and raises `Overflow` rather than build a wrong
monomial; the moment engine then widens its table and starts over, while
the forward filter sizes its table once, from a bound on its weights'
degrees, so that none of its products overflows.

A packed polynomial is a pair (terms, den): a dict from packed monomials
to nonzero int numerators, and one positive int denominator.  The
arithmetic does not divide out the common factor of the numerators and
den, which costs a gcd and a new dict per operation; `normal` does, where
a result is kept, and `SymbolTable.intern` keys a polynomial by its normal
form, so equal polynomials get one id.  Dicts of ints and tuples of ints
are not tracked by CPython's cyclic collector.  The operations keep the term order that `Polynomial`'s
own arithmetic gives, term for term, so a walk on packed forms visits the
terms of its result in the order the `Polynomial` walk would.

`mul_add` is the one product kernel: `mul` runs it, and so does the
forward filter, whose weights are term dicts of ints with no
denominator; `unpacker` reads the filter's keys back as monomials, each
key once.

`expand` is the one rewrite kernel: it replaces the masked part of every
term by an image polynomial and re-expands, as `Polynomial.map_powers`
does; the moment engine's substitution steps, draw moments and support
reduction all go through it.  Support reduction runs nowhere else: its
image (`residues`) reads each power's residue modulo the falling factorial
from an integer table built once per support size (`_support_residues`).
`pack` and `unpack` convert at the edges.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_

from .symbolic import Monomial, Polynomial, _mono, _poly_of_terms

ZERO = ({}, 1)
ONE = ({0: 1}, 1)


class Overflow(Exception):
    """An exponent reached the guard bit of its field."""


class SymbolTable:
    """Symbol -> bit field of packed monomials.  The table only grows, so
    every key built with it stays valid, until `widen` doubles the field
    width; the keys and intern ids built before that are void.

    It keeps the intern table of packed polynomials (`intern`) beside the
    fields, since the keys it holds are only valid at one width."""

    def __init__(self, bits: int = 4):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self._interned: dict[tuple, int] = {}
        self._ids = iter(range(1 << 62))
        self._layout(bits)

    def _layout(self, bits: int) -> None:
        self.bits = bits
        self.top = (1 << bits) - 1  # the mask of the field at bit 0
        self.limit = 1 << (bits - 1)  # every stored exponent stays below
        self.guard = 0  # the guard bits of every field
        self.draws = 0  # the fields of the draw symbols ("$...")
        for i, name in enumerate(self.names):
            self._mark(i, name)
        self._interned.clear()

    def _mark(self, i: int, name: str) -> None:
        self.guard |= self.limit << (i * self.bits)
        if name.startswith("$"):
            self.draws |= self.top << (i * self.bits)

    def widen(self) -> None:
        """Double the field width: every key and intern id is void."""
        self._layout(2 * self.bits)

    def add(self, name: str) -> int:
        """The shift of name's field, added at the end where it is new."""
        i = self.index.get(name)
        if i is None:
            i = self.index[name] = len(self.names)
            self.names.append(name)
            self._mark(i, name)
        return i * self.bits

    def next_id(self) -> int:
        return next(self._ids)

    def intern(self, terms: dict, den: int) -> int:
        """One id per packed polynomial: equal polynomials get one id."""
        terms, den = normal((terms, den))
        key = (den, tuple(sorted(terms.items())))
        pid = self._interned.get(key)
        if pid is None:
            pid = self._interned[key] = next(self._ids)
        return pid

    # -- conversion --------------------------------------------------------

    def pack_mono(self, mono: Monomial) -> int:
        key, limit, index, bits = 0, self.limit, self.index, self.bits
        for s, e in mono.powers:
            if e >= limit:
                raise Overflow(s)
            i = index.get(s)
            key |= e << (i * bits if i is not None else self.add(s))
        return key

    def pack(self, poly: Polynomial) -> tuple[dict, int]:
        terms = poly.terms
        if len(terms) == 1:
            for m, c in terms.items():
                return {self.pack_mono(m): c.numerator}, c.denominator
        den = lcm(*[c.denominator for c in terms.values()])
        return {self.pack_mono(m): c.numerator * (den // c.denominator)
                for m, c in terms.items()}, den

    def powers(self, key: int) -> list[tuple[int, int]]:
        """(field index, exponent) of every symbol of a packed monomial."""
        bits, top, out = self.bits, self.top, []
        while key:
            i = ((key & -key).bit_length() - 1) // bits
            e = (key >> (i * bits)) & top
            key ^= e << (i * bits)
            out.append((i, e))
        return out

    def named(self, key: int) -> list[tuple[str, int, int]]:
        """(name, field index, exponent) of every symbol of a packed
        monomial, by name, as `Monomial.powers` lists them."""
        names = self.names
        return sorted([(names[i], i, e) for i, e in self.powers(key)])

    def unpack_mono(self, key: int) -> Monomial:
        return _mono(tuple([(s, e) for s, _, e in self.named(key)]))

    def unpack(self, packed: tuple[dict, int]) -> Polynomial:
        terms, den = packed
        return _poly_of_terms({self.unpack_mono(k): Fraction(n, den) for k, n in terms.items()})


def unpacker(table: SymbolTable):
    """key -> (Monomial, total degree) for the packed monomials of table,
    each key unpacked once: `symbolic.over` reads keys this way."""
    seen: dict[int, tuple[Monomial, int]] = {}

    def unpack(key: int) -> tuple[Monomial, int]:
        hit = seen.get(key)
        if hit is None:
            mono = table.unpack_mono(key)
            hit = seen[key] = (mono, mono.degree())
        return hit

    return unpack


def symbols(terms: dict) -> int:
    """The OR of the keys: a symbol occurs in some term exactly when its
    field is nonzero here."""
    return reduce(or_, terms, 0)


def clean(acc: dict, den: int) -> tuple[dict, int]:
    """The packed polynomial of accumulated numerators over den, its zero
    sums dropped.  acc is used as it is where it has none, since a dict
    rebuilt hashes every key again."""
    if 0 in acc.values():
        acc = {k: v for k, v in acc.items() if v}
        if not acc:
            return ZERO
    return acc, den


def normal(p: tuple[dict, int]) -> tuple[dict, int]:
    """p with the common factor of its numerators and denominator divided
    out."""
    terms, den = p
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            return {k: v // g for k, v in terms.items()}, den // g
    return p


def mul(a: tuple[dict, int], b: tuple[dict, int], table: SymbolTable) -> tuple[dict, int]:
    acc: dict[int, int] = {}
    mul_add(acc, a[0], b[0], table.guard)
    return clean(acc, a[1] * b[1])


def mul_add(acc: dict, a: dict, b: dict, guard: int) -> None:
    """acc += a * b in place, for term dicts of int numerators keyed by one
    table whose guard bits are guard; zero sums stay in acc (`clean`)."""
    get = acc.get
    tb = b.items()
    for ka, na in a.items():
        for kb, nb in tb:
            k = ka + kb
            if k & guard:
                raise Overflow(k)
            acc[k] = get(k, 0) + na * nb


def add(a: tuple[dict, int], b: tuple[dict, int]) -> tuple[dict, int]:
    (ta, da), (tb, db) = a, b
    den = lcm(da, db)
    sa, sb = den // da, den // db
    acc = {k: v * sa for k, v in ta.items()} if sa != 1 else dict(ta)
    get = acc.get
    for k, v in tb.items():
        acc[k] = get(k, 0) + v * sb
    return clean(acc, den)


def scale(a: tuple[dict, int], c: Fraction) -> tuple[dict, int]:
    p, q = c.numerator, c.denominator
    if p == q:
        return a
    return clean({k: v * p for k, v in a[0].items()}, a[1] * q)


def power(a: tuple[dict, int], k: int, table: SymbolTable) -> tuple[dict, int]:
    """a^k by repeated squaring, as `Polynomial.__pow__` takes it."""
    result = ONE
    while k:
        if k & 1:
            result = mul(result, a, table)
        a = mul(a, a, table) if k > 1 else a
        k >>= 1
    return result


def expand(p: tuple[dict, int], mask: int, image, table: SymbolTable) -> tuple[dict, int]:
    """Replace the part key & mask of every term by image(part), or keep
    the term where part is 0 or its image is None, and expand into one
    term dict, as `Polynomial.map_powers` does.  image(part) is a pair
    (kept, factor): the bits of part that stay, and the packed polynomial
    that replaces the rest.  It runs once per distinct part.  p itself
    comes back where no term has an image."""
    terms, den = p
    acc: dict[int, int] = {}
    get = acc.get
    scale = 1  # acc holds numerators over den * scale
    images: dict[int, object] = {}
    guard, last, img, applied = table.guard, 0, None, False
    for key, num in terms.items():
        part = key & mask
        if part:
            if part != last:  # terms in a row tend to share their part
                last = part
                img = images.get(part, False)
                if img is False:
                    img = images[part] = image(part)
                    guard = table.guard  # the image may add symbols
                    if img is not None and scale % img[1][1]:
                        grow = img[1][1] // gcd(scale, img[1][1])
                        for k in acc:
                            acc[k] *= grow
                        scale *= grow
            if img is not None:
                applied = True
                kept, (fterms, fden) = img
                rest = key ^ part | kept
                num *= scale // fden
                for fk, fn in fterms.items():
                    k = rest + fk
                    if k & guard:
                        raise Overflow(k)
                    acc[k] = get(k, 0) + num * fn
                continue
        acc[key] = get(key, 0) + num * scale
    return clean(acc, den * scale) if applied else p


def residues(size: int, shift: int):
    """The `expand` image of support reduction for the symbol whose field
    starts at shift: a power of exponent e >= size becomes its residue
    modulo the falling factorial of that size, read from the integer table
    of `_support_residues`, its terms from the highest power down.  The
    result agrees with the polynomial wherever the symbol takes a value in
    {0, ..., size-1}, and has degree < size in it."""

    def image(part: int):
        e = part >> shift
        if e < size:
            return None
        row = _support_residues(size, e)[e]
        return 0, ({j << shift: row[j] for j in range(size - 1, -1, -1) if row[j]}, 1)

    return image


# Residues of x^e modulo the falling factorial x(x-1)...(x-size+1), by
# support size: entry e lists the integer coefficients of x^0..x^(size-1).
# A table is replaced by a longer one, never changed in place.
_RESIDUES: dict[int, tuple[tuple[int, ...], ...]] = {}


def _support_residues(size: int, top: int) -> tuple[tuple[int, ...], ...]:
    """The residues of x^0..x^top (at least) for one support size.  The
    falling factorial is monic with integer coefficients f_j, so x^size is
    congruent to -sum f_j x^j, and each higher residue is x times the one
    below with its x^size coefficient folded back the same way.  A size's
    table is built once and extended when a higher power is asked for."""
    table = _RESIDUES.get(size, ())
    if len(table) > top:
        return table
    rows = list(table)
    if not rows:
        falling = [1]  # coefficients of the falling factorial, lowest first
        for i in range(size):
            falling = [(falling[j - 1] if j else 0) - (i * falling[j] if j < len(falling) else 0)
                       for j in range(len(falling) + 1)]
        rows = [tuple(int(j == e) for j in range(size)) for e in range(size)]
        rows.append(tuple(-f for f in falling[:size]))
    fold = rows[size]
    while len(rows) <= top:
        prev = rows[-1]
        rows.append(tuple((prev[j - 1] if j else 0) + prev[-1] * fold[j] for j in range(size)))
    table = _RESIDUES[size] = tuple(rows)
    return table
