"""Moment recurrence extraction, closed-form invariants and the one-pass
expectation of static bodies."""

import itertools
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from conftest import random_clgbn, random_discrete_bn, random_gbn

from psolve.bayesnet import load_bn_path
from psolve.encode import compile_bn, compile_dynbn
from psolve.errors import DegreeCapError, InternalCheckError
from psolve.exppoly import ExpPoly
from psolve.moments import MomentEngine, check_mbis, compute_mbis, degree_cap
from psolve.oracle import enumerate_discrete, gaussian_propagate
from psolve.parser import parse_program
from psolve.symbolic import Monomial, Polynomial, RationalFunction

DATA = Path(__file__).resolve().parent.parent / "data"


def rf(v):
    return RationalFunction(v)


UMBRELLA = """
support R 2; support U 2;
R := 1; U := 0;
while true {
    R := bern(7/10)*R + bern(3/10)*(1 - R);
    U := bern(9/10)*R + bern(1/5)*(1 - R);
}
"""


class TestExtractRecurrence:
    def test_umbrella_rain_marginal(self):
        # E[R](n+1) = 2/5 E[R](n) + 3/10
        prog = parse_program(UMBRELLA)
        rec = MomentEngine(prog).extract(Monomial.of("R"))
        assert rec.self_coeff == rf(F(2, 5))
        assert dict(rec.linear) == {}
        assert rec.constant == rf(F(3, 10))

    def test_sensor_depends_on_rain(self):
        # E[U](n+1) = 7/10 E[R](n+1) + 1/5 = 7/25 E[R](n) + 41/100
        prog = parse_program(UMBRELLA)
        rec = MomentEngine(prog).extract(Monomial.of("U"))
        assert rec.self_coeff == rf(0)
        assert dict(rec.linear) == {Monomial.of("R"): rf(F(7, 25))}
        assert rec.constant == rf(F(41, 100))

    def test_square_reduces_on_binary_support(self):
        # R^2 = R on a 0/1 variable, so the second moment recurrence is the
        # first moment recurrence
        prog = parse_program(UMBRELLA)
        first = MomentEngine(prog).extract(Monomial.of("R"))
        second = MomentEngine(prog).extract(Monomial.of("R", 2))
        # the square collapses to the first moment, which shows up as the
        # linear dependency rather than a self-term
        assert second.self_coeff == rf(0)
        assert dict(second.linear) == {Monomial.of("R"): first.self_coeff}
        assert second.constant == first.constant

    def test_random_walk_variance_terms(self):
        prog = parse_program(
            "x := 0; s := 0; while true { x := x + gauss(0, 1); s := s + x; }"
        )
        rec = MomentEngine(prog).extract(Monomial.of("x", 2))
        # E[x^2](n+1) = E[x^2](n) + 1
        assert rec.self_coeff == rf(1)
        assert rec.constant == rf(1)


class TestComputeMbis:
    def test_umbrella_closed_form(self):
        prog = parse_program(UMBRELLA)
        mbis = compute_mbis(prog, [Monomial.of("R")])
        closed = mbis[Monomial.of("R")].closed
        assert closed.total() == ExpPoly.const(F(1, 2)) + ExpPoly.term(F(1, 2), F(2, 5))
        assert closed.at(0) == rf(1)

    def test_downstream_node_value(self):
        prog = parse_program(UMBRELLA)
        target = Monomial.of("U")
        mbis = compute_mbis(prog, [target])
        assert target in mbis
        assert mbis[target].closed.at(1) == rf(F(69, 100))

    def test_string_goal_rejected(self):
        prog = parse_program(UMBRELLA)
        with pytest.raises(TypeError):
            compute_mbis(prog, ["U"])

    def test_dependency_closure_is_included(self):
        prog = parse_program(
            "x := 0; s := 0; while true { x := x + 1; s := s + x; }"
        )
        mbis = compute_mbis(prog, [Monomial.of("s")])
        assert Monomial.of("x") in mbis
        # s(n) = 0 + 1 + 2 + ... checked at a few points
        closed = mbis[Monomial.of("s")].closed
        assert closed.at(3) == rf(1 + 2 + 3)
        assert closed.at(10) == rf(55)

    def test_gaussian_fourth_moment(self):
        prog = parse_program("x := 0; while true { x := x + gauss(0, 1); }")
        mbis = compute_mbis(prog, [Monomial.of("x", 4)])
        closed = mbis[Monomial.of("x", 4)].closed
        # sum of N(0,1) draws: E[x^4] at n is 3n^2 - 2n... checked pointwise
        # against direct convolution values 0, 3, 3*4-2... instead: the
        # fourth moment of N(0, n) is 3 n^2
        for n in range(5):
            assert closed.at(n) == rf(3 * n * n)

    def test_check_mbis_passes(self):
        prog = parse_program(UMBRELLA)
        mbis = compute_mbis(
            prog, [Monomial.of("R"), Monomial.of("U")], check=False)
        check_mbis(prog, mbis)

    def test_symbolic_umbrella(self):
        prog = parse_program(
            """
            param r in (3/10, 1);
            support R 2;
            R := 1;
            while true { R := bern(r)*R + bern(3/10)*(1 - R); }
            """
        )
        mbis = compute_mbis(prog, [Monomial.of("R")])
        closed = mbis[Monomial.of("R")].closed
        r = Polynomial.var("r")
        den = 10 * r - 13
        assert closed.total() == ExpPoly.const(RationalFunction(-3, den)) + ExpPoly.term(
            RationalFunction(10 * r - 10, den), RationalFunction(r - F(3, 10))
        )
        assert closed.assumptions


class TestDegreeCap:
    def test_default_cap(self):
        assert degree_cap() >= 8

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("PSOLVE_DEGREE_CAP", "3")
        assert degree_cap() == 3

    def test_cap_enforced(self):
        prog = parse_program("x := 0; while true { x := x + gauss(0, 1); }")
        with pytest.raises(DegreeCapError):
            compute_mbis(prog, [Monomial.of("x", 4)], cap=3)

    def test_cap_from_env(self, monkeypatch):
        monkeypatch.setenv("PSOLVE_DEGREE_CAP", "2")
        prog = parse_program("x := 0; while true { x := x + gauss(0, 1); }")
        with pytest.raises(DegreeCapError):
            compute_mbis(prog, [Monomial.of("x", 3)])


class TestStochasticDependencyChain:
    def test_product_moment(self):
        # two coupled walks; the cross moment closes over x, y, xy
        prog = parse_program(
            "x := 0; y := 0; while true { x := x + 1 [1/2] x; y := y + x; }"
        )
        mbis = compute_mbis(prog, [Monomial.of("x") * Monomial.of("y")])
        closed = mbis[Monomial.of("x") * Monomial.of("y")].closed

        # brute-force expectation over branch outcomes
        def brute(n):
            dist = {(F(0), F(0)): F(1)}
            for _ in range(n):
                new = {}
                for (vx, vy), p in dist.items():
                    for px, nx in ((F(1, 2), vx + 1), (F(1, 2), vx)):
                        key = (nx, vy + nx)
                        new[key] = new.get(key, F(0)) + p * px
                dist = new
            return sum(p * vx * vy for (vx, vy), p in dist.items())

        for n in range(6):
            assert closed.at(n) == rf(brute(n))


class TestOnePass:
    """A static network's moments at n = 1 from one body substitution must
    equal the back-substituted recurrence solution and the oracle."""

    def test_matches_recurrences_and_oracles(self):
        t0 = time.monotonic()
        rng = random.Random(20261017)
        nets = [random_discrete_bn(rng, rng.randint(2, 7)) for _ in range(30)]
        nets += [random_gbn(rng, rng.choice((2, 3, 4))) for _ in range(10)]
        nets += [random_clgbn(rng, rng.choice((1, 2)), rng.choice((2, 3)))
                 for _ in range(10)]
        for i, bn in enumerate(nets):
            prog = compile_bn(bn)
            if all(nd.is_discrete for nd in bn.nodes):
                names = bn.node_names
                goals = [Monomial.of(v) for v in names]
                goals += [Monomial.of(a) * Monomial.of(b)
                          for a, b in itertools.combinations(names, 2)]
                table = enumerate_discrete(bn)
                wants = [table.expectation(Polynomial({g: 1})) for g in goals]
            else:
                names = [nd.name for nd in bn.nodes if not nd.is_discrete]
                mix = gaussian_propagate(bn)
                goals = [Monomial.of(v) for v in names]
                wants = [mix.moment1(v) for v in names]
                goals += [Monomial.of(v) ** 2 for v in names]
                wants += [mix.moment2(v) for v in names]
                for a, b in itertools.combinations(names, 2):
                    goals.append(Monomial.of(a) * Monomial.of(b))
                    wants.append(mix.moment2(a, b))
            mbis = compute_mbis(prog, goals, check=True)
            engine = MomentEngine(prog)
            for g, want in zip(goals, wants):
                got = engine.one_pass(Polynomial({g: 1}))
                assert got == mbis[g].closed.at(1) == want, (i, g)
            # the whole polynomial in one pass is the same linear combination
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in goals]
            poly = Polynomial({g: c for g, c in zip(goals, coeffs)})
            want = sum((c * w for c, w in zip(coeffs, wants)), RationalFunction(7))
            assert engine.one_pass(poly + Polynomial.const(7)) == want, i
        assert time.monotonic() - t0 < 30.0

    def test_dynamic_network_is_rejected(self):
        prog = compile_dynbn(load_bn_path(DATA / "umbrella.json"))
        with pytest.raises(InternalCheckError, match=r"E\[R\]"):
            MomentEngine(prog).one_pass(Polynomial.var("R"))
