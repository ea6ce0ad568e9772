"""Moment recurrence extraction, closed-form invariants and the one-pass
expectation of static bodies."""

import itertools
import math
import random
import time
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from conftest import random_clgbn, random_discrete_bn, random_gbn

from psolve.bayesnet import load_bn, load_bn_path
from psolve.encode import compile_bn, compile_dynbn, indicator_poly
from psolve.errors import DegreeCapError, InternalCheckError, UnsupportedError
from psolve.exppoly import ExpPoly
from psolve.moments import MomentEngine, check_mbis, compute_mbis, degree_cap
from psolve.oracle import differential_check, enumerate_discrete, gaussian_propagate
from psolve.parser import parse_program
from psolve.program import Assignment, Branch, DrawSpec, Initializer, LoopProgram
from psolve.queries import conditional_moment
from psolve.symbolic import RF_ONE, RF_ZERO, Monomial, Polynomial, RationalFunction

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

    def test_engine_is_accepted_and_reused(self, monkeypatch):
        prog = parse_program(UMBRELLA)
        goals = [Monomial.of("R"), Monomial.of("U")]
        engine = MomentEngine(prog)
        built = []
        original = MomentEngine.__init__

        def counted(self, *args):
            built.append(self)
            original(self, *args)

        monkeypatch.setattr(MomentEngine, "__init__", counted)
        mbis = compute_mbis(engine, goals)
        check_mbis(engine, mbis)
        assert built == []
        assert mbis == compute_mbis(prog, goals)
        assert len(built) == 1


class TestCheckMbisRejects:
    """Back-substitution refuses a tampered solution, each comparison with
    its own message."""

    @staticmethod
    def tamper(mbis, target, **changes):
        mbi = mbis[target]
        return {**mbis, target: replace(mbi, closed=replace(mbi.closed, **changes))}

    def umbrella(self, goal):
        prog = parse_program(UMBRELLA)
        return prog, compute_mbis(prog, [Monomial.of(goal)])

    def test_wrong_initial_value(self):
        prog, mbis = self.umbrella("R")
        r = Monomial.of("R")
        bad = self.tamper(mbis, r, tail=mbis[r].closed.tail + ExpPoly.const(F(1)))
        with pytest.raises(InternalCheckError, match=r"E\[R\] wrong at n = 0"):
            check_mbis(prog, bad)

    def test_wrong_tail(self):
        # 1/2 + 1/2*(3/5)^n is right at n = 0 but not a solution
        prog, mbis = self.umbrella("R")
        r = Monomial.of("R")
        tail = ExpPoly.const(F(1, 2)) + ExpPoly.term(F(1, 2), F(3, 5))
        bad = self.tamper(mbis, r, tail=tail)
        assert bad[r].closed.at(0) == mbis[r].closed.at(0)
        with pytest.raises(InternalCheckError, match=r"E\[R\] fails back-substitution"):
            check_mbis(prog, bad)

    def test_wrong_prefix_value(self):
        # E[x] is 0 at n = 0 and 1 after, so E[y] starts at n = 1; y's own
        # coefficient is 0, so a wrong value at n = 1 is seen only by the
        # prefix step from n = 0
        prog = parse_program(
            "x := 0; y := 0; while true { x := (x + 1)*gauss(0, 1) + 1; "
            "y := (y + 1)*gauss(0, 1) + x^2; }"
        )
        y = Monomial.of("y")
        mbis = compute_mbis(prog, [y])
        assert mbis[Monomial.of("x")].closed.start == 1
        closed = mbis[y].closed
        bad = self.tamper(mbis, y, prefix=closed.prefix + (closed.at(1) + 1,))
        with pytest.raises(InternalCheckError,
                           match=r"E\[y\] fails the recurrence at n = 0"):
            check_mbis(prog, bad)

    def test_missing_dependency(self):
        prog, mbis = self.umbrella("U")
        bad = {m: mbi for m, mbi in mbis.items() if m != Monomial.of("R")}
        with pytest.raises(InternalCheckError, match="moment U depends on unsolved R"):
            check_mbis(prog, bad)


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


def coupled_doc(n: int) -> dict:
    """Binary S0..S{n-1}; S_i reads its own previous slice and the current
    S_{i-1} through an additive CPT, P(S_i=1) = 1/10 + 2/5*a + 1/5*b."""
    def row(given, p1):
        return {"given": given, "p": [str(1 - p1), str(p1)]}

    nodes = []
    for i in range(n):
        name = f"S{i}"
        if i == 0:
            parents = [name]
            rows = [row([a], F(1, 10) + F(2, 5) * a) for a in (1, 0)]
        else:
            parents = [name, f"S{i - 1}"]
            rows = [row([a, b], F(1, 10) + F(2, 5) * a + F(1, 5) * b)
                    for a in (1, 0) for b in (1, 0)]
        nodes.append({"name": name, "model": {
            "kind": "cpt", "parents": parents, "rows": rows}})
    return {
        "type": "dynbn",
        "nodes": nodes,
        "inter_edges": {f"S{i}": [f"S{i}"] for i in range(n)},
        "initial": {f"S{i}": i % 2 for i in range(n)},
    }


def chain_doc(n: int) -> dict:
    """Binary chain X0 -> X1 -> ... -> X{n-1}."""
    nodes = [{"name": "X0", "model": {"kind": "cpt", "p": ["1/2", "1/2"]}}]
    for i in range(1, n):
        nodes.append({"name": f"X{i}", "model": {
            "kind": "cpt", "parents": [f"X{i - 1}"], "rows": [
                {"given": [1], "p": ["1/5", "4/5"]},
                {"given": [0], "p": ["7/10", "3/10"]},
            ]}})
    return {"type": "bn", "nodes": nodes}


class TestDrawIntegration:
    """A draw used by one update becomes its moments inside that update's
    powers; every other draw stays symbolic until `expectation`."""

    def test_shared_draw_is_not_integrated_early(self):
        # x := d; y := x + d with one draw d in both updates: x*y = 2*d^2,
        # so E[x*y] = 2*E[d^2] = 6, not E[d^2] + E[d]^2 = 3.
        d = Polynomial.var("$0")
        x = Polynomial.var("x")
        zero = Polynomial.zero()
        prog = LoopProgram(
            params=(),
            supports={},
            inits=(Initializer("x", zero), Initializer("y", zero)),
            updates=(Assignment("x", (Branch(RF_ONE, d),)),
                     Assignment("y", (Branch(RF_ONE, x + d),))),
            draws={"$0": DrawSpec("gauss0", RationalFunction(3))},
        )
        engine = MomentEngine(prog)
        assert engine.one_pass(x * Polynomial.var("y")) == rf(6)
        assert engine.substitute_body(x * Polynomial.var("y")) == 2 * d * d

    def test_unknown_moment_stays_symbolic_and_raises_at_expectation(self):
        # only E[d] = 2 is known: x gets it early, x^2 keeps d^2 and the
        # expectation reports the missing moment
        x = Polynomial.var("x")
        prog = LoopProgram(
            params=(),
            supports={},
            inits=(Initializer("x", Polynomial.zero()),),
            updates=(Assignment("x", (Branch(RF_ONE, Polynomial.var("$0")),)),),
            draws={"$0": DrawSpec("moments", raw_moments=(RationalFunction(2),))},
        )
        engine = MomentEngine(prog)
        assert engine.one_pass(x) == rf(2)
        assert str(engine.substitute_body(x * x)) == "$0^2"
        with pytest.raises(UnsupportedError, match="moment 2 not known"):
            engine.one_pass(x * x)

    def test_parametric_denominator_draw_stays_symbolic(self):
        prog = parse_program(
            """
            param b in (0, 1);
            support y 2; support x 2;
            y := 0; x := 0;
            while true { y := bern(1/2); x := bern(1/(1 + b))*y + bern(b/3)*(1 - y); }
            """
        )
        engine = MomentEngine(prog)
        body = engine.substitute_body(Polynomial.var("x"))
        # bern(1/2) and bern(b/3) are integrated, bern(1/(1 + b)) is not
        assert str(body) == "1/2*$1 + 1/6*b"
        got = engine.one_pass(Polynomial.var("x"))
        assert (str(got.num), str(got.den)) == ("1/6*b^2 + 1/6*b + 1/2", "b + 1")

        dyn = parse_program(
            """
            param b in (0, 1);
            support x 2;
            x := 1;
            while true { x := bern(1/(1 + b))*x + bern(b/3)*(1 - x); }
            """
        )
        rec = MomentEngine(dyn).extract(Monomial.of("x"))
        assert str(rec.self_coeff) == "(-1/3*b^2 - 1/3*b + 1)/(b + 1)"
        assert str(rec.constant) == "1/3*b"

    def test_coupled_network_body_stays_small(self, monkeypatch):
        t0 = time.monotonic()
        sizes = []
        original = MomentEngine.substitute_body

        def counted(self, poly):
            out = original(self, poly)
            sizes.append(len(out.terms))
            return out

        monkeypatch.setattr(MomentEngine, "substitute_body", counted)
        lines = differential_check(load_bn(coupled_doc(7)))
        assert len(lines) == 21 and all(line.ok for line in lines), [
            line.label for line in lines if not line.ok
        ]
        assert sizes and max(sizes) <= 16
        assert time.monotonic() - t0 < 10.0


class TestOneSubstitutionPath:
    """Every body substitution is bucket elimination: how a query is split
    into factors changes how the work is done, not the result."""

    @staticmethod
    def _split(rng, pieces):
        """The pieces shuffled and grouped at random into factors."""
        pieces = list(pieces)
        rng.shuffle(pieces)
        factors: list[Polynomial] = []
        for piece in pieces:
            if factors and rng.random() < 0.4:
                j = rng.randrange(len(factors))
                factors[j] = factors[j] * piece
            else:
                factors.append(piece)
        return factors

    def test_static_factor_splits(self):
        rng = random.Random(20261018)
        split = 0
        for i in range(40):
            bn = random_discrete_bn(rng, rng.randint(2, 7))
            engine = MomentEngine(compile_bn(bn))
            names = [nd.name for nd in bn.nodes]
            target = Polynomial.var(rng.choice(names)) ** rng.randint(1, 2)
            chosen = rng.sample(names, rng.randint(1, len(names)))
            inds = [indicator_poly(name, rng.randrange(2), 2) for name in chosen]
            factors = self._split(rng, [target, *inds])
            split += len(factors) > 1
            product = math.prod(factors, start=Polynomial.const(1))
            assert engine.substitute_body(*factors) == engine.substitute_body(product), i
            got, want = engine.one_pass(*factors), engine.one_pass(product)
            assert str(got) == str(want), i
            assert got == enumerate_discrete(bn).expectation(product), i
        assert split >= 20

    @pytest.mark.parametrize("prog", [
        parse_program(UMBRELLA),
        compile_dynbn(load_bn(coupled_doc(7))),
    ], ids=["umbrella", "coupled-7"])
    def test_dynamic_extraction_per_variable_factors(self, prog):
        rng = random.Random(7)
        engine = MomentEngine(prog)
        for i in range(25):
            chosen = rng.sample(prog.variables, rng.randint(1, min(3, len(prog.variables))))
            target = Monomial([(v, rng.randint(1, 2)) for v in chosen])
            factors = [Polynomial.var(v) ** e for v, e in target.powers]
            rng.shuffle(factors)
            body = engine.substitute_body(*factors)
            assert body == engine.substitute_body(Polynomial({target: F(1)})), i
            linear, constant = engine.expectation(body)
            rec = engine.extract(target)
            assert str(linear.pop(target, RF_ZERO)) == str(rec.self_coeff), i
            assert {m: str(c) for m, c in linear.items()} == {
                m: str(c) for m, c in rec.linear}, i
            assert str(constant) == str(rec.constant), i


class TestSupportReduction:
    def test_work_grows_linearly_with_chain_length(self, monkeypatch):
        calls = [0]
        original = Polynomial.degree_in

        def counted(self, sym):
            calls[0] += 1
            return original(self, sym)

        monkeypatch.setattr(Polynomial, "degree_in", counted)
        counts = {}
        for n in (40, 80):
            bn = load_bn(chain_doc(n))
            calls[0] = 0
            got = conditional_moment(bn, "X0", 1, {f"X{n - 1}": 1}).value
            counts[n] = calls[0]
            # P(X0=1 | X{n-1}=1) by Bayes' rule over the chain's transitions
            ends = []
            for p in (F(1), F(1, 2)):
                for _ in range(n - 1):
                    p = p * F(4, 5) + (1 - p) * F(3, 10)
                ends.append(p)
            assert got == F(1, 2) * ends[0] / ends[1]
        assert counts[80] < 2.5 * max(counts[40], 1), counts
