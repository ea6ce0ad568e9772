"""Loading and compiling grow linearly in the network size, and so do
the sample count with negative evidence, the numeric filter and
polynomial substitution; the loader, the numeric and symbolic filters,
the enumeration oracle, the probability sums of `validate` and the
moment engine's walks do integer arithmetic, not Fraction arithmetic, and
a warm engine holds few objects that the cyclic collector tracks.

Wall-clock time on a shared host swings too much to assert growth rates,
so these tests count the Python lines executed instead: the count is
deterministic, and doubling the network should at most double it, with a
little slack for fixed costs.
"""

import fractions
import gc
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from psolve import encode
from psolve.bayesnet import load_bn, load_bn_path
from psolve.encode import compile_bn
from psolve.oracle import enumerate_discrete
from psolve.program import validate
from psolve.queries import conditional_moment, expected_samples, forward_filter
from psolve.symbolic import Monomial, Polynomial

GROWTH = 2.1


def chain_doc(n: int) -> dict:
    nodes = [{"name": "X0", "model": {"kind": "cpt", "p": ["3/4", "1/4"]}}]
    for i in range(1, n):
        nodes.append({"name": f"X{i}", "model": {
            "kind": "cpt", "parents": [f"X{i - 1}"], "rows": [
                {"given": [1], "p": ["1/10", "9/10"]},
                {"given": [0], "p": ["7/10", "3/10"]},
            ]}})
    return {"type": "bn", "nodes": nodes}


DATA = Path(__file__).resolve().parent.parent / "data"


def lines_executed(fn, filename=None) -> int:
    """The Python lines `fn` executes, or only those in one source file."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "line" and (filename is None or frame.f_code.co_filename == filename):
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


@pytest.fixture(scope="module")
def chains():
    compile_bn(load_bn(chain_doc(3)))  # warm indicator_poly's cache
    return {n: chain_doc(n) for n in (200, 400)}


def test_load_is_linear(chains):
    small, large = (lines_executed(lambda: load_bn(chains[n])) for n in (200, 400))
    assert large <= GROWTH * small, (small, large)


def test_load_reads_literals_and_checks_rows_on_integers(chains):
    """`load_bn` builds each node once and does no Fraction arithmetic on a
    numeric network.  Each of this chain's 798 entries runs 39 or 40
    lines: 15 in fractions.py (the one `Fraction(int, int)` of its
    literal, 13, the truth test that builds its polynomial, and reading
    its ratio for the row check), 7 reading the literal, 8 building the
    constant `RationalFunction`, 3 dispatching on the entry's type and 6
    or 7 adding it to its row's integer sum.  The whole load runs 53,748
    lines, 11,970 of them in fractions.py (the same under Python 3.10 and
    3.11); building every node twice and adding each row as Fractions ran
    112,434 and 39,900."""
    doc = chains[200]
    load_bn(doc)
    source = fractions.Fraction.__new__.__code__.co_filename
    assert lines_executed(lambda: load_bn(doc)) <= 56_000
    assert lines_executed(lambda: load_bn(doc), source) <= 13_300


def test_compile_is_linear(chains):
    nets = {n: load_bn(doc) for n, doc in chains.items()}
    small, large = (lines_executed(lambda: compile_bn(nets[n])) for n in (200, 400))
    assert large <= GROWTH * small, (small, large)


def test_validate_sums_probabilities_on_integers(chains):
    """`validate` adds each update's constant branch probabilities as
    integers over the lcm of their denominators: fractions.py runs one
    line per branch, reading its ratio, where adding them as Fractions ran
    30,507 lines for the 997 branches of this chain."""
    prog = compile_bn(load_bn(chains[200]))
    branches = sum(len(u.branches) for u in prog.updates)
    source = fractions.Fraction.__new__.__code__.co_filename
    assert lines_executed(lambda: validate(prog), source) <= branches


def test_walks_run_on_integers(chains):
    """A conditional on a network whose engine is built walks on packed
    polynomials with integer numerators: on this chain fractions.py runs
    4,184 lines, where the walks on Fraction-valued polynomials ran
    56,874."""
    bn = load_bn(chains[200])
    bn.engine
    source = fractions.Fraction.__new__.__code__.co_filename
    run = lambda: conditional_moment(bn, "X0", 1, {"X199": 1})  # noqa: E731
    assert lines_executed(run, source) <= 56_874 // 4


def test_warm_engine_holds_few_tracked_objects(monkeypatch):
    """After one conditional, everything the network holds beside its
    compiled program (the engine, its update powers, messages and intern
    table) is 225 objects that the cyclic collector tracks, where engines
    of `Polynomial`s, `Monomial`s and `Fraction`s held 2,300."""
    conditional_moment(load_bn(chain_doc(5)), "X0", 1, {"X4": 1})  # warm module caches
    bn = load_bn(chain_doc(80))
    after_compile = []
    compile_program = encode.compile_bn

    def counted(net):
        prog = compile_program(net)
        gc.collect()
        after_compile.append(len(gc.get_objects()))
        return prog

    monkeypatch.setattr(encode, "compile_bn", counted)
    conditional_moment(bn, "X0", 1, {"X79": 1})
    gc.collect()
    held = len(gc.get_objects()) - after_compile[0]
    assert held <= 2_300 // 4, held


def naive_bayes(k: int):
    """Class C with k binary features F1..Fk whose two rows differ, and
    evidence on every feature, every other one at 0."""
    nodes = [{"name": "C", "model": {"kind": "cpt", "p": ["2/5", "3/5"]}}]
    for j in range(1, k + 1):
        p1, p0 = F(j % 7 + 2, 11), F(j % 5 + 1, 13)
        nodes.append({"name": f"F{j}", "model": {
            "kind": "cpt", "parents": ["C"], "rows": [
                {"given": [1], "p": [str(1 - p1), str(p1)]},
                {"given": [0], "p": [str(1 - p0), str(p0)]},
            ]}})
    evidence = {f"F{j}": j % 2 for j in range(1, k + 1)}
    return load_bn({"type": "bn", "nodes": nodes}), evidence


def samples_lines(k: int, cross_check: bool = True) -> int:
    """The lines of one query on a freshly loaded network: a loaded network
    keeps its compile and engine, so the warm-up, which fills only
    `indicator_poly`'s cache, runs on another copy."""
    bn, evidence = naive_bayes(k)
    expected_samples(naive_bayes(k)[0], evidence, cross_check)
    return lines_executed(lambda: expected_samples(bn, evidence, cross_check))


def test_samples_cross_check_grows_like_the_network():
    """Half the features negative: the monitor's count is solved from one
    flag per evidence node and reuses the P(evidence) pass, so each
    negative value adds work instead of doubling it."""
    small, large = samples_lines(12), samples_lines(16)
    assert large <= 1.5 * small, (small, large)
    # the count's own lines, past the P(evidence) pass alone
    count_small = small - samples_lines(12, cross_check=False)
    count_large = large - samples_lines(16, cross_check=False)
    assert count_large <= 1.5 * count_small, (count_small, count_large)


def filter_lines(steps: int, filename=None, network="umbrella_filter") -> int:
    dyn = load_bn_path(DATA / f"{network}.json")
    rng = random.Random(steps)
    obs = [rng.choice(({"U": 1}, {"U": 0}, {})) for _ in range(steps)]
    run = lambda: forward_filter(dyn, obs)  # noqa: E731
    run()  # warm the CPT lookups
    return lines_executed(run, filename)


def test_numeric_filter_steps_do_no_fraction_arithmetic():
    """The numeric filter carries integer weights: per step, fractions.py
    only builds the two emitted beliefs, about 33 lines, where arithmetic
    on Fraction-valued messages runs about 400."""
    source = fractions.Fraction.__new__.__code__.co_filename
    assert filter_lines(240, source) <= 40 * 240
    small, large = filter_lines(120), filter_lines(240)
    assert large <= GROWTH * small, (small, large)


def test_symbolic_filter_steps_run_on_integers():
    """The symbolic filter carries packed integer polynomials: an 8-step
    `umbrella_sens` filter runs fractions.py only to build the beliefs it
    emits and its step distributions, 4,478 lines under Python 3.10 and
    3.11 (3,376 under 3.12 and 3.13), where `Fraction`-coefficient
    weights and beliefs canonicalised by `exact_div` ran 21,814
    (13,991)."""
    source = fractions.Fraction.__new__.__code__.co_filename
    assert filter_lines(8, source, "umbrella_sens") <= 21_814 // 4


def test_enumeration_runs_on_integer_weights():
    """The enumeration oracle clears each CPT's denominators once and sums
    integer weights, dividing once per target: the 36 targets of `check
    asia` execute at most a quarter of the 21,890 fractions.py lines that
    Fraction-valued row weights cost."""
    bn = load_bn_path(DATA / "asia.json")
    xs = [Polynomial.var(name) for name in bn.node_names]
    targets = xs + [a * b for i, a in enumerate(xs) for b in xs[i + 1:]]
    assert len(targets) == 36
    run = lambda: enumerate_discrete(bn).expectations(targets)  # noqa: E731
    run()
    source = fractions.Fraction.__new__.__code__.co_filename
    assert lines_executed(run, source) <= 21_890 // 4


def substitute_lines(n: int) -> int:
    """x -> y + 1 in the n terms (i + 1) * v_i * x^(1 + i % 3)."""
    poly = Polynomial({Monomial([(f"v{i}", 1), ("x", 1 + i % 3)]): i + 1 for i in range(n)})
    image = Polynomial.var("y") + 1
    return lines_executed(lambda: poly.substitute({"x": image}))


def test_substitute_is_linear():
    """Every term is expanded into one accumulation; adding the terms up
    polynomial by polynomial rebuilds the running sum once per term."""
    small, large = substitute_lines(500), substitute_lines(1000)
    assert large <= GROWTH * small, (small, large)


def or_gate_doc(k: int) -> dict:
    """D = 1 - (1 - P0)*...*(1 - P{k-1}) over k fair binary roots."""
    nodes = [{"name": f"P{i}", "model": {"kind": "cpt", "p": ["1/2", "1/2"]}} for i in range(k)]
    expr = "1 - " + "*".join(f"(1 - P{i})" for i in range(k))
    return {"type": "bn", "nodes": nodes + [{"name": "D", "model": {"kind": "det", "expr": expr}}]}


def test_or_gate_load_grows_like_its_expression():
    """The expanded gate has 2^k terms, and the range check walks the
    parents one at a time, deciding the subtree below each parent set to 1
    at once: one more input about doubles the load.  Evaluating the
    expression at each of the 2^k assignments grew it about 4.5x."""
    load_bn(or_gate_doc(3))
    small, large = (lines_executed(lambda: load_bn(or_gate_doc(k))) for k in (7, 8))
    assert large <= 2.5 * small, (small, large)
