"""Loading and compiling grow linearly in the network size, and so does
the sample count with negative evidence.

Wall-clock time on a shared host swings too much to assert growth rates,
so these tests count the Python lines executed instead: the count is
deterministic, and doubling the network should at most double it, with a
little slack for fixed costs.
"""

import sys
from fractions import Fraction as F

import pytest

from psolve.bayesnet import load_bn
from psolve.encode import compile_bn
from psolve.queries import expected_samples

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


def lines_executed(fn) -> int:
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "line":
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


def test_compile_is_linear(chains):
    nets = {n: load_bn(doc) for n, doc in chains.items()}
    small, large = (lines_executed(lambda: compile_bn(nets[n])) for n in (200, 400))
    assert large <= GROWTH * small, (small, large)


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
    bn, evidence = naive_bayes(k)
    run = lambda: expected_samples(bn, evidence, cross_check)  # noqa: E731
    run()  # warm the indicator cache
    return lines_executed(run)


def test_samples_cross_check_grows_like_the_network():
    """Half the features negative: the monitor's count is solved from one
    flag per evidence node and reuses the P(evidence) pass, so each
    negative value adds work instead of doubling it."""
    small, large = samples_lines(12), samples_lines(16)
    assert large <= 1.5 * small, (small, large)
    alone = samples_lines(16, cross_check=False)
    assert large <= 1.6 * alone, (large, alone)
