"""Loading and compiling grow linearly in the network size.

Wall-clock time on a shared host swings too much to assert growth rates,
so these tests count the Python lines executed instead: the count is
deterministic, and doubling the network should at most double it, with a
little slack for fixed costs.
"""

import sys

import pytest

from psolve.bayesnet import load_bn
from psolve.encode import compile_bn

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
