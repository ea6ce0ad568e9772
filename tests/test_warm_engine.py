"""One engine per loaded network: every query on a network reads the
program, bucket messages and verified closed forms its earlier queries
left on `network.engine`, and answers exactly as on a freshly loaded
network."""

import importlib.util
import random
import zlib
from pathlib import Path

import pytest

import psolve.moments
from psolve.bayesnet import DynBayesNet, load_bn, load_bn_path
from psolve.errors import DegreeCapError, InputError, QueryError, UnsupportedError
from psolve.moments import compute_mbis
from psolve.oracle import differential_check
from psolve.queries import (
    conditional_moment,
    expected_positive,
    expected_samples,
    joint_moment,
    node_distribution,
    predict,
)
from psolve.symbolic import Monomial, Polynomial

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_GEN = _load_gen()
# the benchmark's additive coupled dynamic networks, N = 2-4, seed 1
COUPLED = {n: _GEN.coupled(_GEN.stream(1, "coupled", n), n) for n in (2, 3, 4)}

# name -> a loader that returns a fresh network object on every call
NETWORKS = {
    name: (lambda name=name: load_bn_path(DATA / f"{name}.json"))
    for name in ("asia", "alarm", "alarm_sens", "rats", "umbrella", "umbrella_sens")
}
for _n in COUPLED:
    NETWORKS[f"coupled{_n}"] = lambda n=_n: load_bn(COUPLED[n])


def _answer(query, net):
    """Everything a query's caller sees: the result's value, printed
    forms, assumptions, diagnostics and extras, the lines of a check, or
    the error's type and text."""
    try:
        res = query(net)
    except InputError as exc:
        return ("error", type(exc).__name__, str(exc))
    if isinstance(res, list):
        return ("check", tuple(res))
    return ("result", res.kind, res.value, res.exact(), res.decimal(),
            res.assumptions, res.diagnostics, res.extras)


def _static_queries(bn, rng):
    discrete = [nd for nd in bn.nodes if nd.is_discrete]
    names = list(bn.order)
    queries = []
    for _ in range(2):
        target = rng.choice(names)
        ev = rng.choice(discrete)
        evidence = {ev.name: rng.randrange(ev.support)}
        node = rng.choice(discrete)
        event = {nd.name: rng.randrange(nd.support) for nd in rng.sample(discrete, 2)}
        queries += [
            (f"E[{target}|{evidence}]", lambda bn, t=target, e=evidence: conditional_moment(bn, t, 1, e)),
            (f"E[{target}^2|{evidence}]", lambda bn, t=target, e=evidence: conditional_moment(bn, t, 2, e)),
            (f"P({event}|{evidence})", lambda bn, t=event, e=evidence: conditional_moment(bn, t, 1, e)),
            (f"dist {node.name}", lambda bn, n=node.name: node_distribution(bn, n)),
            (f"dist {node.name}|{evidence}", lambda bn, n=node.name, e=evidence: node_distribution(bn, n, e)),
            (f"E[{target}]", lambda bn, t=target: joint_moment(bn, t)),
            (f"E[{target}^2]", lambda bn, t=target: joint_moment(bn, t, 2)),
            (f"P({event})", lambda bn, t=event: joint_moment(bn, t)),
            (f"positive {evidence}", lambda bn, e=evidence: expected_positive(bn, e, 1000)),
            (f"samples {evidence}", lambda bn, e=evidence: expected_samples(bn, e)),
            (f"samples {event}", lambda bn, e=event: expected_samples(bn, e)),
        ]
    queries.append(("check", differential_check))
    return queries


def _dynamic_queries(dyn, rng):
    names = list(dyn.net.order)
    queries = []
    for _ in range(2):
        target, at = rng.choice(names), rng.randint(0, 12)
        queries += [
            (f"predict {target}", lambda d, t=target: predict(d, t)),
            (f"predict {target} at {at}", lambda d, t=target, at=at: predict(d, t, at=at)),
            (f"lim {target}", lambda d, t=target: predict(d, t, limit=True)),
            (f"E[{target}]", lambda d, t=target: joint_moment(d, t)),
            (f"E[{target}^2]", lambda d, t=target: joint_moment(d, t, 2)),
        ]
    queries.append(("check", differential_check))
    return queries


@pytest.mark.parametrize("name", list(NETWORKS))
def test_warm_network_answers_as_a_fresh_one(name):
    rng = random.Random(zlib.crc32(name.encode()))
    warm = NETWORKS[name]()
    make = _dynamic_queries if isinstance(warm, DynBayesNet) else _static_queries
    queries = make(warm, rng)
    # every query once, about half of them again, in a seeded order
    sequence = queries + rng.sample(queries, len(queries) // 2)
    rng.shuffle(sequence)
    for label, query in sequence:
        assert _answer(query, warm) == _answer(query, NETWORKS[name]()), label


# -- errors on a warm engine ------------------------------------------------


def test_lowered_degree_cap_raises_the_fresh_text(monkeypatch):
    # the cap is read on every query, and a solved moment is walked again
    monkeypatch.delenv("PSOLVE_DEGREE_CAP", raising=False)
    query = lambda d: joint_moment(d, "R*U")  # noqa: E731
    warm = load_bn_path(DATA / "umbrella.json")
    query(warm)
    monkeypatch.setenv("PSOLVE_DEGREE_CAP", "1")
    with pytest.raises(DegreeCapError) as fresh:
        query(load_bn_path(DATA / "umbrella.json"))
    with pytest.raises(DegreeCapError) as again:
        query(warm)
    assert str(again.value) == str(fresh.value)
    assert "exceeds cap 1" in str(fresh.value)
    monkeypatch.delenv("PSOLVE_DEGREE_CAP")
    assert _answer(query, warm) == _answer(query, load_bn_path(DATA / "umbrella.json"))


def _general_coupled(n: int) -> dict:
    """A coupled dynamic network with general CPTs: S_i reads itself and
    S_(i-1), so its moments depend on products that close in a cycle."""
    nodes = [{"name": "S0", "model": {"kind": "cpt", "parents": ["S0"], "rows": [
        {"given": [0], "p": ["2/3", "1/3"]}, {"given": [1], "p": ["1/4", "3/4"]}]}}]
    for i in range(1, n):
        rows = [{"given": [a, b], "p": p} for (a, b), p in zip(
            [(0, 0), (0, 1), (1, 0), (1, 1)],
            [["9/10", "1/10"], ["1/2", "1/2"], ["3/10", "7/10"], ["1/5", "4/5"]])]
        nodes.append({"name": f"S{i}", "model": {
            "kind": "cpt", "parents": [f"S{i}", f"S{i - 1}"], "rows": rows}})
    return {"type": "dynbn", "nodes": nodes,
            "inter_edges": {f"S{i}": [f"S{i}"] for i in range(n)},
            "initial": {f"S{i}": 0 for i in range(n)}}


def test_cycle_error_repeats():
    dyn = load_bn(_general_coupled(3))
    texts = []
    for _ in range(2):
        with pytest.raises(UnsupportedError, match="cyclic moment dependence") as err:
            predict(dyn, "S2")
        texts.append(str(err.value))
    with pytest.raises(UnsupportedError) as fresh:
        predict(load_bn(_general_coupled(3)), "S2")
    assert texts == [str(fresh.value)] * 2


def test_failed_queries_leave_later_answers_unchanged():
    doc = {"type": "bn", "nodes": [
        {"name": "X", "model": {"kind": "cpt", "p": ["1", "0"]}},
        {"name": "Y", "model": {"kind": "cpt", "parents": ["X"], "rows": [
            {"given": [0], "p": ["1/3", "2/3"]}, {"given": [1], "p": ["1/2", "1/2"]}]}}]}
    later = [
        lambda bn: conditional_moment(bn, "Y", 1, {"X": 0}),
        lambda bn: node_distribution(bn, "Y", {"X": 0}),
        lambda bn: joint_moment(bn, "X*Y"),
    ]
    warm = load_bn(doc)
    with pytest.raises(QueryError, match="probability zero"):
        conditional_moment(warm, "Y", 1, {"X": 1})
    with pytest.raises(QueryError, match="probability zero"):
        node_distribution(warm, "Y", {"X": 1, "Y": 0})
    for query in later:
        assert _answer(query, warm) == _answer(query, load_bn(doc))

    dyn = load_bn_path(DATA / "umbrella_sens.json")
    with pytest.raises(QueryError, match="horizon"):
        predict(dyn, "U", at=-1)
    for query in (lambda d: predict(d, "U"), lambda d: predict(d, "U", at=3),
                  lambda d: predict(d, "U", limit=True)):
        assert _answer(query, dyn) == _answer(query, load_bn_path(DATA / "umbrella_sens.json"))


# -- back-substitution counts -----------------------------------------------


@pytest.fixture
def verified(monkeypatch):
    """The moments whose closed forms `verify_solution` back-substitutes."""
    calls = []
    original = psolve.moments.verify_solution

    def counted(first_order, closed):
        calls.append(closed)
        return original(first_order, closed)

    monkeypatch.setattr(psolve.moments, "verify_solution", counted)
    return calls


def test_unchecked_closed_forms_are_not_kept(verified):
    engine = load_bn(COUPLED[3]).engine
    unchecked = compute_mbis(engine, [Monomial.of("S2")], check=False)
    assert verified == []
    closed = engine.closed(Polynomial.var("S2"))
    assert len(verified) == len(unchecked) > 1
    assert closed == predict(load_bn(COUPLED[3]), "S2").value


def test_each_closed_form_is_back_substituted_once(verified):
    closure = compute_mbis(load_bn(COUPLED[3]).engine, [Monomial.of("S2")])
    verified.clear()
    dyn = load_bn(COUPLED[3])
    predict(dyn, "S2")
    predict(dyn, "S2", at=7)
    predict(dyn, "S2", limit=True)
    assert len(verified) == len(closure) > 1
