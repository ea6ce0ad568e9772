#!/usr/bin/env python3
"""Self-test of the benchmark's generators and references.

    python3 perfbench/selftest.py

Checks that the same seed gives identical networks and queries, that
every generated network loads through `psolve.load_bn`, and that each
independent reference agrees exactly with psolve's enumeration oracle
(`oracle.enumerate_discrete`) on instances whose joint fits its state cap.
Exits nonzero on the first disagreement.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import reference as ref  # noqa: E402
from run import import_psolve  # noqa: E402
from workloads import DATA, WORKLOADS  # noqa: E402

SEEDS = (1, 2)


def expect(ok: bool, what) -> None:
    if not ok:
        raise AssertionError(f"self-test failed: {what}")


def fingerprint(wl) -> str:
    docs = {k: v if isinstance(v, dict) else str(v) for k, v in wl.docs.items()}
    return json.dumps([docs, [q.label for q in wl.queries], wl.properties], sort_keys=True)


def check_determinism(workloads) -> None:
    for name, make in workloads.items():
        for seed in SEEDS:
            expect(fingerprint(make(seed)) == fingerprint(make(seed)), f"{name} seed {seed}")
        print(f"ok   {name}: same seed, same networks and queries")
    for label, build in (
        ("chain", lambda s: gen.chain(gen.stream(s, "t"), 20)),
        ("naive", lambda s: (gen.naive_bayes(gen.stream(s, "t"), 10),
                             gen.naive_evidence(gen.stream(s, "e"), 10, 5))),
        ("coupled", lambda s: gen.coupled(gen.stream(s, "t"), 4)),
        ("observations", lambda s: gen.umbrella_observations(gen.stream(s, "t"), 12, 6)),
    ):
        expect(build(1) == build(1) and build(1) != build(2), label)
        print(f"ok   gen.{label}: repeatable per seed, different across seeds")


def check_loads(workloads) -> None:
    for name, make in workloads.items():
        for seed in SEEDS:
            nets = make(seed).load()
            expect(all(nets.values()), name)
        print(f"ok   {name}: every network loads through load_bn")


def unrolled_coupled(doc: dict, horizon: int) -> dict:
    """The coupled dynamic network unrolled into a static one over slices
    0..horizon, node S{i}_{t}; slice 0 is the initial assignment."""
    nodes = []
    for nd in doc["nodes"]:
        v = doc["initial"][nd["name"]]
        nodes.append({"name": f"{nd['name']}_0", "model": {"kind": "cpt", "p": [1 - v, v]}})
    for t in range(1, horizon + 1):
        for i, nd in enumerate(doc["nodes"]):
            parents = [f"S{i}_{t - 1}"] + ([f"S{i - 1}_{t}"] if i else [])
            nodes.append({"name": f"S{i}_{t}", "model": {
                "kind": "cpt", "parents": parents, "rows": nd["model"]["rows"]}})
    return {"type": "bn", "nodes": nodes}


def unrolled_umbrella(doc: dict, steps: int, r: Fraction) -> dict:
    """The umbrella model unrolled over `steps` slices with r bound."""
    env = {"r": r}
    rows = {nd["name"]: nd["model"]["rows"] for nd in doc["nodes"]}

    def bound(name):
        return [{"given": row["given"], "p": [str(ref.evaluate(str(p), env)) for p in row["p"]]}
                for row in rows[name]]

    init = doc["initial"]["R"]
    p1 = Fraction(init) if isinstance(init, int) else ref.evaluate(init.removeprefix("bern(").removesuffix(")"))
    nodes = [{"name": "R0", "model": {"kind": "cpt", "p": [str(1 - p1), str(p1)]}}]
    for t in range(1, steps + 1):
        nodes.append({"name": f"R{t}", "model": {"kind": "cpt", "parents": [f"R{t - 1}"], "rows": bound("R")}})
        nodes.append({"name": f"U{t}", "model": {"kind": "cpt", "parents": [f"R{t}"], "rows": bound("U")}})
    return {"type": "bn", "nodes": nodes}


def check_references(psolve) -> None:
    from psolve.encode import evidence_indicator
    from psolve.oracle import enumerate_discrete, gaussian_propagate
    from psolve.symbolic import Polynomial

    var = Polynomial.var

    def table(doc):
        return enumerate_discrete(psolve.load_bn(doc))

    def value(rf):
        return rf.const_value() if hasattr(rf, "const_value") else rf

    for seed in SEEDS:
        rng = gen.stream(seed, "selftest")
        doc = gen.chain(rng, 12)
        tab = table(doc)
        for v in (0, 1):
            expect(value(tab.conditional(var("X0"), [("X11", v)])) == ref.chain_posterior_first(doc, v), ("chain posterior", seed, v))
            expect(1 / value(tab.probability([("X11", v)])) == ref.chain_expected_samples(doc, v), ("chain samples", seed, v))

        doc = gen.naive_bayes(rng, 8)
        ev = gen.naive_evidence(rng, 8, 4)
        expect(value(table(doc).conditional(var("C"), list(ev.items()))) == ref.naive_posterior(doc, ev), ("naive Bayes", seed))

        doc = gen.coupled(rng, 3)
        chain = ref.SliceChain(doc)
        horizon = 4
        tab = table(unrolled_coupled(doc, horizon))
        for t in range(horizon + 1):
            for i in range(3):
                want = value(tab.expectation(var(f"S{i}_{t}")))
                expect(chain.mean(chain.distribution(t), i) == want, (seed, t, i))
        pi = chain.stationary()
        expect(sum(pi) == 1, ("stationary sum", seed))
        expect(all(sum(pi[i] * chain.matrix[i][j] for i in range(len(pi))) == pi[j]
                   for j in range(len(pi))), ("stationary fixed point", seed))

        for name in ("umbrella_sens", "umbrella_filter"):
            doc = json.loads((DATA / f"{name}.json").read_text())
            obs = gen.umbrella_observations(rng, 5, 3)
            r = Fraction(rng.randint(31, 96), 97)
            tab = table(unrolled_umbrella(doc, 5, r))
            for t, (p0, p1) in enumerate(ref.hmm_filter(doc, obs, {"r": r}), start=1):
                event = [(f"U{s}", obs[s - 1]["U"]) for s in range(1, t + 1)]
                expect(value(tab.conditional(var(f"R{t}"), event)) == p1 and p0 + p1 == 1, (name, seed, t))
        print(f"ok   seed {seed}: chain, naive Bayes, coupled and filter references match enumeration")

    for name, query, evidence in (
        ("alarm", {"EQ": 1}, {"M": 1}),
        ("alarm", "(1 - EQ)*(1 - B)", {"A": 1, "J": 1}),
        ("asia", "Asia*Lung", {"Dysp": 1}),
        ("asia_det_either", "Asia*Lung", {}),
        ("grass", "R", {"G": 1}),
    ):
        doc = json.loads((DATA / f"{name}.json").read_text())
        poly = (evidence_indicator(psolve.load_bn(doc), query) if isinstance(query, dict)
                else psolve.parse_poly(query, [nd["name"] for nd in doc["nodes"]]))
        want = table(doc).conditional(poly, list(evidence.items()))
        expect(ref.Joint(doc).expect(query, evidence=evidence) == value(want), name)
    doc = json.loads((DATA / "rats.json").read_text())
    want = gaussian_propagate(psolve.load_bn(doc)).moment1("W2", [("D", 1)])
    expect(ref.gaussian_mean(doc, "W2", {"D": 1}) == value(want), "rats E[W2 | D=1]")
    print("ok   bundled references match enumeration and Gaussian propagation")


def main() -> int:
    psolve = import_psolve()
    check_determinism(WORKLOADS)
    check_loads(WORKLOADS)
    check_references(psolve)
    return 0


if __name__ == "__main__":
    sys.exit(main())
