"""The benchmark's four workloads.

A workload generates its inputs from the seed when it is constructed,
loads fresh network objects with `load()`, and lists its queries.  A query
runs against the loaded networks and returns its raw output; its `check`
compares the printed answer with an independent reference from
`reference.py` and returns an error message, or None when the answer is
exactly right.  References are computed on first use, after the timed
rounds.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gen
import reference as ref

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


@dataclass
class Query:
    label: str
    run: Callable[[dict], object]  # timed
    check: Callable[[str], str | None]
    text: Callable[[object], str] = str  # the printed answer, taken untimed


@dataclass
class Workload:
    name: str
    why: str
    layers: str
    properties: dict
    docs: dict  # network name -> JSON document or data file path
    queries: list[Query] = field(default_factory=list)
    # False when every query reads its own input files (the CLI does), so a
    # round has nothing to load up front.
    reload: bool = True

    def load(self) -> dict:
        """Fresh network objects, so no state is shared between rounds."""
        from psolve import load_bn, load_bn_path

        return {
            name: load_bn_path(doc) if isinstance(doc, Path) else load_bn(doc)
            for name, doc in self.docs.items()
        }


# -- comparison helpers ----------------------------------------------------


def _points(rng, names, count=4):
    """Rational parameter points strictly inside (0, 1)."""
    return [{n: Fraction(rng.randint(1, 96), 97) for n in names} for _ in range(count)]


def _same(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {got}, reference {want}"


def _at_points(text: str, want: Callable[[dict], object], points) -> str | None:
    for env in points:
        try:
            got = ref.evaluate(text, env)
        except ZeroDivisionError:
            return f"{text} has a pole at {env}"
        error = _same(got, want(env), f"at {env}")
        if error:
            return error
    return None


def _closed_form(text: str, want: Callable[[int], Fraction], horizons) -> str | None:
    for n in horizons:
        error = _same(ref.closed_form_at(text, n), want(n), f"n={n} of {text}")
        if error:
            return error
    return None


def _api(label: str, fn, check) -> Query:
    """A query through the Python API; its answer is the exact string the
    QueryResult prints."""
    return Query(label, fn, check, text=lambda result: result.exact())


def _cli(argv: list[str]):
    def run(_nets):
        from psolve.cli import main

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()
    return run


def _cli_field(key: str, check: Callable[[str], str | None]):
    """Check one field of a --json CLI report."""
    return lambda out: check(json.loads(out)[key])


# -- bundled: the shipped models through the CLI ---------------------------


def bundled(seed: int) -> Workload:
    rng = gen.stream(seed, "bundled")
    path = {p.stem: p for p in sorted(DATA.glob("*.json")) if p.stem != "bad_cycle"}
    doc = {name: json.loads(p.read_text()) for name, p in path.items()}
    @functools.cache
    def joint(name):
        return ref.Joint(doc[name])

    queries = []

    def query(label, net, spec, check, key="exact"):
        argv = ["query", str(path[net]), "--spec", json.dumps(spec), "--json"]
        queries.append(Query(label, _cli(argv), _cli_field(key, check)))

    def number(want: Callable[[], object]):
        return lambda text: _same(ref.evaluate(text), want(), text)

    # Pinned in README.md and tests/test_acceptance.py (test_1).
    query("alarm P(B|A)", "alarm",
          {"query": "conditional", "target": "B", "evidence": {"A": 1}},
          number(lambda: Fraction(156670, 419407)))
    query("alarm P(EQ|M)", "alarm",
          {"query": "conditional", "target": {"EQ": 1}, "evidence": {"M": 1}},
          number(lambda: joint("alarm").expect({"EQ": 1}, evidence={"M": 1})))
    query("alarm P(~EQ~B|A,J)", "alarm",
          {"query": "conditional", "target": "(1 - EQ)*(1 - B)",
           "evidence": {"A": 1, "J": 1}},
          number(lambda: joint("alarm").expect("(1 - EQ)*(1 - B)", evidence={"A": 1, "J": 1})))
    query("alarm dist A|J", "alarm",
          {"query": "distribution", "node": "A", "evidence": {"J": 1}},
          number(lambda: tuple(joint("alarm").expect({"A": v}, evidence={"J": 1}) for v in (0, 1))))

    # test_2: P(B | A) = b(q/100 + 94/100) / (-279/1000 bq + 939/1000 b + 289/1000 q + 1/1000).
    def alarm_sens(env):
        b, q = env["b"], env["q"]
        return b * (q / 100 + Fraction(94, 100)) / (
            Fraction(-279, 1000) * b * q + Fraction(939, 1000) * b
            + Fraction(289, 1000) * q + Fraction(1, 1000))
    pts = _points(rng, ("b", "q"))
    query("alarm_sens P(B|A)", "alarm_sens",
          {"query": "conditional", "target": "B", "evidence": {"A": 1}},
          lambda text, pts=pts: _at_points(text, alarm_sens, pts))

    # test_5 pins both asia answers.
    query("asia E[Asia*Lung|Dysp]", "asia",
          {"query": "conditional", "target": "Asia*Lung", "evidence": {"Dysp": 1}},
          number(lambda: Fraction(2240, 2179853)))
    queries.append(Query(
        "samples asia",
        _cli(["samples", str(path["asia"]), "--evidence", "Asia=1,Lung=1", "--json"]),
        lambda out: (_same(json.loads(out)["exact"], "20000/11", "samples")
                     or _same(json.loads(out)["monitor_limit"], "20000/11", "monitor limit")),
    ))
    query("asia_det_either P(Asia,Lung)", "asia_det_either",
          {"query": "moment", "target": "Asia*Lung"},
          number(lambda: joint("asia_det_either").expect("Asia*Lung")))
    query("grass P(R|G)", "grass",
          {"query": "conditional", "target": "R", "evidence": {"G": 1}},
          number(lambda: joint("grass").expect("R", evidence={"G": 1})))

    # test_4 pins the class-average second moment and the symbolic E[Stat].
    query("marks E[avg^2]", "marks",
          {"query": "moment", "target": "(ALG + ANL + Stat)/3", "k": 2},
          number(lambda: Fraction(12919355403851, 5625000000)))
    pts = _points(rng, ("mu_al", "c", "sigma_an"))
    query("marks_sens E[Stat]", "marks_sens", {"query": "moment", "target": "Stat"},
          lambda text, pts=pts: _at_points(text, lambda e: (
              e["mu_al"] * e["c"] * Fraction(99, 100) + e["mu_al"] * Fraction(10669, 10000)
              - e["c"] * Fraction(357, 100) - Fraction(122967, 10000)), pts))

    query("rats E[W2|D]", "rats",
          {"query": "conditional", "target": "W2", "evidence": {"D": 1}},
          number(lambda: ref.gaussian_mean(doc["rats"], "W2", {"D": 1})))
    pts = _points(rng, ("a", "b"))
    query("rats_sens E[W2|D]", "rats_sens",
          {"query": "conditional", "target": "W2", "evidence": {"D": 1}},
          lambda text, pts=pts: _at_points(
              text, lambda e: ref.gaussian_mean(doc["rats_sens"], "W2", {"D": 1}, e), pts))

    # test_3 and README pin the umbrella closed form and both limits.
    umbrella = lambda n: ref.evaluate("1/2 + (1/2)*(2/5)^n", {"n": Fraction(n)})  # noqa: E731
    horizons = (0, 1, 2, 5, 9)
    query("umbrella E[R] closed form", "umbrella", {"query": "moment", "target": "R"},
          lambda text: _closed_form(text, umbrella, horizons))
    query("umbrella lim E[R]", "umbrella",
          {"query": "predict", "target": "R", "limit": True},
          number(lambda: Fraction(1, 2)))
    pts = _points(rng, ("r",))
    query("umbrella_sens lim E[R]", "umbrella_sens",
          {"query": "predict", "target": "R", "limit": True},
          lambda text, pts=pts: _at_points(
              text, lambda e: Fraction(3, 10) / (Fraction(13, 10) - e["r"]), pts))
    queries.append(Query(
        "filter umbrella_filter",
        _cli(["filter", str(path["umbrella_filter"]), "--obs", "U=1; U=1", "--json"]),
        _cli_field("exact", number(lambda: (
            (Fraction(2, 11), Fraction(9, 11)), (Fraction(82, 703), Fraction(621, 703))))),
    ))
    queries.append(Query(
        "analyze umbrella.psl",
        _cli(["analyze", str(DATA / "umbrella.psl"), "--goal", "R", "--json"]),
        _cli_field("closed_form", lambda text: _closed_form(text, umbrella, horizons)),
    ))

    for net in ("alarm", "asia", "marks"):
        queries.append(Query(f"compile-bn {net}", _cli(["compile-bn", str(path[net])]),
                             functools.partial(_check_program_text, doc[net])))
    for net in ("alarm", "asia", "marks"):
        queries.append(Query(f"check {net}", _cli(["check", str(path[net]), "--json"]),
                             functools.partial(_check_report, doc[net])))

    rng.shuffle(queries)
    return Workload(
        name="bundled",
        why="today's user traffic: every shipped model through the CLI, dominated by "
            "fixed per-query cost (load, parse, compile, one engine per query)",
        layers="cli, bayesnet/parser load, encode.compile, moments, recurrence, oracle.check",
        properties={"calls_per_round": len(queries), "models": len(path),
                    "symbolic_calls": sum("_sens" in q.label for q in queries),
                    "max_nodes": max(len(d["nodes"]) for d in doc.values())},
        docs=path,
        queries=queries,
        reload=False,
    )


def _check_program_text(doc: dict, out: str) -> str | None:
    """compile-bn prints a loop program: one initializer and one update per
    node, and a support declaration for every node with a table."""
    head, sep, body = out.partition("while true {")
    if not sep:
        return "no loop in compile-bn output"

    def targets(text):
        return {line.split(" := ")[0].strip() for line in text.splitlines() if " := " in line}

    declared = {line for line in head.splitlines() if line.startswith("support ")}
    for node in doc["nodes"]:
        name, model = node["name"], node["model"]
        if name not in targets(head) or name not in targets(body):
            return f"node {name} has no initializer or update"
        if model["kind"] == "cpt":
            size = len(model["p"] if "p" in model else model["rows"][0]["p"])
            if f"support {name} {size};" not in declared:
                return f"node {name} has no support declaration"
    return None


def _check_report(doc: dict, out: str) -> str | None:
    """check: every line ok, and as many lines as the network calls for:
    the joint total, each E[X] and each E[X*Y] for a discrete network,
    E[X] and E[X^2] per node for a Gaussian one."""
    report = json.loads(out)
    n = len(doc["nodes"])
    discrete = all(nd["model"]["kind"] in ("cpt", "det") for nd in doc["nodes"])
    want = 1 + n + n * (n - 1) // 2 if discrete else 2 * n
    if report["failed"] or not all(line.startswith("ok") for line in report["checks"]):
        return f"failed checks: {report['checks']}"
    return _same(report["passed"], want, "passed checks")


# -- static-scaling: generated chains and naive Bayes ----------------------

CHAIN_SIZES = (20, 40, 80)
SAMPLE_CHAIN_SIZES = (20, 80)
NAIVE_SIZES = (8, 10)


def static_scaling(seed: int) -> Workload:
    from_seed = functools.partial(gen.stream, seed, "static")
    docs, queries = {}, []
    for n in CHAIN_SIZES:
        name, last = f"chain{n}", f"X{n - 1}"
        docs[name] = doc = gen.chain(from_seed("chain", n), n)
        # X_{N-1}=1 for the posterior, X_{N-1}=0 (a 1-X indicator) for the
        # sample count: fixed, because the evidence value changes the work.
        queries.append(_api(
            f"{name} P(X0|{last}=1)",
            lambda nets, name=name, last=last: _q().conditional_moment(nets[name], "X0", 1, {last: 1}),
            lambda text, doc=doc: _same(ref.evaluate(text), ref.chain_posterior_first(doc, 1), text),
        ))
        if n in SAMPLE_CHAIN_SIZES:
            queries.append(_api(
                f"{name} samples {last}=0",
                lambda nets, name=name, last=last: _q().expected_samples(nets[name], {last: 0}),
                lambda text, doc=doc: _same(ref.evaluate(text), ref.chain_expected_samples(doc, 0), text),
            ))
    negatives = len(SAMPLE_CHAIN_SIZES)
    for k in NAIVE_SIZES:
        rng = from_seed("naive", k)
        name = f"naive{k}"
        docs[name] = doc = gen.naive_bayes(rng, k)
        evidence = gen.naive_evidence(rng, k, k // 2)
        negatives += k // 2
        queries.append(_api(
            f"{name} P(C|F1..F{k})",
            lambda nets, name=name, ev=evidence: _q().conditional_moment(nets[name], "C", 1, ev),
            lambda text, doc=doc, ev=evidence: _same(ref.evaluate(text), ref.naive_posterior(doc, ev), text),
        ))
    return Workload(
        name="static-scaling",
        why="cost grows with the variable count (support reduction) and with negative "
            "evidence, each 1-F indicator doubling the query terms",
        layers="moments (self, reduce), symbolic.reduce, recurrence, moments.check, encode.compile",
        properties={"chain_sizes": list(CHAIN_SIZES), "naive_features": list(NAIVE_SIZES),
                    "max_nodes": max(CHAIN_SIZES),
                    "negative_evidence_share": round(
                        negatives / (len(CHAIN_SIZES) + len(SAMPLE_CHAIN_SIZES) + sum(NAIVE_SIZES)), 3),
                    "symbolic": False},
        docs=docs,
        queries=queries,
    )


def _q():
    import psolve.queries

    return psolve.queries


# -- dynamic-coupled: additive coupled dynamic networks ---------------------

COUPLED_SIZES = (2, 3, 4)


def dynamic_coupled(seed: int) -> Workload:
    docs, queries = {}, []
    for n in COUPLED_SIZES:
        rng = gen.stream(seed, "coupled", n)
        name = f"coupled{n}"
        docs[name] = doc = gen.coupled(rng, n)
        target, horizon = f"S{n - 1}", rng.randint(5, 9)
        chain = functools.cache(lambda doc=doc: ref.SliceChain(doc))
        mean_at = lambda t, chain=chain, n=n: chain().mean(chain().distribution(t), n - 1)  # noqa: E731
        queries.append(_api(
            f"{name} E[{target}] closed form",
            lambda nets, name=name, t=target: _q().predict(nets[name], t),
            lambda text, mean_at=mean_at: _closed_form(text, mean_at, (0, 1, 2, 3, 12)),
        ))
        queries.append(_api(
            f"{name} E[{target}] at n={horizon}",
            lambda nets, name=name, t=target, h=horizon: _q().predict(nets[name], t, at=h),
            lambda text, mean_at=mean_at, h=horizon: _same(ref.evaluate(text), mean_at(h), text),
        ))
        queries.append(_api(
            f"{name} lim E[{target}]",
            lambda nets, name=name, t=target: _q().predict(nets[name], t, limit=True),
            lambda text, chain=chain, n=n: _same(
                ref.evaluate(text), chain().mean(chain().stationary(), n - 1), text),
        ))
    return Workload(
        name="dynamic-coupled",
        why="Bernoulli draw symbols make the substituted body grow about 6x per node "
            "while the expectation stays small; isolates that growth",
        layers="moments.substitute, moments.expectation, recurrence, exppoly.limit",
        properties={"nodes": list(COUPLED_SIZES), "max_nodes": max(COUPLED_SIZES),
                    "cpt": "additive", "symbolic": False},
        docs=docs,
        queries=queries,
    )


# -- symbolic-filter: forward filtering, symbolic and numeric ---------------

SYMBOLIC_STEPS = (6, 7, 8)
NUMERIC_STEPS = (120, 240)


def symbolic_filter(seed: int) -> Workload:
    docs = {
        "umbrella_sens": DATA / "umbrella_sens.json",
        "umbrella_filter": DATA / "umbrella_filter.json",
    }
    raw = {name: json.loads(p.read_text()) for name, p in docs.items()}
    queries = []
    for net, steps in (("umbrella_sens", SYMBOLIC_STEPS), ("umbrella_filter", NUMERIC_STEPS)):
        for t in steps:
            rng = gen.stream(seed, "filter", net, t)
            obs = gen.umbrella_observations(rng, t, t // 2)
            points = [{}] if net == "umbrella_filter" else _points(rng, ("r",), 3)
            queries.append(_api(
                f"{net} T={t}",
                lambda nets, net=net, obs=obs: _q().forward_filter(nets[net], obs),
                lambda text, doc=raw[net], obs=obs, pts=points: _at_points(
                    text, lambda env: tuple(ref.hmm_filter(doc, obs, env)), pts),
            ))
    return Workload(
        name="symbolic-filter",
        why="loads the filtering kernel and RationalFunction arithmetic with no moment "
            "engine; the numeric sequences run the same code without the symbolic swell",
        layers="queries.filter (symbolic arithmetic inside it)",
        properties={"symbolic_steps": list(SYMBOLIC_STEPS), "numeric_steps": list(NUMERIC_STEPS),
                    "umbrella_seen_share": 0.5, "symbolic": "r in umbrella_sens"},
        docs=docs,
        queries=queries,
    )


WORKLOADS = {
    "bundled": bundled,
    "static-scaling": static_scaling,
    "dynamic-coupled": dynamic_coupled,
    "symbolic-filter": symbolic_filter,
}
