"""Seeded random network generators shared by the differential suites,
and the numeric texts of the parser and loader tests.

Everything takes an explicit random.Random so failures reproduce from the
seed printed in the test id.  Documents go through load_bn, so generated
networks also exercise the schema layer.
"""

import itertools
import random
from fractions import Fraction

from psolve.bayesnet import load_bn


def rational(rng: random.Random, lo: int, hi: int, den_max: int = 8) -> Fraction:
    den = rng.randint(1, den_max)
    return Fraction(rng.randint(lo * den, hi * den), den)


def probability(rng: random.Random, den_max: int = 12) -> Fraction:
    den = rng.randint(1, den_max)
    return Fraction(rng.randint(0, den), den)


def numeric_text(rng: random.Random) -> str:
    """A number or a quotient of two in any spacing, with leading zeros."""
    def number():
        text = "0" * rng.choice([0, 0, 1, 2]) + str(rng.randint(0, 999))
        if rng.random() < 0.4:
            text += "." + str(rng.randint(0, 999)).zfill(rng.randint(1, 3))
        return text

    space = lambda: rng.choice(["", "", " ", "  ", "\t", "\n "])
    text = space() + number()
    if rng.random() < 0.6:
        den = number()
        while not Fraction(den):
            den = number()
        text += space() + "/" + space() + den
    return text + space()


def random_discrete_doc(rng: random.Random, n_nodes: int, max_parents: int = 3,
                        det_share: float = 0.1) -> dict:
    """A random binary-node network document: CPT nodes plus the odd
    deterministic Boolean gate."""
    names = [f"X{i}" for i in range(n_nodes)]
    nodes = []
    for i, name in enumerate(names):
        k = min(i, rng.choice([0, 1, 1, 2, 2, max_parents]))
        parents = sorted(rng.sample(names[:i], k)) if k else []
        if len(parents) >= 1 and rng.random() < det_share:
            a = parents[0]
            b = parents[-1]
            if len(parents) == 1:
                expr = f"1 - {a}"
            else:
                expr = rng.choice(
                    [f"{a}*{b}",
                     f"{a} + {b} - {a}*{b}",
                     f"{a} + {b} - 2*{a}*{b}"]
                )
            nodes.append({"name": name, "model": {"kind": "det", "expr": expr}})
            continue
        rows = []
        for given in itertools.product((0, 1), repeat=len(parents)):
            p = probability(rng)
            rows.append({"given": list(given), "p": [str(1 - p), str(p)]})
        if parents:
            model = {"kind": "cpt", "parents": parents, "rows": rows}
        else:
            model = {"kind": "cpt", "p": rows[0]["p"]}
        nodes.append({"name": name, "model": model})
    return {"type": "bn", "nodes": nodes}


def random_gbn_doc(rng: random.Random, n_nodes: int) -> dict:
    """A random linear-Gaussian network over a random DAG."""
    names = [f"Y{i}" for i in range(n_nodes)]
    nodes = []
    for i, name in enumerate(names):
        k = min(i, rng.choice([0, 1, 1, 2]))
        parents = sorted(rng.sample(names[:i], k)) if k else []
        coeffs = {p: str(rational(rng, -2, 2)) for p in parents}
        nodes.append({
            "name": name,
            "model": {
                "kind": "lingauss",
                "intercept": str(rational(rng, -4, 4)),
                "coeffs": coeffs,
                "variance": str(rational(rng, 0, 3)),
            },
        })
    return {"type": "bn", "nodes": nodes}


def random_clg_doc(rng: random.Random, n_discrete: int, n_continuous: int) -> dict:
    """A random conditional linear-Gaussian network: a small binary
    discrete layer on top of a continuous layer."""
    nodes = []
    dnames = [f"D{i}" for i in range(n_discrete)]
    for i, name in enumerate(dnames):
        if i and rng.random() < 0.5:
            parent = rng.choice(dnames[:i])
            rows = []
            for given in ((0,), (1,)):
                p = probability(rng)
                rows.append({"given": list(given), "p": [str(1 - p), str(p)]})
            model = {"kind": "cpt", "parents": [parent], "rows": rows}
        else:
            p = probability(rng)
            model = {"kind": "cpt", "p": [str(1 - p), str(p)]}
        nodes.append({"name": name, "model": model})
    cnames = [f"Y{i}" for i in range(n_continuous)]
    for i, name in enumerate(cnames):
        k = min(i, rng.choice([0, 1, 1, 2]))
        cparents = sorted(rng.sample(cnames[:i], k)) if k else []
        dparents = sorted(rng.sample(dnames, rng.randint(1, min(2, n_discrete))))
        table = []
        for given in itertools.product((0, 1), repeat=len(dparents)):
            table.append({
                "given": list(given),
                "intercept": str(rational(rng, -4, 4)),
                "coeffs": {p: str(rational(rng, -2, 2)) for p in cparents},
                "variance": str(rational(rng, 0, 3)),
            })
        nodes.append({
            "name": name,
            "model": {"kind": "clg", "parents": dparents, "table": table},
        })
    return {"type": "bn", "nodes": nodes}


def random_discrete_bn(rng: random.Random, n_nodes: int, **kw):
    return load_bn(random_discrete_doc(rng, n_nodes, **kw))


def random_gbn(rng: random.Random, n_nodes: int):
    return load_bn(random_gbn_doc(rng, n_nodes))


def random_clgbn(rng: random.Random, n_discrete: int, n_continuous: int):
    return load_bn(random_clg_doc(rng, n_discrete, n_continuous))
