"""Seeded input generators for the benchmark.

Every generator takes a `random.Random` and returns a plain JSON network
document (the same schema as the files in `data/`), so the program under
test only ever sees generated inputs.  Probabilities are multiples of 1/20
strictly inside (0, 1): every state and evidence has positive mass, and
coefficient sizes do not vary much from seed to seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

DEN = 20


def stream(seed: int, *labels) -> random.Random:
    """An independent, reproducible random stream per (seed, labels)."""
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def _prob(rng: random.Random, lo: int = 1, hi: int = DEN - 1) -> Fraction:
    return Fraction(rng.randint(lo, hi), DEN)


def _two_probs(rng: random.Random) -> tuple[Fraction, Fraction]:
    """Two different probabilities, so that the child really depends on
    its parent: equal rows would cut the dependence chain and make the
    query much cheaper for some seeds than for others."""
    a, b = rng.sample(range(1, DEN), 2)
    return Fraction(a, DEN), Fraction(b, DEN)


def _row(p1: Fraction) -> list[str]:
    """A binary CPT row [P(0), P(1)] as exact strings."""
    return [str(1 - p1), str(p1)]


def chain(rng: random.Random, n: int) -> dict:
    """Binary chain X0 -> X1 -> ... -> X{n-1}."""
    nodes = [{"name": "X0", "model": {"kind": "cpt", "p": _row(_prob(rng))}}]
    for i in range(1, n):
        p1, p0 = _two_probs(rng)
        nodes.append({"name": f"X{i}", "model": {
            "kind": "cpt", "parents": [f"X{i - 1}"], "rows": [
                {"given": [1], "p": _row(p1)},
                {"given": [0], "p": _row(p0)},
            ]}})
    return {"type": "bn", "nodes": nodes}


def naive_bayes(rng: random.Random, k: int) -> dict:
    """Class C with k conditionally independent binary features F1..Fk."""
    nodes = [{"name": "C", "model": {"kind": "cpt", "p": _row(_prob(rng))}}]
    for j in range(1, k + 1):
        p1, p0 = _two_probs(rng)
        nodes.append({"name": f"F{j}", "model": {
            "kind": "cpt", "parents": ["C"], "rows": [
                {"given": [1], "p": _row(p1)},
                {"given": [0], "p": _row(p0)},
            ]}})
    return {"type": "bn", "nodes": nodes}


def naive_evidence(rng: random.Random, k: int, negatives: int) -> dict:
    """Evidence on every feature with exactly `negatives` of them at 0; the
    seed picks which.  The count is fixed because each negative value
    doubles the query's indicator terms."""
    zeros = set(rng.sample(range(1, k + 1), negatives))
    return {f"F{j}": 0 if j in zeros else 1 for j in range(1, k + 1)}


def coupled_params(rng: random.Random, n: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(base, x, y) per node with P(S_i=1 | own previous a, S_{i-1} = b) =
    base + x*a + y*b, all three positive and summing below 1."""
    out = []
    for i in range(n):
        base = _prob(rng, 1, 4)
        x = _prob(rng, 2, 9)
        y = _prob(rng, 1, 4) if i else Fraction(0)
        out.append((base, x, y))
    return out


def coupled(rng: random.Random, n: int) -> dict:
    """Dynamic network S0..S{n-1}: S_i reads its own previous slice and the
    current S_{i-1}, through an additive CPT."""
    params = coupled_params(rng, n)
    init = {f"S{i}": rng.randint(0, 1) for i in range(n)}
    nodes = []
    for i, (base, x, y) in enumerate(params):
        name = f"S{i}"
        if i == 0:
            rows = [{"given": [a], "p": _row(base + x * a)} for a in (1, 0)]
            parents = [name]
        else:
            rows = [
                {"given": [a, b], "p": _row(base + x * a + y * b)}
                for a in (1, 0) for b in (1, 0)
            ]
            parents = [name, f"S{i - 1}"]
        nodes.append({"name": name, "model": {
            "kind": "cpt", "parents": parents, "rows": rows}})
    return {
        "type": "dynbn",
        "nodes": nodes,
        "inter_edges": {f"S{i}": [f"S{i}"] for i in range(n)},
        "initial": init,
    }


def umbrella_observations(rng: random.Random, t: int, seen: int) -> list[dict]:
    """t observation steps of the umbrella node U, exactly `seen` of them
    with the umbrella present; the seed picks which steps."""
    ones = set(rng.sample(range(t), seen))
    return [{"U": 1 if i in ones else 0} for i in range(t)]
