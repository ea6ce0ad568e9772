"""Network schema loading and validation."""

import copy
import itertools
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from psolve.bayesnet import (
    BayesNet,
    CLG,
    CPT,
    Deterministic,
    DynBayesNet,
    LinearGaussian,
    _find_cycle,
    bind,
    load_bn,
    load_bn_path,
)
from psolve.errors import SchemaError

DATA = Path(__file__).resolve().parent.parent / "data"


def doc_chain():
    return {
        "type": "bn",
        "nodes": [
            {"name": "A", "model": {"kind": "cpt", "p": ["3/4", "1/4"]}},
            {"name": "B", "model": {"kind": "cpt", "parents": ["A"], "rows": [
                {"given": [0], "p": ["1/2", "1/2"]},
                {"given": [1], "p": ["1/3", "2/3"]},
            ]}},
        ],
    }


class TestLoadBasics:
    def test_alarm_structure(self):
        bn = load_bn_path(DATA / "alarm.json")
        assert isinstance(bn, BayesNet)
        assert len(bn.nodes) == 5
        assert len(bn.edges()) == 4
        alarm = bn.node("A")
        assert isinstance(alarm.model, CPT)
        assert alarm.model.parents == ("B", "EQ")

    def test_root_probability_vector(self):
        bn = load_bn(doc_chain())
        assert bn.node("A").model.vector(()) == (F(3, 4), F(1, 4))

    def test_row_lookup(self):
        bn = load_bn(doc_chain())
        cpt = bn.node("B").model
        assert cpt.vector((0,)) == (F(1, 2), F(1, 2))
        assert cpt.vector((1,)) == (F(1, 3), F(2, 3))

    def test_node_order_is_topological(self):
        doc = doc_chain()
        doc["nodes"].reverse()
        bn = load_bn(doc)
        # declaration order is preserved; .order is the sampling order
        assert bn.node_names == ("B", "A")
        assert bn.order.index("A") < bn.order.index("B")

    def test_marks_gaussian(self):
        bn = load_bn_path(DATA / "marks.json")
        alg = bn.node("ALG").model
        assert isinstance(alg, LinearGaussian)
        assert alg.variance == F(1128, 10)
        stat = bn.node("Stat").model
        assert dict(stat.coeffs)["ANL"] == F(31, 100)

    def test_rats_clg(self):
        bn = load_bn_path(DATA / "rats.json")
        w1 = bn.node("W1").model
        assert isinstance(w1, CLG)
        branch = w1.branch((1,))
        assert branch.intercept == F(5)

    def test_states_by_name(self):
        doc = {
            "type": "bn",
            "nodes": [
                {"name": "W", "states": ["dry", "wet"],
                 "model": {"kind": "cpt", "p": ["7/10", "3/10"]}},
            ],
        }
        bn = load_bn(doc)
        node = bn.node("W")
        assert node.state_index("wet") == 1
        assert node.state_index("dry") == 0
        assert node.state_index(1) == 1

    def test_unknown_state(self):
        bn = load_bn(doc_chain())
        with pytest.raises(SchemaError, match="state"):
            bn.node("A").state_index("soggy")

    def test_params_declared(self):
        bn = load_bn_path(DATA / "alarm_sens.json")
        assert {p.name for p in bn.params} == {"b", "q"}
        b = next(p for p in bn.params if p.name == "b")
        assert b.lo == 0 and b.hi == 1


class TestSchemaErrors:
    def test_float_rejected(self):
        doc = doc_chain()
        doc["nodes"][0]["model"]["p"] = [0.75, 0.25]
        with pytest.raises(SchemaError, match="float"):
            load_bn(doc)

    def test_probabilities_must_sum_to_one(self):
        doc = doc_chain()
        doc["nodes"][0]["model"]["p"] = ["1/2", "1/3"]
        with pytest.raises(SchemaError, match="sum"):
            load_bn(doc)

    def test_cycle_diagnostic_names_the_cycle(self):
        with pytest.raises(SchemaError, match="dependency cycle: .*A.*B.*A"):
            load_bn_path(DATA / "bad_cycle.json")

    def test_missing_row(self):
        doc = doc_chain()
        del doc["nodes"][1]["model"]["rows"][1]
        with pytest.raises(SchemaError, match="row"):
            load_bn(doc)

    def test_duplicate_row(self):
        doc = doc_chain()
        doc["nodes"][1]["model"]["rows"].append(
            {"given": [0], "p": ["1", "0"]}
        )
        with pytest.raises(SchemaError, match="duplicate row"):
            load_bn(doc)

    def test_unknown_parent(self):
        doc = doc_chain()
        doc["nodes"][1]["model"]["parents"] = ["Z"]
        with pytest.raises(SchemaError, match="unknown parent"):
            load_bn(doc)

    @pytest.mark.parametrize("model, name", [
        ({"kind": "lingauss", "intercept": "0", "coeffs": {"Q": "1"}, "variance": "1"}, "Q"),
        ({"kind": "clg", "parents": ["Z"], "table": [
            {"given": [0], "intercept": "0", "variance": "1"},
            {"given": [1], "intercept": "1", "variance": "1"}]}, "Z"),
        ({"kind": "clg", "parents": ["A"], "table": [
            {"given": [0], "intercept": "0", "variance": "1"},
            {"given": [1], "intercept": "1", "coeffs": {"Q": "2"}, "variance": "1"}]}, "Q"),
    ], ids=["lingauss-coeff", "clg-parent", "clg-coeff"])
    def test_unknown_gaussian_parent(self, model, name):
        doc = doc_chain()
        doc["nodes"][1] = {"name": "B", "model": model}
        with pytest.raises(SchemaError) as info:
            load_bn(doc)
        assert str(info.value) == f"node B: unknown parent {name!r}"

    def test_unknown_node_key(self):
        doc = doc_chain()
        doc["nodes"][0]["extra"] = 1
        with pytest.raises(SchemaError, match="unknown keys"):
            load_bn(doc)

    def test_unknown_model_kind(self):
        doc = doc_chain()
        doc["nodes"][0]["model"] = {"kind": "table"}
        with pytest.raises(SchemaError, match="unknown model kind"):
            load_bn(doc)

    def test_duplicate_node(self):
        doc = doc_chain()
        doc["nodes"].append(copy.deepcopy(doc["nodes"][0]))
        with pytest.raises(SchemaError, match="declared twice"):
            load_bn(doc)

    def test_negative_variance(self):
        doc = {
            "type": "bn",
            "nodes": [{"name": "X", "model": {
                "kind": "lingauss", "intercept": "0", "variance": "-1"}}],
        }
        with pytest.raises(SchemaError, match="negative variance"):
            load_bn(doc)

    def test_continuous_parent_of_discrete(self):
        doc = {
            "type": "bn",
            "nodes": [
                {"name": "X", "model": {
                    "kind": "lingauss", "intercept": "0", "variance": "1"}},
                {"name": "D", "model": {"kind": "cpt", "parents": ["X"], "rows": [
                    {"given": [0], "p": ["1/2", "1/2"]},
                    {"given": [1], "p": ["1/2", "1/2"]},
                ]}},
            ],
        }
        with pytest.raises(SchemaError):
            load_bn(doc)

    def test_det_range_must_fit_support(self):
        doc = doc_chain()
        doc["nodes"][1]["model"] = {"kind": "det", "expr": "A + 2"}
        with pytest.raises(SchemaError):
            load_bn(doc)

    def test_bool_rejected(self):
        doc = doc_chain()
        doc["nodes"][0]["model"]["p"] = [True, False]
        with pytest.raises(SchemaError, match="boolean"):
            load_bn(doc)


class TestDeterministic:
    def test_or_gate(self):
        doc = {
            "type": "bn",
            "nodes": [
                {"name": "A", "model": {"kind": "cpt", "p": ["1/2", "1/2"]}},
                {"name": "B", "model": {"kind": "cpt", "p": ["1/2", "1/2"]}},
                {"name": "C", "model": {"kind": "det", "expr": "A + B - A*B"}},
            ],
        }
        bn = load_bn(doc)
        det = bn.node("C").model
        assert isinstance(det, Deterministic)
        for a in (0, 1):
            for b in (0, 1):
                assert det.expr.eval({"A": F(a), "B": F(b)}) == F(a or b)


class TestDynBayesNet:
    def test_umbrella(self):
        dyn = load_bn_path(DATA / "umbrella.json")
        assert isinstance(dyn, DynBayesNet)
        assert dyn.net.node_names == ("R", "U")
        assert dyn.temporal == ("R",)
        edges = dyn.edges()
        assert ("R", "R") in edges and ("R", "U") in edges

    def test_initial_values(self):
        dyn = load_bn_path(DATA / "umbrella.json")
        assert dyn.initial_expr("R").const_value() == 1

    def test_initial_distribution(self):
        dyn = load_bn_path(DATA / "umbrella_filter.json")
        expr = dyn.initial_expr("R")
        assert not expr.is_const()  # a fair-coin draw, not a constant

    def test_initial_outside_support(self):
        doc = {
            "type": "dynbn",
            "nodes": [{"name": "R", "model": {"kind": "cpt", "p": ["1/2", "1/2"]}}],
            "inter_edges": {"R": ["R"]},
            "initial": {"R": 4},
        }
        doc["nodes"][0]["model"] = {
            "kind": "cpt", "parents": ["R"], "rows": [
                {"given": [0], "p": ["1/2", "1/2"]},
                {"given": [1], "p": ["1/2", "1/2"]},
            ],
        }
        with pytest.raises(SchemaError, match="support"):
            load_bn(doc)

    def test_self_dependency_without_inter_edge(self):
        doc = {
            "type": "bn",
            "nodes": [{"name": "R", "model": {
                "kind": "cpt", "parents": ["R"], "rows": [
                    {"given": [0], "p": ["1/2", "1/2"]},
                    {"given": [1], "p": ["1/2", "1/2"]},
                ]}}],
        }
        with pytest.raises(SchemaError, match="inter edge"):
            load_bn(doc)


class TestLoadPath:
    def test_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_bn_path(p)

    def test_all_bundled_files_load(self):
        for path in sorted(DATA.glob("*.json")):
            if path.name == "bad_cycle.json":
                continue
            load_bn_path(path)


def layered_order(doc: dict):
    """The topological order of a CPT-only network document as the loader
    once computed it, rescanning every name per layer: the reference for
    the linear-time loader.  Returns (order, None) or (None, cycle message)."""
    temporal = set(doc.get("inter_edges", {}))
    pending = {
        nd["name"]: set(nd["model"]["parents"])
        - ({nd["name"]} if nd["name"] in temporal else set())
        for nd in doc["nodes"]
    }
    names = [nd["name"] for nd in doc["nodes"]]
    order, placed = [], set()
    while pending:
        ready = [n for n in names if n in pending and pending[n] <= placed]
        if not ready:
            return None, "dependency cycle: " + " -> ".join(_find_cycle(pending, placed))
        for n in ready:
            order.append(n)
            placed.add(n)
            del pending[n]
    return tuple(order), None


def random_dag_doc(rng: random.Random, n: int, dynamic: bool, cycle: bool) -> dict:
    """Binary CPT nodes over a random DAG, declared in shuffled order; a
    dynamic network gives some nodes a temporal self-edge, and `cycle`
    closes a cycle through two nodes."""
    names = [f"V{k}" for k in rng.sample(range(10 * n), n)]
    parents = {
        name: rng.sample(names[:i], min(i, rng.randint(0, 3))) for i, name in enumerate(names)
    }
    if cycle:
        i, j = sorted(rng.sample(range(n), 2))
        parents[names[i]].append(names[j])
        if names[i] not in parents[names[j]]:
            parents[names[j]].append(names[i])
    temporal = [name for name in names if dynamic and rng.random() < 0.3]
    nodes = []
    for name in names:
        given = parents[name] + ([name] if name in temporal else [])
        rng.shuffle(given)
        rows = [{"given": list(a), "p": ["1/4", "3/4"]}
                for a in itertools.product((0, 1), repeat=len(given))]
        nodes.append({"name": name, "model": {"kind": "cpt", "parents": given, "rows": rows}})
    rng.shuffle(nodes)
    if not dynamic:
        return {"type": "bn", "nodes": nodes}
    return {"type": "dynbn", "nodes": nodes,
            "inter_edges": {name: [name] for name in temporal},
            "initial": {name: 0 for name in temporal}}


class TestLinearLoader:
    @pytest.mark.parametrize("seed", range(60))
    def test_order_matches_layered_reference(self, seed):
        rng = random.Random(seed)
        doc = random_dag_doc(rng, rng.randint(1, 40), dynamic=seed % 3 == 0, cycle=False)
        net = load_bn(doc)
        bn = net.net if isinstance(net, DynBayesNet) else net
        assert bn.order == layered_order(doc)[0]

    @pytest.mark.parametrize("seed", range(30))
    def test_cycle_message_matches_layered_reference(self, seed):
        rng = random.Random(1000 + seed)
        doc = random_dag_doc(rng, rng.randint(2, 40), dynamic=seed % 3 == 0, cycle=True)
        _, want = layered_order(doc)
        with pytest.raises(SchemaError) as exc:
            load_bn(doc)
        assert str(exc.value) == want

    def test_bad_cycle_text(self):
        with pytest.raises(SchemaError) as exc:
            load_bn_path(DATA / "bad_cycle.json")
        assert str(exc.value) == "dependency cycle: A -> B -> A"

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.update(parents=["Z"]), "node B: unknown parent 'Z'"),
        (lambda m: m.update(parents=["A", "A"]), "node B: duplicate parent"),
        (lambda m: m["rows"].append({"given": ["0"], "p": ["1", "0"]}),
         "node B: duplicate row for assignment ['0']"),
    ])
    def test_error_texts(self, edit, message):
        doc = doc_chain()
        edit(doc["nodes"][1]["model"])
        with pytest.raises(SchemaError) as exc:
            load_bn(doc)
        assert str(exc.value) == message

    def test_unknown_node_text(self):
        with pytest.raises(SchemaError) as exc:
            load_bn(doc_chain()).node("Z")
        assert str(exc.value) == "unknown node 'Z'"

    def test_lookups_survive_binding(self):
        doc = doc_chain()
        doc["params"] = ["r"]
        doc["nodes"][1]["model"]["rows"][0]["p"] = ["1 - r", "r"]
        bn = bind(load_bn(doc), {"r": F(1, 5)})
        assert bn.node("B").model.vector((0,)) == (F(4, 5), F(1, 5))
        with pytest.raises(KeyError):
            bn.node("B").model.vector((2,))
