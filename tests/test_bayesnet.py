"""Network schema loading and validation."""

import copy
import dataclasses
import itertools
import json
import random
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from conftest import numeric_text

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
from psolve.errors import InputError, ParseError, SchemaError, UnsupportedError
from psolve.parser import parse_ratfun
from psolve.queries import node_distribution, run_query
from psolve.symbolic import Polynomial, coeff_str

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

    def test_long_states_are_echoed_cut(self):
        # an int past the interpreter's str() limit is a SchemaError too
        node = load_bn(doc_chain()).node("A")
        cases = (("7" * 5000, "'" + "7" * 40 + "...'"), (10**5000, "1" + "0" * 39 + "..."))
        for value, shown in cases:
            with pytest.raises(SchemaError) as info:
                node.state_index(value)
            assert shown in str(info.value) and len(str(info.value)) < 100

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

    @pytest.mark.parametrize("parents, message", [
        ([["A"]], 'node B: "parents" must be a list of node names'),
        (["A", "A"], "node B: duplicate parent"),
    ], ids=["unhashable", "duplicate"])
    def test_clg_parents_are_node_names(self, parents, message):
        doc = doc_chain()
        doc["nodes"][1] = {"name": "B", "model": {
            "kind": "clg", "parents": parents, "table": CLG_TABLE}}
        with pytest.raises(SchemaError) as info:
            load_bn(doc)
        assert str(info.value) == message

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

    def test_negative_variance_in_a_clg_row(self):
        doc = doc_chain()
        doc["nodes"][1]["model"] = {"kind": "clg", "parents": ["A"], "table": [
            {"given": [0], "variance": "1"}, {"given": [1], "variance": "-1/2"}]}
        with pytest.raises(SchemaError) as info:
            load_bn(doc)
        assert str(info.value) == "node B: negative variance"

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


def doc_umbrella():
    """A dynamic network: R reads its previous slice, U reads R."""
    return {
        "type": "dynbn",
        "nodes": [
            {"name": "R", "model": {"kind": "cpt", "parents": ["R"], "rows": [
                {"given": [0], "p": ["7/10", "3/10"]}, {"given": [1], "p": ["3/10", "7/10"]}]}},
            {"name": "U", "model": {"kind": "cpt", "parents": ["R"], "rows": [
                {"given": [0], "p": ["4/5", "1/5"]}, {"given": [1], "p": ["1/10", "9/10"]}]}},
        ],
        "inter_edges": {"R": ["R"]},
        "initial": {"R": 1},
    }


DELETE = object()
GAUSS = {"kind": "lingauss", "variance": "1"}
CLG_TABLE = [{"given": [0], "variance": "1"}, {"given": [1], "variance": "2"}]


# (base document, path to the edited entry, its new value or DELETE, the
# loader's exact message); one case per raise site of the document loader
LOADER_ERRORS = [
    (doc_chain, ("type",), "net", "unknown network type 'net'"),
    (doc_chain, ("extra",), 1, "unknown top-level keys ['extra']"),
    (doc_chain, ("nodes",), [], '"nodes" must be a non-empty list'),
    # _load_params and read_number
    (doc_chain, ("params",), {"a": 1}, '"params" must be a list'),
    (doc_chain, ("params",), [5], "bad parameter entry 5"),
    (doc_chain, ("params",), ["2a"], "bad parameter name '2a'"),
    (doc_chain, ("params",), ["a", "a"], "parameter a declared twice"),
    (doc_chain, ("params",), [{"name": "a", "domain": ["0"]}],
     "domain of a must be a [lo, hi] pair"),
    (doc_chain, ("params",), [{"name": "a", "domain": ["1", "0"]}],
     "empty domain (1, 0) for parameter a"),
    (doc_chain, ("params",), [{"name": "a", "domain": [True, "1"]}],
     "domain of a: expected a number, found a boolean"),
    (doc_chain, ("params",), [{"name": "a", "domain": [0.5, "1"]}],
     "domain of a: write numbers as strings, not binary floats"),
    (doc_chain, ("params",), [{"name": "a", "domain": ["x", "1"]}],
     "domain of a: bad number 'x'"),
    (doc_chain, ("params",), [{"name": "a", "domain": [None, "1"]}],
     "domain of a: expected a number, found NoneType"),
    # _load_inter_edges
    (doc_umbrella, ("inter_edges",), [], '"inter_edges" must be an object'),
    (doc_umbrella, ("inter_edges", "R"), "R", "inter_edges['R'] must be a list"),
    (doc_umbrella, ("inter_edges", "R"), ["U"],
     "node R may only read its own previous-slice value, not 'U'"),
    (doc_umbrella, ("inter_edges", "U"), ["U"],
     "inter_edges declares a previous-slice value for U, but its model never reads it"),
    # _load_node
    (doc_chain, ("nodes", 0), 5, "bad node entry 5"),
    (doc_chain, ("nodes", 0, "name"), "1A", "bad node name '1A'"),
    (doc_chain, ("nodes", 0, "extra"), 1, "node A: unknown keys ['extra']"),
    (doc_chain, ("nodes", 0, "model"), {"p": ["1", "0"]},
     'node A: "model" must be an object with a "kind"'),
    (doc_chain, ("nodes", 0, "states"), ["x"], "node A: states must be >= 2 distinct strings"),
    (doc_chain, ("nodes", 0, "states"), ["x", "y", "z"],
     "node A: 3 states but probability vectors of length 2"),
    (doc_chain, ("nodes", 1), {"name": "B", "states": ["a", "b"], "model": GAUSS},
     "node B: a Gaussian node has no states"),
    (doc_chain, ("nodes", 1), {"name": "B", "states": ["a", "b"], "model": {
        "kind": "clg", "parents": ["A"], "table": CLG_TABLE}},
     "node B: a Gaussian node has no states"),
    (doc_chain, ("nodes", 0, "model", "kind"), "table", "node A: unknown model kind 'table'"),
    # _load_cpt and _parent_list
    (doc_chain, ("nodes", 0, "model", "shape"), 1, "node A: unknown model keys ['shape']"),
    (doc_chain, ("nodes", 0, "model", "p"), DELETE,
     'node A: a cpt needs "rows" (or "p" for a root)'),
    (doc_chain, ("nodes", 1, "model"), {"kind": "cpt", "parents": ["A"], "p": ["1", "0"]},
     'node B: "p" shorthand is only for parentless nodes'),
    (doc_chain, ("nodes", 1, "model", "rows"), [], 'node B: "rows" must be a non-empty list'),
    (doc_chain, ("nodes", 1, "model", "rows", 0), ["1/2"],
     "node B: each row is {'given': [...], 'p': [...]}"),
    (doc_chain, ("nodes", 1, "model", "rows", 0, "given"), [0, 1],
     "node B: row 'given' must list one value per parent ['A']"),
    (doc_chain, ("nodes", 1, "model", "rows", 0, "p"), ["1"],
     "node B: row 'p' must list >= 2 probabilities"),
    (doc_chain, ("nodes", 1, "model", "rows", 0, "p"), ["1/2", "1/4", "1/4"],
     "node B: probability vectors differ in length"),
    (doc_chain, ("nodes", 1, "model", "parents"), "A",
     'node B: "parents" must be a list of node names'),
    # _ratfun
    (doc_chain, ("nodes", 0, "model", "p"), [True, False],
     "node A probability: expected a number, found a boolean"),
    (doc_chain, ("nodes", 0, "model", "p"), [0.75, "1/4"],
     'node A probability: 0.75 is a binary float; write it as a string like "0.95" '
     "so it stays exact"),
    (doc_chain, ("nodes", 0, "model", "p"), ["1/", "1"],
     "node A probability: 1:3: unexpected end of input"),
    (doc_chain, ("nodes", 0, "model", "p"), [None, "1"],
     "node A probability: expected a value, found NoneType"),
    # _load_det
    (doc_chain, ("nodes", 1, "model"), {"kind": "det", "expr": "A", "x": 1},
     "node B: unknown model keys ['x']"),
    (doc_chain, ("nodes", 1, "model"), {"kind": "det"}, 'node B: det needs an "expr" string'),
    (doc_chain, ("nodes", 1, "model"), {"kind": "det", "expr": "A +"},
     "node B: bad expr: 1:4: unexpected end of input"),
    # _load_lingauss
    (doc_chain, ("nodes", 1, "model"), {**GAUSS, "mean": "0"},
     "node B: unknown model keys ['mean']"),
    (doc_chain, ("nodes", 1, "model"), {"kind": "lingauss"}, "node B: a Gaussian needs a variance"),
    (doc_chain, ("nodes", 1, "model"), {**GAUSS, "coeffs": ["A"]},
     'node B: "coeffs" must map parent -> coefficient'),
    (doc_chain, ("nodes", 1, "model"), {**GAUSS, "variance": "-1"}, "node B: negative variance"),
    # _load_clg
    (doc_chain, ("nodes", 1, "model"), {"kind": "clg", "parents": ["A"], "table": CLG_TABLE,
                                        "x": 1}, "node B: unknown model keys ['x']"),
    (doc_chain, ("nodes", 1, "model"), {"kind": "clg", "table": CLG_TABLE},
     "node B: clg needs discrete parents"),
    (doc_chain, ("nodes", 1, "model"), {"kind": "clg", "parents": ["A"]},
     'node B: clg needs a "table" list'),
    (doc_chain, ("nodes", 1, "model"), {"kind": "clg", "parents": ["A"], "table": [
        {"variance": "1"}]}, "node B: each table row needs a 'given' assignment"),
    (doc_chain, ("nodes", 1, "model"), {"kind": "clg", "parents": ["A"], "table": [
        {"given": [0, 1], "variance": "1"}]},
     "node B: row 'given' must list one value per parent ['A']"),
    # _load_initial
    (doc_umbrella, ("initial",), [], '"initial" must map node -> expression'),
    (doc_umbrella, ("initial", "R"), True, "initial value of R: write 0 or 1, not a boolean"),
    (doc_umbrella, ("initial", "R"), 1.5,
     "initial value of R: expected an integer or expression string"),
    (doc_umbrella, ("initial", "R"), 2, "initial value of R: 2 is outside the node's support"),
    (doc_umbrella, ("initial", "R"), "bern(",
     "initial value of R: 1:6: unexpected end of input"),
    (doc_umbrella, ("initial", "R"), "bern(1.5)",
     "initial value of R: bern(3/2) probability outside [0, 1]"),
    (doc_umbrella, ("initial", "R"), "1 - bern(-1/4)",
     "initial value of R: bern(-1/4) probability outside [0, 1]"),
    (doc_umbrella, ("initial", "R"), "gauss(0, -1)",
     "initial value of R: negative Gaussian variance"),
    # program.initial_law, run by DynBayesNet
    (doc_umbrella, ("initial", "R"), "gauss(0, 1)",
     "initial value of R: continuous draw for a discrete node"),
    (doc_umbrella, ("initial", "Z"), 0, "unknown node 'Z'"),
    # _check_names and _build_node
    (doc_chain, ("params",), ["A"], "A names both a node and a parameter"),
    (doc_chain, ("nodes", 1, "model"), {**GAUSS, "coeffs": {"A": "1"}},
     "node B: discrete parent A in a plain Gaussian mean; use a clg model instead"),
    (doc_chain, ("nodes", 1, "model"), {"kind": "clg", "parents": ["A"], "table": CLG_TABLE[:1]},
     "node B: 1 table rows but 2 assignments"),
    (doc_chain, ("nodes", 1, "model"), {"kind": "clg", "parents": ["A"], "table": [
        {**CLG_TABLE[0], "coeffs": {"A": "1"}}, CLG_TABLE[1]]},
     "node B: discrete parent A belongs in the clg 'parents' list, not in coefficients"),
    (doc_chain, ("nodes", 1, "model"), {"kind": "det", "expr": "A + 2"},
     "node B: expr evaluates to 2 at {'A': 0}, outside 0..1"),
]


@pytest.mark.parametrize("base, path, value, message", LOADER_ERRORS,
                         ids=[case[-1][:48] for case in LOADER_ERRORS])
def test_loader_error_texts(base, path, value, message):
    doc = base()
    *head, last = path
    owner = doc
    for key in head:
        owner = owner[key]
    if value is DELETE:
        del owner[last]
    else:
        owner[last] = value
    with pytest.raises(SchemaError) as info:
        load_bn(doc)
    assert str(info.value) == message


class TestNumericEntries:
    """A plain-number entry takes the parser's numeric fast path; what the
    loader keeps equals the general parser's value and prints alike."""

    @staticmethod
    def same(got, text):
        want = parse_ratfun(f"({text})")  # parenthesized: the general path
        assert got == want and str(got) == str(want), repr(text)

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_general_parser(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            text = numeric_text(rng)
            net = load_bn({"nodes": [{"name": "X", "model": {
                "kind": "lingauss", "intercept": text, "variance": "1"}}]})
            self.same(net.node("X").model.intercept, text)
            if parse_ratfun(text).const_value() <= 1:
                net = load_bn({"nodes": [{"name": "A", "model": {
                    "kind": "cpt", "p": [f"1 - ({text})", text]}}]})
                self.same(net.node("A").model.vector(())[1], text)
            value = rng.randint(0, 999)
            net = load_bn({"nodes": [{"name": "X", "model": {
                "kind": "lingauss", "intercept": value, "variance": "1"}}]})
            self.same(net.node("X").model.intercept, str(value))

    @pytest.mark.parametrize("params, p, message", [
        ([], ["2", "-1"], "node A: probability 2 outside [0, 1]"),
        ([], ["1/2", "1/3"], "node A: probabilities for [] sum to 5/6"),
        ([], [1, 1], "node A: probabilities for [] sum to 2"),
        (["a"], ["a", "1/2"], "node A: probabilities for [] sum to a + 1/2"),
        (["a"], ["1/2", "a/(1+a)", "1/2"],
         "node A: probabilities for [] sum to (2*a + 1)/(a + 1)"),
        ([], [0.5, 0.5], 'node A probability: 0.5 is a binary float; write it as '
                         'a string like "0.95" so it stays exact'),
        ([], [True, False], "node A probability: expected a number, found a boolean"),
    ])
    def test_error_texts(self, params, p, message):
        doc = {"params": params, "nodes": [{"name": "A", "model": {"kind": "cpt", "p": p}}]}
        with pytest.raises(SchemaError) as info:
            load_bn(doc)
        assert str(info.value) == message

    # Each is read by the fast path: a number, or a quotient of two.  The
    # last has 4,300 digits on either side of its point, at the limit part
    # by part and past it together, as Fraction(str) reads it.
    LITERALS = ["0", "7", "007", "0.95", "00.050", "007/010", "1/3", "0.5/0.25",
                "2.50/0.125", " 3 / 4 ", "0." + "3" * 200, "3" * 300 + "/" + "7" * 250,
                "1" * 4300 + "." + "1" * 4300]

    @pytest.mark.parametrize("text", LITERALS, ids=[t[:12] for t in LITERALS])
    def test_literal_reads_as_fraction_does(self, text):
        got = parse_ratfun(text)
        self.same(got, text)
        num, _, den = text.partition("/")
        want = F(num) / F(den or 1)
        assert got.const_value() == want
        assert str(got) == coeff_str(want)

    @pytest.mark.parametrize("text, col", [
        ("9" * 4301, 1), ("1/" + "9" * 4301, 3), ("0." + "1" * 4301, 1),
        ("1" * 4301 + ".5", 1), (" 2.5/ " + "3" * 4301 + ".0", 7), ("(" + "9" * 4301 + ")", 2),
    ], ids=["integer", "divisor", "decimals", "digits", "spaced", "parenthesized"])
    def test_literal_past_the_digit_limit(self, text, col):
        limit = sys.get_int_max_str_digits()
        if limit != 4300:
            pytest.skip("the cases are sized for the default digit limit")
        message = f"1:{col}: number has more than {limit} digits"
        with pytest.raises(ParseError) as info:
            parse_ratfun(text)
        assert str(info.value) == message
        doc = {"nodes": [{"name": "A", "model": {"kind": "cpt", "p": [text, "1"]}}]}
        with pytest.raises(SchemaError) as info:
            load_bn(doc)
        assert str(info.value) == f"node A probability: {message}"

    def test_row_sum_names_its_assignment(self):
        doc = doc_chain()
        doc["nodes"][1]["model"]["rows"][1]["p"] = ["1/3", "1/3"]
        with pytest.raises(SchemaError) as info:
            load_bn(doc)
        assert str(info.value) == "node B: probabilities for [1] sum to 2/3"


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

    @staticmethod
    def gate(k, expr, params=()):
        """A deterministic node D over k fair binary roots P0..P{k-1}."""
        nodes = [{"name": f"P{i}", "model": {"kind": "cpt", "p": ["1/2", "1/2"]}}
                 for i in range(k)]
        return {"type": "bn", "params": list(params),
                "nodes": nodes + [{"name": "D", "model": {"kind": "det", "expr": expr}}]}

    def test_parent_assignments_are_bounded(self):
        # 12 roots give 4,096 assignments, each checked: their sum leaves
        # 0..1 first where the last two parents are 1
        with pytest.raises(SchemaError) as info:
            load_bn(self.gate(12, " + ".join(f"P{i}" for i in range(12))))
        point = {name: 0 for name in sorted(f"P{i}" for i in range(12))}
        point.update(P8=1, P9=1)
        assert str(info.value) == f"node D: expr evaluates to 2 at {point}, outside 0..1"
        with pytest.raises(UnsupportedError) as info:
            load_bn(self.gate(13, " + ".join(f"P{i}" for i in range(13))))
        assert str(info.value) == (
            "node D has 8192 parent assignments, more than 4096 outcomes to enumerate")

    @pytest.mark.parametrize("expr, message", [
        ("a*P0", "node D: expr evaluates to a at {'P0': 1}, outside 0..1"),
        ("a", "node D: expr evaluates to a at {}, outside 0..1"),
        # decided where P0 = 0: the point lists the parents assigned so far
        ("2 + P0*P1", "node D: expr evaluates to 2 at {'P0': 0}, outside 0..1"),
        ("P0 - P1", "node D: expr evaluates to -1 at {'P0': 0, 'P1': 1}, outside 0..1"),
        ("P0/2", "node D: expr evaluates to 1/2 at {'P0': 1}, outside 0..1"),
    ], ids=["parameter", "bare-parameter", "decided-early", "negative", "fraction"])
    def test_value_outside_the_support(self, expr, message):
        with pytest.raises(SchemaError) as info:
            load_bn(self.gate(2, expr, params=["a"]))
        assert str(info.value) == message


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

    def test_integer_past_the_digit_limit(self, tmp_path):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("int-string conversion is unlimited")
        p = tmp_path / "long.json"
        p.write_text('{"nodes": [{"name": "A", "model": {"kind": "cpt", "p": [1, '
                     + "9" * (limit + 1) + "]}}]}")
        with pytest.raises(SchemaError) as info:
            load_bn_path(p)
        assert str(info.value) == f"{p}: number has more than {limit} digits"
        assert sys.get_int_max_str_digits() == limit

    def test_domain_bound_past_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("int-string conversion is unlimited")
        doc = doc_chain()
        doc["params"] = [{"name": "a", "domain": ["0", "1" * (limit + 700)]}]
        with pytest.raises(SchemaError) as info:
            load_bn(doc)
        assert str(info.value) == f"domain of a: number has more than {limit} digits"

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

    def test_children_first_load_alike(self):
        """A network whose children are declared before their parents, with
        named states, loads as the one declared parents first: the same
        nodes and answers, and an order that differs only within a layer,
        which lists its nodes in declaration order."""
        doc = {"nodes": [
            {"name": "Smoke", "states": ["no", "yes"], "model": {
                "kind": "cpt", "p": ["0.5", "0.5"]}},
            {"name": "Lung", "states": ["no", "yes"], "model": {
                "kind": "cpt", "parents": ["Smoke"], "rows": [
                    {"given": ["no"], "p": ["0.99", "0.01"]},
                    {"given": ["yes"], "p": ["0.9", "0.1"]}]}},
            {"name": "Bronc", "states": ["no", "yes"], "model": {
                "kind": "cpt", "parents": ["Smoke"], "rows": [
                    {"given": ["no"], "p": ["0.7", "0.3"]},
                    {"given": ["yes"], "p": ["0.4", "0.6"]}]}},
            {"name": "Dysp", "states": ["no", "yes"], "model": {
                "kind": "cpt", "parents": ["Lung", "Bronc"], "rows": [
                    {"given": ["no", "no"], "p": ["0.9", "0.1"]},
                    {"given": ["no", "yes"], "p": ["0.2", "0.8"]},
                    {"given": ["yes", "no"], "p": ["0.3", "0.7"]},
                    {"given": ["yes", "yes"], "p": ["0.1", "0.9"]}]}},
        ]}
        forward = load_bn(doc)
        backward = load_bn({"nodes": doc["nodes"][::-1]})
        assert forward.order == ("Smoke", "Lung", "Bronc", "Dysp")
        assert backward.order == ("Smoke", "Bronc", "Lung", "Dysp")
        assert backward.nodes == forward.nodes[::-1]
        evidence = {"Dysp": "yes", "Smoke": "no"}
        for name in ("Lung", "Bronc"):
            want = node_distribution(forward, name, evidence).exact()
            assert node_distribution(backward, name, evidence).exact() == want

    def test_binding_rebuilds_only_the_nodes_it_changes(self):
        bn = load_bn_path(DATA / "alarm_sens.json")
        bound = bind(bn, {"b": F(1, 1000)})
        kept = [new.name for old, new in zip(bn.nodes, bound.nodes) if new is old]
        assert kept == ["EQ", "A", "J", "M"]
        assert bound.node("B").model.vector(()) == (F(999, 1000), F(1, 1000))
        assert bound.param_names == ("q",)

    def test_lookups_survive_binding(self):
        doc = doc_chain()
        doc["params"] = ["r"]
        doc["nodes"][1]["model"]["rows"][0]["p"] = ["1 - r", "r"]
        bn = bind(load_bn(doc), {"r": F(1, 5)})
        assert bn.node("B").model.vector((0,)) == (F(4, 5), F(1, 5))
        with pytest.raises(KeyError):
            bn.node("B").model.vector((2,))


def substituted(doc, values):
    """doc with each parameter in values replaced by (p/q) in every string
    of its nodes and initial values, and left out of "params"."""
    word = re.compile(r"\b(" + "|".join(map(re.escape, values)) + r")\b")

    def walk(item):
        if isinstance(item, str):
            return word.sub(lambda m: f"({values[m[1]].numerator}/{values[m[1]].denominator})",
                            item)
        if isinstance(item, list):
            return [walk(v) for v in item]
        if isinstance(item, dict):
            return {k: walk(v) for k, v in item.items()}
        return item

    out = {**doc, "nodes": walk(doc["nodes"])}
    out["params"] = [p for p in doc.get("params", [])
                     if (p if isinstance(p, str) else p["name"]) not in values]
    if "initial" in doc:
        out["initial"] = walk(doc["initial"])
    return out


# The parametric bundled networks and queries whose answers `bind` must
# keep: conditionals and distributions on static networks, the filter and
# predict at n = 3 on dynamic ones.
BIND_ORACLE = {
    "alarm_sens": [
        {"query": "distribution", "node": "B", "evidence": {"J": 1, "M": 0}},
        {"query": "conditional", "target": "EQ", "evidence": {"A": 1}},
    ],
    "marks_sens": [
        {"query": "moment", "target": "Stat", "k": 2},
        {"query": "moment", "target": "ANL"},
    ],
    "rats_sens": [
        {"query": "conditional", "target": "W2", "k": 2, "evidence": {"D": 1}},
        {"query": "conditional", "target": "W1", "evidence": {"D": 1}},
    ],
    "umbrella_sens": [
        {"query": "predict", "target": "R", "at": 3},
        {"query": "filter", "observations": [{"U": 1}, {"U": 0}, {"U": 1}]},
    ],
}


class TestBinding:
    @pytest.mark.parametrize("name", sorted(BIND_ORACLE))
    @pytest.mark.parametrize("seed", range(3))
    def test_binding_equals_loading_the_values(self, name, seed):
        """Binding values gives the node models and the answers of the
        document with those values written in place of the parameters,
        for every parameter and for all but the first."""
        rng = random.Random(seed)
        doc = json.loads((DATA / f"{name}.json").read_text())
        net = load_bn(doc)
        bn = net.net if isinstance(net, DynBayesNet) else net
        point = {}
        for p in bn.params:  # a rational inside the declared domain, or in (0, 2)
            lo, hi = (p.lo, p.hi) if p.lo is not None else (F(0), F(2))
            point[p.name] = lo + (hi - lo) * F(rng.randint(1, 19), 20)
        names = list(point)
        for subset in [names, names[1:]] if len(names) > 1 else [names]:
            values = {n: point[n] for n in subset}
            got, want = bind(net, values), load_bn(substituted(doc, values))
            assert got == want
            for spec in BIND_ORACLE[name]:
                assert run_query(got, spec).exact() == run_query(want, spec).exact(), spec

    @pytest.mark.parametrize("path, values, message", [
        ("marks_sens.json", {"sigma_an": F(-5)},
         "binding sigma_an=-5: node ANL: negative variance"),
        ("rats_sens.json", {"a": F(1), "b": F(-3)}, "binding a=1, b=-3: node W1: negative variance"),
    ], ids=["lingauss", "clg"])
    def test_bound_nodes_pass_the_loader_checks(self, path, values, message):
        with pytest.raises(InputError) as info:
            bind(load_bn_path(DATA / path), values)
        assert str(info.value) == message

    @pytest.mark.parametrize("value, message", [
        (F(1, 2), None),
        (F(3, 2), "binding r=3/2: initial value of R: bern(3/2) probability outside [0, 1]"),
    ], ids=["inside", "outside"])
    def test_bound_slice_zero_draws_are_checked(self, value, message):
        doc = doc_umbrella()
        doc["params"] = [{"name": "r", "domain": ["0", "2"]}]
        doc["initial"] = {"R": "bern(r)"}
        dyn = load_bn(doc)
        if message is None:
            assert bind(dyn, {"r": value}).draws["$0"].arg == F(1, 2)
            return
        with pytest.raises(InputError) as info:
            bind(dyn, {"r": value})
        assert str(info.value) == message

    def test_deterministic_node_takes_no_parameter(self):
        # so binding never rebuilds a deterministic node: one that mentions
        # a parameter does not load
        doc = doc_chain()
        doc["params"] = ["a"]
        doc["nodes"][1]["model"] = {"kind": "det", "expr": "a*A"}
        with pytest.raises(SchemaError) as info:
            load_bn(doc)
        assert str(info.value) == "node B: expr evaluates to a at {'A': 1}, outside 0..1"
        doc["nodes"][1]["model"]["expr"] = "1 - A"
        bn = load_bn(doc)
        assert bind(bn, {"a": F(1)}).node("B") is bn.node("B")


class TestInitialLaws:
    """Every discrete node's slice-zero law comes from `program.initial_law`,
    on load, on binding and on `dataclasses.replace`."""

    @pytest.mark.parametrize("initial, law", [
        (1, (0, 1)),
        ("bern(1/2)", (F(1, 2), F(1, 2))),
        ("1 - bern(3/10)", (F(3, 10), F(7, 10))),
    ])
    def test_laws(self, initial, law):
        doc = doc_umbrella()
        doc["initial"] = {"R": initial}
        laws = load_bn(doc).initial_laws
        assert laws == {"R": law, "U": (1, 0)}

    def test_replace_checks_the_values(self):
        dyn = load_bn(doc_umbrella())
        with pytest.raises(SchemaError) as info:
            dataclasses.replace(dyn, initial=(("R", Polynomial.const(2)),))
        assert str(info.value) == "initial value of R: 2 is outside the node's support"

    def test_continuous_node_takes_any_value(self):
        doc = doc_umbrella()
        doc["nodes"].append({"name": "G", "model": {"kind": "lingauss", "variance": "1"}})
        doc["initial"] = {"R": 1, "G": "gauss(3, 2) + 1/2"}
        assert set(load_bn(doc).initial_laws) == {"R", "U"}
