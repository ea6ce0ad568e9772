"""One moment engine per query: extraction, solving and the
back-substitution check of a query all run on one engine, the one its
network or program built."""

import importlib.util
import json
from pathlib import Path

import pytest

from psolve.bayesnet import load_bn_path
from psolve.cli import main
from psolve.moments import MomentEngine
from psolve.queries import predict

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
UMBRELLA = str(DATA / "umbrella.json")


def _predict(**fields):
    spec = json.dumps({"query": "predict", "target": "R", **fields})
    return ["query", UMBRELLA, "--spec", spec]


@pytest.mark.parametrize("argv", [
    _predict(),
    _predict(at=5),
    _predict(limit=True),
    ["samples", str(DATA / "asia.json"), "--evidence", "Asia=1,Lung=1"],
    ["check", UMBRELLA, "--mc", "500"],
    ["analyze", str(DATA / "umbrella.psl"), "--goal", "R"],
], ids=["predict", "predict-at", "predict-limit", "samples-cross-check",
        "check-mc", "analyze"])
def test_one_engine_per_query(argv, monkeypatch, capsys):
    built = []
    original = MomentEngine.__init__

    def counted(self, *args):
        built.append(self)
        original(self, *args)

    monkeypatch.setattr(MomentEngine, "__init__", counted)
    assert main(argv) == 0, capsys.readouterr().err
    assert len(built) == 1


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_see_the_one_engine():
    # the benchmark's tracer wraps encode.compile_dynbn, moments.compute_mbis,
    # moments.check_mbis and MomentEngine.__init__ by name; a hook whose
    # target moved would silently read 0.  Three predicts on one network
    # share its one compile and engine, and solve each moment once.
    dyn = load_bn_path(DATA / "umbrella.json")
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        with tracer.root():
            closed = predict(dyn, "U")
            at = predict(dyn, "U", at=5)
            result = predict(dyn, "U", limit=True)
    finally:
        tracer.uninstall()
    assert str(result.value) == "11/20"
    assert at.value == closed.value.at(5)
    self_time, counts = tracer.take()
    assert counts["encode.compile_calls"] == 1
    assert counts["moments.engines"] == 1
    assert counts["moments.compute_mbis_calls"] == 3
    # E[U] reads E[R]: a closure of two moments per predict, solved once
    assert counts["moments.closure_size"] == 3 * 2
    assert counts["recurrence.solve_calls"] == 2
    assert "moments.check" in self_time
