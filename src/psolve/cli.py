"""Command-line front end.

Subcommands:

- analyze    solve a loop program for the moments of a goal expression
- compile-bn translate a network file into its loop program
- query      run a JSON query document against a network
- samples    expected number of rejection samples for given evidence
- filter     posterior over the temporal state after each observation
- check      engine-vs-oracle differential tests

Every report carries the assumption set under which a symbolic answer
holds.  Exit codes: 0 on success, 1 on bad input, 2 when an internal
consistency check fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .bayesnet import DynBayesNet, bind as bind_net, load_bn_path, parse_json, read_number
from .encode import compile_bn, compile_dynbn
from .errors import InputError, InternalCheckError
from .moments import MomentEngine
from .parser import parse_poly, parse_program
from .program import bind, pretty
from .queries import (
    _exact_str,
    decimal_or_none,
    expected_samples,
    forward_filter,
    predict_loop,
    run_query,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process.  Parsing keeps no
    state on it: each call fills a new namespace, and an `append` option
    copies its default list before it appends."""
    top = _Parser(prog="psolve", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", metavar="command")

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--digits", type=_nonnegative, default=6,
                       help="fractional digits in decimal rendering")
        p.add_argument("--param", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="bind a symbolic parameter (repeatable)")

    p = sub.add_parser("analyze", help="moments of a loop program")
    p.add_argument("program", help="loop program file")
    p.add_argument("--goal", required=True, help="goal expression")
    p.add_argument("--k", type=int, default=1, help="moment order")
    p.add_argument("--at", type=_nonnegative, default=None, help="evaluate at n")
    p.add_argument("--limit", action="store_true", help="long-run limit")
    common(p)

    p = sub.add_parser("compile-bn", help="network to loop program")
    p.add_argument("network", help="network JSON file")
    p.add_argument("-o", "--output", default=None, help="output file")

    p = sub.add_parser("query", help="run a query document")
    p.add_argument("network", help="network JSON file")
    p.add_argument("--spec", required=True,
                   help="query JSON, inline or a file path")
    common(p)

    p = sub.add_parser("samples", help="expected rejection samples")
    p.add_argument("network", help="network JSON file")
    p.add_argument("--evidence", required=True,
                   help='evidence, e.g. "M=1,J=1" or JSON')
    common(p)

    p = sub.add_parser("filter", help="forward filtering")
    p.add_argument("network", help="dynamic network JSON file")
    p.add_argument("--obs", required=True,
                   help='observations, e.g. "U=1; U=1" or a JSON list')
    common(p)

    p = sub.add_parser("check", help="differential tests against oracles")
    p.add_argument("network", help="network JSON file")
    p.add_argument("--mc", type=int, default=None, metavar="N",
                   help="add Monte Carlo comparison with N samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit JSON")
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command is None:
            raise InputError("pick a subcommand (try --help)")
        handler = {
            "analyze": _cmd_analyze,
            "compile-bn": _cmd_compile,
            "query": _cmd_query,
            "samples": _cmd_samples,
            "filter": _cmd_filter,
            "check": _cmd_check,
        }[args.command]
        return handler(args)
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot decode {path}: {exc}") from exc


def _load_net(path: str):
    try:
        return load_bn_path(path)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc


def _parse_bindings(pairs: Sequence[str]) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise InputError(f'bad --param {item!r}; expected NAME=VALUE')
        if name in out:
            raise InputError(f"--param {name} given twice")
        out[name] = read_number(value, f"--param {name}", InputError)
    return out


def _emit(doc: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, indent=2))
        return
    for key, value in doc.items():
        if isinstance(value, list):
            if not value:
                print(f"{key}: (none)")
                continue
            print(f"{key}:")
            for item in value:
                print(f"  {item}")
        else:
            print(f"{key}: {value}")


def _value_fields(value, digits: int) -> dict:
    out = {"exact": _exact_str(value)}
    dec = decimal_or_none(value, digits)
    if dec is not None:
        out["decimal"] = dec
    return out


def _cmd_analyze(args) -> int:
    source = _read(args.program)
    prog = parse_program(source)
    bindings = _parse_bindings(args.param)
    if args.k < 1:
        raise InputError(f"moment order must be positive, got {args.k}")
    goal = parse_poly(
        args.goal, prog.variables, tuple(p.name for p in prog.params)
    ) ** args.k
    engine = MomentEngine(bind(prog, bindings))
    result = predict_loop(engine, goal.substitute(bindings), args.at, args.limit)
    doc: dict = {"goal": f"E[({args.goal})^{args.k}]" if args.k > 1 else f"E[{args.goal}]"}
    if args.at is not None:
        doc.update(_value_fields(result.value, args.digits))
        doc["at"] = args.at
    elif not args.limit:
        doc["closed_form"] = str(result.value)
    elif result.value is None:
        doc["exact"] = "diverges"
    else:
        doc.update(_value_fields(result.value, args.digits))
    doc["assumptions"] = list(result.assumptions)
    _emit(doc, args.json)
    return 0


def _cmd_compile(args) -> int:
    bn = _load_net(args.network)
    prog = compile_dynbn(bn) if isinstance(bn, DynBayesNet) else compile_bn(bn)
    text = pretty(prog)
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc.strerror}") from exc
    else:
        print(text, end="")
    return 0


def _cmd_query(args) -> int:
    bn = _load_net(args.network)
    raw = args.spec.strip()
    if not raw.startswith("{"):
        raw = _read(args.spec)
    spec = parse_json(raw, "query spec", "query spec is not valid JSON")
    result = run_query(bind_net(bn, _parse_bindings(args.param)), spec)
    _emit(result.to_json(args.digits), args.json)
    return 0


def _parse_conj(text: str) -> dict:
    text = text.strip()
    if text.startswith("{"):
        return parse_json(text, "evidence", "evidence is not valid JSON")
    out: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, value = part.partition("=")
        if not sep:
            raise InputError(f'bad evidence item {part!r}; expected NAME=VALUE')
        name = name.strip()
        if name in out:
            raise InputError(f"evidence lists {name} twice")
        out[name] = _state(value.strip())
    if not out:
        raise InputError("empty evidence")
    return out


def _state(text: str):
    if not text.lstrip("-").isdecimal():
        return text
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise InputError(
            f"evidence state has more than {sys.get_int_max_str_digits()} digits"
        ) from None


def _cmd_samples(args) -> int:
    bn = bind_net(_load_net(args.network), _parse_bindings(args.param))
    result = expected_samples(bn, _parse_conj(args.evidence))
    _emit(result.to_json(args.digits), args.json)
    return 0


def _parse_obs(text: str) -> list:
    text = text.strip()
    if text.startswith("["):
        steps = parse_json(text, "observations", "observations are not valid JSON")
        if not isinstance(steps, list):
            raise InputError("observations must be a JSON list of objects")
        return steps
    steps = []
    for step in text.split(";"):
        step = step.strip()
        steps.append({} if not step else _parse_conj(step))
    return steps


def _cmd_filter(args) -> int:
    bn = bind_net(_load_net(args.network), _parse_bindings(args.param))
    result = forward_filter(bn, _parse_obs(args.obs))
    doc = result.to_json(args.digits)
    steps = []
    for t, row in enumerate(result.value, start=1):
        fields = _value_fields(row, args.digits)
        steps.append(f"step {t}: {fields.get('decimal', fields['exact'])}")
    doc["steps"] = steps
    _emit(doc, args.json)
    return 0


def _cmd_check(args) -> int:
    from . import oracle  # only `check` needs the oracles

    bn = _load_net(args.network)
    if args.mc is not None and args.mc < 1:
        raise InputError(f"--mc must be positive, got {args.mc}")
    lines = oracle.differential_check(bn, mc_samples=args.mc, seed=args.seed)
    doc = {
        "network": args.network,
        "checks": [
            f"{'ok  ' if l.ok else 'FAIL'} {l.label}: engine {l.engine}, "
            f"oracle {l.oracle}"
            for l in lines
        ],
        "passed": sum(l.ok for l in lines),
        "failed": sum(not l.ok for l in lines),
    }
    _emit(doc, args.json)
    if any(not l.ok for l in lines):
        raise InternalCheckError(
            f"{doc['failed']} differential check(s) failed on {args.network}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
