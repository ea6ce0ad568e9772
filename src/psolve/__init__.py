"""Exact moment analysis of probabilistic loops, with Bayesian networks
compiled to loops so that inference, sensitivity analysis and prediction
reduce to reading off closed-form moments.  Filtering is an exact
chain-rule forward pass over the slice rows of `bayesnet.joint_rows`."""

from .bayesnet import BayesNet, DynBayesNet, load_bn, load_bn_path
from .encode import compile_bn, compile_dynbn, compile_sampling_monitor
from .errors import (
    DegreeCapError,
    InputError,
    InternalCheckError,
    ParseError,
    ProgramError,
    QueryError,
    SchemaError,
    UnsupportedError,
)
from .exppoly import ExpPoly, Limit, expoly_limit
from .moments import MBI, compute_mbis
from .parser import parse_poly, parse_program, parse_ratfun
from .program import LoopProgram, pretty
from .queries import (
    QueryResult,
    conditional_moment,
    expected_samples,
    forward_filter,
    joint_moment,
    node_distribution,
    predict,
    run_query,
    sensitivity,
)
from .recurrence import ClosedForm, solve_first_order
from .symbolic import (
    Monomial,
    Param,
    Polynomial,
    RationalFunction,
    decimal_str,
)

__all__ = [
    "BayesNet",
    "ClosedForm",
    "DegreeCapError",
    "DynBayesNet",
    "ExpPoly",
    "InputError",
    "InternalCheckError",
    "Limit",
    "LoopProgram",
    "MBI",
    "Monomial",
    "Param",
    "ParseError",
    "Polynomial",
    "ProgramError",
    "QueryError",
    "QueryResult",
    "RationalFunction",
    "SchemaError",
    "UnsupportedError",
    "compile_bn",
    "compile_dynbn",
    "compile_sampling_monitor",
    "compute_mbis",
    "conditional_moment",
    "decimal_str",
    "expected_samples",
    "expoly_limit",
    "forward_filter",
    "joint_moment",
    "load_bn",
    "load_bn_path",
    "node_distribution",
    "parse_poly",
    "parse_program",
    "parse_ratfun",
    "predict",
    "pretty",
    "run_query",
    "sensitivity",
    "solve_first_order",
]
