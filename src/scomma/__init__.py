"""scomma: an object-oriented constraint modeling language toolchain.

Parse class-based models plus data files, lower them through six flattening
passes into a solver-neutral flat form, then emit target-solver source text
through declarative backend descriptors or solve directly with the embedded
finite-domain engine.
"""

from .analyzer import TypedModel, analyze, linearize_inheritance
from .backend import apply_rewrites, compile_to_target, emit, find_target, list_targets
from .errors import (
    BackendError,
    ContractError,
    EvalError,
    FlattenError,
    OutOfBoundsError,
    ScommaError,
    UnsupportedModelError,
)
from .evaluate import check_solution, eval_expr
from .flatparse import parse_flat
from .flattener import PassTrace, flatten
from .ir import Domain, FlatConstraint, FlatModel, FlatVar, IntInterval, IntSet, RealInterval, Solution, Table
from .nodes import DataFile, Model
from .parser import parse_data, parse_expression, parse_model
from .printer import pretty_print, render_expr
from .solver import SearchConfig, SolveStats, build_space, optimize, solve

__version__ = "0.1.0"

__all__ = [
    "analyze",
    "apply_rewrites",
    "BackendError",
    "build_space",
    "check_solution",
    "compile_to_target",
    "ContractError",
    "DataFile",
    "Domain",
    "emit",
    "EvalError",
    "eval_expr",
    "find_target",
    "FlatConstraint",
    "FlatModel",
    "flatten",
    "FlattenError",
    "FlatVar",
    "IntInterval",
    "IntSet",
    "linearize_inheritance",
    "list_targets",
    "Model",
    "optimize",
    "OutOfBoundsError",
    "parse_data",
    "parse_expression",
    "parse_flat",
    "parse_model",
    "PassTrace",
    "pretty_print",
    "RealInterval",
    "render_expr",
    "ScommaError",
    "SearchConfig",
    "Solution",
    "solve",
    "SolveStats",
    "Table",
    "TypedModel",
    "UnsupportedModelError",
]
