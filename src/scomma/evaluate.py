"""Evaluation of flat expressions under a concrete assignment, and solution
checking against a flat model.

A flat expression is compiled once, bottom-up, into a closure over a value
dict keyed by ``(name, index_tuple)``: ``_Compiler.compile(e)(values)`` is the
value of ``e``.  The compiler's memo is keyed by node kind, operator or name,
and the identities of the children's closures, so structurally equal
subtrees share one closure; each closure captures only what it reads.
``compile_check`` compiles a model's constraints and domain checks on first
use and keeps them on the model (``FlatModel._check``) for
``check_solution`` and the brute-force oracle; ``eval_expr`` compiles and
calls.  Errors are raised by the closures when a node is evaluated, never
while compiling, so ``false and a.b = 1`` is simply false.

This evaluator is deliberately independent of the solver's propagation
machinery: the solver re-checks every solution it emits through this code
path, and the brute-force enumeration oracles are built on it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from types import MethodType
from typing import Callable, Mapping

from .errors import ContractError, EvalError, OutOfBoundsError
from .ir import BOOL, FlatModel, INT, Solution, Table, iter_indices
from .nodes import (
    ARITH_OPS,
    ArrayLit,
    BinOp,
    BoolLit,
    Call,
    Expr,
    IntLit,
    RealLit,
    Ref,
    SetLit,
    UnOp,
)
from .printer import render_expr

REAL_TOLERANCE = 1e-9

_MISSING = object()

# comparison operator -> (exact test, test within REAL_TOLERANCE)
_COMPARE = {
    "=": (operator.eq, lambda a, b: abs(a - b) <= REAL_TOLERANCE),
    "<>": (operator.ne, lambda a, b: abs(a - b) > REAL_TOLERANCE),
    "<": (operator.lt, lambda a, b: b - a > REAL_TOLERANCE),
    ">": (operator.gt, lambda a, b: a - b > REAL_TOLERANCE),
    "<=": (operator.le, lambda a, b: a - b <= REAL_TOLERANCE),
    ">=": (operator.ge, lambda a, b: b - a <= REAL_TOLERANCE),
}

# logic operators that evaluate both sides; "and"/"or" short-circuit instead
_LOGIC = {
    "xor": operator.ne,
    "->": lambda a, b: (not a) or b,
    "<-": lambda a, b: a or (not b),
    "<->": operator.eq,
}

# set operators over two sets; "in" takes an integer on the left
_SET_OPS = {
    "union": operator.or_,
    "diff": operator.sub,
    "symdiff": operator.xor,
    "intersection": operator.and_,
    "subset": operator.le,
    "superset": operator.ge,
}

Closure = Callable[[Mapping], object]


def eval_expr(expr: Expr, asg, tables: Mapping[str, Table] | None = None):
    """Evaluate ``expr`` (over flat variables) under a total assignment.

    ``asg`` maps ``(name, index_tuple)`` to values; ``tables`` supplies the
    constant arrays.  Integer division must be exact; real comparisons use an
    absolute tolerance of 1e-9.
    """
    values = asg.values if isinstance(asg, Solution) else asg
    return _Compiler(tables or {}).compile(expr)(values)


def arith(e: BinOp, a, b):
    """The value of ``e``, one of ``+ - * /``, given its operand values.

    Integer division must be exact; a non-number operand, division by zero
    and inexact integer division raise ``EvalError``.
    """
    op = e.op
    for v in (a, b):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise EvalError(f"'{op}' applied to a non-number")
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0:
        raise EvalError(f"division by zero in {render_expr(e)}")
    if isinstance(a, int) and isinstance(b, int):
        if a % b:
            raise EvalError(f"inexact integer division {a}/{b} in {render_expr(e)}")
        return a // b
    return a / b


def _compare(op: str, a, b) -> bool:
    """``a op b`` for a comparison operator: sets and bools only under ``=``
    and ``<>``, numbers with a tolerance when either side is real."""
    exact, tolerant = _COMPARE[op]
    if isinstance(a, frozenset) or isinstance(b, frozenset):
        if not (isinstance(a, frozenset) and isinstance(b, frozenset)):
            raise EvalError("set compared with a non-set")
        if op not in ("=", "<>"):
            raise EvalError(f"'{op}' is not a set comparison")
    elif isinstance(a, bool) or isinstance(b, bool):
        if op not in ("=", "<>") or not (isinstance(a, bool) and isinstance(b, bool)):
            raise EvalError(f"'{op}' applied to a bool")
    elif isinstance(a, float) or isinstance(b, float):
        return tolerant(a, b)
    return exact(a, b)


@dataclass
class Violation:
    index: int
    text: str

    def __str__(self) -> str:
        return f"constraint {self.index}: {self.text}"


def compile_check(fm: FlatModel) -> tuple[list, list[Closure]]:
    """``fm``'s compiled check, built on first use and kept on the model: the
    ``(key, is_bool, domain)`` domain checks of its int/bool elements and one
    closure per constraint."""
    if fm._check is None:
        domains = [
            ((var.name, idx), var.base == BOOL, var.domain)
            for var in fm.variables
            if var.base in (INT, BOOL)
            for idx in iter_indices(var.shape)
        ]
        compile_expr = _Compiler(fm.tables).compile
        fm._check = domains, [compile_expr(c.expr) for c in fm.constraints]
    return fm._check


def check_solution(fm: FlatModel, sol: Solution) -> tuple[bool, list[Violation]]:
    """True iff every constraint of ``fm`` holds under ``sol``.

    The solution must be total over the int/bool variables; set- and
    real-typed values are used when present.  A value outside its variable's
    declared domain is reported as a violation with index -1; a solution
    with such a value also reports as violated every constraint that cannot
    be evaluated under it (an index out of bounds, say).
    """
    domains, constraints = compile_check(fm)
    values = sol.values
    violations: list[Violation] = []
    for key, is_bool, domain in domains:
        value = values.get(key, _MISSING)
        if value is _MISSING:
            raise ContractError(f"solution misses '{_element_text(key)}'")
        if not (value in (0, 1) if is_bool else value in domain):
            violations.append(Violation(-1, f"value {value} of '{_element_text(key)}'"
                                            " lies outside its domain"))
    out_of_domain = bool(violations)
    for i, holds in enumerate(constraints):
        try:
            ok = holds(values)
        except EvalError:
            if not out_of_domain:
                raise
            ok = False
        if not ok:
            violations.append(Violation(i, render_expr(fm.constraints[i].expr)))
    return not violations, violations


def _element_text(key) -> str:
    name, idx = key
    return name + (f"[{','.join(map(str, idx))}]" if idx else "")


def _int(v, e: Expr) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise EvalError(f"expected an integer, got {v!r} in {render_expr(e)}")
    return v


def _table_element(table: Table | None, name: str, index: tuple):
    """``name[index]`` for a name with no value under that index."""
    if table is None:
        raise OutOfBoundsError(name, index)
    try:
        return table.lookup(index)
    except IndexError:
        raise OutOfBoundsError(name, index) from None


def _whole_array(values: Mapping, name: str, table: Table | None):
    """An index-free reference that is not a scalar: the elements of a
    variable array in index order (an ``alldifferent`` argument), or a
    table's values."""
    elems = sorted((k[1], v) for k, v in values.items() if k[0] == name and k[1])
    if elems:
        return [v for _, v in elems]
    if table is not None:
        return list(table.values)
    raise EvalError(f"'{name}' is not assigned")


class _Compiler:
    """Compiles flat expressions over one set of tables into closures.

    A closure is a code function bound to its environment tuple,
    ``MethodType(code, env)``: called with the value dict it runs
    ``code(env, values)``.  That is a method object plus one tuple, about
    half the memory of a nested function with a cell per captured value,
    and no slower to call.  The memo maps a node's kind, operator or name
    and its children's closures (compared by identity) to its closure."""

    def __init__(self, tables: Mapping[str, Table]):
        self.tables = tables
        self.memo: dict[tuple, Closure] = {}

    def compile(self, e: Expr) -> Closure:
        # the node classes are disjoint; the commonest are tested first
        if isinstance(e, Ref):
            return self._ref(e)
        if isinstance(e, BinOp):
            left, right = self.compile(e.left), self.compile(e.right)
            return self._shared((BinOp, e.op, left, right), *_binop(e, left, right))
        if isinstance(e, (IntLit, RealLit, BoolLit)):
            # repr keeps 0.0 and -0.0 apart
            return self._shared((type(e), repr(e.value)), _constant, e.value)
        if isinstance(e, UnOp):
            operand = self.compile(e.operand)
            code = _not if e.op == "not" else _minus
            return self._shared((UnOp, e.op, operand), code, operand)
        if isinstance(e, Call):
            if e.name not in ("cardinality", "alldifferent"):
                return _fails(f"cannot evaluate global constraint '{e.name}'")
            if not e.args:
                return _fails(f"'{e.name}' applied to no argument")
            arg = self.compile(e.args[0])
            code = _cardinality if e.name == "cardinality" else _alldifferent
            return self._shared((Call, e.name, arg), code, arg)
        if isinstance(e, SetLit):
            elems = tuple(self.compile(x) for x in e.elems)
            return self._shared((SetLit, *elems), _set_lit, e, elems)
        if isinstance(e, ArrayLit):
            elems = tuple(self.compile(x) for x in e.elems)
            return self._shared((ArrayLit, *elems), _array_lit, elems)
        return _fails(f"cannot evaluate {type(e).__name__}")

    def _shared(self, key: tuple, code, *env) -> Closure:
        f = self.memo.get(key)
        if f is None:
            f = self.memo[key] = MethodType(code, env)
        return f

    def _ref(self, e: Ref) -> Closure:
        if len(e.parts) != 1:
            return _fails(f"reference '{render_expr(e)}' is not flat")
        name, indices = e.parts[0].name, e.parts[0].indices
        table = self.tables.get(name)
        if not indices:
            return self._shared((Ref, name), _scalar_ref, (name, ()), table)
        if all(type(i) is IntLit and type(i.value) is int for i in indices):
            key = (name, tuple(i.value for i in indices))
            return self._shared((Ref, *key), _constant_ref, key, table)
        subs = tuple(self.compile(i) for i in indices)
        return self._shared((Ref, name, *subs), _indexed_ref, e, name, subs, table)


def _binop(e: BinOp, left: Closure, right: Closure) -> tuple:
    """The code and environment of a binary operator node."""
    op = e.op
    if op in ("and", "or"):
        return _connective, op, left, right, op == "or"
    if op in ARITH_OPS:
        return _arith, e, left, right
    if op in _COMPARE:
        return _comparison, op, left, right, _COMPARE[op][0]
    if op in _LOGIC:
        return _logic, op, left, right, _LOGIC[op]
    if op == "in":
        return _member, e, left, right
    if op in _SET_OPS:
        return _set_op, op, left, right, _SET_OPS[op]
    return _unknown, op, left, right


def _fails(message: str) -> Closure:
    return MethodType(_fail, (message,))


# -- closure code: each runs as ``code(env, values)`` --------------------------


def _fail(env, values):
    raise EvalError(env[0])


def _constant(env, values):
    return env[0]


def _set_lit(env, values):
    e, elems = env
    return frozenset(_int(f(values), e) for f in elems)


def _array_lit(env, values):
    return [f(values) for f in env[0]]


def _scalar_ref(env, values):
    key, table = env
    v = values.get(key, _MISSING)
    return _whole_array(values, key[0], table) if v is _MISSING else v


def _constant_ref(env, values):
    key, table = env
    v = values.get(key, _MISSING)
    return _table_element(table, *key) if v is _MISSING else v


def _indexed_ref(env, values):
    e, name, subs, table = env
    index = tuple([_int(f(values), e) for f in subs])
    v = values.get((name, index), _MISSING)
    return _table_element(table, name, index) if v is _MISSING else v


def _not(env, values):
    v = env[0](values)
    if not isinstance(v, bool):
        raise EvalError("'not' applied to a non-bool")
    return not v


def _minus(env, values):
    v = env[0](values)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise EvalError("negation applied to a non-number")
    return -v


def _connective(env, values):
    op, left, right, stop = env  # stop: the left value that decides alone
    a = left(values)
    if not isinstance(a, bool):
        raise EvalError(f"'{op}' applied to a non-bool")
    if a is stop:
        return a
    b = right(values)
    if not isinstance(b, bool):
        raise EvalError(f"'{op}' applied to a non-bool")
    return b


def _arith(env, values):
    e, left, right = env
    return arith(e, left(values), right(values))


def _comparison(env, values):
    op, left, right, exact = env
    a, b = left(values), right(values)
    if type(a) is int and type(b) is int:
        return exact(a, b)
    return _compare(op, a, b)


def _logic(env, values):
    op, left, right, fn = env
    a, b = left(values), right(values)
    if not (isinstance(a, bool) and isinstance(b, bool)):
        raise EvalError(f"'{op}' applied to a non-bool")
    return fn(a, b)


def _member(env, values):
    e, left, right = env
    a, b = left(values), right(values)
    if not isinstance(b, frozenset):
        raise EvalError("'in' needs a set on the right")
    return _int(a, e) in b


def _set_op(env, values):
    op, left, right, fn = env
    a, b = left(values), right(values)
    if not (isinstance(a, frozenset) and isinstance(b, frozenset)):
        raise EvalError(f"'{op}' needs set operands")
    return fn(a, b)


def _unknown(env, values):
    op, left, right = env
    left(values)
    right(values)
    raise EvalError(f"unknown operator '{op}'")


def _cardinality(env, values):
    v = env[0](values)
    if not isinstance(v, frozenset):
        raise EvalError("cardinality of a non-set")
    return len(v)


def _alldifferent(env, values):
    elems = env[0](values)
    if not isinstance(elems, list):
        raise EvalError("alldifferent needs an array argument")
    return len(set(elems)) == len(elems)
