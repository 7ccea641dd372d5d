"""Evaluation of flat expressions under a concrete assignment, and solution
checking against a flat model.

This evaluator is deliberately independent of the solver's propagation
machinery: the solver re-checks every solution it emits through this code
path, and the brute-force enumeration oracles are built on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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


def _as_mapping(asg) -> Mapping:
    if isinstance(asg, Solution):
        return asg.values
    return asg


def eval_expr(expr: Expr, asg, tables: Mapping[str, Table] | None = None):
    """Evaluate ``expr`` (over flat variables) under a total assignment.

    ``asg`` maps ``(name, index_tuple)`` to values; ``tables`` supplies the
    constant arrays.  Integer division must be exact; real comparisons use an
    absolute tolerance of 1e-9.
    """
    return _Evaluator(_as_mapping(asg), tables or {}).eval(expr)


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


@dataclass
class Violation:
    index: int
    text: str

    def __str__(self) -> str:
        return f"constraint {self.index}: {self.text}"


def check_solution(fm: FlatModel, sol: Solution) -> tuple[bool, list[Violation]]:
    """True iff every constraint of ``fm`` holds under ``sol``.

    The solution must be total over the int/bool variables; set- and
    real-typed values are used when present.  A value outside its variable's
    declared domain is reported as a violation with index -1.
    """
    violations: list[Violation] = []
    for var in fm.variables:
        if var.base not in (INT, BOOL):
            continue
        for idx in iter_indices(var.shape):
            key = (var.name, idx)
            if key not in sol.values:
                raise ContractError(
                    f"solution misses '{var.name}"
                    + (f"[{','.join(map(str, idx))}]" if idx else "")
                    + "'"
                )
            value = sol.values[key]
            in_domain = (
                value in (0, 1) if var.base == BOOL else value in var.domain
            )
            if not in_domain:
                element = var.name + (f"[{','.join(map(str, idx))}]" if idx else "")
                violations.append(Violation(-1, f"value {value} of '{element}'"
                                                " lies outside its domain"))
    ev = _Evaluator(sol.values, fm.tables)
    for i, con in enumerate(fm.constraints):
        if not ev.eval(con.expr):
            violations.append(Violation(i, render_expr(con.expr)))
    return not violations, violations


class _Evaluator:
    def __init__(self, values: Mapping, tables: Mapping[str, Table]):
        self.values = values
        self.tables = tables

    def eval(self, e: Expr):
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, RealLit):
            return e.value
        if isinstance(e, BoolLit):
            return e.value
        if isinstance(e, SetLit):
            return frozenset(self._int(self.eval(x), e) for x in e.elems)
        if isinstance(e, Ref):
            return self._ref(e)
        if isinstance(e, UnOp):
            return self._unop(e)
        if isinstance(e, BinOp):
            return self._binop(e)
        if isinstance(e, Call):
            return self._call(e)
        if isinstance(e, ArrayLit):
            return [self.eval(x) for x in e.elems]
        raise EvalError(f"cannot evaluate {type(e).__name__}")

    # -- helpers ---------------------------------------------------------------

    def _int(self, v, e: Expr) -> int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise EvalError(f"expected an integer, got {v!r} in {render_expr(e)}")
        return v

    def _ref(self, e: Ref):
        if len(e.parts) != 1:
            raise EvalError(f"reference '{render_expr(e)}' is not flat")
        part = e.parts[0]
        index = tuple(self._int(self.eval(i), e) for i in part.indices)
        if part.indices:
            key = (part.name, index)
            if key in self.values:
                return self.values[key]
            table = self.tables.get(part.name)
            if table is not None:
                try:
                    return table.lookup(index)
                except IndexError:
                    raise OutOfBoundsError(part.name, index) from None
            raise OutOfBoundsError(part.name, index)
        key = (part.name, ())
        if key in self.values:
            return self.values[key]
        # whole-array reference (e.g. an alldifferent argument): collect elements
        elems = sorted(
            (k[1], v) for k, v in self.values.items() if k[0] == part.name and k[1]
        )
        if elems:
            return [v for _, v in elems]
        table = self.tables.get(part.name)
        if table is not None:
            return list(table.values)
        raise EvalError(f"'{part.name}' is not assigned")

    def _unop(self, e: UnOp):
        v = self.eval(e.operand)
        if e.op == "not":
            if not isinstance(v, bool):
                raise EvalError("'not' applied to a non-bool")
            return not v
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise EvalError("negation applied to a non-number")
        return -v

    def _num_cmp(self, op: str, a, b) -> bool:
        if isinstance(a, float) or isinstance(b, float):
            if op == "=":
                return abs(a - b) <= REAL_TOLERANCE
            if op == "<>":
                return abs(a - b) > REAL_TOLERANCE
            if op == "<":
                return b - a > REAL_TOLERANCE
            if op == ">":
                return a - b > REAL_TOLERANCE
            if op == "<=":
                return a - b <= REAL_TOLERANCE
            if op == ">=":
                return b - a <= REAL_TOLERANCE
        if op == "=":
            return a == b
        if op == "<>":
            return a != b
        if op == "<":
            return a < b
        if op == ">":
            return a > b
        if op == "<=":
            return a <= b
        return a >= b

    def _binop(self, e: BinOp):
        op = e.op
        if op in ("and", "or"):
            # strict boolean semantics, but short-circuit for speed
            a = self.eval(e.left)
            if not isinstance(a, bool):
                raise EvalError(f"'{op}' applied to a non-bool")
            if op == "and" and not a:
                return False
            if op == "or" and a:
                return True
            b = self.eval(e.right)
            if not isinstance(b, bool):
                raise EvalError(f"'{op}' applied to a non-bool")
            return b
        a = self.eval(e.left)
        b = self.eval(e.right)
        if op in ARITH_OPS:
            return arith(e, a, b)
        if op in ("<", ">", "<=", ">=", "=", "<>"):
            if isinstance(a, frozenset) or isinstance(b, frozenset):
                if not (isinstance(a, frozenset) and isinstance(b, frozenset)):
                    raise EvalError("set compared with a non-set")
                if op == "=":
                    return a == b
                if op == "<>":
                    return a != b
                raise EvalError(f"'{op}' is not a set comparison")
            if isinstance(a, bool) or isinstance(b, bool):
                if op not in ("=", "<>") or not (isinstance(a, bool) and isinstance(b, bool)):
                    raise EvalError(f"'{op}' applied to a bool")
                return (a == b) if op == "=" else (a != b)
            return self._num_cmp(op, a, b)
        if op in ("xor", "->", "<-", "<->"):
            if not (isinstance(a, bool) and isinstance(b, bool)):
                raise EvalError(f"'{op}' applied to a non-bool")
            if op == "xor":
                return a != b
            if op == "->":
                return (not a) or b
            if op == "<-":
                return a or (not b)
            return a == b
        if op in ("union", "diff", "symdiff", "intersection", "in", "subset", "superset"):
            if op == "in":
                if not isinstance(b, frozenset):
                    raise EvalError("'in' needs a set on the right")
                return self._int(a, e) in b
            if not (isinstance(a, frozenset) and isinstance(b, frozenset)):
                raise EvalError(f"'{op}' needs set operands")
            if op == "union":
                return a | b
            if op == "diff":
                return a - b
            if op == "symdiff":
                return a ^ b
            if op == "intersection":
                return a & b
            if op == "subset":
                return a <= b
            return a >= b
        raise EvalError(f"unknown operator '{op}'")

    def _call(self, e: Call):
        if e.name == "cardinality":
            v = self.eval(e.args[0])
            if not isinstance(v, frozenset):
                raise EvalError("cardinality of a non-set")
            return len(v)
        if e.name == "alldifferent":
            elems = self.eval(e.args[0])
            if not isinstance(elems, list):
                raise EvalError("alldifferent needs an array argument")
            return len(set(elems)) == len(elems)
        raise EvalError(f"cannot evaluate global constraint '{e.name}'")
