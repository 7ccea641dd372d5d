"""Evaluation of flat expressions under a concrete assignment, and solution
checking against a flat model.

Values come as one vector.  Every element of every flat variable has a
slot, in the order of ``fm.variables`` and, within a variable, of
``iter_indices``, which is also the order of the solver's decision cells.
A flat expression is compiled once, on an explicit stack, into a closure
over that vector: ``_FlatCompiler.compile(e)(values)`` is the value of
``e``.  Its base ``ExprCompiler`` compiles the operators, and the model
interpreter's compiler is a second subclass, so both oracles share them.
A constant reference reads its slot; a constant reference to a table
element is looked up while compiling.  A variable subscript computes its
offset axis by axis with strides, as ``Table.lookup`` does.  A chain of
``+``, ``-`` and unary minus down a left spine is one closure that adds its
terms left to right, so a long sum costs no recursion to compile or to
evaluate.  A closure's environment tuple is also its memo key, so
structurally equal subtrees share one closure and no other key is built.

``compile_check`` compiles a model's constraints and domain checks on first
use and keeps them on the model (``FlatModel._check``) for
``check_solution`` and the brute-force oracle.  ``check_solution`` takes a
value vector, or a ``Solution`` whose dict it lays out in slot order;
``eval_expr`` lays out its assignment dict the same way, compiles and
calls.  Errors are raised by the closures when a node is evaluated, never
while compiling, so ``false and a.b = 1`` is simply false.

This evaluator is deliberately independent of the solver's propagation
machinery: the solver re-checks every solution it emits through this code
path, and the brute-force enumeration oracles are built on it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import prod
from types import MethodType
from typing import Callable, Mapping, Sequence

from .errors import ContractError, EvalError, OutOfBoundsError
from .ir import BOOL, FlatModel, INT, Solution, SolutionKey, Table, iter_indices
from .nodes import (
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

Closure = Callable[[Sequence], object]


def eval_expr(expr: Expr, asg, tables: Mapping[str, Table] | None = None):
    """Evaluate ``expr`` (over flat variables) under a total assignment.

    ``asg`` maps ``(name, index_tuple)`` to values; ``tables`` supplies the
    constant arrays.  Integer division must be exact; real comparisons use an
    absolute tolerance of 1e-9.
    """
    values = asg.values if isinstance(asg, Solution) else asg
    layout, vector = _assignment_layout(values)
    return _FlatCompiler(tables or {}, layout).compile(expr)(vector)


def arith(e: BinOp, a, b):
    """The value of ``e``, one of ``+ - * /``, given its operand values.

    Integer division must be exact; a non-number operand, division by zero
    and inexact integer division raise ``EvalError``.
    """
    op = e.op
    _numbers(op, a, b)
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


def _numbers(op: str, a, b) -> None:
    for v in (a, b):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise EvalError(f"'{op}' applied to a non-number")


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


class _Layout:
    """Where each element's value sits in a value vector.  ``keys`` names
    each slot; ``boxes`` maps a name to the first slot and the shape of its
    elements, which fill consecutive slots in row-major order.  A slot of a
    name in ``incomplete`` may hold ``_MISSING``."""

    def __init__(self):
        self.keys: list[SolutionKey] = []
        self.slots: dict[SolutionKey, int] = {}
        self.boxes: dict[str, tuple[int, tuple[int, ...]]] = {}
        self.incomplete: set[str] = set()

    def add(self, name: str, dims: tuple[int, ...], complete: bool = True) -> None:
        self.boxes.setdefault(name, (len(self.keys), dims))
        if not complete:
            self.incomplete.add(name)
        for idx in iter_indices(dims):
            self.add_key((name, idx))

    def add_key(self, key: SolutionKey) -> None:
        self.slots.setdefault(key, len(self.keys))
        self.keys.append(key)


def _assignment_layout(values: Mapping) -> tuple[_Layout, list]:
    """A layout for an assignment dict and its value vector.  The keys of
    one name whose indices are positive and as many as its first such key's
    fill a box as wide as their largest index on each axis; the box's other
    slots hold ``_MISSING``.  Any other key gets a slot of its own."""
    by_name: dict[str, list] = {}
    for name, idx in values:
        by_name.setdefault(name, []).append(idx)
    layout, loose = _Layout(), []
    for name, indices in by_name.items():
        box = [idx for idx in indices if all(type(i) is int and i >= 1 for i in idx)]
        box = [idx for idx in box if len(idx) == len(box[0])] if box else []
        if box:
            dims = tuple(map(max, zip(*box)))
            layout.add(name, dims, complete=len(box) == prod(dims))
        loose.extend((name, idx) for idx in indices if (name, idx) not in layout.slots)
    for key in loose:
        layout.add_key(key)
    vector = [_MISSING] * len(layout.keys)
    for key, value in values.items():
        vector[layout.slots[key]] = value
    return layout, vector


def compile_check(fm: FlatModel) -> tuple[list, list, list[Closure]]:
    """``fm``'s compiled check, built on first use and kept on the model: the
    key of each slot, the ``(slot, is_bool, domain)`` domain checks of its
    int/bool elements, and one closure per constraint."""
    if fm._check is None:
        layout = _Layout()
        domains = []
        for var in fm.variables:
            first = len(layout.keys)
            checked = var.base in (INT, BOOL)
            layout.add(var.name, var.shape, complete=checked)
            if checked:
                domains.extend((slot, var.base == BOOL, var.domain)
                               for slot in range(first, len(layout.keys)))
        compile_expr = _FlatCompiler(fm.tables, layout).compile
        fm._check = layout.keys, domains, [compile_expr(c.expr) for c in fm.constraints]
    return fm._check


def check_solution(fm: FlatModel, sol: Solution | Sequence) -> tuple[bool, list[Violation]]:
    """True iff every constraint of ``fm`` holds under ``sol``.

    ``sol`` is a ``Solution`` or a value vector in slot order (that of
    ``fm.variables`` and ``iter_indices``).  The solution must be total over
    the int/bool variables; set- and real-typed values are used when present.
    A value outside its variable's declared domain is reported as a violation
    with index -1; a solution with such a value also reports as violated
    every constraint that cannot be evaluated under it (an index out of
    bounds, say).
    """
    keys, domains, constraints = compile_check(fm)
    if isinstance(sol, Solution):
        given = sol.values
        values = [given.get(key, _MISSING) for key in keys]
    else:
        values = sol
        if len(values) != len(keys):
            raise ContractError(f"{len(values)} values for {len(keys)} elements")
    violations: list[Violation] = []
    for slot, is_bool, domain in domains:
        value = values[slot]
        if value is _MISSING:
            raise ContractError(f"solution misses '{_element_text(keys[slot])}'")
        if not (value in (0, 1) if is_bool else value in domain):
            violations.append(Violation(-1, f"value {value} of '{_element_text(keys[slot])}'"
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


class _Aside:
    """What a closure reads beside its memo key: the node it was compiled
    from, for the text of its errors, and the table its name may fall back
    on.  Every ``_Aside`` equals every other, so an environment that ends in
    one is keyed by its other entries, which decide the node's structure."""

    __slots__ = ("node", "table")

    def __init__(self, node: Expr, table: Table | None = None):
        self.node, self.table = node, table

    def __eq__(self, other) -> bool:
        return isinstance(other, _Aside)

    def __hash__(self) -> int:
        return 0


class ExprCompiler:
    """Compiles expressions into closures over a value vector.  Every
    operator is compiled here; how a reference reads the vector is up to a
    subclass's ``_ref``, which returns the reference's closure or a plan
    (see ``_plan``).

    A closure is a code function bound to its environment tuple,
    ``MethodType(code, env)``: called with the value vector it runs
    ``code(env, values)``.  That is a method object plus one tuple, about
    half the memory of a nested function with a cell per captured value,
    and no slower to call.  The memo maps each code to its closures, keyed
    by their environments, in which child closures compare by identity."""

    def __init__(self):
        self.memo: dict[Callable, dict[tuple, Closure]] = {}

    def compile(self, root: Expr) -> Closure:
        """The closure of ``root``.  Nodes wait on an explicit stack: a node
        that needs its children compiled first is pushed again as
        ``(build, number of children, extra)`` above them, and then built
        from the closures they left on ``done``."""
        done: list[Closure] = []
        stack: list = [root]
        while stack:
            item = stack.pop()
            if type(item) is tuple:
                build, n, extra = item
                args = done[len(done) - n:]
                del done[len(done) - n:]
                done.append(build(extra, args))
                continue
            plan = self._plan(item)
            if type(plan) is tuple:
                build, children, extra = plan
                stack.append((build, len(children), extra))
                stack.extend(reversed(children))
            else:
                done.append(plan)
        return done[0]

    def _plan(self, e: Expr):
        """``e``'s closure if it has no child to compile, else ``(build,
        children, extra)``.  The node classes are disjoint; the commonest
        are tested first."""
        if isinstance(e, Ref):
            return self._ref(e)
        if isinstance(e, BinOp):
            op = e.op
            if op in ("+", "-"):
                return self._sum_plan(e)
            if op in ("and", "or"):
                return self._build_connective, _spine(e), op
            if op == "*":
                return self._build_product, _spine(e), None
            return self._build_binop, (e.left, e.right), e
        if isinstance(e, (IntLit, RealLit, BoolLit)):
            return self.constant(e.value)
        if isinstance(e, UnOp):
            if e.op == "not":
                return self._build_one, (e.operand,), _not
            return self._sum_plan(e)
        if isinstance(e, Call):
            if e.name not in ("cardinality", "alldifferent"):
                return self._fails(f"cannot evaluate global constraint '{e.name}'")
            if not e.args:
                return self._fails(f"'{e.name}' applied to no argument")
            code = _cardinality if e.name == "cardinality" else _alldifferent
            return self._build_one, (e.args[0],), code
        if isinstance(e, SetLit):
            return self._build_set, e.elems, e
        if isinstance(e, ArrayLit):
            return self._build_array, e.elems, None
        return self._fails(f"cannot evaluate {type(e).__name__}")

    def constant(self, value) -> Closure:
        """The closure of ``value``; the repr keeps 1, True, 0.0 and -0.0
        apart."""
        return self._shared(_constant, value, repr(value))

    def slot(self, slot: int) -> Closure:
        """The closure that reads slot ``slot`` of the value vector."""
        return self._shared(_slot, slot)

    def _fails(self, message: str) -> Closure:
        return self._shared(_raise, EvalError, message)

    def _shared(self, code, *env) -> Closure:
        memo = self.memo.get(code)
        if memo is None:
            memo = self.memo[code] = {}
        f = memo.get(env)
        if f is None:
            f = memo[env] = MethodType(code, env)
        return f

    # -- builders: each takes its plan's extra and its children's closures --

    def _build_binop(self, e: BinOp, args: list) -> Closure:
        return self._shared(*_binop(e, *args))

    def _build_connective(self, op: str, fs: list) -> Closure:
        return self._shared(_connective, tuple(fs), op == "or", op)

    def _build_product(self, _, fs: list) -> Closure:
        return self._shared(_product, fs[0], tuple(fs[1:]))

    def _build_one(self, code, args: list) -> Closure:
        return self._shared(code, args[0])

    def _build_set(self, e: SetLit, elems: list) -> Closure:
        return self._shared(_set_lit, tuple(elems), _Aside(e))

    def _build_array(self, _, elems: list) -> Closure:
        return self._shared(_array_lit, tuple(elems))

    def _sum_plan(self, e: Expr) -> tuple:
        """A chain of ``+`` and ``-`` down its left spine, or a unary minus,
        as one sum: its terms, and for each but the first the operator that
        adds it.  A unary minus on a term negates it within the sum."""
        ops = []
        while isinstance(e, BinOp) and e.op in ("+", "-"):
            ops.append((e.op, e.right))
            e = e.left
        ops.append((None, e))
        ops.reverse()
        terms, children = [], []
        for op, term in ops:
            neg = isinstance(term, UnOp) and term.op != "not"
            terms.append((op, neg))
            children.append(term.operand if neg else term)
        return self._build_sum, children, terms

    def _build_sum(self, terms: list, fs: list) -> Closure:
        (_, neg), *rest = terms
        return self._shared(_sum, fs[0], neg,
                            tuple([(op, n, f) for (op, n), f in zip(rest, fs[1:])]))


class _FlatCompiler(ExprCompiler):
    """Compiles flat expressions over one set of tables and one layout."""

    def __init__(self, tables: Mapping[str, Table], layout: _Layout):
        super().__init__()
        self.tables = tables
        self.slots, self.boxes, self.incomplete = layout.slots, layout.boxes, layout.incomplete

    def _ref(self, e: Ref):
        """A reference with no variable subscript reads its slot; a key
        without one, or a value that may be missing, falls back on the
        whole array or the table element."""
        if len(e.parts) != 1:
            return self._fails(f"reference '{render_expr(e)}' is not flat")
        name, indices = e.parts[0].name, e.parts[0].indices
        if not indices:
            key, missing = (name, ()), self._whole
        else:
            idx = tuple([i.value for i in indices if type(i) is IntLit and type(i.value) is int])
            if len(idx) != len(indices):
                return self._build_subscript, indices, e
            key, missing = (name, idx), self._table_constant
        slot = self.slots.get(key)
        if slot is None:
            return missing(key)
        if name in self.incomplete:
            return self._shared(_slot_or, slot, missing(key))
        return self.slot(slot)

    def _table_constant(self, key: SolutionKey) -> Closure:
        """A table element under a constant index, looked up once."""
        try:
            value = _table_element(self.tables.get(key[0]), *key)
        except OutOfBoundsError:
            return self._shared(_raise, OutOfBoundsError, *key)
        return self._shared(_constant, value, key)

    def _whole(self, key: SolutionKey) -> Closure:
        """An index-free reference that is not a scalar: the elements of a
        variable array in index order (an ``alldifferent`` argument), or a
        table's values."""
        name = key[0]
        table = self.tables.get(name)
        if table is not None:
            fallback = self._shared(_table_values, table.values)
        else:
            fallback = self._fails(f"'{name}' is not assigned")
        box = self.boxes.get(name)
        if box is None or not box[1]:
            return fallback
        first, dims = box
        return self._shared(_elements, first, first + prod(dims), fallback)

    def _build_subscript(self, e: Ref, subs: list) -> Closure:
        """A reference with a variable subscript."""
        name = e.parts[0].name
        table = self.tables.get(name)
        aside, subs = _Aside(e, table), tuple(subs)
        box = self.boxes.get(name)
        if box is not None and len(box[1]) == len(subs):
            return self._shared(_element, box[0], subs, box[1], None, aside)
        if box is None and table is not None and len(table.shape) == len(subs):
            return self._shared(_element, 0, subs, table.shape, name, aside)
        return self._shared(_no_element, name, subs, aside)


def _spine(e: BinOp) -> list[Expr]:
    """The operands of a chain of ``e.op`` down its left spine, left to
    right: ``a or b or c`` gives ``[a, b, c]``."""
    op, operands = e.op, []
    while isinstance(e, BinOp) and e.op == op:
        operands.append(e.right)
        e = e.left
    operands.append(e)
    operands.reverse()
    return operands


def _binop(e: BinOp, left: Closure, right: Closure) -> tuple:
    """The code and environment of a binary operator node that does not
    chain: not ``+``, ``-``, ``*``, ``and`` or ``or``."""
    op = e.op
    if op in _COMPARE:
        return _comparison, op, left, right, _COMPARE[op][0]
    if op == "/":
        return _quotient, left, right, _Aside(e)
    if op in _LOGIC:
        return _logic, op, left, right, _LOGIC[op]
    if op == "in":
        return _member, left, right, _Aside(e)
    if op in _SET_OPS:
        return _set_op, op, left, right, _SET_OPS[op]
    return _unknown, op, left, right


# -- closure code: each runs as ``code(env, values)`` --------------------------


def _raise(env, values):
    raise env[0](*env[1:])


def _constant(env, values):
    return env[0]


def _set_lit(env, values):
    elems, aside = env
    return frozenset(_int(f(values), aside.node) for f in elems)


def _array_lit(env, values):
    return [f(values) for f in env[0]]


def _slot(env, values):
    return values[env[0]]


def _slot_or(env, values):
    slot, fallback = env
    v = values[slot]
    return fallback(values) if v is _MISSING else v


def _elements(env, values):
    first, end, fallback = env
    elems = [v for v in values[first:end] if v is not _MISSING]
    return elems if elems else fallback(values)


def _table_values(env, values):
    return list(env[0])


def _element(env, values):
    """A subscript into a variable's slots, or into the values of the table
    named ``table``: the offset is computed axis by axis with strides."""
    first, subs, dims, table, aside = env
    offset = 0
    for f, n in zip(subs, dims):
        i = f(values)
        if type(i) is not int:
            i = _int(i, aside.node)
        if not 0 < i <= n:
            break
        offset = offset * n + i - 1
    else:
        v = (values if table is None else aside.table.values)[first + offset]
        if v is not _MISSING:
            return v
    return _no_element((aside.node.parts[0].name, subs, aside), values)


def _no_element(env, values):
    """A subscript that names no value: every subscript is read, in order,
    and the index looked up in the name's table, if any."""
    name, subs, aside = env
    index = tuple([_int(f(values), aside.node) for f in subs])
    return _table_element(aside.table, name, index)


def _not(env, values):
    v = env[0](values)
    if not isinstance(v, bool):
        raise EvalError("'not' applied to a non-bool")
    return not v


def _negated(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise EvalError("negation applied to a non-number")
    return -v


def _sum(env, values):
    """Terms added left to right, each checked as ``arith`` checks the
    operands of its operator."""
    f, neg, rest = env
    a = f(values)
    if neg:
        a = _negated(a)
    for op, neg, f in rest:
        b = f(values)
        if neg:
            b = _negated(b)
        if type(a) is not int or type(b) is not int:
            _numbers(op, a, b)
        a = a - b if op == "-" else a + b
    return a


def _product(env, values):
    """Factors multiplied left to right, each pair checked as ``arith``
    checks the operands of ``*``."""
    first, rest = env
    a = first(values)
    for f in rest:
        b = f(values)
        if type(a) is not int or type(b) is not int:
            _numbers("*", a, b)
        a = a * b
    return a


def _quotient(env, values):
    left, right, aside = env
    return arith(aside.node, left(values), right(values))


def _connective(env, values):
    """Operands read left to right until one decides alone (``stop``): the
    value of the chain, or of its last operand."""
    fs, stop, op = env
    for f in fs:
        a = f(values)
        if not isinstance(a, bool):
            raise EvalError(f"'{op}' applied to a non-bool")
        if a is stop:
            return a
    return a


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
    left, right, aside = env
    a, b = left(values), right(values)
    if not isinstance(b, frozenset):
        raise EvalError("'in' needs a set on the right")
    return _int(a, aside.node) in b


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
