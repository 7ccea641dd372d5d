"""Embedded finite-domain solver: propagation plus depth-first backtracking
search with branch-and-bound optimization.

Domains are bitmasks over an integer base offset, so removal, intersection,
and size are single machine-word-ish operations even in pure Python.  The
consistency levels are deliberately modest (bounds consistency for linear
arithmetic and multiplication, domain consistency for element and the
reified comparisons, pairwise-neq plus a union-size pigeonhole check for
alldifferent); every solution the search emits is re-checked through the
independent expression evaluator before it is handed to the caller.

Each relation is one propagator class, read as ``x REL y + d``: ``_Le``,
``_Eq`` and ``_Ne`` each define their filtering, the test for when the
domains decide them, and their negation.  When the model is compiled, a
strict comparison folds into the offset and ``>=``/``>`` swap their
operands (``x >= y + d`` is ``y <= x - d``), and a reified comparison runs
either the relation or its negation.  The root ``<>`` constraints over one
pair of cells, which all wake on the same fix events, are one ``_Ne`` with a
set of offsets: ``y <> x + e`` is read as ``x <> y - e``, and a fixed side removes
every offset's value from the other in one mask operation.  A reified
``<>`` keeps its single offset.  Equal subexpressions share one cell: the key
of a subexpression is its operator and the cells of its operands, which are
compiled first.  The search keeps its open nodes on an explicit stack, so
the depth of the tree is limited by memory, not by Python's recursion limit.

Linear arithmetic is n-ary, as FlatZinc's ``int_lin_*`` constraints are: a
chain of ``+``, ``-``, unary minus and products with a fixed factor is read,
on an explicit stack, into ``sum(coef * cell) + const``, with the
coefficients of a repeated cell merged, zero coefficients dropped and
literals and fixed cells folded into the constant.  The chain gets one cell
and one ``_Linear`` propagator however long it is, shared through the key
``("lin", terms, const)``.  Each side of a comparison is a cell plus an
offset: a constant is its own cell, ``cell + k`` keeps its cell, and any
other sum is the cell of its terms, its constant moved into the relation's
offset.  Only a product of two free factors (``_Mul``) and a quotient by a
constant get cells of their own.

Propagation is event-based.  Every propagator class names the one kind of
domain change that can make it prune, its propagation condition: ``FIX``
(a cell became fixed: ``<>``, the boolean gates), ``BOUNDS`` (a cell's min
or max moved: ``<=``, ``>=``, linear sums, products) or ``DOMAIN`` (any
value left: ``=``, element, ``alldifferent``).  A reified comparison needs
what its relation and its negation need.  Each cell keeps one watcher list
per condition, made when a propagator with that condition first watches
it (cells and conditions nobody watches share one empty tuple), and a
change wakes only the lists it can concern: a fixed cell wakes all three, a
moved bound wakes bounds and domain watchers, a hole in the middle wakes
domain watchers only.  A propagator whose ``run``
returns True is entailed (subsumed) by the domains it leaves: it is parked
as if it were still queued, so nothing wakes it, and the trail releases it
when the search backtracks past that point.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import ContractError, UnsupportedModelError
from .evaluate import check_solution
from .ir import (
    BOOL,
    FlatModel,
    IntSet,
    REAL,
    SET,
    Solution,
    iter_indices,
)
from .nodes import (
    ArrayLit,
    BinOp,
    BoolLit,
    Call,
    Expr,
    IntLit,
    RealLit,
    Ref,
    UnOp,
)
from .printer import render_expr

INPUT_ORDER = "input_order"
FIRST_FAIL = "first_fail"
VALUE_MIN = "min"
VALUE_MAX = "max"


@dataclass
class SearchConfig:
    var_order: str = FIRST_FAIL
    value_order: str = VALUE_MIN
    solution_limit: int | None = None
    time_limit: float | None = None

    def __post_init__(self) -> None:
        if self.solution_limit is not None and self.solution_limit < 1:
            raise ContractError("solution_limit must be >= 1")
        if self.time_limit is not None and not self.time_limit > 0:  # NaN too
            raise ContractError("time_limit must be positive")


@dataclass
class SolveStats:
    nodes: int = 0
    failures: int = 0
    propagations: int = 0
    wall_time: float = 0.0

    def as_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "failures": self.failures,
            "propagations": self.propagations,
            "wall_time": round(self.wall_time, 6),
        }


class _Fail(Exception):
    pass


# Propagation conditions, and the events that meet them: a propagator with
# condition C is woken by every event E <= C, so a fixed cell wakes all.
FIX, BOUNDS, DOMAIN = 0, 1, 2
_UNWATCHED = ((), (), ())  # the watchers of a cell nothing watches


class SolverSpace:
    """Variable domains plus a propagator network compiled from a flat model."""

    def __init__(self, fm: FlatModel):
        self.fm = fm
        self.base: list[int] = []
        self.mask: list[int] = []
        # per cell, per event: the propagators that event wakes; a cell or
        # an event that nothing watches holds the shared empty tuple
        self.watchers: list = []
        self.props: list = []
        # (cell, its old mask), or (propagator, None) for a parked propagator
        self.trail: list[tuple[int, int | None]] = []
        self.queue: deque[int] = deque()
        self.queued: list[bool] = []  # in the queue, or parked
        self.decision_cells: list[tuple[str, tuple[int, ...], int]] = []
        self.root_failed = False
        self.propagation_count = 0
        self._const_cells: dict[int, int] = {}
        self._shared: dict[tuple, int] = {}  # subexpression key -> its cell
        self._root_ne: dict[tuple[int, int], _Ne] = {}  # (x, y) -> root x <> y + d
        self._build()

    # -- cell primitives --------------------------------------------------------

    def new_cell(self, lo: int, hi: int, holes: set[int] | None = None) -> int:
        mask = (1 << (hi - lo + 1)) - 1
        if holes:
            for v in holes:
                if lo <= v <= hi:
                    mask &= ~(1 << (v - lo))
        self.base.append(lo)
        self.mask.append(mask)
        self.watchers.append(_UNWATCHED)
        return len(self.base) - 1

    def const_cell(self, value: int) -> int:
        cell = self._const_cells.get(value)
        if cell is None:
            cell = self.new_cell(value, value)
            self._const_cells[value] = cell
        return cell

    def cell_min(self, c: int) -> int:
        m = self.mask[c]
        return self.base[c] + ((m & -m).bit_length() - 1)

    def cell_max(self, c: int) -> int:
        return self.base[c] + self.mask[c].bit_length() - 1

    def cell_size(self, c: int) -> int:
        return self.mask[c].bit_count()

    def cell_fixed(self, c: int) -> bool:
        m = self.mask[c]
        return m != 0 and (m & (m - 1)) == 0

    def cell_value(self, c: int) -> int:
        return self.cell_min(c)

    def cell_values(self, c: int) -> list[int]:
        out = []
        m = self.mask[c]
        b = self.base[c]
        while m:
            low = m & -m
            out.append(b + low.bit_length() - 1)
            m ^= low
        return out

    def _set_mask(self, c: int, new_mask: int) -> None:
        old = self.mask[c]
        if new_mask == old:
            return
        if new_mask == 0:
            raise _Fail()
        self.trail.append((c, old))
        self.mask[c] = new_mask
        if not new_mask & (new_mask - 1):
            event = FIX
        elif old & -old != new_mask & -new_mask or old.bit_length() != new_mask.bit_length():
            event = BOUNDS  # the lowest or the highest value left
        else:
            event = DOMAIN
        queued = self.queued
        for p in self.watchers[c][event]:
            if not queued[p]:
                queued[p] = True
                self.queue.append(p)

    def remove_value(self, c: int, v: int) -> None:
        off = v - self.base[c]
        if off >= 0 and (self.mask[c] >> off) & 1:
            self._set_mask(c, self.mask[c] & ~(1 << off))

    def remove_below(self, c: int, lb: int) -> None:
        off = lb - self.base[c]
        if off > 0:
            self._set_mask(c, self.mask[c] & ~((1 << off) - 1))

    def remove_above(self, c: int, ub: int) -> None:
        off = ub - self.base[c]
        if off < 0:
            raise _Fail()
        width = self.mask[c].bit_length()
        if off + 1 < width:
            self._set_mask(c, self.mask[c] & ((1 << (off + 1)) - 1))

    def assign(self, c: int, v: int) -> None:
        off = v - self.base[c]
        if off < 0 or not (self.mask[c] >> off) & 1:
            raise _Fail()
        self._set_mask(c, 1 << off)

    # -- propagation --------------------------------------------------------------

    def add_prop(self, prop) -> None:
        prop_id = len(self.props)
        self.props.append(prop)
        for c in prop.cells:
            lists = self.watchers[c]
            if lists is _UNWATCHED:
                lists = self.watchers[c] = list(_UNWATCHED)
            for event in range(prop.wake + 1):
                if not lists[event]:  # the shared empty tuple
                    lists[event] = []
                lists[event].append(prop_id)
        self.queued.append(True)
        self.queue.append(prop_id)

    def propagate(self) -> bool:
        """Run to fixpoint; False on wipeout.  Domains only shrink."""
        queue, queued, props = self.queue, self.queued, self.props
        try:
            while queue:
                prop_id = queue.popleft()
                queued[prop_id] = False
                self.propagation_count += 1
                # entailed, and not re-queued by its own changes: park it
                if props[prop_id].run(self) and not queued[prop_id]:
                    queued[prop_id] = True
                    self.trail.append((prop_id, None))
        except _Fail:
            for prop_id in queue:
                queued[prop_id] = False
            queue.clear()
            return False
        return True

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int) -> None:
        trail, mask = self.trail, self.mask
        while len(trail) > mark:
            c, old = trail.pop()
            if old is None:
                self.queued[c] = False  # release a parked propagator
            else:
                mask[c] = old

    # -- model compilation ----------------------------------------------------------

    def _build(self) -> None:
        fm = self.fm
        unsupported: list[str] = []
        for var in fm.variables:
            if var.base == REAL:
                unsupported.append(f"real decision variable '{var.name}'")
            elif var.base == SET:
                unsupported.append(f"set-of-int decision variable '{var.name}'")
        for con in fm.constraints:
            expr = con.expr
            if isinstance(expr, Call) and expr.name == "cumulatives":
                unsupported.append("global constraint 'cumulatives'")
        if unsupported:
            raise UnsupportedModelError(unsupported)

        self._cells_by_key: dict[tuple[str, tuple[int, ...]], int] = {}
        for var in fm.variables:
            dom = var.domain
            if var.base == BOOL:
                lo, hi, holes = 0, 1, None
            elif isinstance(dom, IntSet):
                lo, hi = min(dom.members), max(dom.members)
                holes = set(range(lo, hi + 1)) - set(dom.members)
            else:
                lo, hi, holes = dom.lo, dom.hi, None
            for idx in iter_indices(var.shape):
                cell = self.new_cell(lo, hi, holes)
                self._cells_by_key[(var.name, idx)] = cell
                self.decision_cells.append((var.name, idx, cell))

        try:
            for con in fm.constraints:
                self._post(con.expr)
            if fm.objective is not None:
                self.objective_cell = self._compile_int(fm.objective.expr)
            else:
                self.objective_cell = None
        except _Fail:
            self.root_failed = True

    def _is_boolish(self, e: Expr) -> bool:
        if isinstance(e, BoolLit):
            return True
        if isinstance(e, UnOp) and e.op == "not":
            return True
        if isinstance(e, BinOp) and (e.op in _RELATIONS or e.op in _GATES):
            return True
        if isinstance(e, Ref):
            var = self.fm.var_named(e.parts[0].name)
            return var is not None and var.base == BOOL
        return False

    def _relation(self, e: BinOp) -> tuple:
        """The comparison ``e`` as ``(relation, x, y, d)``, read as
        ``x REL y + d``; the tuple is also the key of its reified cell."""
        rel, fold, swap = _RELATIONS[e.op]
        if self._is_boolish(e.left) or self._is_boolish(e.right):
            x, y, d = self._compile_bool(e.left), self._compile_bool(e.right), 0
        else:
            x, dx = self._operand(e.left)
            y, dy = self._operand(e.right)
            d = dy - dx
        if swap:  # x >= y + d is y <= x - d
            x, y, d = y, x, -d
        return (rel, x, y, d + fold)

    def _operand(self, e: Expr) -> tuple[int, int]:
        """One side of a comparison as ``(cell, offset)``: a constant is its
        own cell, ``cell + k`` keeps its cell, and any other sum becomes the
        cell of its terms, its constant the offset."""
        terms, const = self._linear(e)
        if not terms:
            return self.const_cell(const), 0
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1], const
        return self._sum_cell(terms, 0), const

    def _linear(self, e: Expr) -> tuple[tuple[tuple[int, int], ...], int]:
        """``e`` as ``sum(coef * cell) + const``, reading through ``+``,
        ``-``, unary minus and products with a fixed factor; anything else is
        compiled to a cell of its own.  A repeated cell has its coefficients
        merged, a zero coefficient is dropped, and a literal or a fixed cell
        goes into the constant.  The terms come sorted by cell, so a sum
        written in another order has the same key.  The chain is walked on
        an explicit stack, so a long sum costs no recursion; only the
        factors of a product are read by calls of their own."""
        coefs: dict[int, int] = {}
        const = 0
        stack = [(e, 1)]
        while stack:
            e, k = stack.pop()
            if isinstance(e, Ref):
                cell = self._compile_ref(e)
            elif isinstance(e, IntLit):
                const += k * e.value
                continue
            elif isinstance(e, BinOp) and e.op in ("+", "-"):
                stack.append((e.right, -k if e.op == "-" else k))
                stack.append((e.left, k))
                continue
            elif isinstance(e, UnOp) and e.op == "neg":
                stack.append((e.operand, -k))
                continue
            elif isinstance(e, BinOp) and e.op == "*":
                left, right = self._linear(e.left), self._linear(e.right)
                if left[0] and right[0]:  # two free factors
                    cell = self._compile_arith(e)
                else:  # a fixed factor scales the other one
                    (terms, c), factor = (left, right[1]) if left[0] else (right, left[1])
                    factor *= k
                    const += factor * c
                    for coef, cell in terms:
                        coefs[cell] = coefs.get(cell, 0) + factor * coef
                    continue
            else:
                cell = self._compile_int(e)
            if self.cell_fixed(cell):
                const += k * self.cell_value(cell)
            else:
                coefs[cell] = coefs.get(cell, 0) + k
        return tuple([(coef, cell) for cell, coef in sorted(coefs.items()) if coef]), const

    def _sum_cell(self, terms: tuple[tuple[int, int], ...], const: int) -> int:
        """The cell of ``sum(coef * cell) + const``."""
        if not terms:
            return self.const_cell(const)
        if const == 0 and len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        lo = hi = const
        for coef, c in terms:
            a, b = coef * self.cell_min(c), coef * self.cell_max(c)
            lo += min(a, b)
            hi += max(a, b)
        return self._defined(("lin", terms, const), lo, hi,
                             lambda z: _Linear(z, terms, const))

    def _defined(self, key: tuple, lo: int, hi: int, prop) -> int:
        """The cell of the subexpression ``key``: the one made for an equal
        key before, else a new cell over [lo, hi] that the propagator
        ``prop(cell)`` ties to its operands."""
        cell = self._shared.get(key)
        if cell is None:
            cell = self._shared[key] = self.new_cell(lo, hi)
            self.add_prop(prop(cell))
        return cell

    # Root constraints: conjunctions split, comparisons posted directly,
    # everything else reified and forced true.
    def _post(self, e: Expr) -> None:
        if isinstance(e, BinOp) and e.op == "and":
            self._post(e.left)
            self._post(e.right)
            return
        if isinstance(e, BoolLit):
            if not e.value:
                raise _Fail()
            return
        if isinstance(e, BinOp) and e.op in _RELATIONS:
            rel, x, y, d = self._relation(e)
            if rel is _Ne:
                self._post_ne(x, y, d)
            else:
                self.add_prop(rel(x, y, d))
            return
        if isinstance(e, Call) and e.name == "alldifferent":
            self.add_prop(_AllDiff(self._array_cells(e.args[0])))
            return
        b = self._compile_bool(e)
        self.assign(b, 1)

    def _post_ne(self, x: int, y: int, d: int) -> None:
        """Post x <> y + d at the root: as an offset of the ``_Ne`` already
        posted over x and y, or over y and x as y <> x - d, else as a new
        one."""
        ne = self._root_ne.get((x, y))
        if ne is None and (y, x) in self._root_ne:
            ne, d = self._root_ne[(y, x)], -d
        if ne is None:
            self._root_ne[(x, y)] = ne = _Ne(x, y, d)
            self.add_prop(ne)
        else:
            ne.add_offset(d)

    def _array_cells(self, e: Expr) -> list[int]:
        if isinstance(e, ArrayLit):
            return [self._compile_int(x) for x in e.elems]
        if isinstance(e, Ref) and len(e.parts) == 1 and not e.parts[0].indices:
            name = e.parts[0].name
            var = self.fm.var_named(name)
            if var is not None:
                return [self._cells_by_key[(name, idx)] for idx in iter_indices(var.shape)]
            table = self.fm.tables.get(name)
            if table is not None:
                return [self.const_cell(int(v)) for v in table.values]
        raise UnsupportedModelError([f"alldifferent argument '{render_expr(e)}'"])

    def _compile_int(self, e: Expr) -> int:
        if isinstance(e, IntLit):
            return self.const_cell(e.value)
        if isinstance(e, RealLit):
            raise UnsupportedModelError(["real constant in a solver constraint"])
        if isinstance(e, Ref):
            return self._compile_ref(e)
        if isinstance(e, BinOp) and e.op == "/":
            return self._compile_arith(e)
        if isinstance(e, (UnOp, BinOp)) and e.op in ("+", "-", "neg", "*"):
            return self._sum_cell(*self._linear(e))
        # boolean-valued expression used as 0/1 integer is not part of the
        # language (the analyzer rejects it), so anything else is a bug
        raise UnsupportedModelError([f"expression '{render_expr(e)}'"])

    def _compile_arith(self, e: BinOp) -> int:
        """A quotient by a constant, or a product of two factors that are
        not fixed; sums and fixed factors are ``_linear``'s."""
        if e.op == "/":
            divisor = e.right
            if not isinstance(divisor, IntLit) or divisor.value == 0:
                raise UnsupportedModelError(
                    [f"division with non-constant divisor '{render_expr(e)}'"]
                )
            x = self._compile_int(e.left)
            c = divisor.value
            lo, hi = sorted((self.cell_min(x) // c, self.cell_max(x) // c))
            # x = c*z, exactly
            return self._defined(("/", x, c), lo, hi, lambda z: _Linear(x, ((c, z),)))
        x = self._compile_int(e.left)
        y = self._compile_int(e.right)
        xmin, xmax = self.cell_min(x), self.cell_max(x)
        ymin, ymax = self.cell_min(y), self.cell_max(y)
        products = [xmin * ymin, xmin * ymax, xmax * ymin, xmax * ymax]
        return self._defined(("*", x, y), min(products), max(products),
                             lambda z: _Mul(z, x, y))

    def _compile_ref(self, e: Ref) -> int:
        part = e.parts[0]
        if not part.indices:
            cell = self._cells_by_key.get((part.name, ()))
            if cell is None:
                raise UnsupportedModelError([f"reference '{render_expr(e)}'"])
            return cell
        const_idx = all(isinstance(i, IntLit) for i in part.indices)
        if const_idx:
            idx = tuple(i.value for i in part.indices)
            cell = self._cells_by_key.get((part.name, idx))
            if cell is not None:
                return cell
            table = self.fm.tables.get(part.name)
            if table is not None:
                return self.const_cell(int(table.lookup(idx)))
            raise UnsupportedModelError([f"reference '{render_expr(e)}'"])
        # element constraint: variable subscript
        var = self.fm.var_named(part.name)
        table = self.fm.tables.get(part.name)
        shape = var.shape if var is not None else (table.shape if table else None)
        if shape is None:
            raise UnsupportedModelError([f"reference '{render_expr(e)}'"])
        if len(part.indices) != len(shape):
            raise UnsupportedModelError(["partial matrix indexing"])
        indices = [self._compile_int(i) for i in part.indices]
        key = ("[]", part.name, *indices)
        z = self._shared.get(key)
        if z is not None:
            return z
        flat_index = self._flat_index_cell(indices, shape)
        if var is not None:
            elems = [self._cells_by_key[(part.name, idx)] for idx in iter_indices(var.shape)]
            lo = min(self.cell_min(c) for c in elems)
            hi = max(self.cell_max(c) for c in elems)
            z = self.new_cell(lo, hi)
            self.add_prop(_ElementVar(z, flat_index, elems))
        else:
            values = [int(v) for v in table.values]
            z = self.new_cell(min(values), max(values))
            self.add_prop(_ElementConst(z, flat_index, values))
        self._shared[key] = z
        return z

    def _flat_index_cell(self, indices: list[int], shape: tuple[int, ...]) -> int:
        """1-based position in row-major element order of the index cells."""
        for cell, size in zip(indices, shape):
            self.remove_below(cell, 1)
            self.remove_above(cell, size)
        if len(shape) == 1:
            return indices[0]
        r, c = indices
        cols = shape[1]
        lo = (self.cell_min(r) - 1) * cols + self.cell_min(c)
        hi = (self.cell_max(r) - 1) * cols + self.cell_max(c)
        z = self.new_cell(lo, hi)
        self.add_prop(_Linear(z, ((cols, r), (1, c)), const=-cols))
        return z

    def _compile_bool(self, e: Expr) -> int:
        if isinstance(e, BoolLit):
            return self.const_cell(1 if e.value else 0)
        if isinstance(e, Ref):
            cell = self._compile_int(e)  # element machinery covers indexed refs
            self.remove_below(cell, 0)
            self.remove_above(cell, 1)
            return cell
        if isinstance(e, UnOp) and e.op == "not":
            a = self._compile_bool(e.operand)
            return self._defined(("not", a), 0, 1, lambda b: _Ne(b, a, 0))
        if isinstance(e, BinOp) and e.op in _RELATIONS:
            key = rel, x, y, d = self._relation(e)
            return self._defined(key, 0, 1, lambda b: _ReifCmp(b, rel(x, y, d)))
        if isinstance(e, BinOp) and e.op in _GATES:
            key = (e.op, self._compile_bool(e.left), self._compile_bool(e.right))
            return self._defined(key, 0, 1, lambda b: _Gate(b, *key))
        raise UnsupportedModelError([f"boolean expression '{render_expr(e)}'"])


# ---------------------------------------------------------------------------
# Propagators
# ---------------------------------------------------------------------------


def _shift(mask: int, k: int) -> int:
    """``mask`` moved up ``k`` places, or down when ``k`` is negative."""
    return mask << k if k >= 0 else mask >> -k


class _Relation:
    """``x REL y + d`` over two cells.  Each relation defines its filtering
    (``run``, True when it leaves the relation entailed), its propagation
    condition (``wake``), whether the current domains decide it
    (``entailed``: True, False or None) and its ``negation``."""

    def __init__(self, x: int, y: int, d: int = 0):
        self.x, self.y, self.d = x, y, d
        self.cells = (x, y)


class _Le(_Relation):
    """x <= y + d, bounds consistent."""

    wake = BOUNDS

    def run(self, s: SolverSpace) -> None:
        x, y, d = self.x, self.y, self.d
        s.remove_above(x, s.cell_max(y) + d)
        s.remove_below(y, s.cell_min(x) - d)

    def entailed(self, s: SolverSpace) -> bool | None:
        if s.cell_max(self.x) <= s.cell_min(self.y) + self.d:
            return True
        if s.cell_min(self.x) > s.cell_max(self.y) + self.d:
            return False
        return None

    def negation(self) -> _Relation:  # x > y + d is y <= x - d - 1
        return _Le(self.y, self.x, -self.d - 1)


class _Eq(_Relation):
    """x = y + d, domain consistent."""

    wake = DOMAIN

    def run(self, s: SolverSpace) -> None:
        _equalize(s, self.x, self.y, self.d)

    def entailed(self, s: SolverSpace) -> bool | None:
        x, y, d = self.x, self.y, self.d
        xmin, xmax = s.cell_min(x), s.cell_max(x)
        ymin, ymax = s.cell_min(y) + d, s.cell_max(y) + d
        if xmin == xmax == ymin == ymax:
            return True
        if xmax < ymin or ymax < xmin:
            return False
        if not s.mask[x] & _shift(s.mask[y], s.base[y] + d - s.base[x]):
            return False
        return None

    def negation(self) -> _Relation:
        return _Ne(self.x, self.y, self.d)


class _Ne(_Relation):
    """x <> y + d for every offset d: once one side is fixed, the values the
    offsets forbid leave the other in one mask operation, and the relation
    is entailed.  All root ``<>`` over one pair of cells share one ``_Ne``
    (``SolverSpace._post_ne``); a reified one keeps its single offset ``d``,
    which is what ``entailed`` and ``negation`` read."""

    wake = FIX

    def __init__(self, x: int, y: int, d: int = 0):
        super().__init__(x, y, d)
        self.offsets = {d}
        # up has bit d - lo and down bit hi - d for every offset d: shifted,
        # they mark the values v + d and v - d that a fixed value v forbids
        self.lo = self.hi = d
        self.up = self.down = 1

    def add_offset(self, d: int) -> None:
        self.offsets.add(d)
        self.lo, self.hi = min(self.offsets), max(self.offsets)
        self.up = sum(1 << (e - self.lo) for e in self.offsets)
        self.down = sum(1 << (self.hi - e) for e in self.offsets)

    def run(self, s: SolverSpace) -> bool:
        x, y, mask, base = self.x, self.y, s.mask, s.base
        m = mask[x]
        if not m & (m - 1):  # x is fixed: y loses x - d
            v = base[x] + m.bit_length() - 1
            old = mask[y]
            new = old & ~_shift(self.down, v - self.hi - base[y])
            if new != old:
                s._set_mask(y, new)
            return True
        m = mask[y]
        if not m & (m - 1):  # y is fixed: x loses y + d
            v = base[y] + m.bit_length() - 1
            old = mask[x]
            new = old & ~_shift(self.up, v + self.lo - base[x])
            if new != old:
                s._set_mask(x, new)
            return True
        return False

    def entailed(self, s: SolverSpace) -> bool | None:
        equal = _Eq.entailed(self, s)
        return None if equal is None else not equal

    def negation(self) -> _Relation:
        return _Eq(self.x, self.y, self.d)


# operator -> (its relation, the offset a strict comparison folds in, whether
# the operands swap): x < y + d is x <= y + (d-1), and x > y + d is
# y <= x + (-d-1)
_RELATIONS = {
    "<": (_Le, -1, False), "<=": (_Le, 0, False), ">": (_Le, -1, True), ">=": (_Le, 0, True),
    "=": (_Eq, 0, False), "<>": (_Ne, 0, False),
}


def _truth_table(f) -> list[tuple[int, int, int]]:
    """The filtering of b <-> f(a1, a2) over 0/1 values.  An index packs the
    values left to b, a1 and a2 two bits each, b lowest, bit v standing for
    value v; its entry gives, for each of the three, the values that some
    row of the truth table made of values left supports."""
    table = []
    for left in range(64):
        keep = [0, 0, 0]
        for x in (0, 1):
            for y in (0, 1):
                row = (f(x, y), x, y)
                if all(left >> (2 * k + v) & 1 for k, v in enumerate(row)):
                    for k, v in enumerate(row):
                        keep[k] |= 1 << v
        table.append(tuple(keep))
    return table


_GATES = {
    "and": _truth_table(lambda x, y: x & y),
    "or": _truth_table(lambda x, y: x | y),
    "xor": _truth_table(lambda x, y: x ^ y),
    "->": _truth_table(lambda x, y: (1 - x) | y),
}


def _equalize(s: SolverSpace, x: int, y: int, d: int = 0) -> None:
    """Constrain x = y + d by intersecting the shifted bitmasks."""
    shift = s.base[y] + d - s.base[x]
    common = s.mask[x] & _shift(s.mask[y], shift)
    s._set_mask(x, common)
    s._set_mask(y, _shift(common, -shift))


class _Linear:
    """z = sum(coef * cell) + const, bounds consistency."""

    wake = BOUNDS

    def __init__(self, z: int, terms: tuple[tuple[int, int], ...], const: int = 0):
        self.z = z
        self.terms = terms
        self.const = const
        self.cells = (z,) + tuple(c for _, c in terms)

    def run(self, s: SolverSpace) -> None:
        mask, base, z = s.mask, s.base, self.z
        ranges = []  # per term, the least and the greatest coef * cell
        total_lo = total_hi = self.const
        for coef, c in self.terms:
            m = mask[c]
            a = coef * (base[c] + (m & -m).bit_length() - 1)
            b = coef * (base[c] + m.bit_length() - 1)
            if a > b:
                a, b = b, a
            ranges.append((a, b))
            total_lo += a
            total_hi += b
        s.remove_below(z, total_lo)
        s.remove_above(z, total_hi)
        zlo, zhi = s.cell_min(z), s.cell_max(z)
        # a term no wider than the slack z leaves the sum keeps its bounds
        slack = min(zhi - total_lo, total_hi - zlo)
        for (coef, c), (a, b) in zip(self.terms, ranges):
            if b - a <= slack:
                continue
            lo_needed = zlo - (total_hi - b)  # coef * c >= lo_needed
            hi_allowed = zhi - (total_lo - a)  # coef * c <= hi_allowed
            if coef > 0:
                s.remove_below(c, -((-lo_needed) // coef))
                s.remove_above(c, hi_allowed // coef)
            elif coef < 0:
                s.remove_below(c, -((-hi_allowed) // coef))
                s.remove_above(c, lo_needed // coef)


class _Mul:
    """z = x * y with both factors free; bounds from interval products."""

    wake = BOUNDS

    def __init__(self, z: int, x: int, y: int):
        self.z, self.x, self.y = z, x, y
        self.cells = (z, x, y)

    def run(self, s: SolverSpace) -> None:
        z, x, y = self.z, self.x, self.y
        xmin, xmax = s.cell_min(x), s.cell_max(x)
        ymin, ymax = s.cell_min(y), s.cell_max(y)
        products = (xmin * ymin, xmin * ymax, xmax * ymin, xmax * ymax)
        s.remove_below(z, min(products))
        s.remove_above(z, max(products))
        if s.cell_fixed(x) and s.cell_fixed(y):
            s.assign(z, s.cell_value(x) * s.cell_value(y))
        elif s.cell_fixed(x) and s.cell_value(x) != 0 and s.cell_fixed(z):
            v, zv = s.cell_value(x), s.cell_value(z)
            if zv % v:
                raise _Fail()
            s.assign(y, zv // v)
        elif s.cell_fixed(y) and s.cell_value(y) != 0 and s.cell_fixed(z):
            v, zv = s.cell_value(y), s.cell_value(z)
            if zv % v:
                raise _Fail()
            s.assign(x, zv // v)


class _ReifCmp:
    """b <-> rel: with b fixed, runs the relation or its negation and is
    entailed when that is; with b free, fixes b once the domains decide the
    relation.  Deciding a relation is failing its negation, so it wakes on
    whatever either of the two wakes on; any change to b fixes b."""

    def __init__(self, b: int, rel: _Relation):
        self.b, self.rel, self.neg = b, rel, rel.negation()
        self.cells = (b,) + rel.cells
        self.wake = max(rel.wake, self.neg.wake)

    def run(self, s: SolverSpace) -> bool | None:
        b = self.b
        if s.cell_fixed(b):
            return (self.rel if s.cell_value(b) else self.neg).run(s)
        status = self.rel.entailed(s)
        if status is not None:
            s.assign(b, 1 if status else 0)
        return False


class _Gate:
    """b <-> (a1 op a2) over 0/1 cells for and/or/xor/->, by the operator's
    truth table: each cell keeps the values that some row supports."""

    wake = FIX

    def __init__(self, b: int, op: str, a1: int, a2: int):
        self.table = _GATES[op]
        self.cells = (b, a1, a2)

    def run(self, s: SolverSpace) -> None:
        mask, base = s.mask, s.base
        b, a1, a2 = self.cells
        keep = self.table[  # each cell's values 0 and 1 as bits 0 and 1
            _shift(mask[b], base[b]) & 3
            | (_shift(mask[a1], base[a1]) & 3) << 2
            | (_shift(mask[a2], base[a2]) & 3) << 4
        ]
        for c, values in zip(self.cells, keep):
            s._set_mask(c, mask[c] & _shift(values, -base[c]))


class _ElementVar:
    """z = elems[i] (i 1-based) over variable cells; domain consistent."""

    wake = DOMAIN

    def __init__(self, z: int, i: int, elems: list[int]):
        self.z, self.i, self.elems = z, i, elems
        self.cells = (z, i) + tuple(elems)

    def run(self, s: SolverSpace) -> None:
        z, i, elems = self.z, self.i, self.elems
        s.remove_below(i, 1)
        s.remove_above(i, len(elems))
        zmask, zbase, first = s.mask[z], s.base[z], s.base[i] - 1
        index = s.mask[i]
        keep_i = keep_z = 0
        while index:
            low = index & -index
            index ^= low
            c = elems[first + low.bit_length() - 1]
            supported = zmask & _shift(s.mask[c], s.base[c] - zbase)
            if supported:
                keep_i |= low
                keep_z |= supported
        s._set_mask(i, keep_i)
        s._set_mask(z, keep_z)
        if s.cell_fixed(i):
            _equalize(s, z, elems[s.cell_value(i) - 1])


class _ElementConst:
    """z = table[i] over a constant table; domain consistent."""

    wake = DOMAIN

    def __init__(self, z: int, i: int, values: list[int]):
        self.z, self.i, self.values = z, i, values
        self.cells = (z, i)

    def run(self, s: SolverSpace) -> None:
        z, i, values = self.z, self.i, self.values
        s.remove_below(i, 1)
        s.remove_above(i, len(values))
        zmask, zbase, first = s.mask[z], s.base[z], s.base[i] - 1
        index = s.mask[i]
        keep_i = keep_z = 0
        while index:
            low = index & -index
            index ^= low
            off = values[first + low.bit_length() - 1] - zbase
            if off >= 0 and zmask >> off & 1:
                keep_i |= low
                keep_z |= 1 << off
        s._set_mask(i, keep_i)
        s._set_mask(z, keep_z)


class _AllDiff:
    """Pairwise-distinct: fixed-value removal plus a union-size pigeonhole check."""

    wake = DOMAIN

    def __init__(self, cells: list[int]):
        self.cells = tuple(cells)

    def run(self, s: SolverSpace) -> None:
        fixed: dict[int, int] = {}
        for c in self.cells:
            if s.cell_fixed(c):
                v = s.cell_value(c)
                if v in fixed and fixed[v] != c:
                    raise _Fail()
                fixed[v] = c
        if fixed:
            for c in self.cells:
                if not s.cell_fixed(c):
                    for v in fixed:
                        s.remove_value(c, v)
        union: set[int] = set()
        for c in self.cells:
            union.update(s.cell_values(c))
            if len(union) >= len(self.cells):
                return
        if len(union) < len(self.cells):
            raise _Fail()


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def build_space(fm: FlatModel) -> SolverSpace:
    """Compile a flat model; raises :class:`UnsupportedModelError` for
    constructs outside the embedded solver's scope."""
    return SolverSpace(fm)


class Search:
    """Depth-first search over a space.  Iterating yields solutions; after
    exhaustion ``truncated`` tells whether a limit cut the run short."""

    def __init__(self, space: SolverSpace, cfg: SearchConfig | None = None):
        self.space = space
        self.cfg = cfg or SearchConfig()
        self.stats = SolveStats()
        self.truncated = False
        # Under branch-and-bound: the objective's sense, and the value of
        # the best solution so far, which every later solution must beat.
        self.sense: str | None = None
        self.best: int | None = None
        self._deadline = None
        # the solution check's value vector is laid out as decision_cells is
        self._keys = [(name, idx) for name, idx, _ in space.decision_cells]
        bools = {v.name for v in space.fm.variables if v.base == BOOL}
        self._bool_slots = [i for i, (name, _) in enumerate(self._keys) if name in bools]

    def __iter__(self):
        return self.run()

    def improving(self):
        """Branch-and-bound: yields solutions, each with a better objective
        value than the one before; the last one is optimal."""
        self.sense = self.space.fm.objective.kind
        return self.run()

    def run(self):
        space = self.space
        if space.root_failed:
            return
        start, runs = time.perf_counter(), space.propagation_count
        if self.cfg.time_limit is not None:
            self._deadline = start + self.cfg.time_limit
        try:
            yield from self._dfs()
        finally:
            self.stats.wall_time += time.perf_counter() - start
            self.stats.propagations += space.propagation_count - runs

    def _dfs(self):
        space, stats, limit = self.space, self.stats, self.cfg.solution_limit
        # The open nodes, root first: each one's branching cell, the values
        # it has left to try, and the trail mark to undo to before each.
        stack: list[tuple[int, Iterator[int], int]] = []
        while True:
            stats.nodes += 1
            if self._deadline is not None and time.perf_counter() > self._deadline:
                self.truncated = True
            elif not self._bound_objective() or not space.propagate():
                stats.failures += 1
            else:
                cell = self._select()
                if cell is None:
                    sol = self._solution()
                    if sol is None:
                        stats.failures += 1
                    else:
                        if self.sense is not None and sol.objective_value is not None:
                            self.best = sol.objective_value
                        if limit is not None:
                            limit -= 1
                            # the last solution allowed: back up to the root next
                            self.truncated = limit == 0
                        yield sol
                else:
                    values = space.cell_values(cell)
                    if self.cfg.value_order == VALUE_MAX:
                        values.reverse()
                    stack.append((cell, iter(values), space.mark()))
            # Back up to the deepest node with a value left and branch on it.
            while stack:
                cell, values, mark = stack[-1]
                space.undo(mark)
                v = next(values, None)
                if v is None or self.truncated:
                    stack.pop()
                    continue
                try:
                    space.assign(cell, v)
                except _Fail:
                    continue
                break
            else:
                return

    def _bound_objective(self) -> bool:
        """Require the objective to beat the best solution so far; False on
        wipeout."""
        if self.best is None:
            return True
        space = self.space
        try:
            if self.sense == "minimize":
                space.remove_above(space.objective_cell, self.best - 1)
            else:
                space.remove_below(space.objective_cell, self.best + 1)
        except _Fail:
            return False
        return True

    def _select(self) -> int | None:
        space = self.space
        if self.cfg.var_order == INPUT_ORDER:
            for _, _, c in space.decision_cells:
                if not space.cell_fixed(c):
                    return c
            return None
        best_cell = None
        best_size = None
        for _, _, c in space.decision_cells:
            size = space.cell_size(c)
            if size > 1 and (best_size is None or size < best_size):
                best_cell, best_size = c, size
                if size == 2:
                    break
        return best_cell

    def _solution(self) -> Solution | None:
        space = self.space
        base, mask = space.base, space.mask
        # every decision cell is fixed: its value is its one bit
        values = [base[c] + mask[c].bit_length() - 1 for _, _, c in space.decision_cells]
        for i in self._bool_slots:
            values[i] = bool(values[i])
        ok, _ = check_solution(space.fm, values)  # the solver never trusts itself
        if not ok:
            return None
        sol = Solution(dict(zip(self._keys, values)))
        if space.objective_cell is not None and space.cell_fixed(space.objective_cell):
            sol.objective_value = space.cell_value(space.objective_cell)
        return sol


def solve(space: SolverSpace, cfg: SearchConfig | None = None) -> Search:
    """Stream solutions depth-first.  Consume the returned iterator; its
    ``stats`` and ``truncated`` fields are populated as the search runs, and
    its wall time and propagator runs when the search stops."""
    return Search(space, cfg)


def optimize(space: SolverSpace, cfg: SearchConfig | None = None) -> tuple[Solution | None, SolveStats]:
    """Branch-and-bound to a proven optimum (value-wise; the witness is the
    last improving solution).  Returns (None, stats) when infeasible."""
    if space.objective_cell is None:
        raise ContractError("optimize needs a model with an objective")
    search = Search(space, cfg)
    best_sol: Solution | None = None
    for sol in search.improving():
        if sol.objective_value is not None:
            best_sol = sol
    return best_sol, search.stats
