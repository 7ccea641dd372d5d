"""Embedded finite-domain solver: propagation plus depth-first backtracking
search with branch-and-bound optimization.

Domains are bitmasks over an integer base offset, so removal, intersection,
and size are single machine-word-ish operations even in pure Python.  The
consistency levels are deliberately modest (bounds consistency for linear
arithmetic and multiplication, domain consistency for element and the
reified comparisons, pairwise-neq plus a union-size pigeonhole check for
alldifferent); every solution the search emits is re-checked through the
independent expression evaluator before it is handed to the caller.
"""

from __future__ import annotations

import time
from collections import deque
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
        if self.time_limit is not None and self.time_limit <= 0:
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


class SolverSpace:
    """Variable domains plus a propagator network compiled from a flat model."""

    def __init__(self, fm: FlatModel):
        self.fm = fm
        self.base: list[int] = []
        self.mask: list[int] = []
        self.watchers: list[list[int]] = []
        self.props: list = []
        self.trail: list[tuple[int, int]] = []
        self.queue: deque[int] = deque()
        self.queued: list[bool] = []
        self.decision_cells: list[tuple[str, tuple[int, ...], int]] = []
        self.root_failed = False
        self.propagation_count = 0
        self._const_cells: dict[int, int] = {}
        self._expr_cache: dict[str, int] = {}
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
        self.watchers.append([])
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

    def cell_contains(self, c: int, v: int) -> bool:
        off = v - self.base[c]
        return off >= 0 and (self.mask[c] >> off) & 1 == 1

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
        for p in self.watchers[c]:
            if not self.queued[p]:
                self.queued[p] = True
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

    def intersect_values(self, c: int, values) -> None:
        keep = 0
        b = self.base[c]
        for v in values:
            off = v - b
            if off >= 0:
                keep |= 1 << off
        self._set_mask(c, self.mask[c] & keep)

    # -- propagation --------------------------------------------------------------

    def add_prop(self, prop) -> None:
        prop_id = len(self.props)
        self.props.append(prop)
        for c in prop.cells:
            self.watchers[c].append(prop_id)
        self.queued.append(False)
        self.queue.append(prop_id)
        self.queued[prop_id] = True

    def propagate(self) -> bool:
        """Run to fixpoint; False on wipeout.  Domains only shrink."""
        try:
            while self.queue:
                prop_id = self.queue.popleft()
                self.queued[prop_id] = False
                self.propagation_count += 1
                self.props[prop_id].run(self)
        except _Fail:
            self.queue.clear()
            for i in range(len(self.queued)):
                self.queued[i] = False
            return False
        return True

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            c, old = self.trail.pop()
            self.mask[c] = old

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

    def _linear_atom(self, e: Expr) -> tuple[int, int] | None:
        """Recognize `cell + k` shapes so comparisons skip auxiliary cells."""
        if isinstance(e, IntLit):
            return (self.const_cell(e.value), 0)
        if isinstance(e, Ref) and not self._is_boolish(e):
            return (self._compile_int(e), 0)
        if isinstance(e, BinOp) and e.op in ("+", "-"):
            left, right = e.left, e.right
            if isinstance(right, IntLit) and isinstance(left, Ref):
                base = self._linear_atom(left)
                if base is not None:
                    k = right.value if e.op == "+" else -right.value
                    return (base[0], k)
            if e.op == "+" and isinstance(left, IntLit) and isinstance(right, Ref):
                base = self._linear_atom(right)
                if base is not None:
                    return (base[0], left.value)
        return None

    def _cmp_sides(self, e: BinOp) -> tuple[int, int, int]:
        """Cells and offset for `left REL right + d` comparisons."""
        la = self._linear_atom(e.left)
        ra = self._linear_atom(e.right)
        if la is not None and ra is not None:
            return (la[0], ra[0], ra[1] - la[1])
        return (self._compile_int(e.left), self._compile_int(e.right), 0)

    def _is_boolish(self, e: Expr) -> bool:
        if isinstance(e, BoolLit):
            return True
        if isinstance(e, UnOp) and e.op == "not":
            return True
        if isinstance(e, BinOp) and e.op in (
            "and", "or", "xor", "->", "<", "<=", ">", ">=", "=", "<>",
        ):
            return True
        if isinstance(e, Ref):
            var = self.fm.var_named(e.parts[0].name)
            return var is not None and var.base == BOOL
        return False

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
        if isinstance(e, BinOp) and e.op in ("<", "<=", ">", ">=", "=", "<>"):
            if self._is_boolish(e.left) or self._is_boolish(e.right):
                x = self._compile_bool(e.left)
                y = self._compile_bool(e.right)
                d = 0
            else:
                x, y, d = self._cmp_sides(e)
            self.add_prop(_Cmp(e.op, x, y, d))
            return
        if isinstance(e, Call) and e.name == "alldifferent":
            self.add_prop(_AllDiff(self._array_cells(e.args[0])))
            return
        b = self._compile_bool(e)
        self.assign(b, 1)

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
        key = render_expr(e)
        hit = self._expr_cache.get(key)
        if hit is not None:
            return hit
        cell = self._compile_int_fresh(e)
        self._expr_cache[key] = cell
        return cell

    def _compile_int_fresh(self, e: Expr) -> int:
        if isinstance(e, IntLit):
            return self.const_cell(e.value)
        if isinstance(e, RealLit):
            raise UnsupportedModelError(["real constant in a solver constraint"])
        if isinstance(e, Ref):
            return self._compile_ref(e)
        if isinstance(e, UnOp) and e.op == "neg":
            x = self._compile_int(e.operand)
            z = self.new_cell(-self.cell_max(x), -self.cell_min(x))
            self.add_prop(_Linear(z, ((-1, x),)))
            return z
        if isinstance(e, BinOp) and e.op in ("+", "-", "*", "/"):
            return self._compile_arith(e)
        # boolean-valued expression used as 0/1 integer is not part of the
        # language (the analyzer rejects it), so anything else is a bug
        raise UnsupportedModelError([f"expression '{render_expr(e)}'"])

    def _compile_arith(self, e: BinOp) -> int:
        if e.op == "/":
            divisor = e.right
            if not isinstance(divisor, IntLit) or divisor.value == 0:
                raise UnsupportedModelError(
                    [f"division with non-constant divisor '{render_expr(e)}'"]
                )
            x = self._compile_int(e.left)
            c = divisor.value
            lo, hi = sorted((self.cell_min(x) // c, self.cell_max(x) // c))
            z = self.new_cell(lo, hi)
            self.add_prop(_Linear(x, ((c, z),)))  # x = c*z, exactly
            return z
        x = self._compile_int(e.left)
        y = self._compile_int(e.right)
        xmin, xmax = self.cell_min(x), self.cell_max(x)
        ymin, ymax = self.cell_min(y), self.cell_max(y)
        if e.op == "+":
            z = self.new_cell(xmin + ymin, xmax + ymax)
            self.add_prop(_Linear(z, ((1, x), (1, y))))
            return z
        if e.op == "-":
            z = self.new_cell(xmin - ymax, xmax - ymin)
            self.add_prop(_Linear(z, ((1, x), (-1, y))))
            return z
        products = [xmin * ymin, xmin * ymax, xmax * ymin, xmax * ymax]
        z = self.new_cell(min(products), max(products))
        if self.cell_fixed(x):
            self.add_prop(_Linear(z, ((self.cell_value(x), y),)))
        elif self.cell_fixed(y):
            self.add_prop(_Linear(z, ((self.cell_value(y), x),)))
        else:
            self.add_prop(_Mul(z, x, y))
        return z

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
        flat_index = self._flat_index_cell(part.indices, shape)
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
        return z

    def _flat_index_cell(self, indices: tuple[Expr, ...], shape: tuple[int, ...]) -> int:
        """1-based position in row-major element order."""
        if len(indices) != len(shape):
            raise UnsupportedModelError(["partial matrix indexing"])
        if len(shape) == 1:
            cell = self._compile_int(indices[0])
            self.remove_below(cell, 1)
            self.remove_above(cell, shape[0])
            return cell
        rows, cols = shape
        r = self._compile_int(indices[0])
        c = self._compile_int(indices[1])
        self.remove_below(r, 1)
        self.remove_above(r, rows)
        self.remove_below(c, 1)
        self.remove_above(c, cols)
        lo = (self.cell_min(r) - 1) * cols + self.cell_min(c)
        hi = (self.cell_max(r) - 1) * cols + self.cell_max(c)
        z = self.new_cell(lo, hi)
        self.add_prop(_Linear(z, ((cols, r), (1, c)), const=-cols))
        return z

    def _compile_bool(self, e: Expr) -> int:
        key = "B:" + render_expr(e)
        hit = self._expr_cache.get(key)
        if hit is not None:
            return hit
        cell = self._compile_bool_fresh(e)
        self._expr_cache[key] = cell
        return cell

    def _compile_bool_fresh(self, e: Expr) -> int:
        if isinstance(e, BoolLit):
            return self.const_cell(1 if e.value else 0)
        if isinstance(e, Ref):
            cell = self._compile_int(e)  # element machinery covers indexed refs
            self.remove_below(cell, 0)
            self.remove_above(cell, 1)
            return cell
        if isinstance(e, UnOp) and e.op == "not":
            a = self._compile_bool(e.operand)
            b = self.new_cell(0, 1)
            self.add_prop(_Not(b, a))
            return b
        if isinstance(e, BinOp):
            if e.op in ("<", "<=", ">", ">=", "=", "<>"):
                if self._is_boolish(e.left) or self._is_boolish(e.right):
                    x = self._compile_bool(e.left)
                    y = self._compile_bool(e.right)
                    d = 0
                else:
                    x, y, d = self._cmp_sides(e)
                b = self.new_cell(0, 1)
                self.add_prop(_ReifCmp(b, e.op, x, y, d))
                return b
            if e.op in ("and", "or", "xor", "->"):
                a1 = self._compile_bool(e.left)
                a2 = self._compile_bool(e.right)
                b = self.new_cell(0, 1)
                self.add_prop(_Gate(e.op, b, a1, a2))
                return b
        raise UnsupportedModelError([f"boolean expression '{render_expr(e)}'"])


# ---------------------------------------------------------------------------
# Propagators
# ---------------------------------------------------------------------------


class _Cmp:
    """Direct (non-reified) comparison: x REL (y + d)."""

    def __init__(self, op: str, x: int, y: int, d: int = 0):
        self.op = op
        self.d = d
        self.cells = (x, y)

    def run(self, s: SolverSpace) -> None:
        x, y = self.cells
        op = self.op
        d = self.d
        if op == "<":
            s.remove_above(x, s.cell_max(y) + d - 1)
            s.remove_below(y, s.cell_min(x) - d + 1)
        elif op == "<=":
            s.remove_above(x, s.cell_max(y) + d)
            s.remove_below(y, s.cell_min(x) - d)
        elif op == ">":
            s.remove_below(x, s.cell_min(y) + d + 1)
            s.remove_above(y, s.cell_max(x) - d - 1)
        elif op == ">=":
            s.remove_below(x, s.cell_min(y) + d)
            s.remove_above(y, s.cell_max(x) - d)
        elif op == "=":
            _equalize(s, x, y, d)
        else:  # <>
            if s.cell_fixed(x):
                s.remove_value(y, s.cell_value(x) - d)
            elif s.cell_fixed(y):
                s.remove_value(x, s.cell_value(y) + d)


def _equalize(s: SolverSpace, x: int, y: int, d: int = 0) -> None:
    """Constrain x = y + d by intersecting the shifted bitmasks."""
    shift = s.base[y] + d - s.base[x]
    if shift >= 0:
        common = s.mask[x] & (s.mask[y] << shift)
    else:
        common = s.mask[x] & (s.mask[y] >> -shift)
    s._set_mask(x, common)
    if shift >= 0:
        s._set_mask(y, common >> shift)
    else:
        s._set_mask(y, common << -shift)


class _Linear:
    """z = sum(coef * cell) + const, bounds consistency."""

    def __init__(self, z: int, terms: tuple[tuple[int, int], ...], const: int = 0):
        self.z = z
        self.terms = terms
        self.const = const
        self.cells = (z,) + tuple(c for _, c in terms)

    def run(self, s: SolverSpace) -> None:
        lows = []
        highs = []
        for coef, c in self.terms:
            a, b = coef * s.cell_min(c), coef * s.cell_max(c)
            if a > b:
                a, b = b, a
            lows.append(a)
            highs.append(b)
        total_lo = sum(lows) + self.const
        total_hi = sum(highs) + self.const
        s.remove_below(self.z, total_lo)
        s.remove_above(self.z, total_hi)
        zlo, zhi = s.cell_min(self.z), s.cell_max(self.z)
        for k, (coef, c) in enumerate(self.terms):
            rest_lo = total_lo - lows[k]
            rest_hi = total_hi - highs[k]
            lo_needed = zlo - rest_hi  # coef * c >= lo_needed
            hi_allowed = zhi - rest_lo  # coef * c <= hi_allowed
            if coef > 0:
                s.remove_below(c, -((-lo_needed) // coef))
                s.remove_above(c, hi_allowed // coef)
            else:
                s.remove_below(c, -((-hi_allowed) // coef))
                s.remove_above(c, lo_needed // coef)


class _Mul:
    """z = x * y with both factors free; bounds from interval products."""

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
    """b <-> (x op y + d) with two-way propagation and entailment detection."""

    def __init__(self, b: int, op: str, x: int, y: int, d: int = 0):
        self.b, self.op, self.x, self.y, self.d = b, op, x, y, d
        self._pos = _Cmp(op, x, y, d)
        self._neg = _Cmp(_NEGATION[op], x, y, d)
        self.cells = (b, x, y)

    def run(self, s: SolverSpace) -> None:
        b = self.b
        if s.cell_fixed(b):
            (self._pos if s.cell_value(b) == 1 else self._neg).run(s)
            return
        status = _entailment(s, self.op, self.x, self.y, self.d)
        if status is not None:
            s.assign(b, 1 if status else 0)


_NEGATION = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "<>", "<>": "="}


def _entailment(s: SolverSpace, op: str, x: int, y: int, d: int = 0):
    """True/False when x REL (y + d) is decided by the current domains."""
    xmin, xmax = s.cell_min(x), s.cell_max(x)
    ymin, ymax = s.cell_min(y) + d, s.cell_max(y) + d
    if op == "<":
        if xmax < ymin:
            return True
        if xmin >= ymax:
            return False
    elif op == "<=":
        if xmax <= ymin:
            return True
        if xmin > ymax:
            return False
    elif op == ">":
        if xmin > ymax:
            return True
        if xmax <= ymin:
            return False
    elif op == ">=":
        if xmin >= ymax:
            return True
        if xmax < ymin:
            return False
    elif op == "=":
        if xmin == xmax == ymin == ymax:
            return True
        if xmax < ymin or ymax < xmin:
            return False
        shift = s.base[y] + d - s.base[x]
        common = s.mask[x] & (s.mask[y] << shift if shift >= 0 else s.mask[y] >> -shift)
        if common == 0:
            return False
    else:  # <>
        eq = _entailment(s, "=", x, y, d)
        if eq is not None:
            return not eq
    return None


class _Gate:
    """b <-> (a1 op a2) over 0/1 cells for and/or/xor/->."""

    def __init__(self, op: str, b: int, a1: int, a2: int):
        self.op, self.b, self.a1, self.a2 = op, b, a1, a2
        self.cells = (b, a1, a2)

    def run(self, s: SolverSpace) -> None:
        op, b, a1, a2 = self.op, self.b, self.a1, self.a2
        v = lambda c: s.cell_value(c) if s.cell_fixed(c) else None
        vb, v1, v2 = v(b), v(a1), v(a2)
        if op == "and":
            if v1 == 1 and v2 == 1:
                s.assign(b, 1)
            elif v1 == 0 or v2 == 0:
                s.assign(b, 0)
            if vb == 1:
                s.assign(a1, 1)
                s.assign(a2, 1)
            elif vb == 0:
                if v1 == 1:
                    s.assign(a2, 0)
                if v2 == 1:
                    s.assign(a1, 0)
        elif op == "or":
            if v1 == 1 or v2 == 1:
                s.assign(b, 1)
            elif v1 == 0 and v2 == 0:
                s.assign(b, 0)
            if vb == 0:
                s.assign(a1, 0)
                s.assign(a2, 0)
            elif vb == 1:
                if v1 == 0:
                    s.assign(a2, 1)
                if v2 == 0:
                    s.assign(a1, 1)
        elif op == "xor":
            if v1 is not None and v2 is not None:
                s.assign(b, v1 ^ v2)
            if vb is not None and v1 is not None:
                s.assign(a2, vb ^ v1)
            if vb is not None and v2 is not None:
                s.assign(a1, vb ^ v2)
        else:  # ->
            if v1 == 0 or v2 == 1:
                s.assign(b, 1)
            elif v1 == 1 and v2 == 0:
                s.assign(b, 0)
            if vb == 0:
                s.assign(a1, 1)
                s.assign(a2, 0)
            elif vb == 1:
                if v1 == 1:
                    s.assign(a2, 1)
                if v2 == 0:
                    s.assign(a1, 0)


class _Not:
    def __init__(self, b: int, a: int):
        self.b, self.a = b, a
        self.cells = (b, a)

    def run(self, s: SolverSpace) -> None:
        if s.cell_fixed(self.a):
            s.assign(self.b, 1 - s.cell_value(self.a))
        if s.cell_fixed(self.b):
            s.assign(self.a, 1 - s.cell_value(self.b))


class _ElementVar:
    """z = elems[i] (i 1-based) over variable cells; domain consistent."""

    def __init__(self, z: int, i: int, elems: list[int]):
        self.z, self.i, self.elems = z, i, elems
        self.cells = (z, i) + tuple(elems)

    def run(self, s: SolverSpace) -> None:
        z, i, elems = self.z, self.i, self.elems
        s.remove_below(i, 1)
        s.remove_above(i, len(elems))
        feasible_z: set[int] = set()
        for pos in s.cell_values(i):
            c = elems[pos - 1]
            if any(s.cell_contains(z, v) for v in s.cell_values(c)):
                feasible_z.update(v for v in s.cell_values(c) if s.cell_contains(z, v))
            else:
                s.remove_value(i, pos)
        s.intersect_values(z, feasible_z)
        if s.cell_fixed(i):
            c = elems[s.cell_value(i) - 1]
            _equalize(s, z, c)


class _ElementConst:
    """z = table[i] over a constant table; domain consistent."""

    def __init__(self, z: int, i: int, values: list[int]):
        self.z, self.i, self.values = z, i, values
        self.cells = (z, i)

    def run(self, s: SolverSpace) -> None:
        z, i = self.z, self.i
        s.remove_below(i, 1)
        s.remove_above(i, len(self.values))
        feasible = set()
        for pos in s.cell_values(i):
            v = self.values[pos - 1]
            if s.cell_contains(z, v):
                feasible.add(v)
            else:
                s.remove_value(i, pos)
        s.intersect_values(z, feasible)


class _AllDiff:
    """Pairwise-distinct: fixed-value removal plus a union-size pigeonhole check."""

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
        self._deadline = None
        self._best: int | None = None
        self._minimize = True
        self._bounding = False
        self._bool_vars = {v.name for v in space.fm.variables if v.base == BOOL}

    def __iter__(self):
        return self.run()

    def run(self):
        space = self.space
        if space.root_failed:
            return
        start = time.perf_counter()
        if self.cfg.time_limit is not None:
            self._deadline = start + self.cfg.time_limit
        emitted = 0
        try:
            for sol in self._dfs():
                emitted += 1
                yield sol
                if (
                    self.cfg.solution_limit is not None
                    and emitted >= self.cfg.solution_limit
                ):
                    self.truncated = True
                    break
        finally:
            self.stats.wall_time += time.perf_counter() - start

    def _dfs(self):
        space = self.space
        self.stats.nodes += 1
        if self._deadline is not None and time.perf_counter() > self._deadline:
            self.truncated = True
            return
        if self._bounding and self._best is not None and space.objective_cell is not None:
            try:
                if self._minimize:
                    space.remove_above(space.objective_cell, self._best - 1)
                else:
                    space.remove_below(space.objective_cell, self._best + 1)
            except _Fail:
                self.stats.failures += 1
                return
        if not space.propagate():
            self.stats.failures += 1
            return
        self.stats.propagations = space.propagation_count
        cell = self._select()
        if cell is None:
            sol = self._solution()
            if sol is None:
                self.stats.failures += 1
                return
            yield sol
            return
        values = space.cell_values(cell)
        if self.cfg.value_order == VALUE_MAX:
            values.reverse()
        for v in values:
            if self.truncated:
                return
            mark = space.mark()
            try:
                space.assign(cell, v)
            except _Fail:
                space.undo(mark)
                continue
            yield from self._dfs()
            space.undo(mark)

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
        values: dict = {}
        for name, idx, c in space.decision_cells:
            v = space.cell_value(c)
            values[(name, idx)] = bool(v) if name in self._bool_vars else v
        sol = Solution(values)
        ok, _ = check_solution(space.fm, sol)  # the solver never trusts itself
        if not ok:
            return None
        if space.objective_cell is not None and space.cell_fixed(space.objective_cell):
            sol.objective_value = space.cell_value(space.objective_cell)
        return sol


def solve(space: SolverSpace, cfg: SearchConfig | None = None) -> Search:
    """Stream solutions depth-first.  Consume the returned iterator; its
    ``stats`` and ``truncated`` fields are populated as the search runs."""
    return Search(space, cfg)


def optimize(space: SolverSpace, cfg: SearchConfig | None = None) -> tuple[Solution | None, SolveStats]:
    """Branch-and-bound to a proven optimum (value-wise; the witness is the
    last improving solution).  Returns (None, stats) when infeasible."""
    if space.objective_cell is None:
        raise ContractError("optimize needs a model with an objective")
    search = Search(space, cfg or SearchConfig())
    search._bounding = True
    search._minimize = space.fm.objective.kind == "minimize"
    best_sol: Solution | None = None
    for sol in search.run():
        value = sol.objective_value
        if value is None:
            continue
        if (
            best_sol is None
            or (search._minimize and value < search._best)
            or (not search._minimize and value > search._best)
        ):
            best_sol = sol
            search._best = value
    return best_sol, search.stats
