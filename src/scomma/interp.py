"""Brute-force oracles: flat-model enumeration and a direct model interpreter.

Both enumerate with ``backtrack``: slots are assigned in a fixed order, each
over its whole domain, and a check runs as soon as the last slot it reads is
assigned.  Nothing is propagated, so neither oracle depends on the solver,
and solutions come in the order of the full product of the domains.

``enumerate_flat`` checks the flat constraints as :mod:`scomma.evaluate`
compiles them, once per model.  A constraint reads the slots its references
name; a variable subscript or a whole-array argument reads every cell of its
variable.

``ModelInterpreter`` never flattens anything.  It instantiates the analyzed
source model once: objects become an instance tree, loops iterate, object
paths are followed to the cells they name, and each constraint, conditional
and objective becomes a closure plus the slots it reads; each data pin is a
one-slot check.  The closures are built by evaluate's ``ExprCompiler``, so
every operator means what it means to ``enumerate_flat`` and
``check_solution``; the interpreter resolves only the references.  It makes
and names its decision slots the way the flattener makes its variables, so
solution sets and candidate counts can be compared directly: an array that
the data fills only in part is a slot per cell, and each assigned cell's
slot is pinned to its value.  It reads data values, array sizes and domains
as the analyzer resolved them (labels as ordinals, arrays positional and
row-major, sizes and domain bounds as literals).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable, Iterable, Iterator, Sequence

from .analyzer import TypedModel, shape_dims
from .errors import EvalError, UnsupportedModelError
from .evaluate import ExprCompiler, compile_check
from .ir import (
    BOOL,
    FlatModel,
    INT,
    IntInterval,
    REAL,
    SET,
    Solution,
    Table,
    iter_indices,
)
from .nodes import (
    Attribute,
    BoolType,
    Call,
    ClassDef,
    Constraint,
    DomainInterval,
    DomainSet,
    EnumRef,
    EnumType,
    Expr,
    Forall,
    GlobalCall,
    IfElse,
    IntLit,
    IntType,
    Item,
    NameRange,
    Objective,
    RealType,
    Ref,
    RefPart,
    SetType,
    VOmit,
    walk,
)
from .printer import render_expr

Closure = Callable[[Sequence], object]
Check = tuple[Closure, frozenset]  # a closure and the slots it reads


def backtrack(domains: Sequence[Sequence], checks: Iterable[Check]) -> Iterator[tuple]:
    """Each value vector over ``domains`` under which every check holds, in
    the order of ``itertools.product(*domains)``.  The iterators over the
    assigned slots' domains are an explicit stack.  A check ``(holds,
    reads)`` runs on each value of the last slot in ``reads``; one that
    reads no slot runs before any slot is assigned."""
    due: list[list[Closure]] = [[] for _ in range(len(domains) + 1)]
    for holds, reads in checks:
        due[max(reads, default=-1) + 1].append(holds)
    values: list = [None] * len(domains)
    if not all(domains) or not all(holds(values) for holds in due[0]):
        return
    if not domains:
        yield ()
    stack = [iter(domains[0])] if domains else []
    while stack:
        k = len(stack) - 1
        for values[k] in stack[k]:
            if all(holds(values) for holds in due[k + 1]):
                break
        else:
            stack.pop()
            continue
        if len(stack) < len(domains):
            stack.append(iter(domains[k + 1]))
        else:
            yield tuple(values)


def _subsets(universe: Sequence) -> list[frozenset]:
    """Every subset of ``universe``, in the order of the bit masks over it."""
    return [
        frozenset(u for i, u in enumerate(universe) if mask >> i & 1)
        for mask in range(1 << len(universe))
    ]


# ---------------------------------------------------------------------------
# Flat-model brute force
# ---------------------------------------------------------------------------


def _element_domain(var) -> list:
    if var.base == BOOL:
        return [False, True]
    if var.base == INT:
        return list(var.domain.values())
    if var.base == SET:
        if not isinstance(var.domain, IntInterval):
            raise UnsupportedModelError(["set variable without an interval universe"])
        return _subsets(list(var.domain.values()))
    raise UnsupportedModelError([f"{var.base} variables cannot be enumerated"])


def count_candidates(fm: FlatModel) -> int:
    """Size of the brute-force search space (product of element domain sizes)."""
    total = 1
    for var in fm.variables:
        if var.base == REAL:
            raise UnsupportedModelError(["real variables cannot be enumerated"])
        per = (
            2 ** var.domain.size
            if var.base == SET
            else (2 if var.base == BOOL else var.domain.size)
        )
        total *= per ** var.element_count
    return total


def enumerate_flat(fm: FlatModel) -> list[Solution]:
    """Every satisfying total assignment, by exhaustive enumeration."""
    keys, _, constraints = compile_check(fm)
    domains: list[list] = []
    for var in fm.variables:
        dom = _element_domain(var)
        domains.extend(dom for _ in iter_indices(var.shape))
    slots = {key: i for i, key in enumerate(keys)}
    cells: dict[str, list[int]] = {}
    for i, (name, _) in enumerate(keys):
        cells.setdefault(name, []).append(i)
    checks = []
    for c, holds in zip(fm.constraints, constraints):
        reads = set()
        for node in walk(c.expr):
            if type(node) is Ref:
                part = node.parts[0]
                idx = tuple(i.value if type(i) is IntLit else None for i in part.indices)
                slot = slots.get((part.name, idx))
                if slot is None:  # a variable subscript, a whole array or a table
                    reads.update(cells.get(part.name, ()))
                else:
                    reads.add(slot)
        checks.append((holds, frozenset(reads)))
    return [Solution(dict(zip(keys, values))) for values in backtrack(domains, checks)]


def flat_solution_set(fm: FlatModel) -> set[frozenset]:
    return {s.as_frozen() for s in enumerate_flat(fm)}


# ---------------------------------------------------------------------------
# Direct interpreter over the analyzed source model
# ---------------------------------------------------------------------------


@dataclass
class _DecSlot:
    key: tuple[str, tuple[int, ...]]
    values: list
    pos: int  # its place in the value vector


class _Obj:
    def __init__(self, cls: ClassDef):
        self.cls = cls
        self.attrs: dict[str, object] = {}


class ModelInterpreter:
    """Executes an analyzed model directly, without any flattening pass."""

    def __init__(self, tm: TypedModel):
        self.tm = tm
        self.enums = tm.enums
        self.constants: dict[str, object] = {}
        self.slots: list[_DecSlot] = []
        self.checks: list[Check] = []
        self.objectives: list[tuple[str, Closure]] = []  # (kind, value)
        self._load_constants()
        root = self._build_object(tm.main)
        self._apply_assignments(root)
        self._collect_slots(root, "")
        self._compiler = _SourceCompiler(self.constants)
        self._instantiate(root)

    # -- construction -----------------------------------------------------------

    def _load_constants(self) -> None:
        for name, decl in self.tm.constants.items():
            if decl.shape:
                values = tuple(cell.value for cell in decl.value.items)
                self.constants[name] = Table(name, shape_dims(decl.shape, self.enums), values)
            else:
                self.constants[name] = decl.value.value

    def _domain_values(self, attr: Attribute) -> list:
        t = attr.type
        if isinstance(t, BoolType):
            return [False, True]
        if isinstance(t, EnumType):
            return list(range(1, len(self.enums[t.name].values) + 1))
        dom = attr.domain
        if isinstance(t, SetType):
            if not isinstance(dom, DomainInterval):
                raise UnsupportedModelError(["set attribute without an interval universe"])
            return _subsets(range(dom.lo.value, dom.hi.value + 1))
        if isinstance(t, RealType):
            raise UnsupportedModelError(["real decision variables cannot be enumerated"])
        if dom is None:
            raise EvalError(f"attribute '{attr.name}' has no finite domain")
        if isinstance(dom, DomainSet):
            return sorted({v.value for v in dom.elems})
        return list(range(dom.lo.value, dom.hi.value + 1))

    def _build_object(self, cls: ClassDef) -> _Obj:
        obj = _Obj(cls)
        for attr in cls.attributes:
            dims = shape_dims(attr.shape, self.enums)
            if isinstance(attr.type, (IntType, RealType, BoolType, SetType, EnumType)):
                obj.attrs[attr.name] = {"dims": dims, "cells": {}}
            else:
                target = self.tm.class_map[attr.type.name]
                if dims:
                    obj.attrs[attr.name] = [self._build_object(target) for _ in range(dims[0])]
                else:
                    obj.attrs[attr.name] = self._build_object(target)
        return obj

    def _apply_assignments(self, root: _Obj) -> None:
        for asg in self.tm.assignments:
            obj = root
            for seg in asg.path[1:-1]:
                obj = obj.attrs[seg]
            attr = next(a for a in obj.cls.attributes if a.name == asg.path[-1])
            self._assign(obj.attrs[attr.name], attr, asg.value)

    def _assign(self, entry, attr: Attribute, value) -> None:
        """Record ``attr``'s resolved data ``value`` in its ``entry``."""
        if attr.shape:
            cells = zip(iter_indices(shape_dims(attr.shape, self.enums)), value.items)
        else:
            cells = [((), value)]
        for idx, cell in cells:
            if isinstance(cell, VOmit):
                continue
            if isinstance(entry, dict):  # a primitive attribute
                entry["cells"][idx] = cell.value
                continue
            child = entry[idx[0] - 1] if idx else entry
            for sub_attr, sub_value in zip(child.cls.attributes, cell.items):
                self._assign(child.attrs[sub_attr.name], sub_attr, sub_value)

    # -- decision slots ------------------------------------------------------------

    def _collect_slots(self, obj: _Obj, prefix: str) -> None:
        """Make the decision slots under ``obj`` as the flattener makes its
        variables, named by the same prefix scheme."""
        for attr in obj.cls.attributes:
            entry = obj.attrs[attr.name]
            name = prefix + attr.name
            if isinstance(entry, dict):
                indices = list(iter_indices(entry["dims"]))
                entry["cells"].update(self._decide(name, attr, entry["cells"], indices))
            elif isinstance(entry, _Obj):
                self._collect_slots(entry, name + "_")
            else:
                # an object array: each scalar primitive attribute of its
                # elements is one array over them, then each element is expanded
                for a in entry[0].cls.attributes:
                    scalars = [child.attrs[a.name] for child in entry]
                    if not isinstance(scalars[0], dict) or scalars[0]["dims"]:
                        continue
                    cells = {(i,): s["cells"][()] for i, s in enumerate(scalars, 1) if s["cells"]}
                    indices = [(i,) for i in range(1, len(entry) + 1)]
                    for (i,), slot in self._decide(f"{name}_{a.name}", a, cells, indices).items():
                        scalars[i - 1]["cells"][()] = slot
                for i, child in enumerate(entry, start=1):
                    self._collect_slots(child, f"{name}_{i}_")

    def _decide(self, name: str, attr: Attribute, cells: dict, indices: list) -> dict:
        """The slots of the primitive ``name`` whose cells are ``indices``, of
        which ``cells`` holds the assigned ones.  When every cell is assigned
        there are none; otherwise every cell gets a slot over the domain, and
        an assigned cell's slot is pinned to its value, as the flattener pins
        a partly assigned array.  Returns the unassigned cells' slots."""
        if len(cells) == len(indices):
            return {}
        values = self._domain_values(attr)
        free = {}
        for idx in indices:
            slot = _DecSlot((name, idx), values, len(self.slots))
            self.slots.append(slot)
            if idx in cells:
                pin = lambda values, pos=slot.pos, value=cells[idx]: values[pos] == value
                self.checks.append((pin, frozenset({slot.pos})))
            else:
                free[idx] = slot
        return free

    # -- instantiation -------------------------------------------------------------

    def _instantiate(self, obj: _Obj) -> None:
        """The checks and objectives of ``obj``'s items and of every object
        under it, those under it first."""
        for entry in obj.attrs.values():
            if not isinstance(entry, dict):
                for child in entry if isinstance(entry, list) else [entry]:
                    self._instantiate(child)
        for zone in obj.cls.zones:
            for item in zone.items:
                self.checks.extend(self._item_checks(item, obj, {}))

    def _item_checks(self, item: Item, obj: _Obj, loops: dict) -> list[Check]:
        """``item``'s checks in ``obj`` with ``loops`` bound; an objective is
        recorded and has none."""
        check = self._compiler.check
        if isinstance(item, Constraint):
            return [check(item.expr, obj, loops)]
        if isinstance(item, Forall):
            if isinstance(item.range, NameRange):
                values = range(1, len(self.enums[item.range.name].values) + 1)
            else:  # analysis lets a bound read only loop variables and constants
                lo, hi = (check(b, obj, loops)[0](None) for b in (item.range.lo, item.range.hi))
                values = range(lo, hi + 1)
            return [c for v in values for sub in item.body
                    for c in self._item_checks(sub, obj, {**loops, item.var: v})]
        if isinstance(item, IfElse):
            cond, reads = check(item.cond, obj, loops)
            branches = [[c for sub in items for c in self._item_checks(sub, obj, loops)]
                        for items in (item.then_items, item.else_items or ())]
            reads = reads.union(*(r for branch in branches for _, r in branch))
            then, orelse = ([holds for holds, _ in branch] for branch in branches)
            return [(lambda values: all(h(values) for h in (then if cond(values) else orelse)),
                     reads)]
        if isinstance(item, Objective):
            self.objectives.append((item.kind, check(item.expr, obj, loops)[0]))
            return []
        if isinstance(item, GlobalCall) and item.name == "alldifferent":
            return [check(Call(item.name, item.args, span=item.span), obj, loops)]
        raise UnsupportedModelError([f"global constraint '{item.name}'"])

    # -- enumeration ---------------------------------------------------------------

    def candidate_count(self) -> int:
        return prod(len(slot.values) for slot in self.slots)

    def _vectors(self) -> Iterator[tuple]:
        return backtrack([s.values for s in self.slots], self.checks)

    def solutions(self) -> list[dict]:
        """All satisfying assignments, keyed like flat solutions."""
        keys = [s.key for s in self.slots]
        return [dict(zip(keys, values)) for values in self._vectors()]

    def solution_set(self) -> set[frozenset]:
        return {frozenset(sol.items()) for sol in self.solutions()}

    def optimum(self):
        """(kind, best objective value) by exhaustive search, the value None
        if there is no solution; None if there is no objective."""
        if not self.objectives:
            return None
        if len(self.objectives) > 1:
            raise EvalError("more than one objective after instantiation")
        kind, value = self.objectives[0]
        found = [value(values) for values in self._vectors()]
        return kind, (min if kind == "minimize" else max)(found, default=None)


def _index(offsets: Table, index: list):
    """The offset of ``index`` in an array laid out as ``offsets``."""
    try:
        return offsets.lookup(tuple(index))
    except IndexError:
        raise EvalError(f"index {index} out of range for '{offsets.name}'") from None


class _SourceCompiler(ExprCompiler):
    """Evaluate's compiler over source expressions, in one object with its
    loop variables bound.  Only references are resolved here: to a loop
    variable first, then an attribute of the object, then a data constant,
    as analysis resolves a name.  ``reads`` gathers the slots they read."""

    def __init__(self, constants: dict[str, object]):
        super().__init__()
        self.constants = constants
        self.obj: _Obj | None = None
        self.loops: dict = {}
        self.reads: set[int] = set()

    def check(self, e: Expr, obj: _Obj, loops: dict) -> Check:
        """``e``'s closure in ``obj`` under ``loops``, and the slots it reads."""
        self.obj, self.loops, self.reads = obj, loops, set()
        holds = self.compile(e)
        return holds, frozenset(self.reads)

    def _plan(self, e: Expr):
        if isinstance(e, EnumRef):
            return self.constant(e.ordinal)
        return super()._plan(e)

    def _ref(self, e: Ref) -> Closure:
        head = e.parts[0]
        if head.name in self.loops:
            return self.constant(self.loops[head.name])
        if head.name in self.obj.attrs:
            return self._path(self.obj, e.parts)
        value = self.constants.get(head.name)
        if value is None:
            return self._fails(f"unknown attribute '{head.name}'")
        if not isinstance(value, Table):
            value = Table(head.name, (), (value,))
        return self._element(head, value.shape, lambda i: self.constant(value.values[i]))

    def _path(self, obj: _Obj, parts: tuple[RefPart, ...]) -> Closure:
        """The closure of the path ``parts`` from ``obj``."""
        part, rest = parts[0], parts[1:]
        entry = obj.attrs.get(part.name)
        if entry is None or isinstance(entry, dict) == bool(rest):
            return self._fails(f"'{render_expr(Ref(parts))}' names no value")
        if isinstance(entry, _Obj):
            return self._path(entry, rest)
        if isinstance(entry, list):  # an object array
            return self._element(part, (len(entry),), lambda i: self._path(entry[i], rest))
        cells = [entry["cells"][idx] for idx in iter_indices(entry["dims"])]
        return self._element(part, entry["dims"], lambda i: self._cell(cells[i]))

    def _cell(self, cell) -> Closure:
        if isinstance(cell, _DecSlot):
            self.reads.add(cell.pos)
            return self.slot(cell.pos)
        return self.constant(cell)

    def _element(self, part: RefPart, dims: tuple, cell: Callable[[int], Closure]) -> Closure:
        """The element ``part`` indexes in an array shaped ``dims``, whose
        element at row-major offset ``i`` ``cell(i)`` compiles.  Constant
        indices compile only that element, a variable index every one; an
        array without indices is the list of its elements."""
        offsets = Table(part.name, dims, tuple(range(prod(dims))))
        if not part.indices:
            return cell(0) if not dims else self._build_array(None, list(map(cell, offsets.values)))
        subs, constant = [], True
        for ix in part.indices:
            outer, self.reads = self.reads, set()
            subs.append(self.compile(ix))
            constant = constant and not self.reads
            self.reads |= outer
        if constant:
            try:
                offset = _index(offsets, [f(None) for f in subs])
            except EvalError:
                pass  # raised when the check runs
            else:
                return cell(offset)
        cells = list(map(cell, offsets.values))
        return lambda values: cells[_index(offsets, [f(values) for f in subs])](values)
