"""Brute-force oracles: flat-model enumeration and a direct model interpreter.

The two sides are deliberately separate code paths.  ``enumerate_flat``
walks the flat model's variables and checks each candidate, a value vector
in slot order, against the flat constraints as :mod:`scomma.evaluate`
compiles them, once per model.
``ModelInterpreter`` never flattens anything: it executes the analyzed
source model natively — loops iterate, conditionals branch, object paths are
followed through an instance tree — and makes and names its decision slots
the way the flattener makes its variables, so solution sets and candidate
counts can be compared directly: an array that the data fills only in part
is a slot per cell, and each assigned cell's slot is pinned to its value.
It reads data values, array sizes and domains in the form the analyzer
resolved them to (labels as ordinals, arrays positional and row-major,
sizes and domain bounds as literals), so it looks up no label, lays out no
keyed list and evaluates no constant expression itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .analyzer import TypedModel, shape_dims
from .errors import EvalError, UnsupportedModelError
from .evaluate import compile_check
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
    ArrayLit,
    Attribute,
    BinOp,
    BoolLit,
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
    RealLit,
    RealType,
    Ref,
    SetLit,
    SetType,
    UnOp,
    VOmit,
)

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
        universe = list(var.domain.values())
        subsets = []
        for mask in range(1 << len(universe)):
            subsets.append(frozenset(universe[i] for i in range(len(universe)) if mask >> i & 1))
        return subsets
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
    keys: list = []
    domains: list[list] = []
    for var in fm.variables:
        dom = _element_domain(var)
        for idx in iter_indices(var.shape):
            keys.append((var.name, idx))
            domains.append(dom)
    solutions: list[Solution] = []
    _, _, constraints = compile_check(fm)
    for combo in itertools.product(*domains):
        if all(holds(combo) for holds in constraints):
            solutions.append(Solution(dict(zip(keys, combo))))
    return solutions


def flat_solution_set(fm: FlatModel) -> set[frozenset]:
    return {s.as_frozen() for s in enumerate_flat(fm)}


# ---------------------------------------------------------------------------
# Direct interpreter over the analyzed source model
# ---------------------------------------------------------------------------


@dataclass
class _DecSlot:
    key: tuple[str, tuple[int, ...]]
    values: list


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
        self.pins: list[tuple[_DecSlot, object]] = []  # (slot, its assigned value)
        self._load_constants()
        self.root = self._build_object(tm.main, "")
        self._apply_assignments()
        self._collect_slots(self.root, "")

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
            universe = list(range(dom.lo.value, dom.hi.value + 1))
            return [
                frozenset(u for i, u in enumerate(universe) if mask >> i & 1)
                for mask in range(1 << len(universe))
            ]
        if isinstance(t, RealType):
            raise UnsupportedModelError(["real decision variables cannot be enumerated"])
        if dom is None:
            raise EvalError(f"attribute '{attr.name}' has no finite domain")
        if isinstance(dom, DomainSet):
            return sorted({v.value for v in dom.elems})
        return list(range(dom.lo.value, dom.hi.value + 1))

    def _build_object(self, cls: ClassDef, label: str) -> _Obj:
        obj = _Obj(cls)
        for attr in cls.attributes:
            dims = shape_dims(attr.shape, self.enums)
            if isinstance(attr.type, (IntType, RealType, BoolType, SetType, EnumType)):
                obj.attrs[attr.name] = {"dims": dims, "cells": {}}
            else:
                target = self.tm.class_map[attr.type.name]
                if dims:
                    obj.attrs[attr.name] = [
                        self._build_object(target, f"{label}.{attr.name}[{i}]")
                        for i in range(1, dims[0] + 1)
                    ]
                else:
                    obj.attrs[attr.name] = self._build_object(target, f"{label}.{attr.name}")
        return obj

    def _apply_assignments(self) -> None:
        for asg in self.tm.assignments:
            obj = self.root
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
            slot = _DecSlot((name, idx), values)
            self.slots.append(slot)
            if idx in cells:
                self.pins.append((slot, cells[idx]))
            else:
                free[idx] = slot
        return free

    # -- evaluation -------------------------------------------------------------

    def candidate_count(self) -> int:
        total = 1
        for slot in self.slots:
            total *= len(slot.values)
        return total

    def solutions(self) -> list[dict]:
        """All satisfying assignments, keyed like flat solutions."""
        out = []
        for combo in itertools.product(*(s.values for s in self.slots)):
            env = {s.key: v for s, v in zip(self.slots, combo)}
            if self._satisfied(env):
                out.append(dict(env))
        return out

    def solution_set(self) -> set[frozenset]:
        return {frozenset(sol.items()) for sol in self.solutions()}

    def optimum(self):
        """(kind, best objective value) by exhaustive search; None if no
        objective or no solution."""
        obj_item = self._find_objective()
        if obj_item is None:
            return None
        best = None
        for combo in itertools.product(*(s.values for s in self.slots)):
            env = {s.key: v for s, v in zip(self.slots, combo)}
            if not self._satisfied(env):
                continue
            val = self._eval(obj_item.expr, self.root, {}, env)
            if best is None:
                best = val
            elif obj_item.kind == "minimize":
                best = min(best, val)
            else:
                best = max(best, val)
        return (obj_item.kind, best)

    def _find_objective(self) -> Objective | None:
        for cls in self.tm.class_map.values():
            for zone in cls.zones:
                for item in zone.items:
                    if isinstance(item, Objective):
                        return item
        return None

    def _satisfied(self, env: dict) -> bool:
        return all(env[slot.key] == value for slot, value in self.pins) and (
            self._eval_object_zones(self.root, env)
        )

    def _eval_object_zones(self, obj: _Obj, env: dict) -> bool:
        for attr in obj.cls.attributes:
            entry = obj.attrs[attr.name]
            if isinstance(entry, _Obj):
                if not self._eval_object_zones(entry, env):
                    return False
            elif isinstance(entry, list):
                for child in entry:
                    if not self._eval_object_zones(child, env):
                        return False
        for zone in obj.cls.zones:
            for item in zone.items:
                if not self._eval_item(item, obj, {}, env):
                    return False
        return True

    def _eval_item(self, item: Item, obj: _Obj, loops: dict, env: dict) -> bool:
        if isinstance(item, Constraint):
            v = self._eval(item.expr, obj, loops, env)
            if not isinstance(v, bool):
                raise EvalError("constraint did not evaluate to a bool")
            return v
        if isinstance(item, Forall):
            for v in self._range_values(item.range, obj, loops, env):
                inner = dict(loops)
                inner[item.var] = v
                for sub in item.body:
                    if not self._eval_item(sub, obj, inner, env):
                        return False
            return True
        if isinstance(item, IfElse):
            cond = self._eval(item.cond, obj, loops, env)
            branch = item.then_items if cond else (item.else_items or ())
            return all(self._eval_item(sub, obj, loops, env) for sub in branch)
        if isinstance(item, Objective):
            return True
        if isinstance(item, GlobalCall):
            if item.name == "alldifferent":
                values = self._array_values(item.args[0], obj, loops, env)
                return len(set(values)) == len(values)
            raise UnsupportedModelError([f"global constraint '{item.name}'"])
        raise EvalError(f"unexpected item {type(item).__name__}")

    def _range_values(self, rng, obj: _Obj, loops: dict, env: dict):
        if isinstance(rng, NameRange):
            return range(1, len(self.enums[rng.name].values) + 1)
        lo = self._eval(rng.lo, obj, loops, env)
        hi = self._eval(rng.hi, obj, loops, env)
        return range(lo, hi + 1)

    def _array_values(self, e: Expr, obj: _Obj, loops: dict, env: dict) -> list:
        if isinstance(e, ArrayLit):
            return [self._eval(x, obj, loops, env) for x in e.elems]
        if isinstance(e, Ref):
            target, dims = self._locate_array(e, obj, loops, env)
            if isinstance(target, Table):  # constant array
                return list(target.values)
            return [self._cell_value(target, idx, env) for idx in iter_indices(dims)]
        raise EvalError("alldifferent argument must be an array")

    def _cell_value(self, entry: dict, idx: tuple, env: dict):
        cell = entry["cells"][idx]
        if isinstance(cell, _DecSlot):
            return env[cell.key]
        return cell

    def _locate_array(self, ref: Ref, obj: _Obj, loops: dict, env: dict):
        """Resolve an index-free reference to an array attribute or constant."""
        name = ref.parts[0].name
        if len(ref.parts) == 1 and not ref.parts[0].indices and name in self.constants:
            arr = self.constants[name]
            if not isinstance(arr, Table):
                raise EvalError(f"'{name}' is not an array")
            return arr, None
        entry, _ = self._walk_path(ref, obj, loops, env, want_array=True)
        if not (isinstance(entry, dict) and entry["dims"]):
            raise EvalError(f"'{name}' is not an array attribute")
        return entry, tuple(entry["dims"])

    def _eval(self, e: Expr, obj: _Obj, loops: dict, env: dict):
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, RealLit):
            return e.value
        if isinstance(e, BoolLit):
            return e.value
        if isinstance(e, EnumRef):
            return e.ordinal
        if isinstance(e, SetLit):
            return frozenset(self._eval(x, obj, loops, env) for x in e.elems)
        if isinstance(e, UnOp):
            v = self._eval(e.operand, obj, loops, env)
            return (not v) if e.op == "not" else -v
        if isinstance(e, Call):
            if e.name == "cardinality":
                return len(self._eval(e.args[0], obj, loops, env))
            raise EvalError(f"unknown function '{e.name}'")
        if isinstance(e, BinOp):
            return self._eval_binop(e, obj, loops, env)
        if isinstance(e, Ref):
            value, _ = self._walk_path(e, obj, loops, env, want_array=False)
            return value
        raise EvalError(f"cannot evaluate {type(e).__name__}")

    def _eval_binop(self, e: BinOp, obj: _Obj, loops: dict, env: dict):
        op = e.op
        a = self._eval(e.left, obj, loops, env)
        if op == "and":
            return bool(a) and bool(self._eval(e.right, obj, loops, env))
        if op == "or":
            return bool(a) or bool(self._eval(e.right, obj, loops, env))
        b = self._eval(e.right, obj, loops, env)
        tol = 1e-9
        is_real = isinstance(a, float) or isinstance(b, float)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                raise EvalError("division by zero")
            if isinstance(a, int) and isinstance(b, int):
                if a % b:
                    raise EvalError(f"inexact integer division {a}/{b}")
                return a // b
            return a / b
        if op == "=":
            if is_real:
                return abs(a - b) <= tol
            return a == b
        if op == "<>":
            if is_real:
                return abs(a - b) > tol
            return a != b
        if op == "<":
            return (b - a > tol) if is_real else a < b
        if op == ">":
            return (a - b > tol) if is_real else a > b
        if op == "<=":
            return (a - b <= tol) if is_real else a <= b
        if op == ">=":
            return (b - a <= tol) if is_real else a >= b
        if op == "xor":
            return bool(a) != bool(b)
        if op == "->":
            return (not a) or bool(b)
        if op == "<-":
            return bool(a) or (not b)
        if op == "<->":
            return bool(a) == bool(b)
        if op == "in":
            return a in b
        if op == "subset":
            return a <= b
        if op == "superset":
            return a >= b
        if op == "union":
            return a | b
        if op == "diff":
            return a - b
        if op == "symdiff":
            return a ^ b
        if op == "intersection":
            return a & b
        raise EvalError(f"unknown operator '{op}'")

    def _walk_path(self, ref: Ref, obj: _Obj, loops: dict, env: dict, want_array: bool):
        current: object = obj
        for k, part in enumerate(ref.parts):
            last = k == len(ref.parts) - 1
            idx = tuple(self._eval(i, obj, loops, env) for i in part.indices)
            if k == 0 and part.name in loops and not idx:
                return loops[part.name], None
            if k == 0 and not isinstance(current, _Obj):
                raise EvalError("bad path root")
            if isinstance(current, _Obj) and part.name in current.attrs:
                entry = current.attrs[part.name]
            elif k == 0 and part.name in self.constants:
                return self._const_lookup(part.name, idx), None
            else:
                raise EvalError(f"unknown attribute '{part.name}'")
            if isinstance(entry, _Obj):
                current = entry
                continue
            if isinstance(entry, list):  # object array
                if len(idx) != 1:
                    raise EvalError(f"object array '{part.name}' needs one index")
                if not (1 <= idx[0] <= len(entry)):
                    raise EvalError(f"object index {idx[0]} out of range for '{part.name}'")
                current = entry[idx[0] - 1]
                continue
            # primitive attribute
            if not last:
                raise EvalError(f"'{part.name}' has no attributes")
            if not entry["dims"]:
                return self._cell_value(entry, (), env), None
            if not idx:
                if want_array:
                    return entry, entry["dims"]
                raise EvalError(f"array '{part.name}' used as a scalar")
            dims = entry["dims"]
            if len(idx) != len(dims) or any(not (1 <= i <= d) for i, d in zip(idx, dims)):
                raise EvalError(f"index {list(idx)} out of range for '{part.name}'")
            return self._cell_value(entry, idx, env), None
        if want_array:
            raise EvalError("path names an object, not an array")
        raise EvalError("path names an object, not a value")

    def _const_lookup(self, name: str, idx: tuple):
        value = self.constants[name]
        if not idx:
            return value
        if not isinstance(value, Table):
            raise EvalError(f"constant '{name}' is not an array")
        try:
            return value.lookup(idx)
        except IndexError:
            raise EvalError(f"index {list(idx)} out of range for '{name}'") from None
