"""The lowering pipeline from an analyzed model to a flat model.

Six passes run in a fixed order:

1. ``substitute_enums``    — enum literals become 1-based ordinals, enum types
   become integer ranges, enum-sized shapes become cardinalities; the label
   tables are kept for rendering solutions.
2. ``substitute_data``     — scalar constants are replaced by their values,
   constant arrays become lookup tables, and variable-assignments are laid
   out into per-object slot bindings.
3. ``unroll_loops``        — every forall is replaced by one copy of its body
   per range value with the loop variable substituted (outermost first).
4. ``expand_composition``  — the object tree reachable from the main class is
   inlined into prefixed flat variables; constant slots fold into literals or
   element-constraint tables.
5. ``remove_conditionals`` — ``if a then b else c`` becomes the pair
   ``a -> b`` and ``a or c``.
6. ``normalize_logic``     — ``a <-> b`` becomes ``(a -> b) and (b -> a)``;
   ``a <- b`` becomes ``b -> a``.

Unrolling runs before composition expansion on purpose: per-object arrays
(``man_1_rank``) can only be addressed once object indices are constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .analyzer import TypedModel, const_scalar_value, positionalize
from .errors import EvalError, FlattenError
from .evaluate import arith
from .ir import (
    BOOL,
    Domain,
    FlatConstraint,
    FlatModel,
    FlatObjective,
    FlatVar,
    INT,
    IntInterval,
    IntSet,
    REAL,
    RealInterval,
    SET,
    Table,
    flatness_violations,
    iter_indices,
)
from .nodes import (
    ARITH_OPS,
    Attribute,
    BinOp,
    BoolLit,
    BoolType,
    Call,
    ClassDef,
    Constraint,
    ConstraintZone,
    ConstDecl,
    DataValue,
    DomainInterval,
    DomainSet,
    EnumDecl,
    EnumRef,
    EnumType,
    Expr,
    Forall,
    GlobalCall,
    IfElse,
    IntLit,
    IntRange,
    IntType,
    Item,
    NameRange,
    Objective,
    RealLit,
    RealType,
    Ref,
    RefPart,
    SetType,
    VInt,
    VList,
    VObj,
    VOmit,
    map_item,
    transform,
    walk,
)
from .printer import render_expr


@dataclass
class PassTrace:
    """Instrumentation: (pass name, node count before, node count after).

    Counts are exact; each pass boundary is counted once, so a pass's
    ``before`` is the previous pass's ``after``."""

    steps: list[tuple[str, int, int]] = field(default_factory=list)

    def record(self, name: str, before: int, after: int) -> None:
        self.steps.append((name, before, after))


@dataclass
class FlattenState:
    """Pipeline state threaded through the six passes.

    Before ``expand_composition`` the model lives in ``classes``; afterwards
    it lives in ``variables``/``tables``/``items``.
    """

    name: str
    classes: dict[str, ClassDef]
    main: str
    enums: dict[str, EnumDecl]
    constants: dict[str, ConstDecl]
    assignments: list
    enum_types: dict[str, tuple[str, ...]] = field(default_factory=dict)
    const_scalars: dict[str, object] = field(default_factory=dict)
    const_tables: dict[str, Table] = field(default_factory=dict)
    binding: dict | None = None
    variables: list[FlatVar] = field(default_factory=list)
    tables: dict[str, Table] = field(default_factory=dict)
    items: list[Item] = field(default_factory=list)
    origins: list[str] = field(default_factory=list)
    expanded: bool = False


def node_count(state: FlattenState) -> int:
    if state.expanded:
        return len(state.variables) + len(state.tables) + len(walk(*state.items))
    return sum(
        len(cls.attributes) + len(walk(*(i for zone in cls.zones for i in zone.items)))
        for cls in state.classes.values()
    )


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------


def _literal(value) -> Expr:
    if isinstance(value, bool):
        return BoolLit(value)
    if isinstance(value, float):
        return RealLit(value)
    return IntLit(value)


def fold_expr(e: Expr, tables: dict[str, Table] | None = None) -> Expr:
    """Fold constant arithmetic and constant-index table lookups.

    Comparisons and logical operators are left alone: redundancy removal is
    not this compiler's job, and keeping them preserves source shape.
    """
    tables = tables or {}
    return transform(e, lambda node: _fold(node, tables))


def _substitute_and_fold(e: Expr, repl, tables: dict[str, Table]) -> Expr:
    """``fold_expr(transform(e, repl), tables)`` in one traversal: ``repl``
    decides on a node from the node alone, and folding is bottom-up."""
    return transform(e, lambda node: _fold(repl(node), tables))


def _fold(node: Expr, tables: dict[str, Table]) -> Expr:
    """``node`` with its children already folded, folded itself.

    Arithmetic is the evaluator's; what it rejects (division by zero,
    inexact integer division) stays unfolded for it to reject at run time."""
    if isinstance(node, BinOp) and node.op in ARITH_OPS:
        l, r = node.left, node.right
        if isinstance(l, (IntLit, RealLit)) and isinstance(r, (IntLit, RealLit)):
            try:
                return _literal(arith(node, l.value, r.value))
            except EvalError:
                return node
    if isinstance(node, Ref) and len(node.parts) == 1:
        part = node.parts[0]
        table = tables.get(part.name)
        if (
            table is not None
            and part.indices
            and all(isinstance(i, IntLit) for i in part.indices)
        ):
            idx = tuple(i.value for i in part.indices)
            try:
                return _literal(table.lookup(idx))
            except IndexError:
                raise FlattenError(
                    f"constant index {list(idx)} outside the bounds of '{part.name}'"
                ) from None
    return node


def _fold_to_int(e: Expr, state: FlattenState, what: str, pass_name: str) -> int:
    folded = fold_expr(e, state.const_tables)
    if isinstance(folded, IntLit):
        return folded.value
    raise FlattenError(f"{what} '{render_expr(e)}' is not a constant integer", pass_name)


def _rebuild_zones(state: FlattenState, fn) -> None:
    """Replace each item of every zone of every class by the items ``fn``
    returns for it."""
    for name, cls in state.classes.items():
        zones = tuple(
            ConstraintZone(z.name, tuple(out for i in z.items for out in fn(i)), span=z.span)
            for z in cls.zones
        )
        state.classes[name] = ClassDef(cls.name, None, cls.attributes, zones, span=cls.span)


def _enum_of_keys(keys: tuple[str, ...], state: FlattenState, what: str) -> EnumDecl:
    for enum in state.enums.values():
        if all(k in enum.values for k in keys):
            return enum
    raise FlattenError(
        f"{what}: keys {list(keys)} do not all belong to one enum", "substitute_enums"
    )


# ---------------------------------------------------------------------------
# Pass 1: enumeration substitution
# ---------------------------------------------------------------------------


def substitute_enums(state: FlattenState) -> FlattenState:
    used: dict[str, tuple[str, ...]] = {}

    def use(name: str) -> EnumDecl:
        decl = state.enums[name]
        used.setdefault(name, decl.values)
        return decl

    def sub_bound(bound: Expr) -> Expr:
        if isinstance(bound, Ref) and bound.simple_name in state.enums:
            return IntLit(len(use(bound.simple_name).values), span=bound.span)
        return bound

    def sub_expr(e: Expr) -> Expr:
        def repl(node: Expr) -> Expr:
            if isinstance(node, EnumRef):
                use(node.enum_name)
                return IntLit(node.ordinal, span=node.span)
            return node

        return transform(e, repl)

    for name, cls in state.classes.items():
        attrs = []
        for a in cls.attributes:
            shape = tuple(sub_bound(b) for b in a.shape)
            domain = a.domain
            tag = a.enum_tag
            atype = a.type
            if isinstance(atype, EnumType):
                decl = use(atype.name)
                tag = atype.name
                atype = IntType()
                domain = DomainInterval(IntLit(1), IntLit(len(decl.values)))
            elif isinstance(atype, SetType) and atype.elem != "int":
                decl = use(atype.elem)
                tag = atype.elem
                atype = SetType("int")
                if domain is None:
                    domain = DomainInterval(IntLit(1), IntLit(len(decl.values)))
            if isinstance(domain, DomainInterval):
                domain = DomainInterval(sub_expr(domain.lo), sub_expr(domain.hi))
            elif isinstance(domain, DomainSet):
                domain = DomainSet(tuple(sub_expr(v) for v in domain.elems))
            attrs.append(Attribute(a.name, atype, shape, domain, tag, span=a.span))
        state.classes[name] = ClassDef(cls.name, None, tuple(attrs), cls.zones, span=cls.span)

    def map_range(item: Item) -> Item:
        if isinstance(item, Forall):
            rng = item.range
            if isinstance(rng, NameRange):
                decl = use(rng.name)
                rng = IntRange(IntLit(1), IntLit(len(decl.values)))
            return Forall(item.var, rng, tuple(map_range(i) for i in item.body), span=item.span)
        if isinstance(item, IfElse):
            else_items = (
                tuple(map_range(i) for i in item.else_items)
                if item.else_items is not None
                else None
            )
            return IfElse(item.cond, tuple(map_range(i) for i in item.then_items),
                          else_items, span=item.span)
        return item

    # all loop ranges first, then all expressions: the order in which enums
    # are first used is the order of ``enum_types`` in the emitted text
    _rebuild_zones(state, lambda item: (map_range(item),))
    _rebuild_zones(state, lambda item: (map_item(item, sub_expr),))

    def sub_value(v: DataValue) -> DataValue:
        from .nodes import VSym

        if isinstance(v, VSym):
            for enum in state.enums.values():
                if v.name in enum.values:
                    use(enum.name)
                    return VInt(enum.ordinal(v.name))
            raise FlattenError(f"unresolvable enum literal '{v.name}'", "substitute_enums")
        if isinstance(v, VList):
            if v.keys:
                # keyed entries are laid out here, while the key enum is known
                enum = _enum_of_keys(v.keys, state, "keyed array")
                use(enum.name)
                cells, problem = positionalize(v, len(enum.values), enum)
                if problem:
                    raise FlattenError(f"keyed array: {problem}", "substitute_enums")
                return VList(tuple(sub_value(i) for i in cells), None)
            return VList(tuple(sub_value(i) for i in v.items), None)
        if isinstance(v, VObj):
            return VObj(tuple(sub_value(i) for i in v.items))
        return v

    state.constants = {
        n: ConstDecl(c.name, c.type, tuple(sub_bound(b) for b in c.shape), sub_value(c.value),
                     span=c.span)
        for n, c in state.constants.items()
    }
    state.assignments = [
        replace(a, value=sub_value(a.value)) for a in state.assignments
    ]
    state.enum_types = used
    return state


# ---------------------------------------------------------------------------
# Pass 2: data substitution
# ---------------------------------------------------------------------------


def _const_dims(decl: ConstDecl, state: FlattenState) -> tuple[int, ...]:
    dims = []
    for bound in decl.shape:
        if isinstance(bound, IntLit):
            dims.append(bound.value)
        elif isinstance(bound, Ref) and bound.simple_name in state.const_scalars:
            dims.append(int(state.const_scalars[bound.simple_name]))
        else:
            raise FlattenError(
                f"array size of constant '{decl.name}' is not constant", "substitute_data"
            )
    if dims:
        return tuple(dims)
    # infer from the literal when no shape was declared
    v = decl.value
    if isinstance(v, VList):
        if v.items and isinstance(v.items[0], VList):
            return (len(v.items), len(v.items[0].items))
        return (len(v.items),)
    return ()


def _plain(v: DataValue, what: str):
    value = const_scalar_value(v)
    if value is None:
        raise FlattenError(f"{what} must be a constant value", "substitute_data")
    return value


def substitute_data(state: FlattenState) -> FlattenState:
    # Constant declarations become scalars or lookup tables (keyed entries
    # were already laid out positionally by enumeration substitution).
    for name, decl in state.constants.items():
        value = decl.value
        if not isinstance(value, VList):
            state.const_scalars[name] = _plain(value, f"constant '{name}'")
    for name, decl in state.constants.items():
        value = decl.value
        if not isinstance(value, VList):
            continue
        dims = _const_dims(decl, state)
        cells = _layout_list(value, dims, f"constant '{name}'")
        flat = tuple(_plain(c, f"constant '{name}'") for c in cells)
        state.const_tables[name] = Table(name, dims, flat)

    def sub_expr(e: Expr) -> Expr:
        def repl(node: Expr) -> Expr:
            if isinstance(node, Ref) and node.simple_name in state.const_scalars:
                return _literal(state.const_scalars[node.simple_name])
            return node

        return _substitute_and_fold(e, repl, state.const_tables)

    # resolve constant names inside attribute shapes and domains
    for name, cls in state.classes.items():
        attrs = []
        for a in cls.attributes:
            shape = tuple(sub_expr(b) for b in a.shape)
            domain = a.domain
            if isinstance(domain, DomainInterval):
                domain = DomainInterval(sub_expr(domain.lo), sub_expr(domain.hi))
            elif isinstance(domain, DomainSet):
                domain = DomainSet(tuple(sub_expr(v) for v in domain.elems))
            attrs.append(Attribute(a.name, a.type, shape, domain, a.enum_tag, span=a.span))
        state.classes[name] = ClassDef(cls.name, None, tuple(attrs), cls.zones, span=cls.span)

    _rebuild_zones(state, lambda item: (map_item(item, sub_expr),))
    state.binding = _build_binding(state)
    return state


_PRIMITIVE_TYPES = (IntType, RealType, BoolType, SetType)


def _layout_list(value: VList, dims: tuple[int, ...], what: str) -> list[DataValue]:
    """Row-major cell layout of a positional (possibly nested) array literal."""
    if not dims:
        raise FlattenError(f"{what}: array value assigned to a scalar", "substitute_data")
    cells, problem = positionalize(value, dims[0], None)
    if problem:
        raise FlattenError(f"{what}: {problem}", "substitute_data")
    if len(dims) == 1:
        return cells
    out: list[DataValue] = []
    for i, cell in enumerate(cells, start=1):
        if isinstance(cell, VOmit):
            out.extend(VOmit() for _ in range(dims[1]))
            continue
        if not isinstance(cell, VList):
            raise FlattenError(f"{what}[{i}]: expected a row literal", "substitute_data")
        out.extend(_layout_list(cell, dims[1:], f"{what}[{i}]"))
    return out


def _build_binding(state: FlattenState) -> dict:
    """Instance slot values for the whole object tree under the main class."""

    def fresh(cls: ClassDef) -> dict:
        out: dict = {}
        for a in cls.attributes:
            if isinstance(a.type, _PRIMITIVE_TYPES):
                out[a.name] = {}  # index tuple -> constant value
            else:
                target = state.classes[a.type.name]
                if a.shape:
                    n = _attr_dims(a, state)[0]
                    out[a.name] = [fresh(target) for _ in range(n)]
                else:
                    out[a.name] = fresh(target)
        return out

    binding = fresh(state.classes[state.main])
    for asg in state.assignments:
        slot_owner = binding
        cls = state.classes[state.main]
        attr = None
        for seg in asg.path[1:-1]:
            attr = _attr_named(cls, seg)
            slot_owner = slot_owner[seg]
            cls = state.classes[attr.type.name]
        attr = _attr_named(cls, asg.path[-1])
        _bind_value(slot_owner, attr, asg.value, state, ".".join(asg.path))
    return binding


def _attr_named(cls: ClassDef, name: str) -> Attribute:
    for a in cls.attributes:
        if a.name == name:
            return a
    raise FlattenError(f"class '{cls.name}' has no attribute '{name}'", "substitute_data")


def _attr_dims(attr: Attribute, state: FlattenState) -> tuple[int, ...]:
    dims = []
    for bound in attr.shape:
        folded = fold_expr(bound, state.const_tables)
        if isinstance(folded, IntLit) and folded.value >= 1:
            dims.append(folded.value)
        else:
            raise FlattenError(
                f"array size of '{attr.name}' did not resolve to a positive constant",
                "substitute_data",
            )
    return tuple(dims)


def _bind_value(slot_owner, attr: Attribute, value: DataValue, state: FlattenState, where: str) -> None:
    if isinstance(value, VOmit):
        return
    primitive = isinstance(attr.type, _PRIMITIVE_TYPES)
    if not attr.shape:
        if primitive:
            slot_owner[attr.name][()] = _plain(value, where)
        else:
            _bind_object(slot_owner[attr.name], attr, value, state, where)
        return
    dims = _attr_dims(attr, state)
    if not isinstance(value, VList):
        raise FlattenError(f"{where}: array attribute needs an array literal", "substitute_data")
    for idx, cell in zip(iter_indices(dims), _layout_list(value, dims, where)):
        if isinstance(cell, VOmit):
            continue
        cell_where = f"{where}[{','.join(map(str, idx))}]"
        if primitive:
            slot_owner[attr.name][idx] = _plain(cell, cell_where)
        else:
            _bind_object(slot_owner[attr.name][idx[0] - 1], attr, cell, state, cell_where)


def _bind_object(obj_binding: dict, attr: Attribute, value: DataValue, state: FlattenState, where: str) -> None:
    if not isinstance(value, VObj):
        raise FlattenError(f"{where}: expected an object literal", "substitute_data")
    target = state.classes[attr.type.name]
    if len(value.items) > len(target.attributes):
        raise FlattenError(
            f"{where}: object literal has more elements than '{target.name}' has attributes",
            "substitute_data",
        )
    for sub_attr, sub_value in zip(target.attributes, value.items):
        _bind_value(obj_binding, sub_attr, sub_value, state, f"{where}.{sub_attr.name}")


# ---------------------------------------------------------------------------
# Pass 3: loop unrolling
# ---------------------------------------------------------------------------


def _subst_loop_var(item: Item, var: str, value: int) -> Item:
    lit = IntLit(value)

    def repl(node: Expr) -> Expr:
        if isinstance(node, Ref) and node.parts[0].name == var:
            if len(node.parts) == 1 and not node.parts[0].indices:
                return lit
        return node

    return map_item(item, lambda e: _substitute_and_fold(e, repl, {}))


def _unroll_item(item: Item, state: FlattenState) -> list[Item]:
    if isinstance(item, Forall):
        rng = item.range
        if not isinstance(rng, IntRange):
            raise FlattenError(f"loop range '{rng.name}' was not substituted", "unroll_loops")
        lo = _fold_to_int(rng.lo, state, "loop bound", "unroll_loops")
        hi = _fold_to_int(rng.hi, state, "loop bound", "unroll_loops")
        out: list[Item] = []
        for v in range(lo, hi + 1):
            for body_item in item.body:
                out.extend(_unroll_item(_subst_loop_var(body_item, item.var, v), state))
        return out
    if isinstance(item, IfElse):
        then_items = tuple(
            sub for it in item.then_items for sub in _unroll_item(it, state)
        )
        else_items = None
        if item.else_items is not None:
            else_items = tuple(
                sub for it in item.else_items for sub in _unroll_item(it, state)
            )
        return [IfElse(item.cond, then_items, else_items, span=item.span)]
    return [item]


def unroll_loops(state: FlattenState) -> FlattenState:
    _rebuild_zones(state, lambda item: _unroll_item(item, state))
    return state


# ---------------------------------------------------------------------------
# Pass 4: composition expansion
# ---------------------------------------------------------------------------


@dataclass
class _SlotScalar:
    """A primitive scalar: a literal, or a reference to a flat variable or
    to one element of a flat array variable."""

    expr: Expr


@dataclass
class _SlotArray:
    """A primitive array: the flat array variable ``name``, or the constant
    ``table`` of that name when every cell is assigned."""

    name: str
    table: Table | None


@dataclass
class _Instance:
    """An expanded object; it is also the slot of an object attribute."""

    cls: ClassDef
    slots: dict[str, object]
    label: str


@dataclass
class _SlotObjArray:
    insts: list[_Instance]
    # scalar primitive attribute -> its values across the array: the target
    # of a reference through a variable object index
    grouped: dict[str, _SlotArray]


class _Expander:
    def __init__(self, state: FlattenState):
        self.state = state
        self.used_names: set[str] = set()
        self.variables: list[FlatVar] = []
        self.tables: dict[str, Table] = {}
        self.items: list[Item] = []
        self.origins: list[str] = []

    # -- naming and registration ------------------------------------------------

    def claim(self, name: str) -> str:
        if name in self.used_names:
            raise FlattenError(
                f"flat name '{name}' collides with an existing variable or table",
                "expand_composition",
            )
        self.used_names.add(name)
        return name

    def register_table(self, table: Table) -> None:
        if table.name not in self.tables:
            self.tables[table.name] = table

    def add_item(self, item: Item, origin: str) -> None:
        self.items.append(item)
        self.origins.append(origin)

    # -- variable creation --------------------------------------------------------

    def _domain_of(self, attr: Attribute, owner: str) -> Domain:
        base = _base_of(attr)
        dom = attr.domain
        if dom is None:
            if base == BOOL:
                return IntInterval(0, 1)
            raise FlattenError(
                f"'{owner}' is a decision variable but has no finite domain",
                "expand_composition",
            )
        if isinstance(dom, DomainSet):
            values = []
            for v in dom.elems:
                folded = fold_expr(v, self.state.const_tables)
                if not isinstance(folded, IntLit):
                    raise FlattenError(
                        f"domain value of '{owner}' is not a constant integer",
                        "expand_composition",
                    )
                values.append(folded.value)
            return IntSet(tuple(values))
        lo = fold_expr(dom.lo, self.state.const_tables)
        hi = fold_expr(dom.hi, self.state.const_tables)
        if base == REAL:
            if not isinstance(lo, (IntLit, RealLit)) or not isinstance(hi, (IntLit, RealLit)):
                raise FlattenError(f"domain of '{owner}' is not constant", "expand_composition")
            return RealInterval(float(lo.value), float(hi.value))
        if not isinstance(lo, IntLit) or not isinstance(hi, IntLit):
            raise FlattenError(f"domain of '{owner}' is not a constant integer interval",
                               "expand_composition")
        if lo.value > hi.value:
            raise FlattenError(f"domain of '{owner}' is empty", "expand_composition")
        return IntInterval(lo.value, hi.value)

    def make_var(
        self, name: str, attr: Attribute, dims: tuple[int, ...], owner: str
    ) -> FlatVar:
        var = FlatVar(
            name=self.claim(name),
            base=_base_of(attr),
            shape=dims,
            domain=self._domain_of(attr, owner),
            enum_tag=attr.enum_tag,
        )
        self.variables.append(var)
        return var

    def pin(self, var: FlatVar, index: tuple[int, ...], value: object, owner: str) -> None:
        if isinstance(value, bool):
            rhs: Expr = BoolLit(value)
        elif isinstance(value, float):
            rhs = RealLit(value)
        else:
            if value not in var.domain:
                raise FlattenError(
                    f"assigned value {value} for '{owner}' lies outside its domain",
                    "expand_composition",
                )
            rhs = IntLit(value)
        lhs = Ref((RefPart(var.name, tuple(IntLit(i) for i in index)),))
        self.add_item(Constraint(BinOp("=", lhs, rhs)), "data")

    # -- object expansion -----------------------------------------------------------

    def expand_object(
        self, cls: ClassDef, prefix: str, binding: dict, label: str, slots: dict | None = None
    ) -> _Instance:
        """Expand one object; ``slots`` holds those of its slots that already
        exist (an array element's share of the array's grouped attributes)."""
        slots = {} if slots is None else slots
        for attr in cls.attributes:
            if attr.name in slots:
                continue
            owner = f"{label}.{attr.name}" if label else attr.name
            if isinstance(attr.type, _PRIMITIVE_TYPES):
                slots[attr.name] = self._expand_primitive(
                    prefix + attr.name, attr, _attr_dims(attr, self.state), binding[attr.name],
                    owner,
                )
            elif attr.shape:
                slots[attr.name] = self._expand_object_array(
                    prefix, attr, binding[attr.name], owner
                )
            else:
                slots[attr.name] = self.expand_object(
                    self.state.classes[attr.type.name], prefix + attr.name + "_",
                    binding[attr.name], owner,
                )
        instance = _Instance(cls, slots, label)
        for zone in cls.zones:
            origin = f"{label or cls.name}:{zone.name}"
            for item in zone.items:
                self.add_item(self.instantiate_item(item, instance), origin)
        return instance

    def _expand_primitive(
        self, name: str, attr: Attribute, dims: tuple[int, ...], cells: dict, owner: str
    ):
        if not dims:
            if () in cells:
                return _SlotScalar(_literal(cells[()]))
            self.make_var(name, attr, (), owner)
            return _SlotScalar(Ref((RefPart(name),)))
        indices = list(iter_indices(dims))
        if len(cells) == len(indices):
            self.claim(name)
            return _SlotArray(name, Table(name, dims, tuple(cells[i] for i in indices)))
        var = self.make_var(name, attr, dims, owner)
        for idx in indices:
            if idx in cells:
                self.pin(var, idx, cells[idx], owner)
        return _SlotArray(name, None)

    def _expand_object_array(self, prefix: str, attr: Attribute, bindings: list, owner: str):
        """Each scalar primitive attribute of the elements becomes one flat
        array over the elements (grouped), then each element is expanded."""
        cls = self.state.classes[attr.type.name]
        grouped: dict[str, _SlotArray] = {}
        elem_slots: list[dict] = [{} for _ in bindings]
        for a in cls.attributes:
            if a.shape or not isinstance(a.type, _PRIMITIVE_TYPES):
                continue
            cells = {(i,): b[a.name][()] for i, b in enumerate(bindings, 1) if () in b[a.name]}
            array = self._expand_primitive(
                f"{prefix}{attr.name}_{a.name}", a, (len(bindings),), cells, f"{owner}.{a.name}"
            )
            grouped[a.name] = array
            for i, slots in enumerate(elem_slots, 1):
                value = cells.get((i,))
                slots[a.name] = _SlotScalar(
                    Ref((RefPart(array.name, (IntLit(i),)),)) if value is None else _literal(value)
                )
        insts = [
            self.expand_object(cls, f"{prefix}{attr.name}_{i}_", b, f"{owner}[{i}]", slots)
            for i, (b, slots) in enumerate(zip(bindings, elem_slots), 1)
        ]
        return _SlotObjArray(insts, grouped)

    # -- reference resolution -----------------------------------------------------

    def resolve_expr(self, e: Expr, inst: _Instance) -> Expr:
        def repl(node: Expr) -> Expr:
            if isinstance(node, Ref):
                return self.resolve_ref(node, inst)
            return node

        return _substitute_and_fold(e, repl, self.state.const_tables)

    def resolve_ref(self, ref: Ref, inst: _Instance) -> Expr:
        """``ref`` as a flat expression; its indices are already folded."""
        parts = ref.parts
        slot = inst.slots.get(parts[0].name)
        if slot is None:
            table = self.state.const_tables.get(parts[0].name)
            if table is not None and len(parts) == 1:
                return self._primitive_ref(_SlotArray(table.name, table), parts[0], ref)
            raise FlattenError(
                f"unresolved reference '{render_expr(ref)}' in '{inst.label or inst.cls.name}'",
                "expand_composition",
            )
        k = 0
        while True:
            part = parts[k]
            last = k == len(parts) - 1
            if isinstance(slot, _Instance):
                if part.indices:
                    raise FlattenError(
                        f"scalar object '{part.name}' indexed in '{render_expr(ref)}'",
                        "expand_composition",
                    )
                if last:
                    raise FlattenError(
                        f"object '{part.name}' used as a value in '{render_expr(ref)}'",
                        "expand_composition",
                    )
                obj = slot
            elif isinstance(slot, _SlotObjArray):
                if len(part.indices) != 1:
                    raise FlattenError(
                        f"object array '{part.name}' needs one index in"
                        f" '{render_expr(ref)}'",
                        "expand_composition",
                    )
                idx = part.indices[0]
                if not isinstance(idx, IntLit):
                    # variable object index: only a grouped scalar target survives
                    if k + 2 == len(parts) and not parts[k + 1].indices:
                        target = slot.grouped.get(parts[k + 1].name)
                        if target is not None:
                            return self._primitive_ref(target, RefPart(target.name, (idx,)), ref)
                    raise FlattenError(
                        f"variable index into object array '{part.name}' in"
                        f" '{render_expr(ref)}': the target attribute is expanded"
                        " per object, so the index must be constant",
                        "expand_composition",
                    )
                if not (1 <= idx.value <= len(slot.insts)):
                    raise FlattenError(
                        f"object index {idx.value} outside 1..{len(slot.insts)} in"
                        f" '{render_expr(ref)}'",
                        "expand_composition",
                    )
                if last:
                    raise FlattenError(
                        f"object '{part.name}[{idx.value}]' used as a value in"
                        f" '{render_expr(ref)}'",
                        "expand_composition",
                    )
                obj = slot.insts[idx.value - 1]
            else:
                return self._primitive_ref(slot, part, ref)
            k += 1
            slot = obj.slots.get(parts[k].name)
            if slot is None:
                raise FlattenError(
                    f"unresolved reference '{render_expr(ref)}'", "expand_composition"
                )

    def _primitive_ref(self, slot, part: RefPart, ref: Ref) -> Expr:
        if isinstance(slot, _SlotScalar):
            if part.indices:
                raise FlattenError(
                    f"scalar '{part.name}' indexed in '{render_expr(ref)}'",
                    "expand_composition",
                )
            e = slot.expr
            return Ref(e.parts, span=ref.span) if isinstance(e, Ref) else e
        table = slot.table
        if table is not None and part.indices and all(isinstance(i, IntLit) for i in part.indices):
            idx = tuple(i.value for i in part.indices)
            try:
                return _literal(table.lookup(idx))
            except IndexError:
                raise FlattenError(
                    f"constant index {list(idx)} outside bounds of '{table.name}'"
                    f" in '{render_expr(ref)}'",
                    "expand_composition",
                ) from None
        if table is not None:
            self.register_table(table)
        return Ref((RefPart(slot.name, part.indices),), span=ref.span)

    # -- items ---------------------------------------------------------------------

    def instantiate_item(self, item: Item, inst: _Instance) -> Item:
        if isinstance(item, Forall):
            raise FlattenError(
                "unexpected Forall during expansion (loops must be unrolled first)",
                "expand_composition",
            )
        return map_item(item, lambda e: self.resolve_expr(e, inst))


def _base_of(attr: Attribute) -> str:
    if isinstance(attr.type, IntType):
        return INT
    if isinstance(attr.type, RealType):
        return REAL
    if isinstance(attr.type, BoolType):
        return BOOL
    if isinstance(attr.type, SetType):
        return SET
    raise AssertionError("object attribute has no base type")


def expand_composition(state: FlattenState) -> FlattenState:
    if state.binding is None:
        raise FlattenError("data must be substituted before expansion", "expand_composition")
    expander = _Expander(state)
    expander.expand_object(state.classes[state.main], "", state.binding, "")
    state.variables = expander.variables
    state.tables = expander.tables
    state.items = expander.items
    state.origins = expander.origins
    state.expanded = True
    return state


# ---------------------------------------------------------------------------
# Pass 5: conditional removal
# ---------------------------------------------------------------------------


def _conjunction(exprs: list[Expr]) -> Expr:
    out = exprs[0]
    for e in exprs[1:]:
        out = BinOp("and", out, e)
    return out


def conditional_formula(item: IfElse) -> Expr:
    """``if a then b else c`` as ``(a -> b) and (a or c)``; without an else
    branch just ``a -> b``.  Nested conditionals are rewritten innermost-first."""
    then_expr = _conjunction(_branch_exprs(item.then_items))
    formula = BinOp("->", item.cond, then_expr)
    if item.else_items is not None:
        else_expr = _conjunction(_branch_exprs(item.else_items))
        formula = BinOp("and", formula, BinOp("or", item.cond, else_expr))
    return formula


def _branch_exprs(items: tuple[Item, ...]) -> list[Expr]:
    out: list[Expr] = []
    for item in items:
        if isinstance(item, Constraint):
            out.append(item.expr)
        elif isinstance(item, IfElse):
            out.append(conditional_formula(item))
        else:
            raise FlattenError(
                f"{type(item).__name__} cannot appear inside a conditional",
                "remove_conditionals",
            )
    return out


def remove_conditionals(state: FlattenState) -> FlattenState:
    items: list[Item] = []
    origins: list[str] = []
    for item, origin in zip(state.items, state.origins):
        if isinstance(item, IfElse):
            items.append(Constraint(conditional_formula(item), span=item.span))
        else:
            items.append(item)
        origins.append(origin)
    state.items = items
    state.origins = origins
    return state


# ---------------------------------------------------------------------------
# Pass 6: logic normalization
# ---------------------------------------------------------------------------


def normalize_expr(e: Expr) -> Expr:
    def repl(node: Expr) -> Expr:
        if isinstance(node, BinOp):
            if node.op == "<->":
                return BinOp(
                    "and",
                    BinOp("->", node.left, node.right),
                    BinOp("->", node.right, node.left),
                    span=node.span,
                )
            if node.op == "<-":
                return BinOp("->", node.right, node.left, span=node.span)
        return node

    return transform(e, repl)


def normalize_logic(state: FlattenState) -> FlattenState:
    state.items = [map_item(item, normalize_expr) for item in state.items]
    return state


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

PIPELINE = (
    ("substitute_enums", substitute_enums),
    ("substitute_data", substitute_data),
    ("unroll_loops", unroll_loops),
    ("expand_composition", expand_composition),
    ("remove_conditionals", remove_conditionals),
    ("normalize_logic", normalize_logic),
)


def state_from_typed_model(tm: TypedModel) -> FlattenState:
    return FlattenState(
        name=tm.model.name,
        classes=dict(tm.class_map),
        main=tm.model.main_class,
        enums=dict(tm.enums),
        constants=dict(tm.constants),
        assignments=list(tm.assignments),
    )


def build_flat_model(state: FlattenState) -> FlatModel:
    constraints: list[FlatConstraint] = []
    objective: FlatObjective | None = None
    for item, origin in zip(state.items, state.origins):
        if isinstance(item, Constraint):
            constraints.append(FlatConstraint(item.expr, origin))
        elif isinstance(item, GlobalCall):
            constraints.append(
                FlatConstraint(Call(item.name, item.args, span=item.span), origin)
            )
        elif isinstance(item, Objective):
            if objective is not None:
                where = "" if item.span is None else f"{item.span}: "
                raise FlattenError(f"{where}more than one objective after flattening", "build")
            objective = FlatObjective(item.kind, item.expr)
        else:
            raise FlattenError(f"unlowered {type(item).__name__} at build time", "build")
    fm = FlatModel(
        name=state.name,
        variables=list(state.variables),
        constraints=constraints,
        enum_types=dict(state.enum_types),
        tables=dict(state.tables),
        objective=objective,
    )
    problems = flatness_violations(fm)
    if problems:
        raise FlattenError(
            "; ".join(text if span is None else f"{span}: {text}" for text, span in problems),
            "build",
        )
    return fm


def flatten(tm: TypedModel) -> tuple[FlatModel, PassTrace]:
    """Run the full six-pass pipeline."""
    state = state_from_typed_model(tm)
    trace = PassTrace()
    before = node_count(state)
    for name, pass_fn in PIPELINE:
        state = pass_fn(state)
        after = node_count(state)
        trace.record(name, before, after)
        before = after
    return build_flat_model(state), trace
