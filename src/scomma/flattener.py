"""The lowering pipeline from an analyzed model to a flat model.

Six passes run in a fixed order:

1. ``substitute_enums``    — enum literals become 1-based ordinals, enum types
   become integer ranges, enum-sized shapes become cardinalities; the label
   tables of the enums that types, shapes, loop ranges and expressions use
   are kept for rendering solutions.  Data values arrive already resolved by
   the analyzer (labels as ordinals, arrays positional and row-major), so
   this pass reads none of them.
2. ``substitute_data``     — scalar constants in constraints are replaced by
   their values where no enclosing loop variable or attribute of the class
   shadows them, constant arrays become lookup tables, and
   variable-assignments are laid out into per-object slot bindings.  Shapes
   and domains arrive resolved by the analyzer (sizes and bounds as
   literals), so no pass folds them.
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

The passes consume an analyzed model and check nothing analysis has
checked.  A ``FlattenError`` names its pass and the source position at
fault, and is raised only for what depends on data, on unrolling or on the
names expansion makes: a loop bound that does not fold to an integer, a
flat-name collision, a decision cell with no finite domain, an object index
outside its array, a non-constant index into an object array whose target
is expanded per object, a second objective, and the flatness report of
``build_flat_model``.  A constant index out of range is left unfolded for
that report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .analyzer import TypedModel, const_scalar_value, shape_dims
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
    RealLit,
    RealType,
    Ref,
    RefPart,
    SetType,
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
    inexact integer division) stays unfolded for it to reject at run time.
    A table lookup out of range stays unfolded for the flatness check."""
    if isinstance(node, BinOp) and node.op in ARITH_OPS:
        l, r = node.left, node.right
        if isinstance(l, (IntLit, RealLit)) and isinstance(r, (IntLit, RealLit)):
            try:
                return _literal(arith(node, l.value, r.value))
            except EvalError:
                return node
    if isinstance(node, Ref) and len(node.parts) == 1:
        table = tables.get(node.parts[0].name)
        if table is not None:
            return _lookup(table, node.parts[0]) or node
    return node


def _lookup(table: Table, part: RefPart) -> Expr | None:
    """The cell of ``table`` that ``part``'s constant indices name; None when
    an index is not constant or is out of range."""
    if part.indices and all(isinstance(i, IntLit) for i in part.indices):
        try:
            return _literal(table.lookup(tuple(i.value for i in part.indices)))
        except IndexError:
            return None
    return None


def _rebuild_zones(state: FlattenState, fn) -> None:
    """Replace each item of every zone of every class by the items
    ``fn(cls, item)`` returns for it."""
    for name, cls in state.classes.items():
        zones = tuple(
            ConstraintZone(z.name, tuple(out for i in z.items for out in fn(cls, i)), span=z.span)
            for z in cls.zones
        )
        state.classes[name] = ClassDef(cls.name, None, cls.attributes, zones, span=cls.span)


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
    _rebuild_zones(state, lambda cls, item: (map_range(item),))
    _rebuild_zones(state, lambda cls, item: (map_item(item, sub_expr),))

    state.constants = {
        n: replace(c, shape=tuple(sub_bound(b) for b in c.shape))
        for n, c in state.constants.items()
    }
    state.enum_types = used
    return state


# ---------------------------------------------------------------------------
# Pass 2: data substitution
# ---------------------------------------------------------------------------


def substitute_data(state: FlattenState) -> FlattenState:
    # Constant declarations become scalars or lookup tables; an array's
    # cells are row-major already, and its shape holds each of its sizes.
    for name, decl in state.constants.items():
        if decl.shape:
            values = tuple(const_scalar_value(c) for c in decl.value.items)
            state.const_tables[name] = Table(name, shape_dims(decl.shape, state.enums), values)
        else:
            state.const_scalars[name] = const_scalar_value(decl.value)

    def sub_expr(e: Expr, shadowed: frozenset[str]) -> Expr:
        """``e`` with the constants no name in ``shadowed`` hides substituted."""
        scalars = {n: v for n, v in state.const_scalars.items() if n not in shadowed}
        tables = {n: t for n, t in state.const_tables.items() if n not in shadowed}

        def repl(node: Expr) -> Expr:
            if isinstance(node, Ref) and node.simple_name in scalars:
                return _literal(scalars[node.simple_name])
            return node

        return _substitute_and_fold(e, repl, tables)

    # a class's attributes shadow the constants of their names in its zones
    _rebuild_zones(state, lambda cls, item: (
        _map_in_scope(item, sub_expr, frozenset(a.name for a in cls.attributes)),))
    state.binding = _build_binding(state)
    return state


def _map_in_scope(item: Item, fn, bound: frozenset[str]) -> Item:
    """``map_item(item, lambda e: fn(e, bound))``, except that a loop's body,
    but not its range, is mapped with the loop variable added to ``bound``."""
    def within(items: tuple[Item, ...], names: frozenset[str]) -> tuple[Item, ...]:
        return tuple(_map_in_scope(i, fn, names) for i in items)

    if isinstance(item, Forall):
        head = map_item(replace(item, body=()), lambda e: fn(e, bound))
        return replace(head, body=within(item.body, bound | {item.var}))
    if isinstance(item, IfElse):
        else_items = None if item.else_items is None else within(item.else_items, bound)
        return IfElse(fn(item.cond, bound), within(item.then_items, bound), else_items,
                      span=item.span)
    return map_item(item, lambda e: fn(e, bound))


_PRIMITIVE_TYPES = (IntType, RealType, BoolType, SetType)


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
                    n = shape_dims(a.shape, state.enums)[0]
                    out[a.name] = [fresh(target) for _ in range(n)]
                else:
                    out[a.name] = fresh(target)
        return out

    binding = fresh(state.classes[state.main])
    for asg in state.assignments:
        owner = binding
        cls = state.classes[state.main]
        for seg in asg.path[1:-1]:
            owner = owner[seg]
            cls = state.classes[_attr_named(cls, seg).type.name]
        attr = _attr_named(cls, asg.path[-1])
        _bind(owner[attr.name], attr, asg.value, state)
    return binding


def _attr_named(cls: ClassDef, name: str) -> Attribute:
    return next(a for a in cls.attributes if a.name == name)


def _bind(slot, attr: Attribute, value: DataValue, state: FlattenState) -> None:
    """Record ``attr``'s resolved data ``value`` in its binding ``slot``."""
    if attr.shape:
        cells = zip(iter_indices(shape_dims(attr.shape, state.enums)), value.items)
    else:
        cells = [((), value)]
    for idx, cell in cells:
        if isinstance(cell, VOmit):
            continue
        if isinstance(attr.type, _PRIMITIVE_TYPES):
            slot[idx] = const_scalar_value(cell)
            continue
        obj = slot[idx[0] - 1] if idx else slot
        for sub_attr, sub_value in zip(state.classes[attr.type.name].attributes, cell.items):
            _bind(obj[sub_attr.name], sub_attr, sub_value, state)


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


def _loop_bound(bound: Expr, item: Forall, state: FlattenState) -> int:
    folded = fold_expr(bound, state.const_tables)
    if isinstance(folded, IntLit):
        return folded.value
    raise FlattenError(
        f"loop bound '{render_expr(bound)}' is not a constant integer",
        "unroll_loops",
        bound.span or item.span,
    )


def _unroll_item(item: Item, state: FlattenState) -> list[Item]:
    if isinstance(item, Forall):
        lo = _loop_bound(item.range.lo, item, state)
        hi = _loop_bound(item.range.hi, item, state)
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
    _rebuild_zones(state, lambda cls, item: _unroll_item(item, state))
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

    def claim(self, name: str, attr: Attribute) -> str:
        if name in self.used_names:
            raise FlattenError(
                f"flat name '{name}' collides with an existing variable or table",
                "expand_composition",
                attr.span,
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
        """``attr``'s domain, which analysis resolved to literals."""
        base = _base_of(attr)
        dom = attr.domain
        if dom is None:
            if base == BOOL:
                return IntInterval(0, 1)
            raise FlattenError(
                f"'{owner}' is a decision variable but has no finite domain",
                "expand_composition",
                attr.span,
            )
        if isinstance(dom, DomainSet):
            return IntSet(tuple(v.value for v in dom.elems))
        if base == REAL:
            return RealInterval(float(dom.lo.value), float(dom.hi.value))
        return IntInterval(dom.lo.value, dom.hi.value)

    def make_var(
        self, name: str, attr: Attribute, dims: tuple[int, ...], owner: str
    ) -> FlatVar:
        var = FlatVar(
            name=self.claim(name, attr),
            base=_base_of(attr),
            shape=dims,
            domain=self._domain_of(attr, owner),
            enum_tag=attr.enum_tag,
        )
        self.variables.append(var)
        return var

    def pin(self, var: FlatVar, index: tuple[int, ...], value: object) -> None:
        rhs = _literal(value)
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
                dims = shape_dims(attr.shape, self.state.enums)
                slots[attr.name] = self._expand_primitive(
                    prefix + attr.name, attr, dims, binding[attr.name], owner
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
                self.add_item(map_item(item, lambda e: self.resolve_expr(e, instance)), origin)
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
            self.claim(name, attr)
            return _SlotArray(name, Table(name, dims, tuple(cells[i] for i in indices)))
        var = self.make_var(name, attr, dims, owner)
        for idx in indices:
            if idx in cells:
                self.pin(var, idx, cells[idx])
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

        # tables are read in ``resolve_ref``, where attributes shadow them,
        # not by the flat name a reference resolves to
        return _substitute_and_fold(e, repl, {})

    def resolve_ref(self, ref: Ref, inst: _Instance) -> Expr:
        """``ref`` as a flat expression; its indices are already folded.
        Analysis has checked the path, so every part names a slot or a data
        table and is indexed the way its slot is shaped."""
        parts = ref.parts
        slot = inst.slots.get(parts[0].name)
        if slot is None:
            table = self.state.const_tables[parts[0].name]
            return self._primitive_ref(_SlotArray(table.name, table), parts[0], ref)
        for k, part in enumerate(parts):
            if isinstance(slot, _SlotObjArray):
                idx = part.indices[0]
                if not isinstance(idx, IntLit):
                    return self._grouped_ref(slot, k, ref)
                if not 1 <= idx.value <= len(slot.insts):
                    raise FlattenError(
                        f"object index {idx.value} outside 1..{len(slot.insts)} in"
                        f" '{render_expr(ref)}'",
                        "expand_composition",
                        idx.span or ref.span,
                    )
                slot = slot.insts[idx.value - 1]
            if not isinstance(slot, _Instance):
                return self._primitive_ref(slot, part, ref)
            slot = slot.slots[parts[k + 1].name]

    def _grouped_ref(self, array: _SlotObjArray, k: int, ref: Ref) -> Expr:
        """``ref``, whose part ``k`` indexes ``array`` by a variable: only a
        scalar attribute of the elements, grouped into one flat array, can be
        its target."""
        part, rest = ref.parts[k], ref.parts[k + 1:]
        target = array.grouped.get(rest[0].name) if len(rest) == 1 else None
        if target is None or rest[0].indices:
            raise FlattenError(
                f"variable index into object array '{part.name}' in"
                f" '{render_expr(ref)}': the target attribute is expanded"
                " per object, so the index must be constant",
                "expand_composition",
                ref.span,
            )
        return self._primitive_ref(target, RefPart(target.name, part.indices), ref)

    def _primitive_ref(self, slot, part: RefPart, ref: Ref) -> Expr:
        if isinstance(slot, _SlotScalar):
            e = slot.expr
            return Ref(e.parts, span=ref.span) if isinstance(e, Ref) else e
        table = slot.table
        if table is not None:
            cell = _lookup(table, part)
            if cell is not None:
                return cell
            self.register_table(table)
        return Ref((RefPart(slot.name, part.indices),), span=ref.span)


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
    """A branch holds constraints and conditionals only: analysis rejects
    objectives and global calls there, and loops are unrolled by now."""
    return [
        item.expr if isinstance(item, Constraint) else conditional_formula(item)
        for item in items
    ]


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
        else:  # an objective: passes 3 to 5 leave no other item
            if objective is not None:
                raise FlattenError("more than one objective after flattening", "build", item.span)
            objective = FlatObjective(item.kind, item.expr)
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
