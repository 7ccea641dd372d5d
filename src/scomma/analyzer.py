"""Semantic analysis: name resolution, inheritance expansion, type checking,
and structural validation of a model against its data.

``analyze`` collects every error before giving up, so a broken model reports
all its problems in one run, in a stable order.  On success it returns a
:class:`TypedModel` whose classes are inheritance-linearized, whose type
names are resolved and whose enumeration literals are marked as such; every
expression node it does not rewrite is shared with the parsed model.  Types
stay inside the analyzer.  An attribute or constraint zone is resolved,
checked and typed once, in the class that declares it, and its subclasses
share the result, so each of its diagnostics appears once and names that
class.

The analyzer is the one reader of data values.  One walk checks every
constant and every variable-assignment against its declaration's type and
array sizes, reports each problem at the declaration or assignment, and
returns the value resolved (see :class:`TypedModel`); the flattener and the
model interpreter consume that form and look up no label themselves.  A
label reads in the enum that its declaration names; a bare label, in an
expression or as the value of an ``int`` constant, must belong to exactly
one enum.

The analyzer is also the one resolver of array sizes and domains: it hands
on each shape bound as the literal of its size, or as the enum that sizes
its axis, and each domain with literal bounds or elements, and checks every
``int`` data value assigned to an attribute against that domain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import prod

from .diagnostics import Diagnostic, DiagnosticSink, SourceSpan
from .errors import EvalError
from .evaluate import arith
from .nodes import (
    ArrayLit,
    Assignment,
    Attribute,
    BinOp,
    BoolLit,
    BoolType,
    Call,
    ClassDef,
    Constraint,
    ConstraintZone,
    ConstDecl,
    DataFile,
    DataValue,
    DomainInterval,
    DomainSet,
    DomainSpec,
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
    Model,
    NamedType,
    NameRange,
    ObjectType,
    Objective,
    RealLit,
    RealType,
    Ref,
    RefPart,
    SetLit,
    SetType,
    UnOp,
    VBool,
    VInt,
    VList,
    VObj,
    VOmit,
    VReal,
    VSym,
    transform,
    walk,
)
from .printer import render_type

# ---------------------------------------------------------------------------
# Expression types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Type:
    pass


@dataclass(frozen=True)
class TInt(Type):
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class TReal(Type):
    def __str__(self) -> str:
        return "real"


@dataclass(frozen=True)
class TBool(Type):
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class TSet(Type):
    def __str__(self) -> str:
        return "set of int"


@dataclass(frozen=True)
class TObject(Type):
    class_name: str = ""

    def __str__(self) -> str:
        return f"object({self.class_name})"


@dataclass(frozen=True)
class TArray(Type):
    elem: Type = None  # type: ignore[assignment]
    dims: int = 1

    def __str__(self) -> str:
        return f"array{self.dims}d of {self.elem}"


INT_T = TInt()
REAL_T = TReal()
BOOL_T = TBool()
SET_T = TSet()


def _is_numeric(t: Type) -> bool:
    return isinstance(t, (TInt, TReal))


# ---------------------------------------------------------------------------
# Typed model
# ---------------------------------------------------------------------------


@dataclass
class TypedModel:
    """An analyzed model: linearized classes, resolved types, marked enum
    literals, and data values resolved against their declarations.

    In a resolved value a label is a ``VInt``, its ordinal in the enum that
    its declaration names; an array is one positional ``VList`` of all its
    cells in row-major order, with keyed entries laid out by their axis's
    enum and ``VOmit`` in the gaps; an object literal is a ``VObj`` of its
    elements, each resolved against its attribute.  A constant's type names
    no class, and its ``shape`` has one bound per axis: the declared bounds,
    or the sizes of its literal when none were declared.

    Every shape bound, of an attribute or a constant, is an ``IntLit`` of its
    size that keeps the bound's span, or a ``Ref`` naming the enum that sizes
    that axis (pass 1 records the enum's use from it).  Every domain is None,
    a ``DomainInterval`` whose bounds are ``IntLit``s (``RealLit``s too for a
    ``real``), or a ``DomainSet`` of ``IntLit``s; :func:`shape_dims` reads a
    shape's sizes.
    """

    model: Model
    enums: dict[str, EnumDecl]
    constants: dict[str, ConstDecl]
    class_map: dict[str, ClassDef]
    assignments: list[Assignment]

    @property
    def main(self) -> ClassDef:
        return self.class_map[self.model.main_class]


def const_scalar_value(v: DataValue):
    """The plain value of a data scalar, a bool as 0 or 1; None for any
    other data value."""
    if isinstance(v, VInt):
        return v.value
    if isinstance(v, VReal):
        return v.value
    if isinstance(v, VBool):
        return int(v.value)
    return None


def shape_dims(shape: tuple[Expr, ...], enums: dict[str, EnumDecl]) -> tuple[int, ...]:
    """The sizes of a resolved shape: a literal bound is its size, an enum
    bound the enum's."""
    return tuple(
        bound.value if isinstance(bound, IntLit) else len(enums[bound.simple_name].values)
        for bound in shape
    )


def positionalize(
    values: VList, dim: int, enum: EnumDecl | None
) -> tuple[list[DataValue], str | None]:
    """Lay out an array literal over ``dim`` 1-based cells.

    Positional entries must fill the array exactly; keyed entries may cover a
    subset (gaps become omission markers).  Returns (cells, error message).
    """
    if values.keys is None:
        if len(values.items) != dim:
            return [], f"array literal has {len(values.items)} entries, expected {dim}"
        return list(values.items), None
    if enum is None:
        return [], "keyed array entries require an enum-sized array"
    cells: list[DataValue] = [VOmit() for _ in range(dim)]
    seen: set[str] = set()
    for key, item in zip(values.keys, values.items):
        if key in seen:
            return [], f"key '{key}' appears twice"
        seen.add(key)
        try:
            pos = enum.ordinal(key)
        except KeyError:
            return [], f"key '{key}' is not a value of enum '{enum.name}'"
        cells[pos - 1] = item
    return cells, None


class _Analyzer:
    def __init__(self, model: Model, data: DataFile):
        self.model = model
        self.data = data
        self.sink = DiagnosticSink()
        self.class_map: dict[str, ClassDef] = {}
        self.objectives: list[Objective] = []
        self.constants: dict[str, ConstDecl] = {}
        # the array sizes of each resolved attribute, keyed by its id; None
        # for a bound that did not resolve
        self.sizes: dict[int, tuple[int | None, ...]] = {}

    def _span(self, node) -> SourceSpan:
        span = getattr(node, "span", None)
        return span if span is not None else SourceSpan("<model>", 1, 1, 1)

    def err(self, message: str, node=None) -> None:
        self.sink.error(message, self._span(node))

    def warn(self, message: str, node=None) -> None:
        self.sink.warning(message, self._span(node))

    # -- structure ------------------------------------------------------------

    def run(self) -> TypedModel | None:
        self._check_class_names()
        if self.sink.failed:
            return None
        linear = linearize_inheritance(self.model, self.sink)
        if self.sink.failed or linear is None:
            return None
        self.class_map = {c.name: c for c in linear.classes}
        declared = self._map_attributes(self.model.classes, self._resolve_attribute)
        self._check_composition_acyclic()
        if self.sink.failed:
            return None
        declared = self._map_attributes(declared, self._resolve_shape_and_domain)
        self._resolve_constants()
        typed_classes = self._type_zones(declared)
        assignments = self._check_assignments()
        if len(self.objectives) > 1:
            self.err(
                f"model declares {len(self.objectives)} objectives; at most one is allowed",
                self.objectives[1],
            )
        if self.sink.failed:
            return None
        typed = Model(linear.name, linear.imports, typed_classes, linear.main_class)
        return TypedModel(
            model=typed,
            enums=dict(self.data.enums),
            constants=self.constants,
            class_map={c.name: c for c in typed_classes},
            assignments=assignments,
        )

    def _check_class_names(self) -> None:
        seen: set[str] = set()
        for c in self.model.classes:
            if c.name in seen:
                self.err(f"class '{c.name}' defined twice", c)
            seen.add(c.name)
        if self.model.main_class not in {c.name for c in self.model.classes}:
            self.err(f"main class '{self.model.main_class}' is not defined")

    def _map_attributes(
        self, classes: tuple[ClassDef, ...], fn
    ) -> tuple[ClassDef, ...]:
        """``classes`` as declared, each attribute replaced by ``fn(class name,
        attribute)`` once, in the class that declares it.  The linearized
        classes in ``class_map`` share the results with those classes."""
        resolved: dict[int, Attribute] = {}  # keyed by the id of the attribute replaced
        declared = []
        for cls in classes:
            own = tuple(fn(cls.name, attr) for attr in cls.attributes)
            resolved.update(zip(map(id, cls.attributes), own))
            declared.append(ClassDef(cls.name, cls.superclass, own, cls.zones, span=cls.span))
        for name, cls in self.class_map.items():
            attributes = tuple(resolved[id(attr)] for attr in cls.attributes)
            self.class_map[name] = ClassDef(name, None, attributes, cls.zones, span=cls.span)
        return tuple(declared)

    def _resolve_attribute(self, cls_name: str, attr: Attribute) -> Attribute:
        owner = f"{cls_name}.{attr.name}"
        t = attr.type
        if isinstance(t, NamedType):
            if t.name in self.data.enums:
                t = EnumType(t.name)
            elif t.name in self.class_map:
                t = ObjectType(t.name)
            else:
                self.err(
                    f"unknown type '{t.name}' for attribute '{owner}'"
                    " (not a base type, enum, or class)",
                    attr,
                )
        elif isinstance(t, SetType) and t.elem != "int":
            if t.elem not in self.data.enums:
                self.err(f"set element type '{t.elem}' of '{owner}' is not an enum", attr)
        if isinstance(t, ObjectType) and attr.domain is not None:
            self.err(f"object-typed attribute '{owner}' cannot have a domain", attr)
        return Attribute(attr.name, t, attr.shape, attr.domain, attr.enum_tag, span=attr.span)

    def _check_composition_acyclic(self) -> None:
        graph = {
            name: [
                a.type.name
                for a in cls.attributes
                if isinstance(a.type, ObjectType) and a.type.name in self.class_map
            ]
            for name, cls in self.class_map.items()
        }
        state: dict[str, int] = {}

        def visit(name: str, trail: list[str]) -> None:
            state[name] = 1
            for succ in graph[name]:
                if state.get(succ) == 1:
                    cycle = " -> ".join(trail + [name, succ])
                    self.err(f"composition cycle: {cycle}", self.class_map[name])
                    continue
                if succ not in state:
                    visit(succ, trail + [name])
            state[name] = 2

        for name in graph:
            if name not in state:
                visit(name, [])

    # -- shapes and domains -----------------------------------------------------

    def _resolve_shape(
        self, shape: tuple[Expr, ...], owner: str
    ) -> tuple[tuple[Expr, ...], tuple[int | None, ...]]:
        """``shape`` resolved as :class:`TypedModel` describes, and its sizes.
        A bound that does not resolve is reported and kept as it was, and its
        size is None."""
        resolved = [self._resolve_bound(bound, owner) for bound in shape]
        return tuple(b for b, _ in resolved), tuple(n for _, n in resolved)

    def _resolve_bound(self, bound: Expr, owner: str) -> tuple[Expr, int | None]:
        if isinstance(bound, IntLit):
            if bound.value < 1:
                self.err(f"array size {bound.value} of '{owner}' is not positive", bound)
                return bound, None
            return bound, bound.value
        if isinstance(bound, Ref) and bound.simple_name:
            name = bound.simple_name
            if name in self.data.enums:
                return bound, len(self.data.enums[name].values)
            if name in self.data.constants:
                val = const_scalar_value(self.data.constants[name].value)
                if isinstance(val, int) and val >= 1:
                    return IntLit(val, span=bound.span), val
                self.err(
                    f"constant '{name}' used as array size of '{owner}' must be a"
                    " positive integer",
                    bound,
                )
                return bound, None
            self.err(f"array size '{name}' of '{owner}' is not a constant or enum", bound)
            return bound, None
        self.err(f"array size of '{owner}' must be a literal, constant, or enum name", bound)
        return bound, None

    def _const_eval(self, e: Expr):
        """Evaluate an expression over data constants; None when not constant."""
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, RealLit):
            return e.value
        if isinstance(e, Ref) and e.simple_name and e.simple_name in self.data.constants:
            return const_scalar_value(self.data.constants[e.simple_name].value)
        if isinstance(e, UnOp) and e.op == "neg":
            v = self._const_eval(e.operand)
            return None if v is None else -v
        if isinstance(e, BinOp) and e.op in ("+", "-", "*", "/"):
            a = self._const_eval(e.left)
            b = self._const_eval(e.right)
            if a is None or b is None:
                return None
            try:
                return arith(e, a, b)
            except EvalError:
                return None
        return None

    def _resolve_shape_and_domain(self, cls_name: str, attr: Attribute) -> Attribute:
        owner = f"{cls_name}.{attr.name}"
        shape, sizes = self._resolve_shape(attr.shape, owner)
        if isinstance(attr.type, ObjectType) and len(shape) > 1:
            self.err(
                f"object array '{owner}' has {len(shape)} dimensions;"
                " an object array takes one",
                attr,
            )
        if attr.domain is not None and isinstance(attr.type, (BoolType, EnumType)):
            kind = "type bool" if isinstance(attr.type, BoolType) else f"enum type {attr.type.name}"
            self.err(f"'{owner}' has {kind}; its domain is implicit", attr)
            domain = None
        else:
            domain = self._resolve_domain(attr, owner)
        resolved = Attribute(attr.name, attr.type, shape, domain, attr.enum_tag, span=attr.span)
        self.sizes[id(resolved)] = sizes
        return resolved

    def _resolve_domain(self, attr: Attribute, owner: str) -> DomainSpec | None:
        """``attr``'s domain with literal bounds or elements; None when it has
        none or when its problem is reported.  Only a ``real`` interval may
        have bounds that are not integers."""
        dom = attr.domain
        if isinstance(dom, DomainInterval):
            lo = self._const_eval(dom.lo)
            hi = self._const_eval(dom.hi)
            if lo is None or hi is None:
                self.err(f"domain bounds of '{owner}' must be constant", attr)
            elif lo > hi:
                self.err(f"domain of '{owner}' is empty: [{lo},{hi}]", attr)
            elif not isinstance(attr.type, RealType) and (
                isinstance(lo, float) or isinstance(hi, float)
            ):
                self.err(f"domain bounds of '{owner}' must be integers", attr)
            else:
                return DomainInterval(_number(lo, dom.lo), _number(hi, dom.hi))
        elif isinstance(dom, DomainSet):
            values = [self._const_eval(v) for v in dom.elems]
            for v in values:
                if v is None:
                    self.err(f"domain values of '{owner}' must be constant", attr)
            if None in values:
                return None
            if any(isinstance(v, float) for v in values):
                self.err(f"domain values of '{owner}' must be integers", attr)
            else:
                return DomainSet(tuple(_number(v, e) for v, e in zip(values, dom.elems)))
        return None

    def _resolve_constants(self) -> None:
        """Check each data constant against its type and sizes and keep it
        resolved in ``self.constants``."""
        for name, const in self.data.constants.items():
            t = const.type
            if isinstance(t, NamedType) and t.name in self.data.enums:
                t = EnumType(t.name)
            if const.shape:
                shape, sizes = self._resolve_shape(const.shape, name)
            else:
                sizes = _literal_sizes(const.value)
                shape = tuple(IntLit(n) for n in sizes)
            decl = ConstDecl(name, t, shape, const.value, span=const.span)
            if isinstance(t, (IntType, RealType, BoolType, EnumType)):
                decl.value = self._resolve(const.value, decl, sizes, name, const)
            else:
                self.err(
                    f"constant '{name}' has type '{render_type(t)}'; a constant is"
                    " int, real, bool or of an enum type",
                    const,
                )
            self.constants[name] = decl

    def _label_enum(self, label: str, node) -> EnumDecl | None:
        """The enum that declares ``label``, or None when none does.  A label
        that more than one enum declares is reported at ``node``."""
        owners = [enum for enum in self.data.enums.values() if label in enum.values]
        if len(owners) > 1:
            self.err(
                f"label '{label}' is a value of enums"
                f" {', '.join(enum.name for enum in owners)}; a bare label must"
                " belong to exactly one enum",
                node,
            )
        return owners[0] if owners else None

    # -- zone typing ------------------------------------------------------------

    def _type_zones(self, declared: tuple[ClassDef, ...]) -> tuple[ClassDef, ...]:
        """The linearized classes with their zones typed, each zone once in
        the class that declares it and shared with the subclasses."""
        typed: dict[int, ConstraintZone] = {}  # keyed by the id of the parsed zone
        for cls in declared:
            scope = self.class_map[cls.name]
            for z in cls.zones:
                items = tuple(self._type_item(it, scope, []) for it in z.items)
                typed[id(z)] = ConstraintZone(z.name, items, span=z.span)
        return tuple(
            ClassDef(c.name, None, c.attributes, tuple(typed[id(z)] for z in c.zones), span=c.span)
            for c in self.class_map.values()
        )

    def _type_item(
        self,
        item: Item,
        cls: ClassDef,
        loops: list[str],
        in_if: bool = False,
        in_loop: bool = False,
    ) -> Item:
        if isinstance(item, Constraint):
            expr, t = self._type_expr(item.expr, cls, loops)
            self._require(t, BOOL_T, "constraint", item)
            return Constraint(expr, span=item.span)
        if isinstance(item, Forall):
            rng = item.range
            if isinstance(rng, NameRange):
                if rng.name not in self.data.enums:
                    self.err(f"loop range '{rng.name}' is not an enumeration", item)
            else:
                lo, lo_t = self._type_expr(rng.lo, cls, loops, range_position=True)
                hi, hi_t = self._type_expr(rng.hi, cls, loops, range_position=True)
                self._require(lo_t, INT_T, "loop bound", item)
                self._require(hi_t, INT_T, "loop bound", item)
                rng = IntRange(lo, hi)
                clo, chi = self._const_eval(lo), self._const_eval(hi)
                if clo is not None and chi is not None and clo > chi:
                    self.warn(f"loop range {clo}..{chi} is empty", item)
            if item.var in loops:
                self.err(f"loop variable '{item.var}' shadows an enclosing loop variable", item)
            inner = loops + [item.var]
            body = tuple(self._type_item(it, cls, inner, in_if, True) for it in item.body)
            return Forall(item.var, rng, body, span=item.span)
        if isinstance(item, IfElse):
            cond, t = self._type_expr(item.cond, cls, loops)
            self._require(t, BOOL_T, "if condition", item)
            then_items = tuple(
                self._type_item(it, cls, loops, True, in_loop) for it in item.then_items
            )
            else_items = None
            if item.else_items is not None:
                else_items = tuple(
                    self._type_item(it, cls, loops, True, in_loop) for it in item.else_items
                )
            return IfElse(cond, then_items, else_items, span=item.span)
        if isinstance(item, Objective):
            if in_if:
                self.err("objectives may not appear inside conditionals", item)
            if in_loop:
                self.err("objectives may not appear inside loops", item)
            self.objectives.append(item)
            expr, t = self._type_expr(item.expr, cls, loops)
            if not _is_numeric(t):
                self.err(f"objective must be numeric, got {t}", item)
            return Objective(item.kind, expr, span=item.span)
        if isinstance(item, GlobalCall):
            if in_if:
                self.err(f"global constraint '{item.name}' may not appear inside a conditional", item)
            typed = [self._type_expr(a, cls, loops) for a in item.args]
            self._check_global(item, [t for _, t in typed])
            return GlobalCall(item.name, tuple(a for a, _ in typed), span=item.span)
        raise AssertionError(f"unexpected item {type(item).__name__}")

    def _check_global(self, item: GlobalCall, arg_types: list[Type]) -> None:
        def is_int_array(t: Type) -> bool:
            return isinstance(t, TArray) and isinstance(t.elem, TInt)

        if item.name == "alldifferent":
            if len(arg_types) != 1 or not is_int_array(arg_types[0]):
                self.err("alldifferent takes exactly one integer array", item)
        elif item.name == "cumulatives":
            if len(arg_types) != 3 or not all(is_int_array(t) for t in arg_types):
                self.err("cumulatives takes exactly three integer arrays", item)
        else:
            self.err(f"unknown global constraint '{item.name}'", item)

    def _require(self, got: Type, want: Type, what: str, node) -> None:
        if got != want:
            self.err(f"{what} must be {want}, got {got}", node)

    # -- expression typing --------------------------------------------------------

    def _type_expr(
        self, e: Expr, cls: ClassDef, loops: list[str], range_position: bool = False
    ) -> tuple[Expr, Type]:
        """``e`` with enum literals resolved, and its type."""
        # Keyed by ``id`` because nodes are unhashable; every node typed here
        # is part of the result, so no id is reused while the map lives.
        types: dict[int, Type] = {}

        def rewrite(node: Expr) -> Expr:
            # Enum literals and identifiers share a token class; a bare name
            # that is neither a loop variable, attribute, nor constant is
            # resolved against the enum value tables here.
            if isinstance(node, Ref) and node.simple_name:
                name = node.simple_name
                if (
                    name not in loops
                    and self._attr_of(cls, name) is None
                    and name not in self.data.constants
                ):
                    enum = self._label_enum(name, node)
                    if enum is not None:
                        node = EnumRef(enum.name, name, enum.ordinal(name), span=node.span)
            # ``transform`` works bottom-up, so the children are typed.
            types[id(node)] = self._type_of(node, types, cls, loops)
            return node

        typed = transform(e, rewrite)
        if range_position:
            self._check_range_refs(typed, cls, loops)
        return typed, types[id(typed)]

    def _check_range_refs(self, e: Expr, cls: ClassDef, loops: list[str]) -> None:
        """A loop bound reads loop variables and the constants that no
        attribute of ``cls`` shadows."""
        for node in walk(e):
            if isinstance(node, Ref):
                head = node.parts[0].name
                if head not in loops and (
                    head not in self.data.constants or self._attr_of(cls, head) is not None
                ):
                    self.err(
                        "loop bounds may only use constants and enclosing loop variables",
                        node,
                    )

    def _attr_of(self, cls: ClassDef, name: str) -> Attribute | None:
        for a in cls.attributes:
            if a.name == name:
                return a
        return None

    def _attr_value_type(self, attr: Attribute) -> Type:
        t = attr.type
        if isinstance(t, (IntType, EnumType)):
            base: Type = INT_T
        elif isinstance(t, RealType):
            base = REAL_T
        elif isinstance(t, BoolType):
            base = BOOL_T
        elif isinstance(t, SetType):
            base = SET_T
        elif isinstance(t, ObjectType):
            base = TObject(t.name)
        else:
            base = INT_T
        if attr.shape:
            return TArray(base, len(attr.shape))
        return base

    def _path_type(self, ref: Ref, types: dict[int, Type], cls: ClassDef, loops: list[str]) -> Type:
        current: Type | None = None
        for i, part in enumerate(ref.parts):
            if i == 0:
                if part.name in loops:
                    if part.indices:
                        self.err(f"loop variable '{part.name}' cannot be indexed", ref)
                    current = INT_T
                    continue
                attr = self._attr_of(cls, part.name)
                if attr is not None:
                    current = self._apply_indices(part, self._attr_value_type(attr), ref, types)
                    continue
                const = self.constants.get(part.name)
                if const is not None:
                    current = self._apply_indices(part, self._const_type(const), ref, types)
                    continue
                if part.name in self.data.enums:
                    self.err(f"enumeration '{part.name}' used as a value", ref)
                    return INT_T
                self.err(f"unknown name '{part.name}' in class '{cls.name}'", ref)
                return INT_T
            if not isinstance(current, TObject):
                self.err(f"'{ref.parts[i - 1].name}' is not an object; cannot access"
                         f" '{part.name}'", ref)
                return INT_T
            target = self.class_map.get(current.class_name)
            attr = self._attr_of(target, part.name) if target else None
            if attr is None:
                self.err(f"class '{current.class_name}' has no attribute '{part.name}'", ref)
                return INT_T
            current = self._apply_indices(part, self._attr_value_type(attr), ref, types)
        return current if current is not None else INT_T

    def _const_type(self, const: ConstDecl) -> Type:
        if isinstance(const.type, RealType):
            base: Type = REAL_T
        elif isinstance(const.type, BoolType):
            base = BOOL_T
        else:
            base = INT_T
        if const.shape:
            return TArray(base, len(const.shape))
        return base

    def _apply_indices(self, part: RefPart, t: Type, ref: Ref, types: dict[int, Type]) -> Type:
        for idx in part.indices:
            if types[id(idx)] != INT_T:
                self.err(f"index into '{part.name}' must be an integer", ref)
        if not part.indices:
            return t
        if not isinstance(t, TArray):
            self.err(f"'{part.name}' is not an array but is indexed", ref)
            return t
        if len(part.indices) != t.dims:
            self.err(
                f"'{part.name}' takes {t.dims} index(es), got {len(part.indices)}", ref
            )
        return t.elem

    def _type_of(self, e: Expr, types: dict[int, Type], cls: ClassDef, loops: list[str]) -> Type:
        """The type of ``e``, whose children (indices too) are in ``types``."""
        if isinstance(e, EnumRef):
            return INT_T
        if isinstance(e, Ref):
            return self._path_type(e, types, cls, loops)
        if isinstance(e, RealLit):
            return REAL_T
        if isinstance(e, BoolLit):
            return BOOL_T
        if isinstance(e, SetLit):
            for el in e.elems:
                if types[id(el)] != INT_T:
                    self.err("set literals hold integers", el)
            return SET_T
        if isinstance(e, ArrayLit):
            for el in e.elems:
                if types[id(el)] != INT_T:
                    self.err("array literals hold integer expressions", el)
            return TArray(INT_T, 1)
        if isinstance(e, UnOp):
            t = types[id(e.operand)]
            if e.op == "not":
                if t != BOOL_T:
                    self.err(f"'not' needs a bool operand, got {t}", e)
                return BOOL_T
            if not _is_numeric(t):
                self.err(f"negation needs a numeric operand, got {t}", e)
                return INT_T
            return t
        if isinstance(e, Call):
            if e.name == "cardinality":
                if len(e.args) != 1 or types[id(e.args[0])] != SET_T:
                    self.err("cardinality takes one set argument", e)
            else:
                self.err(f"unknown function '{e.name}' in expression", e)
            return INT_T
        if isinstance(e, BinOp):
            return self._binop_type(e, types[id(e.left)], types[id(e.right)])
        return INT_T  # an integer literal

    def _binop_type(self, e: BinOp, lt: Type, rt: Type) -> Type:
        op = e.op
        if op in ("+", "-", "*", "/"):
            if not (_is_numeric(lt) and _is_numeric(rt)):
                self.err(f"'{op}' needs numeric operands, got {lt} and {rt}", e)
                return INT_T
            return REAL_T if REAL_T in (lt, rt) else INT_T
        if op in ("<", ">", "<=", ">="):
            if not (_is_numeric(lt) and _is_numeric(rt)):
                self.err(f"'{op}' compares numbers, got {lt} and {rt}", e)
            return BOOL_T
        if op in ("=", "<>"):
            numeric = _is_numeric(lt) and _is_numeric(rt)
            same = lt == rt and lt in (BOOL_T, SET_T)
            if not (numeric or same):
                self.err(f"'{op}' operands do not match: {lt} and {rt}", e)
            return BOOL_T
        if op in ("and", "or", "xor", "->", "<-", "<->"):
            if lt != BOOL_T or rt != BOOL_T:
                self.err(f"'{op}' needs bool operands, got {lt} and {rt}", e)
            return BOOL_T
        if op == "in":
            if lt != INT_T or rt != SET_T:
                self.err(f"'in' needs int and set operands, got {lt} and {rt}", e)
            return BOOL_T
        if op in ("subset", "superset"):
            if lt != SET_T or rt != SET_T:
                self.err(f"'{op}' needs set operands, got {lt} and {rt}", e)
            return BOOL_T
        if op in ("union", "diff", "symdiff", "intersection"):
            if lt != SET_T or rt != SET_T:
                self.err(f"'{op}' needs set operands, got {lt} and {rt}", e)
            return SET_T
        self.err(f"unknown operator '{op}'", e)
        return INT_T

    # -- data values ------------------------------------------------------------

    def _check_assignments(self) -> list[Assignment]:
        """The variable-assignments, each with its value resolved."""
        resolved = []
        for asg in self.data.assignments:
            if asg.path[0] != self.model.main_class:
                self.err(
                    f"assignment path '{'.'.join(asg.path)}' must start at the main class"
                    f" '{self.model.main_class}'",
                    asg,
                )
                continue
            attr = self._assigned_attribute(asg)
            if attr is not None:
                resolved.append(replace(asg, value=self._check_assigned_value(asg, attr)))
        return resolved

    def _assigned_attribute(self, asg: Assignment) -> Attribute | None:
        """The attribute that ``asg``'s path names; None when it names none,
        which is reported."""
        cls = self.class_map[self.model.main_class]
        attr: Attribute | None = None
        for seg in asg.path[1:]:
            if attr is not None:
                if not isinstance(attr.type, ObjectType):
                    self.err(f"'{attr.name}' is not an object; cannot access '{seg}'", asg)
                    return None
                if attr.shape:
                    self.err(
                        f"'{attr.name}' is an object array; an assignment path cannot"
                        " go through it",
                        asg,
                    )
                    return None
                cls = self.class_map[attr.type.name]
            attr = self._attr_of(cls, seg)
            if attr is None:
                self.err(f"'{cls.name}' has no attribute '{seg}'", asg)
                return None
        if attr is None:
            self.err("assignment path names no attribute", asg)
        return attr

    def _check_assigned_value(self, asg: Assignment, attr: Attribute) -> DataValue:
        expected = attr.type.name if isinstance(attr.type, (ObjectType, EnumType)) else None
        if expected and asg.type_name != expected:
            self.err(
                f"assignment declares type '{asg.type_name}' but attribute"
                f" '{attr.name}' holds {expected}",
                asg,
            )
        return self._resolve(asg.value, attr, self.sizes[id(attr)], ".".join(asg.path), asg)

    def _shape_enum(self, decl: Attribute | ConstDecl, axis: int) -> EnumDecl | None:
        bound = decl.shape[axis]
        if isinstance(bound, Ref) and bound.simple_name in self.data.enums:
            return self.data.enums[bound.simple_name]
        return None

    def _resolve(
        self, value: DataValue, decl: Attribute | ConstDecl, dims: tuple, where: str, node
    ) -> DataValue:
        """``value`` checked against ``decl`` with its last ``len(dims)`` array
        sizes left, and resolved as :class:`TypedModel` describes; an array
        comes back as the ``VList`` of its cells in row-major order.  A size
        that is None was reported with the declaration.  A problem is
        reported at ``node``, and its value is a placeholder: analysis fails."""
        if dims and not isinstance(value, (VList, VOmit)):
            self.err(f"'{where}' is an array; expected an array literal", node)
            return VList(())
        if None in dims:
            return VList(())
        if isinstance(value, VOmit):
            if isinstance(decl, ConstDecl):
                self.err(f"constant '{where}' needs a value, not '_'", node)
            return VList((value,) * prod(dims)) if dims else value
        if dims:
            axis = len(decl.shape) - len(dims)
            cells, problem = positionalize(value, dims[0], self._shape_enum(decl, axis))
            if problem:
                self.err(f"'{where}': {problem}", node)
                return VList(())
            out: list[DataValue] = []
            for i, cell in enumerate(cells, start=1):
                sub = self._resolve(cell, decl, dims[1:], f"{where}[{i}]", node)
                out.extend(sub.items if len(dims) > 1 else (sub,))
            return VList(tuple(out))
        t = decl.type
        if isinstance(t, ObjectType):
            if not isinstance(value, VObj):
                self.err(f"'{where}' holds an object; expected an object literal", node)
                return value
            target = self.class_map[t.name]
            if len(value.items) > len(target.attributes):
                self.err(
                    f"object literal for '{where}' has {len(value.items)} elements but"
                    f" class '{target.name}' has {len(target.attributes)} attributes",
                    node,
                )
                return value
            if len(value.items) < len(target.attributes):
                missing = [a.name for a in target.attributes[len(value.items):]]
                self.warn(
                    f"object literal for '{where}' leaves {', '.join(missing)} unassigned;"
                    " treated as decision variables",
                    node,
                )
            return VObj(tuple(
                self._resolve(sub, a, self.sizes[id(a)], f"{where}.{a.name}", node)
                for sub, a in zip(value.items, target.attributes)
            ))
        if isinstance(t, EnumType):
            enum = self.data.enums[t.name]
            if isinstance(value, VSym):
                if value.name in enum.values:
                    return VInt(enum.ordinal(value.name))
                self.err(f"'{value.name}' is not a value of enum '{enum.name}'", node)
            elif isinstance(value, VInt):
                if not (1 <= value.value <= len(enum.values)):
                    self.err(
                        f"ordinal {value.value} for '{where}' outside 1..{len(enum.values)}",
                        node,
                    )
            else:
                self.err(f"'{where}' expects a value of enum '{enum.name}'", node)
            return value
        if isinstance(t, IntType) and isinstance(value, VSym) and isinstance(decl, ConstDecl):
            # an int constant may hold a label: its declaration names no enum
            enum = self._label_enum(value.name, node)
            if enum is not None:
                return VInt(enum.ordinal(value.name))
            self.err(f"'{where}': '{value.name}' is not a value of any enum", node)
        elif isinstance(t, IntType) and not isinstance(value, VInt):
            self.err(f"'{where}' expects an integer value", node)
        elif isinstance(t, RealType) and not isinstance(value, (VReal, VInt)):
            self.err(f"'{where}' expects a real value", node)
        elif isinstance(t, BoolType) and not isinstance(value, VBool):
            self.err(f"'{where}' expects true or false", node)
        elif isinstance(t, SetType):
            self.err(f"set attribute '{where}' cannot be assigned from data", node)
        elif isinstance(value, VInt) and isinstance(decl, Attribute) and not _admits(
            decl.domain, value.value
        ):  # an int or real attribute; a value with a fraction is not checked
            self.err(f"assigned value {value.value} for '{where}' lies outside its domain", node)
        return value


def _admits(domain: DomainSpec | None, value: int) -> bool:
    """Whether a resolved ``domain`` holds the integer ``value``; no domain
    holds every value."""
    if isinstance(domain, DomainInterval):
        return domain.lo.value <= value <= domain.hi.value
    if isinstance(domain, DomainSet):
        return any(e.value == value for e in domain.elems)
    return True


def _number(value: int | float, source: Expr) -> Expr:
    """The literal of a constant ``value`` that ``source`` evaluated to."""
    return (RealLit if isinstance(value, float) else IntLit)(value, span=source.span)


def _literal_sizes(value: DataValue) -> tuple[int, ...]:
    """The array sizes of an undeclared constant: one per nesting level of
    its literal, read from the first entry, up to two."""
    if not isinstance(value, VList):
        return ()
    if value.items and isinstance(value.items[0], VList):
        return (len(value.items), len(value.items[0].items))
    return (len(value.items),)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def linearize_inheritance(model: Model, sink: DiagnosticSink | None = None) -> Model | None:
    """Copy inherited attributes and zones into each class (superclass members
    first, order preserved) and drop the ``extends`` links."""
    own_sink = sink or DiagnosticSink()
    by_name = {c.name: c for c in model.classes}
    for cls in model.classes:
        if cls.superclass is not None and cls.superclass not in by_name:
            own_sink.error(
                f"class '{cls.name}' extends unknown class '{cls.superclass}'",
                cls.span or SourceSpan("<model>", 1, 1),
            )
    if own_sink.failed:
        return None

    def chain(name: str, seen: tuple[str, ...]) -> bool:
        if name in seen:
            cycle = " -> ".join(seen[seen.index(name):] + (name,))
            own_sink.error(
                f"inheritance cycle: {cycle}",
                by_name[name].span or SourceSpan("<model>", 1, 1),
            )
            return False
        sup = by_name[name].superclass
        if sup is None:
            return True
        return chain(sup, seen + (name,))

    for cls in model.classes:
        if not chain(cls.name, ()):
            return None

    flat: dict[str, ClassDef] = {}

    def build(name: str) -> ClassDef:
        if name in flat:
            return flat[name]
        cls = by_name[name]
        if cls.superclass is None:
            out = ClassDef(cls.name, None, cls.attributes, cls.zones, span=cls.span)
        else:
            sup = build(cls.superclass)
            names = {a.name for a in sup.attributes}
            for a in cls.attributes:
                if a.name in names:
                    own_sink.error(
                        f"attribute '{a.name}' of '{cls.name}' collides with an"
                        f" inherited attribute",
                        a.span or SourceSpan("<model>", 1, 1),
                    )
            out = ClassDef(
                cls.name,
                None,
                sup.attributes + cls.attributes,
                sup.zones + cls.zones,
                span=cls.span,
            )
        flat[name] = out
        return out

    classes = tuple(build(c.name) for c in model.classes)
    if own_sink.failed:
        return None
    return Model(model.name, model.imports, classes, model.main_class)


def analyze(model: Model, data: DataFile | None = None) -> tuple[TypedModel | None, list[Diagnostic]]:
    """Validate and type a parsed model against its data file."""
    a = _Analyzer(model, data or DataFile())
    typed = a.run()
    if a.sink.failed:
        return None, a.sink.items
    return typed, a.sink.items
