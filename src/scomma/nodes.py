"""AST for the modeling language: expressions, class members, models, data files.

The same expression nodes serve both the source AST and the flat IR; flatness
is a restriction (single-part references, no enum literals, no data-constant
names), not a separate node set.  Nodes compare structurally — source spans
are excluded from equality so that round-trip and transformation tests can
compare trees directly.  Expression nodes are slotted: a node holds its
declared fields and nothing else, and is not mutated once built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .diagnostics import SourceSpan

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

ARITH_OPS = ("+", "-", "*", "/")


@dataclass(slots=True)
class Expr:
    """Base class for expression nodes."""

    span: SourceSpan | None = field(default=None, kw_only=True, compare=False, repr=False)


@dataclass(slots=True)
class IntLit(Expr):
    value: int = 0


@dataclass(slots=True)
class RealLit(Expr):
    value: float = 0.0


@dataclass(slots=True)
class BoolLit(Expr):
    value: bool = False


@dataclass(slots=True)
class SetLit(Expr):
    """Explicit set value, ``{1, 3, 5}``."""

    elems: tuple[Expr, ...] = ()


@dataclass(slots=True)
class ArrayLit(Expr):
    """Array of expressions, ``[a, b, c]``; legal only as a global-constraint
    argument."""

    elems: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class RefPart:
    """One segment of a reference path: a name plus optional index expressions."""

    name: str
    indices: tuple[Expr, ...] = ()


@dataclass(slots=True)
class Ref(Expr):
    """A (possibly dotted, possibly indexed) reference: ``man[m].rank[w]``.

    After flattening exactly one part remains and it names a flat variable or
    a constant table.
    """

    parts: tuple[RefPart, ...] = ()

    @property
    def simple_name(self) -> str | None:
        """Name if this is a bare single-part, index-free reference."""
        if len(self.parts) == 1 and not self.parts[0].indices:
            return self.parts[0].name
        return None


@dataclass(slots=True)
class EnumRef(Expr):
    """A resolved enumeration literal (``Tracy``); replaced by its 1-based
    ordinal during enumeration substitution."""

    enum_name: str = ""
    value_name: str = ""
    ordinal: int = 0


@dataclass(slots=True)
class BinOp(Expr):
    op: str = "+"
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class UnOp(Expr):
    op: str = "neg"  # "neg" or "not"
    operand: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class Call(Expr):
    """Function-style expression (``cardinality(s)``) or, at item level, a
    global-constraint call (``alldifferent(q)``)."""

    name: str = ""
    args: tuple[Expr, ...] = ()


def simple_ref(name: str, *indices: Expr, span: SourceSpan | None = None) -> Ref:
    return Ref(parts=(RefPart(name, tuple(indices)),), span=span)


def walk(*roots) -> list:
    """Every item and expression node in and under ``roots``, pre-order.

    An item's expressions come before its sub-items: a ``Forall``'s
    ``IntRange`` bounds before its body, an ``IfElse``'s condition before its
    ``then`` and ``else`` items.  A reference's index expressions are its
    children.  Iterative, so the depth of a tree is no limit."""
    out = []
    stack = list(reversed(roots))
    pop, push, extend, visit = stack.pop, stack.append, stack.extend, out.append
    while stack:
        node = pop()
        visit(node)
        t = type(node)
        if t is BinOp:
            push(node.right)
            push(node.left)
        elif t is Ref:
            for part in reversed(node.parts):
                extend(reversed(part.indices))
        elif t is Constraint or t is Objective:
            push(node.expr)
        elif t is UnOp:
            push(node.operand)
        elif t is Call or t is GlobalCall:
            extend(reversed(node.args))
        elif t is SetLit or t is ArrayLit:
            extend(reversed(node.elems))
        elif t is Forall:
            extend(reversed(node.body))
            if type(node.range) is IntRange:
                push(node.range.hi)
                push(node.range.lo)
        elif t is IfElse:
            if node.else_items is not None:
                extend(reversed(node.else_items))
            extend(reversed(node.then_items))
            push(node.cond)
    return out


def transform(e: Expr, fn, memo: dict[int, Expr] | None = None) -> Expr:
    """Rebuild ``e`` bottom-up, applying ``fn`` to every node.

    ``fn`` receives a node whose children are already transformed and returns
    a replacement node (possibly the same one).  A node whose children all
    come back as the very same objects reaches ``fn`` as itself, so only the
    paths above a change are rebuilt and untouched subtrees are shared
    between the input and the result.  A node may therefore belong to
    several trees and must not be mutated once built.

    ``memo`` maps ``id(node)`` to the result for the nodes already
    transformed: a node met again, in ``e`` or in a later call with the same
    ``memo``, is answered from it without a second visit, so a shared
    subtree is transformed once and its result is shared too.  That holds
    only while ``fn`` depends on the node alone and the nodes stay alive.
    """
    if memo is not None:
        done = memo.get(id(e))
        if done is not None:
            return done
    source = e
    t = type(e)
    if t is BinOp:
        left = transform(e.left, fn, memo)
        right = transform(e.right, fn, memo)
        if left is not e.left or right is not e.right:
            e = BinOp(e.op, left, right, span=e.span)
    elif t is Ref:
        parts = None
        for k, p in enumerate(e.parts):
            indices = _transform_all(p.indices, fn, memo)
            if indices is not p.indices:
                if parts is None:
                    parts = list(e.parts[:k])
                parts.append(RefPart(p.name, indices))
            elif parts is not None:
                parts.append(p)
        if parts is not None:
            e = Ref(tuple(parts), span=e.span)
    elif t is UnOp:
        operand = transform(e.operand, fn, memo)
        if operand is not e.operand:
            e = UnOp(e.op, operand, span=e.span)
    elif t is Call:
        args = _transform_all(e.args, fn, memo)
        if args is not e.args:
            e = Call(e.name, args, span=e.span)
    elif t is SetLit or t is ArrayLit:
        elems = _transform_all(e.elems, fn, memo)
        if elems is not e.elems:
            e = t(elems, span=e.span)
    e = fn(e)
    if memo is not None:
        memo[id(source)] = e
    return e


def _transform_all(xs: tuple, fn, memo) -> tuple:
    """``transform`` of each of ``xs``; ``xs`` itself when none changed.
    ``_map_all`` for ``transform``, which takes ``memo`` as well: passing it
    through ``*args`` would slow every ``transform`` by about a tenth."""
    out = None
    for k, x in enumerate(xs):
        x2 = transform(x, fn, memo)
        if out is not None:
            out.append(x2)
        elif x2 is not x:
            out = list(xs[:k])
            out.append(x2)
    return xs if out is None else tuple(out)


def _map_all(f, xs: tuple, fn) -> tuple:
    """``f(x, fn)`` for each of ``xs``; ``xs`` itself when none changed."""
    out = None
    for k, x in enumerate(xs):
        x2 = f(x, fn)
        if out is not None:
            out.append(x2)
        elif x2 is not x:
            out = list(xs[:k])
            out.append(x2)
    return xs if out is None else tuple(out)


def map_item(item: Item, fn) -> Item:
    """``item`` with ``fn`` applied to each expression it holds.

    The expressions are constraint and objective bodies, global-call
    arguments, ``IntRange`` loop bounds and ``if`` conditions; ``Forall``
    bodies and ``IfElse`` branches are mapped item by item.  Like
    ``transform``, an item whose expressions and sub-items all come back as
    the very same objects is returned as itself.  An ``else`` branch is
    mapped before its condition and ``then`` branch, the order in which the
    passes record first uses of enums and tables.
    """
    t = type(item)
    if t is Constraint:
        expr = fn(item.expr)
        return item if expr is item.expr else Constraint(expr, span=item.span)
    if t is GlobalCall:
        args = _map_all(_apply, item.args, fn)
        return item if args is item.args else GlobalCall(item.name, args, span=item.span)
    if t is Objective:
        expr = fn(item.expr)
        return item if expr is item.expr else Objective(item.kind, expr, span=item.span)
    if t is Forall:
        rng = item.range
        if type(rng) is IntRange:
            lo, hi = fn(rng.lo), fn(rng.hi)
            if lo is not rng.lo or hi is not rng.hi:
                rng = IntRange(lo, hi)
        body = _map_all(map_item, item.body, fn)
        if rng is item.range and body is item.body:
            return item
        return Forall(item.var, rng, body, span=item.span)
    if t is IfElse:
        else_items = item.else_items
        if else_items is not None:
            else_items = _map_all(map_item, else_items, fn)
        cond = fn(item.cond)
        then_items = _map_all(map_item, item.then_items, fn)
        if cond is item.cond and then_items is item.then_items and else_items is item.else_items:
            return item
        return IfElse(cond, then_items, else_items, span=item.span)
    return item


def _apply(x, fn):
    return fn(x)


# ---------------------------------------------------------------------------
# Types, shapes, and domains as written in declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeSpec:
    pass


@dataclass(frozen=True)
class IntType(TypeSpec):
    pass


@dataclass(frozen=True)
class RealType(TypeSpec):
    pass


@dataclass(frozen=True)
class BoolType(TypeSpec):
    pass


@dataclass(frozen=True)
class SetType(TypeSpec):
    """``set of int`` or ``set of SomeEnum`` (element name resolved later)."""

    elem: str = "int"


@dataclass(frozen=True)
class NamedType(TypeSpec):
    """Unresolved type name; the analyzer turns it into EnumType or ObjectType."""

    name: str = ""


@dataclass(frozen=True)
class EnumType(TypeSpec):
    name: str = ""


@dataclass(frozen=True)
class ObjectType(TypeSpec):
    name: str = ""


@dataclass
class DomainInterval:
    lo: Expr
    hi: Expr


@dataclass
class DomainSet:
    elems: tuple[Expr, ...]


DomainSpec = Union[DomainInterval, DomainSet]


@dataclass
class Attribute:
    """A class member: decision variable, set, object, or array thereof.

    ``shape`` holds 0 (scalar), 1 (array) or 2 (matrix) bound expressions;
    each bound is an integer literal, a constant name, or an enum name.  In
    an analyzed model a constant bound is the literal of its value and the
    domain's bounds or elements are literals (see ``TypedModel``).
    ``enum_tag`` is set once an enum type has been lowered to its ordinal
    range, so solutions can be rendered with the symbolic labels.
    """

    name: str
    type: TypeSpec
    shape: tuple[Expr, ...] = ()
    domain: DomainSpec | None = None
    enum_tag: str | None = None
    span: SourceSpan | None = field(default=None, kw_only=True, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Constraint-zone items
# ---------------------------------------------------------------------------


@dataclass
class Item:
    span: SourceSpan | None = field(default=None, kw_only=True, compare=False, repr=False)


@dataclass
class Constraint(Item):
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class IntRange:
    lo: Expr
    hi: Expr


@dataclass
class NameRange:
    """A range given by name (an enumeration); traversed in ordinal order."""

    name: str


LoopRange = Union[IntRange, NameRange]


@dataclass
class Forall(Item):
    var: str = ""
    range: LoopRange = None  # type: ignore[assignment]
    body: tuple[Item, ...] = ()


@dataclass
class IfElse(Item):
    cond: Expr = None  # type: ignore[assignment]
    then_items: tuple[Item, ...] = ()
    else_items: tuple[Item, ...] | None = None


@dataclass
class Objective(Item):
    kind: str = "minimize"  # "minimize" | "maximize"
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class GlobalCall(Item):
    name: str = ""
    args: tuple[Expr, ...] = ()


GLOBAL_CONSTRAINTS = ("alldifferent", "cumulatives")


@dataclass
class ConstraintZone:
    name: str
    items: tuple[Item, ...]
    span: SourceSpan | None = field(default=None, kw_only=True, compare=False, repr=False)


@dataclass
class ClassDef:
    name: str
    superclass: str | None
    attributes: tuple[Attribute, ...]
    zones: tuple[ConstraintZone, ...]
    span: SourceSpan | None = field(default=None, kw_only=True, compare=False, repr=False)


@dataclass
class Model:
    """A parsed model file.  The first class defined is the main class."""

    name: str
    imports: tuple[str, ...]
    classes: tuple[ClassDef, ...]
    main_class: str

    def class_named(self, name: str) -> ClassDef | None:
        for c in self.classes:
            if c.name == name:
                return c
        return None


# ---------------------------------------------------------------------------
# Data files
# ---------------------------------------------------------------------------


@dataclass
class VInt:
    value: int


@dataclass
class VReal:
    value: float


@dataclass
class VBool:
    value: bool


@dataclass
class VSym:
    """Symbolic value (an enumeration literal) awaiting ordinal substitution."""

    name: str


@dataclass
class VList:
    """Array literal ``[a, b, c]`` or keyed form ``[Helen:5, Tracy:1]``.

    ``keys`` is None for positional entries; keyed and positional entries may
    not be mixed.
    """

    items: tuple[DataValue, ...]
    keys: tuple[str, ...] | None = None


@dataclass
class VObj:
    """Object literal ``{elem, elem}``; elements match the target class's
    attributes positionally."""

    items: tuple[DataValue, ...]


@dataclass
class VOmit:
    """The ``_`` marker: leave the slot as a decision variable."""


DataValue = Union[VInt, VReal, VBool, VSym, VList, VObj, VOmit]


@dataclass
class EnumDecl:
    name: str
    values: tuple[str, ...]
    span: SourceSpan | None = field(default=None, kw_only=True, compare=False, repr=False)

    def ordinal(self, value_name: str) -> int:
        """1-based position of ``value_name``; raises KeyError if absent."""
        try:
            return self.values.index(value_name) + 1
        except ValueError:
            raise KeyError(value_name) from None


@dataclass
class ConstDecl:
    name: str
    type: TypeSpec
    shape: tuple[Expr, ...]
    value: DataValue
    span: SourceSpan | None = field(default=None, kw_only=True, compare=False, repr=False)


@dataclass
class Assignment:
    """A variable-assignment: concrete values bound into an object's slots."""

    type_name: str
    path: tuple[str, ...]
    value: DataValue
    span: SourceSpan | None = field(default=None, kw_only=True, compare=False, repr=False)


@dataclass
class DataFile:
    enums: dict[str, EnumDecl] = field(default_factory=dict)
    constants: dict[str, ConstDecl] = field(default_factory=dict)
    assignments: list[Assignment] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not (self.enums or self.constants or self.assignments)

    def merged_with(self, other: DataFile) -> tuple[DataFile, list[str]]:
        """Combine two data files; returns the merge plus duplicate-name clashes."""
        clashes = []
        out = DataFile(dict(self.enums), dict(self.constants), list(self.assignments))
        for name, decl in other.enums.items():
            if name in out.enums:
                clashes.append(f"enum '{name}' defined in more than one data file")
            out.enums[name] = decl
        for name, decl in other.constants.items():
            if name in out.constants:
                clashes.append(f"constant '{name}' defined in more than one data file")
            out.constants[name] = decl
        seen = {a.path for a in out.assignments}
        for a in other.assignments:
            if a.path in seen:
                clashes.append(f"assignment to '{'.'.join(a.path)}' repeated")
            out.assignments.append(a)
        return out, clashes
