"""Pretty-printers for expressions and whole models.

Expression rendering is the canonical text form: minimal parentheses by
operator precedence, arithmetic and comparisons set tight (``x[1]+3<=y``,
except ``x< -1``, which would otherwise read as an arrow), word operators and
arrows spaced (``a -> b``).  ``BINARY_OPS`` below is the language's one
operator table: the parser's precedence-climbing loop reads it, and so does
the parenthesization inside backend templates.
"""

from __future__ import annotations

from .nodes import (
    ArrayLit,
    Attribute,
    BinOp,
    BoolLit,
    BoolType,
    Call,
    ClassDef,
    Constraint,
    ConstraintZone,
    DomainInterval,
    DomainSet,
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
    ObjectType,
    Objective,
    RealLit,
    RealType,
    Ref,
    SetLit,
    SetType,
    TypeSpec,
    UnOp,
)

# The binary operators, one level per row from the loosest binding to the
# tightest, each with its associativity: arrows group to the right,
# comparisons do not chain, the rest group to the left.
_LEVELS = (
    ("right", ("->", "<-", "<->")),
    ("left", ("or",)),
    ("left", ("xor",)),
    ("left", ("and",)),
    ("none", ("<", ">", "<=", ">=", "=", "<>", "in", "subset", "superset")),
    ("left", ("union", "diff", "symdiff", "intersection")),
    ("left", ("+", "-")),
    ("left", ("*", "/")),
)
UNARY_PREC = len(_LEVELS)  # unary not and -, tighter than every binary level

# How far above an operator's own precedence its (left, right) operand sits.
_OPERAND_STEP = {"left": (0, 1), "right": (1, 0), "none": (1, 1)}

# op -> (its precedence, the precedences its left and right operands are
# rendered and parsed at)
BINARY_OPS: dict[str, tuple[int, int, int]] = {
    op: (prec, prec + _OPERAND_STEP[assoc][0], prec + _OPERAND_STEP[assoc][1])
    for prec, (assoc, ops) in enumerate(_LEVELS)
    for op in ops
}

# Operators rendered with surrounding spaces; the rest are set tight.
_SPACED = {
    "->", "<-", "<->", "and", "or", "xor",
    "in", "subset", "superset", "union", "diff", "symdiff", "intersection",
}


def operand_precs(e: Expr) -> tuple[int, int]:
    """The parent precedences the operands of the binary ``e`` are rendered
    at."""
    return BINARY_OPS[e.op][1:]


def needs_parens(e: Expr, parent_prec: int) -> bool:
    """Whether ``e`` is parenthesized where its parent renders it at
    ``parent_prec``.  Unary expressions and negative literals bind just below
    the unary operators, so ``-(-x)`` and ``x*(-1)`` keep their parentheses."""
    t = type(e)
    if t is BinOp:
        return BINARY_OPS[e.op][0] < parent_prec
    if t is UnOp or ((t is IntLit or t is RealLit) and e.value < 0):
        return parent_prec >= UNARY_PREC
    return False


def render_real(value: float) -> str:
    return repr(value)


def render_expr(e: Expr) -> str:
    return _render(e, -1)


def _render(e: Expr, parent_prec: int) -> str:
    text = _text(e)
    return f"({text})" if needs_parens(e, parent_prec) else text


def _text(e: Expr) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, RealLit):
        return render_real(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, EnumRef):
        return e.value_name
    if isinstance(e, Ref):
        return ".".join(
            p.name
            + (f"[{','.join(_render(i, -1) for i in p.indices)}]" if p.indices else "")
            for p in e.parts
        )
    if isinstance(e, Call):
        return f"{e.name}({','.join(_render(a, -1) for a in e.args)})"
    if isinstance(e, ArrayLit):
        return f"[{','.join(_render(a, -1) for a in e.elems)}]"
    if isinstance(e, SetLit):
        return "{" + ",".join(_render(a, -1) for a in e.elems) + "}"
    if isinstance(e, UnOp):
        inner = _render(e.operand, UNARY_PREC)
        return f"not {inner}" if e.op == "not" else f"-{inner}"
    if isinstance(e, BinOp):
        lp, rp = operand_precs(e)
        op = f" {e.op} " if e.op in _SPACED else e.op
        right = _render(e.right, rp)
        if op == "<" and right[0] == "-":  # "x<-1" reads as an arrow
            op = "< "
        return f"{_render(e.left, lp)}{op}{right}"
    raise TypeError(f"cannot render {type(e).__name__}")


def render_type(t: TypeSpec) -> str:
    if isinstance(t, IntType):
        return "int"
    if isinstance(t, RealType):
        return "real"
    if isinstance(t, BoolType):
        return "bool"
    if isinstance(t, SetType):
        return f"set of {t.elem}"
    if isinstance(t, (NamedType, EnumType, ObjectType)):
        return t.name
    raise TypeError(f"cannot render type {type(t).__name__}")


def render_attribute(a: Attribute) -> str:
    text = f"{render_type(a.type)} {a.name}"
    if a.shape:
        text += f"[{','.join(render_expr(b) for b in a.shape)}]"
    if a.domain is not None:
        if isinstance(a.domain, DomainInterval):
            text += f" in [{render_expr(a.domain.lo)},{render_expr(a.domain.hi)}]"
        elif isinstance(a.domain, DomainSet):
            text += " in {" + ",".join(render_expr(v) for v in a.domain.elems) + "}"
    return text + ";"


def _render_item(item: Item, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(item, Constraint):
        return [pad + render_expr(item.expr) + ";"]
    if isinstance(item, GlobalCall):
        return [pad + f"{item.name}({','.join(render_expr(a) for a in item.args)});"]
    if isinstance(item, Objective):
        return [pad + f"[{item.kind}] {render_expr(item.expr)};"]
    if isinstance(item, Forall):
        if isinstance(item.range, IntRange):
            rng = f"{render_expr(item.range.lo)}..{render_expr(item.range.hi)}"
        else:
            rng = item.range.name
        lines = [pad + f"forall({item.var} in {rng}) {{"]
        for sub in item.body:
            lines.extend(_render_item(sub, indent + 1))
        lines.append(pad + "}")
        return lines
    if isinstance(item, IfElse):
        lines = [pad + f"if ({render_expr(item.cond)}) {{"]
        for sub in item.then_items:
            lines.extend(_render_item(sub, indent + 1))
        if item.else_items is not None:
            lines.append(pad + "} else {")
            for sub in item.else_items:
                lines.extend(_render_item(sub, indent + 1))
        lines.append(pad + "}")
        return lines
    raise TypeError(f"cannot render item {type(item).__name__}")


def _render_zone(zone: ConstraintZone, indent: int) -> list[str]:
    pad = "  " * indent
    lines = [pad + f"constraint {zone.name} {{"]
    for item in zone.items:
        lines.extend(_render_item(item, indent + 1))
    lines.append(pad + "}")
    return lines


def _render_class(cls: ClassDef) -> list[str]:
    head = f"class {cls.name}"
    if cls.superclass:
        head += f" extends {cls.superclass}"
    lines = [head + " {"]
    for attr in cls.attributes:
        lines.append("  " + render_attribute(attr))
    for zone in cls.zones:
        if len(lines) > 1:
            lines.append("")
        lines.extend(_render_zone(zone, 1))
    lines.append("}")
    return lines


def pretty_print(model: Model) -> str:
    """Canonical text for a model; reparsing it yields an equal AST."""
    lines: list[str] = []
    for imp in model.imports:
        lines.append(f"import {imp};")
    if model.imports:
        lines.append("")
    for i, cls in enumerate(model.classes):
        if i:
            lines.append("")
        lines.extend(_render_class(cls))
    return "\n".join(lines) + "\n"
