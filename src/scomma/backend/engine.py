"""Template rendering and target emission.

Emission walks descriptor templates against wrapper nodes built from the flat
model.  Expression children are rendered through the per-node-kind templates;
the engine inserts minimal parentheses using the modeling language's operator
precedence, so templates never need to reason about grouping (they may add
their own parens for target-language safety).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from ..errors import BackendError
from ..ir import (
    FlatModel,
    FlatVar,
    IntSet,
    REAL,
    RealInterval,
    SET,
    Table,
    flatness_violations,
)
from ..nodes import (
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
from ..printer import UNARY_PREC, needs_parens, operand_precs, render_real
from .descriptor import (
    BackendDescriptor,
    Cond,
    DESCRIPTOR_EXTENSION,
    FieldRef,
    Foreach,
    Lit,
    parse_descriptor,
)
from .rules import rule_named

MISSING = object()


@dataclass
class _LazyExpr:
    expr: Expr
    parent_prec: int


def _expr_node(e: Expr, opmap: dict[str, str]) -> dict:
    if isinstance(e, IntLit):
        return {"__concept__": "IntLit", "value": str(e.value)}
    if isinstance(e, RealLit):
        return {"__concept__": "RealLit", "value": render_real(e.value)}
    if isinstance(e, BoolLit):
        return {"__concept__": "TrueLit" if e.value else "FalseLit"}
    if isinstance(e, Ref):
        part = e.parts[0]
        if not part.indices:
            return {"__concept__": "Ref", "name": part.name}
        return {
            "__concept__": "IndexedRef",
            "name": part.name,
            "indices": [_LazyExpr(i, -1) for i in part.indices],
        }
    if isinstance(e, BinOp):
        lp, rp = operand_precs(e)
        return {
            "__concept__": "BinOp",
            "op": opmap.get(e.op, e.op),
            "left": _LazyExpr(e.left, lp),
            "right": _LazyExpr(e.right, rp),
        }
    if isinstance(e, UnOp):
        raw = "not " if e.op == "not" else "-"
        return {
            "__concept__": "UnOp",
            "op": opmap.get(e.op, raw),
            "operand": _LazyExpr(e.operand, UNARY_PREC),
        }
    if isinstance(e, Call):
        return {
            "__concept__": "Call",
            "name": e.name,
            "args": [_LazyExpr(a, -1) for a in e.args],
        }
    if isinstance(e, ArrayLit):
        return {"__concept__": "ArrayLit", "elems": [_LazyExpr(x, -1) for x in e.elems]}
    if isinstance(e, SetLit):
        return {"__concept__": "SetLit", "elems": [_LazyExpr(x, -1) for x in e.elems]}
    raise BackendError(f"cannot render expression node {type(e).__name__}")


def _domain_node(var: FlatVar) -> dict:
    d = var.domain
    if isinstance(d, IntSet):
        return {
            "__concept__": "Domain",
            "lo": str(min(d.members)),
            "hi": str(max(d.members)),
            "values": [str(v) for v in d.members],
        }
    if isinstance(d, RealInterval):
        return {
            "__concept__": "Domain",
            "lo": render_real(d.lo),
            "hi": render_real(d.hi),
            "values": MISSING,
        }
    return {"__concept__": "Domain", "lo": str(d.lo), "hi": str(d.hi), "values": MISSING}


def _variable_node(var: FlatVar) -> dict:
    if var.shape:
        array = {
            "__concept__": "ArrayShape",
            "row": str(var.shape[0]),
            "col": str(var.shape[1]) if len(var.shape) == 2 else MISSING,
        }
    else:
        array = MISSING
    return {
        "__concept__": "Variable",
        "name": var.name,
        "type": var.type_label,
        "base": var.base if var.base != SET else "set of int",
        "array": array,
        "domain": _domain_node(var),
        "enum_tag": var.enum_tag if var.enum_tag else MISSING,
    }


def _num_text(v) -> str:
    return render_real(v) if isinstance(v, float) else str(v)


def _table_node(t: Table) -> dict:
    if len(t.shape) == 2:
        rows = [
            {"__concept__": "Row", "values": [_num_text(v) for v in row]}
            for row in t.rows()
        ]
        return {
            "__concept__": "ConstArray",
            "name": t.name,
            "values": MISSING,
            "rows": rows,
            "row": str(t.shape[0]),
            "col": str(t.shape[1]),
        }
    return {
        "__concept__": "ConstArray",
        "name": t.name,
        "values": [_num_text(v) for v in t.values],
        "rows": MISSING,
        "row": str(t.shape[0]),
        "col": MISSING,
    }


def _problem_node(fm: FlatModel, opmap: dict[str, str]) -> dict:
    return {
        "__concept__": "Problem",
        "name": fm.name,
        "variables": [_variable_node(v) for v in fm.variables],
        "constraints": [
            {
                "__concept__": "Constraint",
                "expr": _LazyExpr(c.expr, -1),
                "index": str(i),
                "origin": c.origin,
            }
            for i, c in enumerate(fm.constraints)
        ],
        "enums": [
            {"__concept__": "EnumType", "name": name, "values": list(values)}
            for name, values in fm.enum_types.items()
        ],
        "tables": [_table_node(t) for t in fm.tables.values()],
        "objective": (
            {
                "__concept__": "Objective",
                "kind": fm.objective.kind,
                "expr": _LazyExpr(fm.objective.expr, -1),
            }
            if fm.objective is not None
            else MISSING
        ),
    }


class _Renderer:
    def __init__(self, bd: BackendDescriptor):
        self.bd = bd

    def render(self, frags: list, stack: list) -> str:
        return "".join(self._frag(f, stack) for f in frags)

    def _frag(self, frag, stack: list) -> str:
        if isinstance(frag, Lit):
            return frag.text
        if isinstance(frag, FieldRef):
            value = self._lookup(frag.path, stack)
            if value is MISSING:
                concept = stack[-1].get("__concept__", "?")
                raise BackendError(
                    f"field '{'.'.join(frag.path)}' is not defined on {concept}"
                )
            return self._value(value, stack)
        if isinstance(frag, Cond):
            value = self._lookup(frag.path, stack, tolerant=True)
            defined = value is not MISSING and (not isinstance(value, list) or bool(value))
            if defined:
                return self.render(frag.then, stack)
            if frag.els is not None:
                return self.render(frag.els, stack)
            return ""
        if isinstance(frag, Foreach):
            value = self._lookup(frag.path, stack)
            if not isinstance(value, list):
                raise BackendError(f"'{'.'.join(frag.path)}' is not a list")
            pieces = []
            for item in value:
                frame = {"__concept__": stack[-1].get("__concept__", "?"), frag.var: item}
                if isinstance(item, dict):
                    frame = dict(item)
                    frame[frag.var] = item
                pieces.append(self.render(frag.body, stack + [frame]))
            return frag.separator.join(pieces)
        raise AssertionError(f"unknown fragment {type(frag).__name__}")

    def _lookup(self, path: tuple[str, ...], stack: list, tolerant: bool = False):
        value = MISSING
        for frame in reversed(stack):
            if path[0] in frame:
                value = frame[path[0]]
                break
        else:
            if not tolerant:
                concept = stack[-1].get("__concept__", "?")
                raise BackendError(f"unknown field '{path[0]}' on {concept}")
            return MISSING
        for seg in path[1:]:
            if value is MISSING:
                return MISSING
            if isinstance(value, _LazyExpr):
                value = _expr_node(value.expr, self.bd.opmap)
            if not isinstance(value, dict) or seg not in value:
                if tolerant:
                    return MISSING
                raise BackendError(f"'{'.'.join(path)}': no field '{seg}'")
            value = value[seg]
        return value

    def _value(self, value, stack: list) -> str:
        if isinstance(value, str):
            return value
        if isinstance(value, _LazyExpr):
            node = _expr_node(value.expr, self.bd.opmap)
            text = self._node(node, stack)
            if needs_parens(value.expr, value.parent_prec):
                return f"({text})"
            return text
        if isinstance(value, dict):
            return self._node(value, stack)
        if isinstance(value, list):
            raise BackendError("a list field must be rendered with foreach")
        return str(value)

    def _node(self, node: dict, stack: list) -> str:
        concept = node["__concept__"]
        template = self.bd.template_for(concept)
        if template is None:
            raise BackendError(
                f"descriptor '{self.bd.name}' has no template for concept '{concept}'"
            )
        return self.render(template, stack + [node])


# ---------------------------------------------------------------------------
# Construct checks, rewrites, emission
# ---------------------------------------------------------------------------


def constructs_present(fm: FlatModel) -> set[str]:
    found: set[str] = set()
    for v in fm.variables:
        if v.base == SET:
            found.add("set_variable")
            if len(v.shape) == 2:
                found.add("set_matrix")
        if v.base == REAL:
            found.add("real_variable")
        if len(v.shape) == 2:
            found.add("matrix")
    return found


def _check_supported(fm: FlatModel, bd: BackendDescriptor) -> None:
    present = constructs_present(fm)
    for construct, fix in bd.unsupported:
        if construct in present:
            hint = f"; rewrite rule '{fix}' would remove it" if fix else ""
            raise BackendError(
                f"target '{bd.name}' does not support {construct.replace('_', ' ')}{hint}"
            )


def apply_rewrites(fm: FlatModel, rewrites: list[tuple[str, tuple]]) -> FlatModel:
    """Run the named registry rules in order, revalidating flatness after
    each rule that returned a new model."""
    for name, params in rewrites:
        rewritten = rule_named(name)(fm, params)
        if rewritten is fm:
            continue
        fm = rewritten
        problems = flatness_violations(fm)
        if problems:
            raise BackendError(f"rewrite '{name}' broke the model: {'; '.join(problems)}")
    return fm


def emit(fm: FlatModel, bd: BackendDescriptor) -> str:
    """Render ``fm`` through the descriptor's templates.  The model is
    expected to have been rewritten with ``bd.rewrites`` already."""
    _check_supported(fm, bd)
    renderer = _Renderer(bd)
    problem = _problem_node(fm, bd.opmap)
    stack = [problem]
    text = (
        renderer.render(bd.header, stack)
        + renderer._node(problem, [])
        + renderer.render(bd.footer, stack)
    )
    if not text.endswith("\n"):
        text += "\n"
    return text


def compile_to_target(fm: FlatModel, bd: BackendDescriptor, no_rewrites: bool = False) -> str:
    """``bd``'s rewrites, then emission.  With ``no_rewrites`` the model is
    emitted as it is, which fails loudly when it uses a construct the target
    declared unsupported, naming the fixing rule."""
    if no_rewrites:
        return emit(fm, bd)
    return emit(apply_rewrites(fm, bd.rewrites), bd)


# ---------------------------------------------------------------------------
# Target discovery
# ---------------------------------------------------------------------------

TARGET_PATH_ENV = "SCOMMA_TARGET_PATH"


def builtin_target_dir() -> Path:
    return Path(str(resources.files(__package__) / "targets"))


def _descriptor_files(extra_files: tuple[str, ...] = ()) -> list[Path]:
    files = sorted(builtin_target_dir().glob(f"*{DESCRIPTOR_EXTENSION}"))
    env = os.environ.get(TARGET_PATH_ENV, "")
    for directory in filter(None, env.split(os.pathsep)):
        files.extend(sorted(Path(directory).glob(f"*{DESCRIPTOR_EXTENSION}")))
    files.extend(Path(f) for f in extra_files)
    return files


def load_descriptor_file(path: Path) -> BackendDescriptor:
    bd, diags = parse_descriptor(path.read_text(encoding="utf-8"), str(path))
    if bd is None:
        details = "; ".join(d.render() for d in diags)
        raise BackendError(f"bad descriptor {path}: {details}")
    return bd


def list_targets(extra_files: tuple[str, ...] = ()) -> tuple[list[BackendDescriptor], list[str]]:
    """All available targets, later definitions shadowing earlier ones."""
    found: dict[str, BackendDescriptor] = {}
    warnings: list[str] = []
    for path in _descriptor_files(extra_files):
        bd = load_descriptor_file(path)
        if bd.name in found:
            warnings.append(
                f"target '{bd.name}' from {bd.source} shadows {found[bd.name].source}"
            )
        found[bd.name] = bd
    return list(found.values()), warnings


def find_target(name: str, extra_files: tuple[str, ...] = ()) -> BackendDescriptor:
    targets, _ = list_targets(extra_files)
    for bd in targets:
        if bd.name == name:
            return bd
    names = ", ".join(sorted(t.name for t in targets))
    raise BackendError(f"no target named '{name}' (available: {names})")
