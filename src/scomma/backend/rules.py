"""The built-in rewrite-rule registry.

Rules are solution-set-preserving flat-model transformations a target may
need before emission (descriptors select and order them by name).  Each rule
documents the variable renaming it performs; everything else about the model
is untouched.
"""

from __future__ import annotations

from dataclasses import replace

from ..errors import BackendError
from ..ir import (
    BOOL,
    FlatConstraint,
    FlatModel,
    FlatObjective,
    FlatVar,
    INT,
    IntInterval,
    SET,
    iter_indices,
)
from ..nodes import BinOp, Expr, IntLit, Ref, RefPart, transform
from ..printer import render_expr


def _copy_model(fm: FlatModel) -> FlatModel:
    return FlatModel(
        name=fm.name,
        variables=list(fm.variables),
        constraints=list(fm.constraints),
        enum_types=dict(fm.enum_types),
        tables=dict(fm.tables),
        objective=fm.objective,
    )


def _rewrite_exprs(fm: FlatModel, fn) -> None:
    fm.constraints = [
        FlatConstraint(transform(c.expr, fn), c.origin) for c in fm.constraints
    ]
    if fm.objective is not None:
        fm.objective = FlatObjective(fm.objective.kind, transform(fm.objective.expr, fn))


def decompose_set_matrix(fm: FlatModel, params: tuple = ()) -> FlatModel:
    """Split every matrix of sets ``s[r,c]`` into scalar set variables named
    ``s<i>_<j>``; matrix references must have constant indices."""
    targets = {v.name: v for v in fm.variables if v.base == SET and len(v.shape) == 2}
    if not targets:
        return fm
    out = _copy_model(fm)
    variables: list[FlatVar] = []
    for v in out.variables:
        if v.name not in targets:
            variables.append(v)
            continue
        rows, cols = v.shape
        for i in range(1, rows + 1):
            for j in range(1, cols + 1):
                variables.append(
                    FlatVar(f"{v.name}{i}_{j}", SET, (), v.domain, v.enum_tag)
                )
    out.variables = variables

    def fn(node: Expr) -> Expr:
        if isinstance(node, Ref) and len(node.parts) == 1:
            part = node.parts[0]
            if part.name in targets:
                if len(part.indices) == 2 and all(
                    isinstance(i, IntLit) for i in part.indices
                ):
                    i, j = (idx.value for idx in part.indices)
                    return Ref((RefPart(f"{part.name}{i}_{j}"),), span=node.span)
                raise BackendError(
                    "decompose_set_matrix: reference"
                    f" '{render_expr(node)}' does not use constant indices"
                )
        return node

    _rewrite_exprs(out, fn)
    return out


def split_matrix_to_arrays(fm: FlatModel, params: tuple = ()) -> FlatModel:
    """Split every int/bool matrix ``m[r,c]`` into row arrays ``m_<i>[c]``;
    row indices in references must be constant."""
    targets = {
        v.name: v for v in fm.variables if v.base in (INT, BOOL) and len(v.shape) == 2
    }
    if not targets:
        return fm
    out = _copy_model(fm)
    variables: list[FlatVar] = []
    for v in out.variables:
        if v.name not in targets:
            variables.append(v)
            continue
        rows, cols = v.shape
        for i in range(1, rows + 1):
            variables.append(FlatVar(f"{v.name}_{i}", v.base, (cols,), v.domain, v.enum_tag))
    out.variables = variables

    def fn(node: Expr) -> Expr:
        if isinstance(node, Ref) and len(node.parts) == 1:
            part = node.parts[0]
            if part.name in targets and part.indices:
                row = part.indices[0]
                if len(part.indices) == 2 and isinstance(row, IntLit):
                    return Ref(
                        (RefPart(f"{part.name}_{row.value}", (part.indices[1],)),),
                        span=node.span,
                    )
                raise BackendError(
                    "split_matrix_to_arrays: reference"
                    f" '{render_expr(node)}' does not use a constant row index"
                )
        return node

    _rewrite_exprs(out, fn)
    return out


def rename_reserved_words(fm: FlatModel, params: tuple = ()) -> FlatModel:
    """Suffix '_' onto any variable or table whose name is a target keyword
    (the keywords are the rule's parameters)."""
    words = {str(p) for p in params}
    taken = {v.name for v in fm.variables} | set(fm.tables)
    mapping: dict[str, str] = {}
    for name in sorted(taken & words):
        fresh = name + "_"
        while fresh in taken:
            fresh += "_"
        mapping[name] = fresh
        taken.add(fresh)
    if not mapping:
        return fm
    out = _copy_model(fm)
    out.variables = [
        replace(v, name=mapping.get(v.name, v.name)) for v in out.variables
    ]
    out.tables = {
        mapping.get(n, n): replace(t, name=mapping.get(n, n)) for n, t in out.tables.items()
    }

    def fn(node: Expr) -> Expr:
        if isinstance(node, Ref):
            parts = tuple(
                RefPart(mapping.get(p.name, p.name), p.indices) for p in node.parts
            )
            return Ref(parts, span=node.span)
        return node

    _rewrite_exprs(out, fn)
    return out


def int_bounds_widen(fm: FlatModel, params: tuple = ()) -> FlatModel:
    """For targets without per-variable domains: move interval bounds of int
    variables into explicit constraints and widen the declared domain to the
    parameter interval (default [-1000000, 1000000])."""
    lo = int(params[0]) if len(params) > 0 else -1000000
    hi = int(params[1]) if len(params) > 1 else 1000000
    out = _copy_model(fm)
    variables: list[FlatVar] = []
    extra: list[FlatConstraint] = []
    for v in out.variables:
        if v.base != INT or not isinstance(v.domain, IntInterval):
            variables.append(v)
            continue
        old = v.domain
        wide = IntInterval(min(lo, old.lo), max(hi, old.hi))
        variables.append(replace(v, domain=wide))
        for idx in iter_indices(v.shape):
            ref = Ref((RefPart(v.name, tuple(IntLit(i) for i in idx)),))
            extra.append(FlatConstraint(BinOp(">=", ref, IntLit(old.lo)), "int_bounds_widen"))
            extra.append(FlatConstraint(BinOp("<=", ref, IntLit(old.hi)), "int_bounds_widen"))
    out.variables = variables
    out.constraints = out.constraints + extra
    return out


REGISTRY = {
    "decompose_set_matrix": decompose_set_matrix,
    "split_matrix_to_arrays": split_matrix_to_arrays,
    "rename_reserved_words": rename_reserved_words,
    "int_bounds_widen": int_bounds_widen,
}


def rule_named(name: str):
    rule = REGISTRY.get(name)
    if rule is None:
        raise BackendError(
            f"unknown rewrite rule '{name}' (registry: {', '.join(sorted(REGISTRY))})"
        )
    return rule
