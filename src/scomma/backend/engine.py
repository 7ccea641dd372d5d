"""Template rendering and target emission.

A descriptor's templates are compiled into closures on its first ``emit`` and
cached with it.  Every node is a ``(concept, obj, prec)`` triple, and every
field is read through ``descriptor.FIELDS`` when a template reads it; no view
of the model is built.  A field resolves on the node being rendered, and in a
foreach body on the loop item first (the loop variable, then the item's own
fields if it is a node), then on the enclosing frames, across template
boundaries; the scope is a linked ``(frame, parent)`` chain.  Where that rule
fixes the answer the field is read directly: a head at a template's top level
from the template's own node, the innermost loop variable from the item.

Expression children are rendered through the per-node-kind templates; the
engine inserts minimal parentheses using the modeling language's operator
precedence, so templates never need to reason about grouping (they may add
their own parens for target-language safety).
"""

from __future__ import annotations

import os
from functools import reduce
from importlib import resources
from pathlib import Path

from ..errors import BackendError
from ..ir import REAL, SET, FlatModel, flatness_violations
from ..printer import join_tight, needs_parens, render_real
from .descriptor import (
    DESCRIPTOR_EXTENSION, FIELDS, MISSING, BackendDescriptor, Cond, FieldRef, Lit,
    parse_descriptor,
)
from .rules import rule_named

_NOT_FOUND = object()  # no frame in the scope defines the field


def _find(head: str, scope, opmap: dict[str, str]):
    """The value of ``head`` in the innermost frame that defines it.  A
    foreach frame is ``(item, parent, var)``: ``var`` names the item, and an
    item that is a node shows its own fields."""
    while scope is not None:
        node = scope[0]
        if len(scope) == 3 and head == scope[2]:
            return node
        if type(node) is tuple:
            get = FIELDS[node[0]].get(head)
            if get is not None:
                return get(node[1], opmap)
        scope = scope[1]
    return _NOT_FOUND


def _concept_at(scope) -> str:
    """The concept of the innermost node in ``scope``."""
    while type(scope[0]) is not tuple:
        scope = scope[1]
    return scope[0][0]


def _walk(value, path: tuple[str, ...], tolerant: bool, opmap: dict[str, str]):
    """Follow the segments after the head of ``path``."""
    for seg in path[1:]:
        if value is MISSING:
            return MISSING
        get = FIELDS[value[0]].get(seg) if type(value) is tuple else None
        if get is None:
            if tolerant:
                return MISSING
            raise BackendError(f"'{'.'.join(path)}': no field '{seg}'")
        value = get(value[1], opmap)
    return value


def _compile(bd: BackendDescriptor):
    """``bd``'s templates as closures over a scope; returns the function that
    renders a Problem node with the header and footer."""
    opmap = bd.opmap

    def absent(concept: str):
        def fail(scope):
            raise BackendError(f"descriptor '{bd.name}' has no template for concept '{concept}'")
        return fail

    def value_text(value, scope) -> str:
        t = type(value)
        if t is str:
            return value
        if t is tuple:
            text = templates[value[0]]((value, scope))
            return f"({text})" if needs_parens(value[1], value[2]) else text
        if t is float:
            return render_real(value)
        if t is list:
            raise BackendError("a list field must be rendered with foreach")
        return str(value)

    def sequence(frags: list, concept: str | None, var: str | None):
        """Fragments at the top level of a template for ``concept``, or in a
        foreach body over ``var``."""
        parts = [fragment(f, concept, var) for f in frags]
        if len(parts) == 1:
            return parts[0]
        if concept == "BinOp":  # the pieces join as the printer joins them
            return lambda scope: reduce(join_tight, [part(scope) for part in parts], "")
        return lambda scope: "".join([part(scope) for part in parts])

    def fragment(frag, concept: str | None, var: str | None):
        if isinstance(frag, Lit):
            return lambda scope, text=frag.text: text
        path, segs = frag.path, len(frag.path) > 1
        head = path[0]
        get = FIELDS[concept].get(head) if concept is not None else None
        if head == var:
            read = lambda scope: scope[0]  # noqa: E731
        elif get is not None:
            read = lambda scope: get(scope[0][1], opmap)  # noqa: E731
        else:
            read = lambda scope: _find(head, scope, opmap)  # noqa: E731

        def resolve(value, scope):
            if value is _NOT_FOUND:
                raise BackendError(f"unknown field '{head}' on {_concept_at(scope)}")
            return _walk(value, path, False, opmap)

        if isinstance(frag, FieldRef):
            def field_text(scope) -> str:
                value = read(scope)
                if segs or value is _NOT_FOUND:
                    value = resolve(value, scope)
                if value is MISSING:
                    raise BackendError(
                        f"field '{'.'.join(path)}' is not defined on {_concept_at(scope)}")
                return value_text(value, scope)

            return field_text
        if isinstance(frag, Cond):
            then, els = sequence(frag.then, concept, var), sequence(frag.els or [], concept, var)

            def cond(scope) -> str:
                value = read(scope)
                if segs and value is not _NOT_FOUND:
                    value = _walk(value, path, True, opmap)
                if value is _NOT_FOUND or value is MISSING or value == []:
                    return els(scope)
                return then(scope)

            return cond
        body, loop_var, separator = sequence(frag.body, None, frag.var), frag.var, frag.separator

        def foreach(scope) -> str:
            items = read(scope)
            if segs or items is _NOT_FOUND:
                items = resolve(items, scope)
            if type(items) is not list:
                raise BackendError(f"'{'.'.join(path)}' is not a list")
            return separator.join([body((item, scope, loop_var)) for item in items])

        return foreach

    templates = {c: sequence(bd.templates[c], c, None) if c in bd.templates else absent(c)
                 for c in FIELDS}
    header, footer = sequence(bd.header, "Problem", None), sequence(bd.footer, "Problem", None)

    def render(problem: tuple) -> str:
        scope = (problem, None)
        return header(scope) + templates["Problem"](scope) + footer(scope)

    return render


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
            texts = "; ".join(text for text, _ in problems)
            raise BackendError(f"rewrite '{name}' broke the model: {texts}")
    return fm


def emit(fm: FlatModel, bd: BackendDescriptor) -> str:
    """Render ``fm`` through the descriptor's templates.  The model is
    expected to have been rewritten with ``bd.rewrites`` already."""
    _check_supported(fm, bd)
    if bd._render is None:
        bd._render = _compile(bd)
    text = bd._render(("Problem", fm, -1))
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


def _descriptor_files() -> list[Path]:
    files = sorted(builtin_target_dir().glob(f"*{DESCRIPTOR_EXTENSION}"))
    env = os.environ.get(TARGET_PATH_ENV, "")
    for directory in filter(None, env.split(os.pathsep)):
        files.extend(sorted(Path(directory).glob(f"*{DESCRIPTOR_EXTENSION}")))
    return files


def load_descriptor_file(path: Path) -> BackendDescriptor:
    bd, diags = parse_descriptor(path.read_text(encoding="utf-8"), str(path))
    if bd is None:
        details = "; ".join(d.render() for d in diags)
        raise BackendError(f"bad descriptor {path}: {details}")
    return bd


def list_targets() -> tuple[list[BackendDescriptor], list[str]]:
    """All available targets, later definitions shadowing earlier ones."""
    found: dict[str, BackendDescriptor] = {}
    warnings: list[str] = []
    for path in _descriptor_files():
        bd = load_descriptor_file(path)
        if bd.name in found:
            warnings.append(
                f"target '{bd.name}' from {bd.source} shadows {found[bd.name].source}"
            )
        found[bd.name] = bd
    return list(found.values()), warnings


def find_target(name: str) -> BackendDescriptor:
    targets, _ = list_targets()
    for bd in targets:
        if bd.name == name:
            return bd
    names = ", ".join(sorted(t.name for t in targets))
    raise BackendError(f"no target named '{name}' (available: {names})")
