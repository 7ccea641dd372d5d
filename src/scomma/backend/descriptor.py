"""Backend descriptors: the data files that define one emission target.

A descriptor binds concrete syntax to the flat-model concepts — a template
per concept, header/footer text, an operator spelling map, an ordered list of
rewrite rules to run before emission, and declarations of constructs the
target cannot express (each naming the rule that would remove it).

Template fragments:

    "literal text"                         with \\n \\t \\" \\\\ escapes
    fieldpath                              e.g. name, domain, array.col
    (isDefined(field) ? frags)             conditional, optional ": frags" else
    (foreach v in list ? frags separator ", ")   iteration over a list field

Lists count as defined only when non-empty, so ``isDefined`` doubles as an
emptiness guard around optional sections.

``FIELDS`` is the one schema of the concepts: for each concept, the fields a
template may read and the getter that computes each one from a node.  A node
is the triple ``(concept, obj, prec)`` for the flat model's own concepts and
for expressions alike.  Parsing checks what it can without a model: the head
of each field path outside a foreach body against its template's concept in
``FIELDS``, and each rule name against the rewrite registry, each reported at
its own token.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..diagnostics import Diagnostic
from ..errors import BackendError
from ..ir import SET, IntSet
from ..lexer import EOF, IDENT, INT, KEYWORD, STRING
from ..nodes import BoolLit, Expr, Ref
from ..parser import ParseAbort, TokenCursor
from ..printer import UNARY_PREC, operand_precs
from .rules import rule_named

DESCRIPTOR_EXTENSION = ".bd"

MISSING = object()  # a field that is not defined on this node


def expr_node(e: Expr, prec: int) -> tuple:
    """The node of expression ``e`` rendered at parent precedence ``prec``.
    Its concept is the node class name, except for references
    (``Ref``/``IndexedRef``) and booleans (``TrueLit``/``FalseLit``)."""
    t = type(e)
    if t is Ref:
        return ("IndexedRef" if e.parts[0].indices else "Ref", e, prec)
    if t is BoolLit:
        return ("TrueLit" if e.value else "FalseLit", e, prec)
    if t.__name__ not in FIELDS:
        raise BackendError(f"cannot render expression node {t.__name__}")
    return (t.__name__, e, prec)


def _nodes(concept: str, objs) -> list[tuple]:
    return [(concept, obj, -1) for obj in objs]


def _exprs(es) -> list[tuple]:
    return [expr_node(x, -1) for x in es]


# concept -> field -> getter(obj, opmap): every concept a template may be
# declared for, with the fields it shows.  A node is ``(concept, obj, prec)``:
# ``obj`` is what the getters read (a Constraint's is ``(index, constraint)``,
# an EnumType's ``(name, labels)``) and ``prec`` the precedence its parent
# renders it at, -1 outside expressions.  A field is a string, a number, a
# node, a list of these, or MISSING.
FIELDS: dict[str, dict] = {
    "Problem": {
        "name": lambda fm, om: fm.name,
        "variables": lambda fm, om: _nodes("Variable", fm.variables),
        "constraints": lambda fm, om: _nodes("Constraint", enumerate(fm.constraints)),
        "enums": lambda fm, om: _nodes("EnumType", fm.enum_types.items()),
        "tables": lambda fm, om: _nodes("ConstArray", fm.tables.values()),
        "objective": lambda fm, om: (
            MISSING if fm.objective is None else ("Objective", fm.objective, -1)),
    },
    "Variable": {
        "name": lambda v, om: v.name,
        "type": lambda v, om: v.type_label,
        "base": lambda v, om: v.base if v.base != SET else "set of int",
        "array": lambda v, om: ("ArrayShape", v.shape, -1) if v.shape else MISSING,
        "domain": lambda v, om: ("Domain", v.domain, -1),
        "enum_tag": lambda v, om: v.enum_tag or MISSING,
    },
    "ArrayShape": {
        "row": lambda shape, om: shape[0],
        "col": lambda shape, om: shape[1] if len(shape) == 2 else MISSING,
    },
    "Domain": {
        "lo": lambda d, om: d.members[0] if type(d) is IntSet else d.lo,
        "hi": lambda d, om: d.members[-1] if type(d) is IntSet else d.hi,
        "values": lambda d, om: list(d.members) if type(d) is IntSet else MISSING,
    },
    "Constraint": {
        "expr": lambda ic, om: expr_node(ic[1].expr, -1),
        "index": lambda ic, om: ic[0],
        "origin": lambda ic, om: ic[1].origin,
    },
    "Objective": {
        "kind": lambda o, om: o.kind,
        "expr": lambda o, om: expr_node(o.expr, -1),
    },
    "EnumType": {
        "name": lambda nv, om: nv[0],
        "values": lambda nv, om: list(nv[1]),
    },
    "ConstArray": {
        "name": lambda t, om: t.name,
        "values": lambda t, om: MISSING if len(t.shape) == 2 else list(t.values),
        "rows": lambda t, om: _nodes("Row", t.rows()) if len(t.shape) == 2 else MISSING,
        "row": lambda t, om: t.shape[0],
        "col": lambda t, om: t.shape[1] if len(t.shape) == 2 else MISSING,
    },
    "Row": {"values": lambda row, om: list(row)},
    "IntLit": {"value": lambda e, om: e.value},
    "RealLit": {"value": lambda e, om: e.value},
    "TrueLit": {},
    "FalseLit": {},
    "Ref": {"name": lambda e, om: e.parts[0].name},
    "IndexedRef": {
        "name": lambda e, om: e.parts[0].name,
        "indices": lambda e, om: _exprs(e.parts[0].indices),
    },
    "BinOp": {
        "op": lambda e, om: om.get(e.op, e.op),
        "left": lambda e, om: expr_node(e.left, operand_precs(e)[0]),
        "right": lambda e, om: expr_node(e.right, operand_precs(e)[1]),
    },
    "UnOp": {
        "op": lambda e, om: om.get(e.op, "not " if e.op == "not" else "-"),
        "operand": lambda e, om: expr_node(e.operand, UNARY_PREC),
    },
    "Call": {
        "name": lambda e, om: e.name,
        "args": lambda e, om: _exprs(e.args),
    },
    "ArrayLit": {"elems": lambda e, om: _exprs(e.elems)},
    "SetLit": {"elems": lambda e, om: _exprs(e.elems)},
}

UNSUPPORTED_CONSTRUCTS = ("set_matrix", "matrix", "set_variable", "real_variable")


@dataclass
class Lit:
    text: str


@dataclass
class FieldRef:
    path: tuple[str, ...]


@dataclass
class Cond:
    path: tuple[str, ...]
    then: list
    els: list | None = None


@dataclass
class Foreach:
    var: str
    path: tuple[str, ...]
    body: list
    separator: str = ""


@dataclass
class BackendDescriptor:
    name: str
    extension: str = ".txt"
    header: list = field(default_factory=list)
    footer: list = field(default_factory=list)
    templates: dict[str, list] = field(default_factory=dict)
    opmap: dict[str, str] = field(default_factory=dict)
    rewrites: list[tuple[str, tuple]] = field(default_factory=list)
    unsupported: list[tuple[str, str]] = field(default_factory=list)
    source: str = "<descriptor>"
    # the templates compiled by the engine on the first emit, then reused
    _render: object = field(default=None, init=False, repr=False, compare=False)


class _DescriptorParser(TokenCursor):
    def parse(self) -> BackendDescriptor | None:
        bd = BackendDescriptor(name="")
        while self.cur.kind != EOF:
            before = self.pos
            try:
                self._statement(bd)
            except ParseAbort:
                self.recover_top_level(before)
        if not bd.name and not self.sink.failed:
            self.sink.error("descriptor declares no 'target <name>;'", self.cur.span)
        if self.sink.failed:
            return None
        if "Problem" not in bd.templates:
            self.sink.error("descriptor has no Problem template (the entry point)",
                            self.tokens[0].span)
            return None
        return bd

    def _statement(self, bd: BackendDescriptor) -> None:
        tok = self.cur
        word = tok.text
        if word == "target":
            self.advance()
            bd.name = self.expect_ident("target declaration").text
            self.expect_symbol(";", "target declaration")
        elif word == "extension":
            self.advance()
            bd.extension = self._expect_string("extension declaration")
            self.expect_symbol(";", "extension declaration")
        elif word == "rewrite":
            self.advance()
            name = self._rule_name("rewrite declaration")
            params: list = []
            if self.accept_symbol("("):
                while not self.at_symbol(")"):
                    if self.cur.kind in (STRING, INT):
                        params.append(self.advance().value)
                    else:
                        raise self.fail("rewrite parameters are strings or integers")
                    if not self.accept_symbol(","):
                        break
                self.expect_symbol(")", "rewrite declaration")
            self.expect_symbol(";", "rewrite declaration")
            bd.rewrites.append((name, tuple(params)))
        elif word == "unsupported":
            self.advance()
            construct = self.expect_ident("unsupported declaration").text
            if construct not in UNSUPPORTED_CONSTRUCTS:
                raise self.fail(
                    f"unknown construct '{construct}'"
                    f" (expected one of: {', '.join(UNSUPPORTED_CONSTRUCTS)})"
                )
            fix = ""
            if self.cur.kind == IDENT and self.cur.text == "fixedBy":
                self.advance()
                fix = self._rule_name("unsupported declaration")
            self.expect_symbol(";", "unsupported declaration")
            bd.unsupported.append((construct, fix))
        elif word == "opmap":
            self.advance()
            src = self._expect_string("opmap")
            dst = self._expect_string("opmap")
            self.expect_symbol(";", "opmap")
            bd.opmap[src] = dst
        elif word in ("header", "footer"):
            self.advance()
            self.expect_symbol(":", word)
            frags = self._fragments("Problem", ";")
            self.expect_symbol(";", word)
            setattr(bd, word, frags)
        elif word == "template":
            self.advance()
            concept_tok = self.expect_ident("template declaration")
            concept = concept_tok.text
            if concept not in FIELDS:
                raise self.fail(f"unknown concept '{concept}'", concept_tok.span)
            self.expect_symbol(":", "template declaration")
            frags = self._fragments(concept, ";")
            self.expect_symbol(";", "template declaration")
            if concept in bd.templates:
                raise self.fail(f"duplicate template for '{concept}'", concept_tok.span)
            bd.templates[concept] = frags
        else:
            raise self.fail(f"unexpected '{word}' in descriptor")

    def _rule_name(self, context: str) -> str:
        """The name of a rewrite rule, reported at its token unless the
        registry has it."""
        tok = self.expect_ident(context)
        try:
            rule_named(tok.text)
        except BackendError as e:
            self.sink.error(str(e), tok.span)
        return tok.text

    def _expect_string(self, context: str) -> str:
        if self.cur.kind != STRING:
            raise self.fail(f"expected a string in {context}")
        return self.advance().value

    def _fragments(self, concept: str | None, *closers: str,
                   stop_word: str | None = None) -> list:
        frags: list = []
        while not (self.cur.kind == EOF or self.at_symbol(*closers)):
            if stop_word and self.cur.kind == IDENT and self.cur.text == stop_word:
                break
            frags.append(self._fragment(concept))
        return frags

    def _fragment(self, concept: str | None):
        tok = self.cur
        if tok.kind == STRING:
            self.advance()
            return Lit(tok.value)
        if tok.is_symbol("("):
            self.advance()
            head = self.cur
            if head.kind == IDENT and head.text == "isDefined":
                self.advance()
                self.expect_symbol("(", "isDefined")
                path = self._field_path(concept, "tests")
                self.expect_symbol(")", "isDefined")
                self.expect_symbol("?", "isDefined")
                then = self._fragments(concept, ":", ")")
                els = None
                if self.accept_symbol(":"):
                    els = self._fragments(concept, ")")
                self.expect_symbol(")", "isDefined")
                return Cond(path, then, els)
            if head.kind == IDENT and head.text == "foreach":
                self.advance()
                var = self.expect_ident("foreach").text
                if not self.accept_keyword("in"):
                    raise self.fail("expected 'in' in foreach")
                path = self._field_path(concept, "iterates")
                self.expect_symbol("?", "foreach")
                body = self._fragments(None, ")", stop_word="separator")
                separator = ""
                if self.cur.kind == IDENT and self.cur.text == "separator":
                    self.advance()
                    separator = self._expect_string("separator")
                self.expect_symbol(")", "foreach")
                return Foreach(var, path, body, separator)
            raise self.fail("expected 'isDefined' or 'foreach' after '('")
        if tok.kind == IDENT or tok.kind == KEYWORD:
            return FieldRef(self._field_path(concept, "references"))
        raise self.fail(f"unexpected {tok.text!r} in template")

    def _field_path(self, concept: str | None, verb: str) -> tuple[str, ...]:
        """A dotted field path whose head, in a template for ``concept``, is
        one of its fields.  A foreach body (``concept`` None) sees the loop
        item, whose concept is known only when it renders, so its fields are
        resolved then."""
        first = self.cur
        if first.kind not in (IDENT, KEYWORD):
            raise self.fail("expected a field name")
        if concept is not None and first.text not in FIELDS[concept]:
            self.sink.error(
                f"template for '{concept}' {verb} unknown field '{first.text}'", first.span
            )
        self.advance()
        path = [first.text]
        while self.at_symbol(".") and self.peek().kind in (IDENT, KEYWORD):
            self.advance()
            path.append(self.advance().text)
        return tuple(path)


def parse_descriptor(
    text: str, filename: str = "<descriptor>"
) -> tuple[BackendDescriptor | None, list[Diagnostic]]:
    p = _DescriptorParser(text, filename)
    bd = p.run(p.parse)
    if bd is not None:
        bd.source = filename
    return p.result(bd)
