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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..diagnostics import Diagnostic
from ..lexer import EOF, IDENT, INT, KEYWORD, STRING
from ..parser import ParseAbort, TokenCursor

DESCRIPTOR_EXTENSION = ".bd"

# Concepts a template may be declared for, with the fields each exposes.
CONCEPT_FIELDS: dict[str, frozenset[str]] = {
    "Problem": frozenset({"name", "variables", "constraints", "enums", "tables", "objective"}),
    "Variable": frozenset({"name", "type", "base", "array", "domain", "enum_tag"}),
    "ArrayShape": frozenset({"row", "col"}),
    "Domain": frozenset({"lo", "hi", "values"}),
    "Constraint": frozenset({"expr", "index", "origin"}),
    "Objective": frozenset({"kind", "expr"}),
    "EnumType": frozenset({"name", "values"}),
    "ConstArray": frozenset({"name", "values", "rows", "row", "col"}),
    "Row": frozenset({"values"}),
    "IntLit": frozenset({"value"}),
    "RealLit": frozenset({"value"}),
    "TrueLit": frozenset(),
    "FalseLit": frozenset(),
    "Ref": frozenset({"name"}),
    "IndexedRef": frozenset({"name", "indices"}),
    "BinOp": frozenset({"op", "left", "right"}),
    "UnOp": frozenset({"op", "operand"}),
    "Call": frozenset({"name", "args"}),
    "ArrayLit": frozenset({"elems"}),
    "SetLit": frozenset({"elems"}),
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
            name = self.expect_ident("rewrite declaration").text
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
                fix = self.expect_ident("unsupported declaration").text
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
            if concept not in CONCEPT_FIELDS:
                raise self.fail(f"unknown concept '{concept}'", concept_tok.span)
            self.expect_symbol(":", "template declaration")
            frags = self._fragments(concept, ";")
            self.expect_symbol(";", "template declaration")
            if concept in bd.templates:
                raise self.fail(f"duplicate template for '{concept}'", concept_tok.span)
            bd.templates[concept] = frags
        else:
            raise self.fail(f"unexpected '{word}' in descriptor")

    def _expect_string(self, context: str) -> str:
        if self.cur.kind != STRING:
            raise self.fail(f"expected a string in {context}")
        return self.advance().value

    def _fragments(self, concept: str, *closers: str, stop_word: str | None = None) -> list:
        frags: list = []
        while not (self.cur.kind == EOF or self.at_symbol(*closers)):
            if stop_word and self.cur.kind == IDENT and self.cur.text == stop_word:
                break
            frags.append(self._fragment(concept))
        return frags

    def _fragment(self, concept: str):
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
                path = self._field_path(concept)
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
                path = self._field_path(concept)
                self.expect_symbol("?", "foreach")
                body = self._fragments(concept, ")", stop_word="separator")
                separator = ""
                if self.cur.kind == IDENT and self.cur.text == "separator":
                    self.advance()
                    separator = self._expect_string("separator")
                self.expect_symbol(")", "foreach")
                return Foreach(var, path, body, separator)
            raise self.fail("expected 'isDefined' or 'foreach' after '('")
        if tok.kind == IDENT or tok.kind == KEYWORD:
            path = self._field_path(concept)
            return FieldRef(path)
        raise self.fail(f"unexpected {tok.text!r} in template")

    def _field_path(self, concept: str) -> tuple[str, ...]:
        first = self.cur
        if first.kind not in (IDENT, KEYWORD):
            raise self.fail("expected a field name")
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
        _validate_fields(bd, p)
    return p.result(bd)


def _validate_fields(bd: BackendDescriptor, p: _DescriptorParser) -> None:
    """Head-of-path validation against the concept's field set.

    Fragments inside a ``foreach`` body see the loop item, whose concept is
    only known at render time, so they are checked dynamically instead.
    """

    def check(frags: list, concept: str | None) -> None:
        for frag in frags:
            if isinstance(frag, FieldRef):
                if concept and frag.path[0] not in CONCEPT_FIELDS[concept]:
                    p.sink.error(
                        f"template for '{concept}' references unknown field"
                        f" '{frag.path[0]}'",
                        p.tokens[0].span,
                    )
            elif isinstance(frag, Cond):
                if concept and frag.path[0] not in CONCEPT_FIELDS[concept]:
                    p.sink.error(
                        f"template for '{concept}' tests unknown field '{frag.path[0]}'",
                        p.tokens[0].span,
                    )
                check(frag.then, concept)
                if frag.els is not None:
                    check(frag.els, concept)
            elif isinstance(frag, Foreach):
                if concept and frag.path[0] not in CONCEPT_FIELDS[concept]:
                    p.sink.error(
                        f"template for '{concept}' iterates unknown field"
                        f" '{frag.path[0]}'",
                        p.tokens[0].span,
                    )
                check(frag.body, None)

    for concept, frags in bd.templates.items():
        check(frags, concept)
    check(bd.header, "Problem")
    check(bd.footer, "Problem")
