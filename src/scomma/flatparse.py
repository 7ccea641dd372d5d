"""Reduced parser for emitted flat-model text.

Reads the sectioned format the ``flat`` target produces (``variables:``,
``constraints:``, optional ``objective:``, ``enum-types:``,
``constant-arrays:``) back into a :class:`FlatModel`, which makes the flat
emission round-trippable and lets hand-written flat files feed the solver
directly.

A variable line is read as a model's attribute declaration and a constant
array as a data file's value; what those grammars allow beyond flat text (a
named size, a computed bound, a keyed list) is refused as it becomes a number.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, SourceSpan
from .ir import (
    BOOL,
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
)
from .lexer import EOF
from .nodes import (
    BoolType,
    DomainSet,
    IntLit,
    IntType,
    NamedType,
    RealLit,
    RealType,
    SetType,
    VInt,
    VList,
    VReal,
)
from .parser import ParseAbort, TokenCursor

_BASES = {IntType: INT, RealType: REAL, BoolType: BOOL, SetType: SET, NamedType: INT}
_INTEGERS = (IntLit,)
_NUMBERS = (IntLit, RealLit, VInt, VReal)


class _FlatParser(TokenCursor):
    def parse(self, name: str) -> FlatModel | None:
        self.fm = fm = FlatModel(name=name)
        # (variable, its enum type's name, the span of its declaration)
        self.pending_types: list[tuple[FlatVar, str, SourceSpan]] = []
        entry = None
        while self.cur.kind != EOF:
            section = self._header()
            if section is not None:
                while not self.advance().is_symbol(":"):
                    pass
                entry = _SECTIONS[section]
            elif entry is None:
                raise self.fail("expected a section header such as 'variables:'")
            else:
                self._entry(entry)
        for var, type_name, span in self.pending_types:
            if type_name in fm.enum_types:
                var.enum_tag = type_name
            else:
                self.sink.error(f"variable '{var.name}' has unknown type '{type_name}'", span)
        if self.sink.failed:
            return None
        return fm

    def _header(self) -> str | None:
        """The section whose header starts here: its words before ':'."""
        for width in (1, 3):
            if self.peek(width).is_symbol(":"):
                words = "".join(self.peek(k).text for k in range(width))
                if words in _SECTIONS:
                    return words
        return None

    def _entry(self, entry) -> None:
        """One entry; a bad one is reported and skipped through its closing
        ';' (its braces and brackets close nothing outside it), unless it has
        read that ';' already, or up to a section header that comes first."""
        start = self.pos
        try:
            entry(self)
        except ParseAbort:
            if self.pos > start and self.tokens[self.pos - 1].is_symbol(";"):
                return
            while self.cur.kind != EOF and self._header() is None:
                if self.advance().is_symbol(";"):
                    break

    def _numbers(self, literals, kinds: tuple, what: str, span=None) -> list:
        """The numbers in ``literals``, each a literal of one of ``kinds``;
        any other is reported at its own span, or at ``span``."""
        for lit in literals:
            if type(lit) not in kinds:
                raise self.fail(f"expected {what}", span or lit.span)
        return [lit.value for lit in literals]

    # -- entries -----------------------------------------------------------------

    def _variable_line(self) -> None:
        attr = self.parse_attribute()
        dom, spec = attr.domain, attr.type
        if dom is None:
            raise self.fail("expected 'in <domain>'", attr.span)
        base = _BASES[type(spec)]
        shape = tuple(self._numbers(attr.shape, _INTEGERS, "an integer array size"))
        try:
            if isinstance(dom, DomainSet):
                values = self._numbers(dom.elems, _INTEGERS, "an integer domain value")
                domain = IntSet(tuple(values))
            else:
                lo, hi = self._numbers((dom.lo, dom.hi), _NUMBERS, "a number domain bound")
                if base == REAL or float in (type(lo), type(hi)):
                    domain = RealInterval(float(lo), float(hi))
                else:
                    domain = IntInterval(lo, hi)
            var = FlatVar(attr.name, base, shape, domain)
        except ValueError as e:  # an empty domain, or a size below 1
            raise self.fail(str(e), attr.span)
        self.fm.variables.append(var)
        if isinstance(spec, NamedType):
            self.pending_types.append((var, spec.name, attr.span))
        elif isinstance(spec, SetType) and spec.elem != "int":
            self.pending_types.append((var, spec.elem, attr.span))

    def _constraint(self) -> None:
        expr = self.parse_expression()
        self.expect_symbol(";", "constraint")
        self.fm.constraints.append(FlatConstraint(expr))

    def _objective(self) -> None:
        kind = self.cur
        if not kind.is_keyword("minimize", "maximize"):
            raise self.fail("expected 'minimize' or 'maximize'")
        if self.fm.objective is not None:
            raise self.fail("a flat model has one objective; this is a second one")
        self.advance()
        expr = self.parse_expression()
        self.expect_symbol(";", "objective")
        self.fm.objective = FlatObjective(kind.text, expr)

    def _enum_type(self) -> None:
        name = self.expect_ident("enum name").text
        self.expect_symbol(":=", "enum table")
        self.expect_symbol("{", "enum table")
        values = [self.expect_ident("enum value").text]
        while self.accept_symbol(","):
            values.append(self.expect_ident("enum value").text)
        self.expect_symbol("}", "enum table")
        self.expect_symbol(";", "enum table")
        self.fm.enum_types[name] = tuple(values)

    def _table(self) -> None:
        name = self.expect_ident("constant array name")
        self.expect_symbol(":=", "constant array")
        value = self.parse_value()
        self.expect_symbol(";", "constant array")
        cells = self._cells(value, name)
        shape = (len(cells),)
        if type(cells[0]) is VList:
            rows = [self._cells(row, name) for row in cells]
            shape = (len(rows), len(rows[0]))
            if any(len(row) != shape[1] for row in rows):
                raise self.fail(f"ragged rows in constant array '{name.text}'", name.span)
            cells = [cell for row in rows for cell in row]
        values = self._numbers(cells, _NUMBERS, "a number table value", name.span)
        self.fm.tables[name.text] = Table(name.text, shape, tuple(values))

    def _cells(self, value, name) -> tuple:
        """The entries of one list of a constant array: at least one, and no
        keys."""
        if type(value) is VList and value.items and value.keys is None:
            return value.items
        raise self.fail(f"constant array '{name.text}' needs a non-empty list"
                        " of numbers or of rows, without keys", name.span)


# The sections, by the words of their headers before ':', and their entries.
_SECTIONS = {
    "variables": _FlatParser._variable_line,
    "constraints": _FlatParser._constraint,
    "objective": _FlatParser._objective,
    "enum-types": _FlatParser._enum_type,
    "constant-arrays": _FlatParser._table,
}


def parse_flat(
    text: str, filename: str = "<flat>", name: str = "flat"
) -> tuple[FlatModel | None, list[Diagnostic]]:
    p = _FlatParser(text, filename)
    fm = p.run(p.parse, name)
    if fm is not None:
        for problem, span in flatness_violations(fm):
            p.sink.error(problem, span or p.tokens[0].span)
    return p.result(fm)
