"""Reduced parser for emitted flat-model text.

Reads the sectioned format the ``flat`` target produces (``variables:``,
``constraints:``, optional ``objective:``, ``enum-types:``,
``constant-arrays:``) back into a :class:`FlatModel`, which makes the flat
emission round-trippable and lets hand-written flat files feed the solver
directly.
"""

from __future__ import annotations

from .diagnostics import Diagnostic
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
from .lexer import EOF, INT as INT_TOK, REAL as REAL_TOK
from .parser import ParseAbort, TokenCursor


class _FlatParser(TokenCursor):
    def parse(self, name: str) -> FlatModel | None:
        fm = FlatModel(name=name)
        pending_types: list[tuple[FlatVar, str]] = []
        entries = {
            "variables": lambda: self._variable_line(fm, pending_types),
            "constraints": lambda: self._constraint(fm),
            "enum-types": lambda: self._enum_type(fm),
            "constant-arrays": lambda: self._table(fm),
        }
        section = self._expect_section()
        while section is not None:
            if section == "objective":
                section = self._objective(fm)
            else:
                section = self._entries(entries[section])
        for var, type_name in pending_types:
            if type_name in fm.enum_types:
                var.enum_tag = type_name
            else:
                self.sink.error(
                    f"variable '{var.name}' has unknown type '{type_name}'",
                    self.tokens[0].span,
                )
        if self.sink.failed:
            return None
        return fm

    # -- section plumbing -------------------------------------------------------

    def _at_section(self) -> str | None:
        tok = self.cur
        if tok.kind == EOF:
            return None
        text = tok.text
        if text in ("variables", "constraints", "objective") and self.peek().is_symbol(":"):
            return text
        if (
            tok.is_keyword("enum")
            and self.peek().is_symbol("-")
            and self.peek(2).text == "types"
            and self.peek(3).is_symbol(":")
        ):
            return "enum-types"
        if (
            text == "constant"
            and self.peek().is_symbol("-")
            and self.peek(2).text == "arrays"
            and self.peek(3).is_symbol(":")
        ):
            return "constant-arrays"
        return None

    def _consume_section_header(self, section: str) -> None:
        if section in ("variables", "constraints", "objective"):
            self.advance()
            self.advance()
        else:
            for _ in range(4):
                self.advance()

    def _expect_section(self) -> str | None:
        if self.cur.kind == EOF:
            return None
        section = self._at_section()
        if section is None:
            raise self.fail("expected a section header such as 'variables:'")
        self._consume_section_header(section)
        return section

    def _next_or_section(self) -> str | None:
        """None while more entries follow; the section name when one starts."""
        if self.cur.kind == EOF:
            return None
        return self._at_section()

    def _entries(self, entry) -> str | None:
        """Parse entries with ``entry`` up to the next section header, which
        is consumed and returned (None at the end).  A bad entry is reported
        and skipped through its closing ';' (its braces and brackets close
        nothing outside it), or up to a section header that comes first."""
        while True:
            section = self._next_or_section()
            if section is not None:
                self._consume_section_header(section)
                return section
            if self.cur.kind == EOF:
                return None
            try:
                entry()
            except ParseAbort:
                while self.cur.kind != EOF and self._at_section() is None:
                    if self.advance().is_symbol(";"):
                        break

    # -- sections ----------------------------------------------------------------

    def _variable_line(self, fm: FlatModel, pending: list) -> None:
        base = None
        type_name = None
        tok = self.cur
        if tok.is_keyword("int"):
            base = INT
            self.advance()
        elif tok.is_keyword("real"):
            base = REAL
            self.advance()
        elif tok.is_keyword("bool"):
            base = BOOL
            self.advance()
        elif tok.is_keyword("set"):
            self.advance()
            if not self.accept_keyword("of"):
                raise self.fail("expected 'of' after 'set'")
            base = SET
            if not self.accept_keyword("int"):
                type_name = self.expect_ident("set element type").text
        else:
            type_name = self.expect_ident("variable type").text
            base = INT
        name = self.expect_ident("variable name").text
        shape: tuple[int, ...] = ()
        if self.accept_symbol("["):
            dims = [self._int_value("array size")]
            if self.accept_symbol(","):
                dims.append(self._int_value("array size"))
            self.expect_symbol("]", "variable shape")
            shape = tuple(dims)
        if not self.accept_keyword("in"):
            raise self.fail("expected 'in <domain>'")
        domain = self._domain(base)
        self.expect_symbol(";", "variable declaration")
        var = FlatVar(name, base, shape, domain)
        fm.variables.append(var)
        if type_name is not None:
            pending.append((var, type_name))

    def _int_value(self, what: str) -> int:
        neg = bool(self.accept_symbol("-"))
        if self.cur.kind != INT_TOK:
            raise self.fail(f"expected an integer {what}")
        v = self.advance().value
        return -v if neg else v

    def _number(self, what: str) -> int | float:
        neg = bool(self.accept_symbol("-"))
        if self.cur.kind == INT_TOK:
            v = self.advance().value
        elif self.cur.kind == REAL_TOK:
            v = self.advance().value
        else:
            raise self.fail(f"expected a number {what}")
        return -v if neg else v

    def _domain(self, base: str):
        if self.accept_symbol("{"):
            values = [self._int_value("domain value")]
            while self.accept_symbol(","):
                values.append(self._int_value("domain value"))
            self.expect_symbol("}", "domain")
            return IntSet(tuple(values))
        self.expect_symbol("[", "domain")
        lo = self._number("domain bound")
        self.expect_symbol(",", "domain")
        hi = self._number("domain bound")
        self.expect_symbol("]", "domain")
        if base == REAL or isinstance(lo, float) or isinstance(hi, float):
            return RealInterval(float(lo), float(hi))
        return IntInterval(lo, hi)

    def _constraint(self, fm: FlatModel) -> None:
        expr = self.parse_expression()
        self.expect_symbol(";", "constraint")
        fm.constraints.append(FlatConstraint(expr))

    def _objective(self, fm: FlatModel) -> str | None:
        kind_tok = self.cur
        if not kind_tok.is_keyword("minimize", "maximize"):
            raise self.fail("expected 'minimize' or 'maximize'")
        self.advance()
        expr = self.parse_expression()
        self.expect_symbol(";", "objective")
        fm.objective = FlatObjective(kind_tok.text, expr)
        section = self._next_or_section()
        if section is not None:
            self._consume_section_header(section)
        return section

    def _enum_type(self, fm: FlatModel) -> None:
        name = self.expect_ident("enum name").text
        self.expect_symbol(":=", "enum table")
        self.expect_symbol("{", "enum table")
        values = [self.expect_ident("enum value").text]
        while self.accept_symbol(","):
            values.append(self.expect_ident("enum value").text)
        self.expect_symbol("}", "enum table")
        self.expect_symbol(";", "enum table")
        fm.enum_types[name] = tuple(values)

    def _table(self, fm: FlatModel) -> None:
        name = self.expect_ident("constant array name").text
        self.expect_symbol(":=", "constant array")
        self.expect_symbol("[", "constant array")
        if self.at_symbol("["):
            rows = [self._row()]
            while self.accept_symbol(","):
                rows.append(self._row())
            self.expect_symbol("]", "constant array")
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise self.fail(f"ragged rows in constant array '{name}'")
            values = tuple(v for row in rows for v in row)
            fm.tables[name] = Table(name, (len(rows), cols), values)
        else:
            values = [self._number("table value")]
            while self.accept_symbol(","):
                values.append(self._number("table value"))
            self.expect_symbol("]", "constant array")
            fm.tables[name] = Table(name, (len(values),), tuple(values))
        self.expect_symbol(";", "constant array")

    def _row(self) -> list:
        self.expect_symbol("[", "table row")
        values = [self._number("table value")]
        while self.accept_symbol(","):
            values.append(self._number("table value"))
        self.expect_symbol("]", "table row")
        return values


def parse_flat(
    text: str, filename: str = "<flat>", name: str = "flat"
) -> tuple[FlatModel | None, list[Diagnostic]]:
    p = _FlatParser(text, filename)
    fm = p.run(p.parse, name)
    if fm is not None:
        for problem in flatness_violations(fm):
            p.sink.error(problem, p.tokens[0].span)
    return p.result(fm)
