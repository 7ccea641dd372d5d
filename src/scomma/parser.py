"""Recursive-descent parsers for model files (.scm) and data files (.dat).

Both entry points return ``(ast_or_None, diagnostics)``: parsing never raises
on bad input.  Recovery is statement-level — after a syntax error the parser
resynchronizes at the next ``;`` or ``}`` and keeps going, so one pass reports
every malformed statement.

Binary expressions are parsed by one precedence-climbing loop (Pratt, "Top
Down Operator Precedence", 1973) over ``printer.BINARY_OPS``, the table the
printer and the backends render with; unary ``not`` and ``-`` bind tighter
than every binary operator.  A parenthesis level costs two stack frames, so
expressions nest over four hundred deep.

Every reader of scomma text (these two, ``flatparse``, the ``.bd`` descriptor
parser and the solution-line reader) is a ``TokenCursor``: it pulls tokens
one at a time from the scanner's generator and never backtracks, so no
reader holds the token list of its text.
"""

from __future__ import annotations

from collections import deque

from .diagnostics import Diagnostic, DiagnosticSink, SourceSpan
from .lexer import EOF, IDENT, INT, REAL, Token, scan
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
    EnumDecl,
    Expr,
    Forall,
    GLOBAL_CONSTRAINTS,
    GlobalCall,
    IfElse,
    IntLit,
    IntRange,
    IntType,
    Item,
    Model,
    NamedType,
    NameRange,
    Objective,
    RealLit,
    RealType,
    Ref,
    RefPart,
    SetLit,
    SetType,
    TypeSpec,
    UnOp,
    VBool,
    VInt,
    VList,
    VObj,
    VOmit,
    VReal,
    VSym,
)
from .printer import BINARY_OPS, UNARY_PREC


class ParseAbort(Exception):
    """Internal: unwinds to the nearest recovery point after a diagnostic."""


class TokenCursor:
    """Token stream navigation plus diagnostic plumbing, shared by every
    reader of scomma text: models, data, descriptors, flat text and the
    values of a solution file.

    The cursor pulls tokens from the scanner's generator as the parse
    advances, and holds at most four: ``cur`` and the three that ``peek``
    may look at beyond it (a flat section header is three tokens before its
    ':').  It also keeps ``prev``, the token ``advance`` last stepped over,
    and ``first``, the text's first token.  The scanner's lexical problem
    goes to the front of the diagnostics when the scan reaches it, and
    ``run`` scans whatever text the parse did not reach, so the diagnostics
    do not depend on how far the parse got."""

    def __init__(self, text: str, filename: str):
        self.sink = DiagnosticSink()
        self.filename = filename
        self._text = text
        self._problem: Diagnostic | None = None
        self._tokens = scan(text, filename, self._report)
        self._ahead: deque[Token] = deque()
        self.pos = 0
        self.prev: Token | None = None
        self.cur = self.first = next(self._tokens)

    def _report(self, problem: Diagnostic) -> None:
        self._problem = problem
        self.sink.items.insert(0, problem)

    # -- stream primitives ---------------------------------------------------

    def peek(self, offset: int = 1) -> Token:
        """The token ``offset`` places past ``cur`` (at most three), or the
        EOF token when the text ends before it."""
        ahead = self._ahead
        while len(ahead) < offset:
            last = ahead[-1] if ahead else self.cur
            if last.kind == EOF:
                return last
            ahead.append(next(self._tokens))
        return ahead[offset - 1] if offset else self.cur

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != EOF:
            self.pos += 1
            self.prev = tok
            self.cur = self._ahead.popleft() if self._ahead else next(self._tokens)
        return tok

    def at_symbol(self, *texts: str) -> bool:
        return self.cur.is_symbol(*texts)

    def at_keyword(self, *words: str) -> bool:
        return self.cur.is_keyword(*words)

    def accept_symbol(self, *texts: str) -> Token | None:
        if self.at_symbol(*texts):
            return self.advance()
        return None

    def accept_keyword(self, *words: str) -> Token | None:
        if self.at_keyword(*words):
            return self.advance()
        return None

    def fail(self, message: str, span: SourceSpan | None = None) -> ParseAbort:
        self.sink.error(message, span or self.cur.span)
        return ParseAbort()

    def expect_symbol(self, text: str, context: str = "") -> Token:
        tok = self.accept_symbol(text)
        if tok is None:
            where = f" in {context}" if context else ""
            raise self.fail(f"expected '{text}'{where}, found {self.describe(self.cur)}")
        return tok

    def expect_ident(self, context: str = "") -> Token:
        if self.cur.kind == IDENT:
            return self.advance()
        where = f" in {context}" if context else ""
        raise self.fail(f"expected identifier{where}, found {self.describe(self.cur)}")

    def run(self, parse, *args):
        """``parse(*args)``, or None once it aborts on a reported error or
        finds its input nested deeper than the stack allows.  Then the rest
        of the text is scanned, keeping no token, for a lexical problem the
        parse did not reach."""
        try:
            value = parse(*args)
        except ParseAbort:
            value = None
        except RecursionError:
            self.sink.error("input nested too deeply", self.cur.span)
            value = None
            # the scanner may be the frame that hit the limit, and a generator
            # that raises is finished: scan the text again from its start
            if self._problem is None:
                self._tokens = scan(self._text, self.filename, self._report)
        for _ in self._tokens:
            pass
        return value

    def result(self, value):
        """The ``(value_or_None, diagnostics)`` pair an entry point returns."""
        return (None if self.sink.failed else value), self.sink.items

    @staticmethod
    def describe(tok: Token) -> str:
        if tok.kind == EOF:
            return "end of file"
        return f"'{tok.text}'"

    def sync_statement(self) -> None:
        """Skip to just past the next ';' (or stop before '}' / EOF)."""
        while self.cur.kind != EOF:
            if self.at_symbol(";"):
                self.advance()
                return
            if self.at_symbol("}"):
                return
            self.advance()

    def recover_top_level(self, pos_before: int) -> None:
        """Statement resync that always makes progress; for loops that do not
        themselves consume stray closers."""
        self.sync_statement()
        if self.pos == pos_before and self.cur.kind != EOF:
            self.advance()

    # -- shared expression grammar -------------------------------------------

    def parse_expression(self, min_prec: int = 0) -> Expr:
        """An expression whose binary operators all bind at ``min_prec`` or
        tighter.  An operator extends ``left`` only if ``left`` could be its
        left operand unparenthesized: that stops comparisons from chaining."""
        prefix: list[Token] = []
        while self.at_keyword("not") or self.at_symbol("-"):
            prefix.append(self.advance())
        left = self._parse_primary()
        for tok in reversed(prefix):  # "-" folds into a number literal
            if tok.text == "not":
                left = UnOp("not", left, span=tok.span)
            elif isinstance(left, IntLit):
                left = IntLit(-left.value, span=tok.span)
            elif isinstance(left, RealLit):
                left = RealLit(-left.value, span=tok.span)
            else:
                left = UnOp("neg", left, span=tok.span)
        left_prec = UNARY_PREC
        while True:
            tok = self.cur
            op = BINARY_OPS.get(tok.text)  # no name, number or string spells one
            if op is None or op[0] < min_prec or op[1] > left_prec:
                return left
            self.advance()
            right = self.parse_expression(op[2])
            left = BinOp(tok.text, left, right, span=tok.span)
            left_prec = op[0]

    def _parse_primary(self) -> Expr:
        tok = self.cur
        if tok.kind == INT:
            self.advance()
            return IntLit(tok.value, span=tok.span)
        if tok.kind == REAL:
            self.advance()
            return RealLit(tok.value, span=tok.span)
        if tok.is_keyword("true", "false"):
            self.advance()
            return BoolLit(tok.value, span=tok.span)
        if self.accept_symbol("("):
            inner = self.parse_expression()
            self.expect_symbol(")", "parenthesized expression")
            return inner
        if tok.is_symbol("["):
            self.advance()
            elems = self._parse_expr_list("]")
            return ArrayLit(tuple(elems), span=tok.span)
        if tok.is_symbol("{"):
            self.advance()
            elems = self._parse_expr_list("}")
            return SetLit(tuple(elems), span=tok.span)
        if tok.kind == IDENT:
            if self.peek().is_symbol("("):
                name = self.advance()
                self.advance()
                args = self._parse_expr_list(")")
                return Call(name.text, tuple(args), span=name.span)
            return self._parse_ref()
        raise self.fail(f"expected expression, found {self.describe(tok)}")

    def _parse_expr_list(self, closer: str) -> list[Expr]:
        elems: list[Expr] = []
        if self.accept_symbol(closer):
            return elems
        elems.append(self.parse_expression())
        while self.accept_symbol(","):
            elems.append(self.parse_expression())
        self.expect_symbol(closer)
        return elems

    def _parse_ref(self) -> Ref:
        first = self.expect_ident("reference")
        parts = [self._parse_ref_part(first)]
        while self.at_symbol(".") and self.peek().kind == IDENT:
            self.advance()
            parts.append(self._parse_ref_part(self.expect_ident("reference")))
        return Ref(tuple(parts), span=first.span)

    def _parse_ref_part(self, name_tok: Token) -> RefPart:
        indices: tuple[Expr, ...] = ()
        if self.accept_symbol("["):
            first = self.parse_expression()
            if self.accept_symbol(","):
                second = self.parse_expression()
                indices = (first, second)
            else:
                indices = (first,)
            self.expect_symbol("]", "index")
        return RefPart(name_tok.text, indices)

    # -- shared declaration pieces: models, data files and flat text ----------

    def parse_type_spec(self) -> TypeSpec:
        if self.accept_keyword("int"):
            return IntType()
        if self.accept_keyword("real"):
            return RealType()
        if self.accept_keyword("bool"):
            return BoolType()
        if self.at_keyword("set"):
            self.advance()
            if not self.accept_keyword("of"):
                raise self.fail("expected 'of' after 'set'")
            if self.accept_keyword("int"):
                return SetType("int")
            elem = self.expect_ident("set element type")
            return SetType(elem.text)
        tok = self.expect_ident("type")
        return NamedType(tok.text)

    def parse_shape(self) -> tuple[Expr, ...]:
        if not self.accept_symbol("["):
            return ()
        bounds = [self._parse_bound()]
        if self.accept_symbol(","):
            bounds.append(self._parse_bound())
        self.expect_symbol("]", "shape")
        return tuple(bounds)

    def _parse_bound(self) -> Expr:
        tok = self.cur
        if tok.kind == INT:
            self.advance()
            return IntLit(tok.value, span=tok.span)
        if tok.kind == IDENT:
            self.advance()
            return Ref((RefPart(tok.text),), span=tok.span)
        raise self.fail("array bound must be an integer literal, constant name, or enum name")

    def parse_attribute(self) -> Attribute:
        start = self.cur
        type_spec = self.parse_type_spec()
        name = self.expect_ident("attribute declaration")
        shape = self.parse_shape()
        domain = None
        if self.accept_keyword("in"):
            domain = self.parse_domain()
        self.expect_symbol(";", "attribute declaration")
        return Attribute(name.text, type_spec, shape, domain, span=start.span)

    def parse_domain(self):
        if self.accept_symbol("{"):
            return DomainSet(tuple(self._parse_expr_list("}")))
        self.expect_symbol("[", "domain")
        lo = self.parse_expression()
        self.expect_symbol(",", "domain")
        hi = self.parse_expression()
        self.expect_symbol("]", "domain")
        return DomainInterval(lo, hi)

    def parse_value(self) -> DataValue:
        tok = self.cur
        if tok.is_symbol("_"):
            self.advance()
            return VOmit()
        if tok.is_symbol("["):
            return self._parse_list()
        if tok.is_symbol("{"):
            self.advance()
            items: list[DataValue] = []
            if not self.at_symbol("}"):
                items.append(self.parse_value())
                while self.accept_symbol(","):
                    items.append(self.parse_value())
            self.expect_symbol("}", "object literal")
            return VObj(tuple(items))
        return self._parse_scalar()

    def _parse_list(self) -> VList:
        open_tok = self.advance()
        items: list[DataValue] = []
        keys: list[str] = []
        saw_positional = False
        while not self.at_symbol("]"):
            if self.cur.kind == EOF:
                raise self.fail("array literal is never closed", open_tok.span)
            if self.cur.kind == IDENT and self.peek().is_symbol(":"):
                key = self.advance()
                self.advance()
                keys.append(key.text)
                items.append(self.parse_value())
            else:
                saw_positional = True
                items.append(self.parse_value())
            if not self.accept_symbol(","):
                break
        self.expect_symbol("]", "array literal")
        if keys and saw_positional:
            raise self.fail(
                "array literal mixes keyed and positional entries", open_tok.span
            )
        return VList(tuple(items), tuple(keys) if keys else None)

    def _parse_scalar(self) -> DataValue:
        tok = self.cur
        if tok.kind == INT:
            self.advance()
            return VInt(tok.value)
        if tok.kind == REAL:
            self.advance()
            return VReal(tok.value)
        if tok.is_symbol("-"):
            self.advance()
            inner = self.cur
            if inner.kind == INT:
                self.advance()
                return VInt(-inner.value)
            if inner.kind == REAL:
                self.advance()
                return VReal(-inner.value)
            raise self.fail("expected a number after '-'")
        if tok.is_keyword("true", "false"):
            self.advance()
            return VBool(tok.value)
        if tok.kind == IDENT:
            self.advance()
            return VSym(tok.text)
        raise self.fail(f"expected a value, found {self.describe(tok)}")


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------


class ModelParser(TokenCursor):
    def parse(self) -> Model | None:
        imports: list[str] = []
        classes: list[ClassDef] = []
        while self.cur.kind != EOF:
            before = self.pos
            try:
                if self.at_keyword("import"):
                    imports.append(self._parse_import())
                elif self.at_keyword("class"):
                    cls = self._parse_class()
                    if cls is not None:
                        classes.append(cls)
                else:
                    raise self.fail(
                        f"expected 'class' or 'import', found {self.describe(self.cur)}"
                    )
            except ParseAbort:
                self.recover_top_level(before)
        if not classes:
            if not self.sink.failed:
                self.sink.error("model defines no classes", self.cur.span)
            return None
        main = classes[0].name
        return Model(name=main, imports=tuple(imports), classes=tuple(classes), main_class=main)

    def _parse_import(self) -> str:
        self.advance()
        pieces: list[str] = []
        while self.cur.kind != EOF and not self.at_symbol(";"):
            pieces.append(self.advance().text)
        self.expect_symbol(";", "import")
        name = "".join(pieces)
        if not name:
            raise self.fail("import names no file")
        return name

    def _parse_class(self) -> ClassDef | None:
        kw = self.advance()
        name = self.expect_ident("class declaration")
        superclass = None
        if self.accept_keyword("extends"):
            superclass = self.expect_ident("extends clause").text
        open_brace = self.expect_symbol("{", "class body")
        attributes: list[Attribute] = []
        zones: list[ConstraintZone] = []
        while not self.at_symbol("}"):
            if self.cur.kind == EOF:
                self.sink.error(
                    f"class '{name.text}' body is never closed", open_brace.span
                )
                return None
            try:
                if self.at_keyword("constraint"):
                    zones.append(self._parse_zone())
                else:
                    attributes.append(self.parse_attribute())
            except ParseAbort:
                self.sync_statement()
        self.advance()
        return ClassDef(
            name=name.text,
            superclass=superclass,
            attributes=tuple(attributes),
            zones=tuple(zones),
            span=kw.span,
        )

    def _parse_zone(self) -> ConstraintZone:
        kw = self.advance()
        name = self.expect_ident("constraint zone")
        self.expect_symbol("{", "constraint zone")
        items: list[Item] = []
        while not self.at_symbol("}"):
            if self.cur.kind == EOF:
                raise self.fail(f"constraint zone '{name.text}' is never closed", kw.span)
            try:
                items.append(self._parse_item())
            except ParseAbort:
                self.sync_statement()
        self.advance()
        return ConstraintZone(name.text, tuple(items), span=kw.span)

    def _parse_item(self) -> Item:
        if self.at_keyword("forall"):
            return self._parse_forall()
        if self.at_keyword("if"):
            return self._parse_if()
        if self.at_symbol("[") and self.peek().is_keyword("minimize", "maximize"):
            return self._parse_objective()
        return self._parse_constraint_item()

    def _parse_constraint_item(self, consume_semicolon: bool = True) -> Item:
        start = self.cur
        expr = self.parse_expression()
        if consume_semicolon:
            self.expect_symbol(";", "constraint")
        if isinstance(expr, Call) and expr.name in GLOBAL_CONSTRAINTS:
            return GlobalCall(expr.name, expr.args, span=start.span)
        return Constraint(expr, span=start.span)

    def _parse_forall(self) -> Forall:
        kw = self.advance()
        self.expect_symbol("(", "forall")
        var = self.expect_ident("forall loop variable")
        if not self.accept_keyword("in"):
            raise self.fail("expected 'in' after loop variable")
        rng = self._parse_range()
        self.expect_symbol(")", "forall")
        body = self._parse_body()
        return Forall(var.text, rng, tuple(body), span=kw.span)

    def _parse_range(self):
        first = self.parse_expression()
        if self.accept_symbol(".."):
            return IntRange(first, self.parse_expression())
        name = first.simple_name if isinstance(first, Ref) else None
        if name is None:
            raise self.fail("loop range must be 'lo..hi' or an enumeration name")
        return NameRange(name)

    def _parse_body(self) -> list[Item]:
        if self.accept_symbol("{"):
            items: list[Item] = []
            while not self.at_symbol("}"):
                if self.cur.kind == EOF:
                    raise self.fail("block is never closed")
                try:
                    items.append(self._parse_item())
                except ParseAbort:
                    self.sync_statement()
            self.advance()
            return items
        return [self._parse_item()]

    def _parse_if(self) -> IfElse:
        kw = self.advance()
        self.expect_symbol("(", "if")
        cond = self.parse_expression()
        self.expect_symbol(")", "if")
        then_items, then_braced = self._parse_if_branch()
        else_items = None
        else_braced = True
        if self.accept_keyword("else"):
            parsed, else_braced = self._parse_if_branch()
            else_items = tuple(parsed)
        last_braced = else_braced if else_items is not None else then_braced
        if not last_braced:
            self.expect_symbol(";", "if statement")
        else:
            self.accept_symbol(";")
        return IfElse(cond, tuple(then_items), else_items, span=kw.span)

    def _parse_if_branch(self) -> tuple[list[Item], bool]:
        """A branch is either a braced block of items or a single constraint
        (unbraced statements would make the trailing ';' ambiguous)."""
        if self.at_symbol("{"):
            return self._parse_body(), True
        return [self._parse_constraint_item(consume_semicolon=False)], False

    def _parse_objective(self) -> Objective:
        bracket = self.advance()
        kind = self.advance().text
        self.expect_symbol("]", "objective tag")
        expr = self.parse_expression()
        self.expect_symbol(";", "objective")
        return Objective(kind, expr, span=bracket.span)


# ---------------------------------------------------------------------------
# Data files
# ---------------------------------------------------------------------------


class DataParser(TokenCursor):
    def parse(self) -> DataFile | None:
        data = DataFile()
        while self.cur.kind != EOF:
            before = self.pos
            try:
                if self.at_keyword("enum"):
                    self._parse_enum(data)
                else:
                    self._parse_typed_decl(data)
            except ParseAbort:
                self.recover_top_level(before)
        if self.sink.failed:
            return None
        return data

    def _parse_enum(self, data: DataFile) -> None:
        kw = self.advance()
        name = self.expect_ident("enum declaration")
        self.expect_symbol(":=", "enum declaration")
        self.expect_symbol("{", "enum declaration")
        values: list[str] = []
        if not self.at_symbol("}"):
            values.append(self.expect_ident("enum value").text)
            while self.accept_symbol(","):
                values.append(self.expect_ident("enum value").text)
        self.expect_symbol("}", "enum declaration")
        self.expect_symbol(";", "enum declaration")
        if not values:
            raise self.fail(f"enum '{name.text}' has no values", name.span)
        dupes = {v for v in values if values.count(v) > 1}
        if dupes:
            raise self.fail(
                f"enum '{name.text}' repeats value(s): {', '.join(sorted(dupes))}", name.span
            )
        if name.text in data.enums:
            raise self.fail(f"enum '{name.text}' declared twice", name.span)
        data.enums[name.text] = EnumDecl(name.text, tuple(values), span=kw.span)

    def _parse_typed_decl(self, data: DataFile) -> None:
        start = self.cur
        type_spec = self.parse_type_spec()
        type_name = start.text
        first = self.expect_ident("declaration")
        if self.at_symbol("."):
            path = [first.text]
            while self.accept_symbol("."):
                path.append(self.expect_ident("assignment path").text)
            self.expect_symbol(":=", "variable-assignment")
            value = self.parse_value()
            self.expect_symbol(";", "variable-assignment")
            data.assignments.append(
                Assignment(type_name, tuple(path), value, span=start.span)
            )
            return
        shape = self.parse_shape()
        self.expect_symbol(":=", "constant declaration")
        value = self.parse_value()
        self.expect_symbol(";", "constant declaration")
        if first.text in data.constants:
            raise self.fail(f"constant '{first.text}' declared twice", first.span)
        data.constants[first.text] = ConstDecl(
            first.text, type_spec, shape, value, span=start.span
        )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def parse_model(text: str, filename: str = "<model>") -> tuple[Model | None, list[Diagnostic]]:
    p = ModelParser(text, filename)
    return p.result(p.run(p.parse))


def parse_data(text: str, filename: str = "<data>") -> tuple[DataFile | None, list[Diagnostic]]:
    p = DataParser(text, filename)
    return p.result(p.run(p.parse))


def parse_expression(text: str, filename: str = "<expr>") -> tuple[Expr | None, list[Diagnostic]]:
    """Parse a single expression (used by tests and the solution checker)."""
    p = TokenCursor(text, filename)
    expr = p.run(p.parse_expression)
    if expr is not None and p.cur.kind != EOF:
        p.sink.error(f"trailing input after expression: '{p.cur.text}'", p.cur.span)
    return p.result(expr)
