"""The one scanner behind every text input: models, data files, ``.bd``
descriptors, flat text read back and the values of a solution file.

``scan`` is a generator: it matches one compiled master regex at each
position (the ``re`` module's "Writing a Tokenizer" recipe) and yields each
token as it is matched, so no reader holds the token list of its text.  It
never rejects its input: an unknown character becomes a one-character SYMBOL
token and an unterminated string a STRING token up to the end of its line,
and the first such problem is passed to a ``report`` callback when the scan
reaches it.  The parsers' ``TokenCursor`` records it and parses on;
``tokenize``, the one caller that builds a list, raises it as
:class:`LexError`; and ``count_tokens`` (the whitespace-independent size
measure of the benchmark report, which also measures emitted target files in
foreign syntaxes) counts the tokens as they pass and ignores it.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .diagnostics import Diagnostic, SourceSpan, error

IDENT = "ident"
INT = "int"
REAL = "real"
STRING = "string"
SYMBOL = "symbol"
KEYWORD = "keyword"
EOF = "eof"

KEYWORDS = frozenset(
    {
        "class", "extends", "import", "constraint", "forall", "if", "else",
        "enum", "int", "real", "bool", "set", "of", "in",
        "not", "and", "or", "xor",
        "union", "diff", "symdiff", "intersection", "subset", "superset",
        "minimize", "maximize", "true", "false",
    }
)

# Longest symbols first so maximal munch falls out of the alternation order.
SYMBOLS = (
    "<->", ":=", "->", "<-", "<=", ">=", "<>", "..",
    "{", "}", "[", "]", "(", ")", ",", ";", ":", ".",
    "=", "<", ">", "+", "-", "*", "/", "_", "?",
)

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)

# One alternative per token class, tried in order at each position.  Digits
# are ``\d`` (str.isdecimal); "1.5" is a real, "1..5" an int and a range.  A
# name starts with a letter or with "_" and a word character; ``[^\W\d_]``
# also admits numeric characters such as "²", which ``scan`` turns away.  A
# backslash in a string escapes any character, a newline included, and a
# string left open stops before the end of its line.
_TOKEN = re.compile(
    r"""
      (?P<space>[ \t\r\n]+|//[^\n]*)
    | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<name>(?:[^\W\d_]|_\w)\w*)
    | (?P<string>"(?:[^"\\\n]|\\.)*(?:(?P<closed>")|\\)?)
    | (?P<symbol>"""
    + "|".join(map(re.escape, SYMBOLS))
    + r""")
    | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)

# Token texts that are table entries share the table's string object.
_SHARED = {s: s for s in (*SYMBOLS, *KEYWORDS)}
_BOOLS = {"true": True, "false": False}


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    value: object
    span: SourceSpan

    def is_symbol(self, *texts: str) -> bool:
        return self.kind == SYMBOL and self.text in texts

    def is_keyword(self, *words: str) -> bool:
        return self.kind == KEYWORD and self.text in words


class LexError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(diagnostic.render())


def scan(
    text: str, filename: str = "<input>", report: Callable[[Diagnostic], None] | None = None
) -> Iterator[Token]:
    """The tokens of ``text``, one at a time, ending with an EOF token.  When
    the scan reaches the first unknown character or unterminated string, it
    passes that problem's diagnostic to ``report`` before it yields the
    token."""
    pending = report is not None
    match = _TOKEN.match
    line, line_start, pos = 1, 0, 0
    while m := match(text, pos):
        kind, raw = m.lastgroup, m[0]
        if kind == "name" and not (raw[0].isalpha() or raw[0] == "_"):
            kind, raw = "other", raw[0]
        span_line, column = line, pos - line_start + 1
        if "\n" in raw:  # whitespace, or a string with an escaped newline
            line += raw.count("\n")
            line_start = pos + raw.rindex("\n") + 1
        pos += len(raw)
        if kind == "space":
            continue
        span = SourceSpan(filename, span_line, column, len(raw))
        if kind == "number":
            yield (
                Token(INT, raw, int(raw), span) if raw.isdecimal()
                else Token(REAL, raw, float(raw), span)
            )
        elif kind == "name":
            if raw in KEYWORDS:
                raw = _SHARED[raw]
                yield Token(KEYWORD, raw, _BOOLS.get(raw, raw), span)
            else:
                yield Token(IDENT, raw, raw, span)
        elif kind == "string":
            closed = m["closed"] is not None
            body = raw[1:-1] if closed else raw[1:]
            value = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), body)
            if not closed and pending:
                pending = False
                report(error("unterminated string literal", span))
            yield Token(STRING, raw, value, span)
        else:
            raw = _SHARED.get(raw, raw)
            if kind == "other" and pending:
                pending = False
                report(error(f"unexpected character {raw!r}", span))
            yield Token(SYMBOL, raw, raw, span)
    yield Token(EOF, "", None, SourceSpan(filename, line, pos - line_start + 1, 1))


def _raise(problem: Diagnostic) -> None:
    raise LexError(problem)


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """Scan ``text`` into a list of tokens, ending with an EOF token; raise
    :class:`LexError` on its first unknown character or unterminated string."""
    return list(scan(text, filename, _raise))


def count_tokens(text: str) -> int:
    """Number of lexical tokens in ``text``, ignoring whitespace and comments."""
    return sum(1 for _ in scan(text, "<count>")) - 1
