"""The one scanner behind every text input: models, data files, ``.bd``
descriptors and flat text read back.

``scan`` matches one compiled master regex at each position (the ``re``
module's "Writing a Tokenizer" recipe) and never rejects its input: an
unknown character becomes a one-character SYMBOL token and an unterminated
string a STRING token up to the end of its line.  It returns the tokens with
the first such problem as a diagnostic.  ``tokenize`` raises that diagnostic
as :class:`LexError`, the parsers' ``TokenCursor`` records it and parses on,
and ``count_tokens`` (the whitespace-independent size measure of the
benchmark report, which also measures emitted target files in foreign
syntaxes) ignores it.
"""

from __future__ import annotations

import re
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


def scan(text: str, filename: str = "<input>") -> tuple[list[Token], Diagnostic | None]:
    """The tokens of ``text``, ending with an EOF token, and the diagnostic
    for its first unknown character or unterminated string, if any."""
    tokens: list[Token] = []
    problem: Diagnostic | None = None
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
            tokens.append(
                Token(INT, raw, int(raw), span) if raw.isdecimal()
                else Token(REAL, raw, float(raw), span)
            )
        elif kind == "name":
            if raw in KEYWORDS:
                raw = _SHARED[raw]
                tokens.append(Token(KEYWORD, raw, _BOOLS.get(raw, raw), span))
            else:
                tokens.append(Token(IDENT, raw, raw, span))
        elif kind == "string":
            closed = m["closed"] is not None
            body = raw[1:-1] if closed else raw[1:]
            value = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), body)
            if not closed and problem is None:
                problem = error("unterminated string literal", span)
            tokens.append(Token(STRING, raw, value, span))
        else:
            raw = _SHARED.get(raw, raw)
            if kind == "other" and problem is None:
                problem = error(f"unexpected character {raw!r}", span)
            tokens.append(Token(SYMBOL, raw, raw, span))
    tokens.append(Token(EOF, "", None, SourceSpan(filename, line, pos - line_start + 1, 1)))
    return tokens, problem


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """Scan ``text`` into tokens, ending with an EOF token; raise
    :class:`LexError` on its first unknown character or unterminated string."""
    tokens, problem = scan(text, filename)
    if problem is not None:
        raise LexError(problem)
    return tokens


def count_tokens(text: str) -> int:
    """Number of lexical tokens in ``text``, ignoring whitespace and comments."""
    return len(scan(text, "<count>")[0]) - 1
