"""Pins of the front end's observable behaviour, recorded once and compared
exactly: the token stream (kind, text, value, span) and first scanner
diagnostic of every shipped text input and of seeded random strings, and the
diagnostics of malformed expressions.  A scanner or parser rewrite must leave
all of them unchanged.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

from conftest import CORPUS_NAMES, FIXTURES, compile_corpus
from scomma.backend import compile_to_target, find_target
from scomma.backend.descriptor import parse_descriptor
from scomma.cli import _parse_value, corpus_dir
from scomma.errors import ContractError
from scomma.flatparse import parse_flat
from scomma.ir import INT, FlatModel, FlatVar, IntInterval
from scomma.lexer import EOF, count_tokens
from scomma.parser import TokenCursor, parse_data, parse_expression, parse_model

TARGETS = Path(__file__).parent.parent / "src" / "scomma" / "backend" / "targets"


def stream_digest(text: str, filename: str) -> str:
    """Digest of the token stream and scanner diagnostics the parsers see."""
    cursor = TokenCursor(text, filename)
    rows = []
    while True:
        t = cursor.advance()
        rows.append((t.kind, t.text, repr(t.value), t.span.filename, t.span.line,
                     t.span.column, t.span.length))
        if t.kind == EOF:
            break
    rows.append(tuple(d.render() for d in cursor.sink.items))
    rows.append(count_tokens(text))
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()[:20]


def source_files() -> dict[str, Path]:
    files = sorted(corpus_dir().glob("*.scm")) + sorted(corpus_dir().glob("*.dat"))
    files += sorted(FIXTURES.iterdir()) + sorted(TARGETS.glob("*.bd"))
    return {f"{p.parent.name}/{p.name}": p for p in files}


FILE_DIGESTS = {
    "corpus/golfers.dat": "7cb03ed3c62252004c08",
    "corpus/golfers.scm": "8bf89006c025dc927832",
    "corpus/ineq20.scm": "cc4cecffd8d9e5de568e",
    "corpus/packing.dat": "e83ad4bdc7f2dbf6a184",
    "corpus/packing.scm": "19580b93eda66095e7a9",
    "corpus/production.dat": "b97e88b7099f6fd64993",
    "corpus/production.scm": "b2c21caa01f39e70b329",
    "corpus/queens-10.dat": "f60c33edf9a60a894461",
    "corpus/queens-10.scm": "96fa6f5f89c184411726",
    "corpus/queens-18.dat": "5f344eceb83c30c21084",
    "corpus/queens-18.scm": "47f620328ec45cbe5861",
    "corpus/send.scm": "c97685189aa1ad2232d5",
    "corpus/stable.dat": "f0654cb3300fdb9f0b59",
    "corpus/stable.scm": "dca20200411158b96a4a",
    "corpus/sudoku.dat": "477b4db3bbafaedcc8e8",
    "corpus/sudoku.scm": "887dc34c41eb4b723745",
    "fixtures/golfers-tiny.dat": "41765c30c3dffc93c7fb",
    "fixtures/mix-real.scm": "f563dcc596c99b47d34b",
    "fixtures/packing-mini.dat": "8ece484ea2ede1e896bc",
    "fixtures/queens-5.dat": "824d1ab211e0eab61057",
    "fixtures/setmat.scm": "11255464644e2c170de3",
    "fixtures/stable3.dat": "b83eb6c4b9d94693c685",
    "targets/clp.bd": "97c0f4835342f51a2ab5",
    "targets/flat.bd": "0a082771a7251fcedbdd",
    "targets/gecodej.bd": "6c04c64ced5cd390dd9a",
}

FLAT_DIGESTS = {
    "golfers": "898c17d792e530d5281c",
    "ineq20": "8c1d3985a64bed3a46d9",
    "packing": "7723a3d213a4c951644f",
    "production": "8a7ee91e266a2104149f",
    "queens-10": "f40d6e887db6b1cabbf7",
    "queens-18": "c40b0f000df9d3262e16",
    "send": "37928dbfaea07f7c1c30",
    "stable": "c4f88633e4282667a3f7",
    "sudoku": "7ec8ce6874cf0e12bc30",
}

# Letters outside ASCII (Latin, Greek, Cyrillic, CJK, titlecase, modifier),
# an Arabic-Indic decimal digit, a combining mark and a no-break space.
RANDOM_ALPHABET = (
    "abxyz_019 \t\r\n\"\\.,;:=<>-+*/(){}[]?@#$e"
    "\u00e9\u00df\u03bb\u0416\u4e2d\u01c5\u02b0\u0663\u0301\u00a0"
)
RANDOM_DIGEST = "68dfa9f0072d40d39369"


def random_texts() -> list[str]:
    rng = random.Random(20261018)
    return [
        "".join(rng.choice(RANDOM_ALPHABET) for _ in range(rng.randrange(0, 40)))
        for _ in range(600)
    ]


@pytest.mark.parametrize("name", sorted(FILE_DIGESTS))
def test_source_file_token_stream(name):
    path = source_files()[name]
    assert stream_digest(path.read_text(encoding="utf-8"), path.name) == FILE_DIGESTS[name]


def test_every_source_file_is_pinned():
    assert sorted(source_files()) == sorted(FILE_DIGESTS)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_flat_emission_token_stream(name):
    _tm, fm, _ = compile_corpus(name)
    text = compile_to_target(fm, find_target("flat"))
    assert stream_digest(text, f"{name}.fsc") == FLAT_DIGESTS[name]


def test_random_strings_token_streams():
    digest = hashlib.sha256(
        "".join(stream_digest(t, "<random>") for t in random_texts()).encode("utf-8")
    ).hexdigest()[:20]
    assert digest == RANDOM_DIGEST


MALFORMED = [
    ('a < b < c', ["<expr>:1:7: error: trailing input after expression: '<'"]),
    ('(a + b', ["<expr>:1:7: error: expected ')' in parenthesized expression, found end of file"]),
    ('a +', ['<expr>:1:4: error: expected expression, found end of file']),
    ('-', ['<expr>:1:2: error: expected expression, found end of file']),
    ('[1, 2', ["<expr>:1:6: error: expected ']', found end of file"]),
    ('x[1, 2, 3]', ["<expr>:1:7: error: expected ']' in index, found ','"]),
    ('f(a,)', ["<expr>:1:5: error: expected expression, found ')'"]),
    ('a ->', ['<expr>:1:5: error: expected expression, found end of file']),
    ('not', ['<expr>:1:4: error: expected expression, found end of file']),
    ('a b', ["<expr>:1:3: error: trailing input after expression: 'b'"]),
    ('"abc', ['<expr>:1:1: error: unterminated string literal', '<expr>:1:1: error: expected expression, found \'"abc\'']),
    ('a\n  @ b', ["<expr>:2:3: error: unexpected character '@'", "<expr>:2:3: error: trailing input after expression: '@'"]),
    ('a = = b', ["<expr>:1:5: error: expected expression, found '='"]),
    ('((a)', ["<expr>:1:5: error: expected ')' in parenthesized expression, found end of file"]),
    ('a.', ["<expr>:1:2: error: trailing input after expression: '.'"]),
    ('{1, 2', ["<expr>:1:6: error: expected '}', found end of file"]),
    ('x[', ['<expr>:1:3: error: expected expression, found end of file']),
    ('x <', ['<expr>:1:4: error: expected expression, found end of file']),
    ('1 .. 2', ["<expr>:1:3: error: trailing input after expression: '..'"]),
    ('a # b', ["<expr>:1:3: error: unexpected character '#'", "<expr>:1:3: error: trailing input after expression: '#'"]),
    ('x + "s\\\n  t', ['<expr>:1:5: error: unterminated string literal', '<expr>:1:5: error: expected expression, found \'"s\\\n  t\'']),
    ('a and or b', ["<expr>:1:7: error: expected expression, found 'or'"]),
    (')', ["<expr>:1:1: error: expected expression, found ')'"]),
    ('a[1](2)', ["<expr>:1:5: error: trailing input after expression: '('"]),
    ('f(g(h(1, ]', ["<expr>:1:10: error: expected expression, found ']'"]),
    ('"a\\\nb" + @', ["<expr>:2:6: error: unexpected character '@'", '<expr>:1:1: error: expected expression, found \'"a\\\nb"\'']),
    ('x +\n\n   ', ['<expr>:3:4: error: expected expression, found end of file']),
]


@pytest.mark.parametrize("text,expected", MALFORMED)
def test_malformed_expression_diagnostics(text, expected):
    expr, diags = parse_expression(text)
    assert expr is None
    assert [d.render() for d in diags] == expected


# A reader that stops before a later lexical problem still reports that
# problem, ahead of every other diagnostic.  The flat reader stops at text
# before its first section header, and the solution-line reader at a value it
# cannot read.
def test_flat_reader_stopping_early_reports_a_later_character_first():
    _fm, diags = parse_flat("x = 1;\nconstraints:\n x = @;\n", "f.fsc")
    assert [d.render() for d in diags] == [
        "f.fsc:3:6: error: unexpected character '@'",
        "f.fsc:1:1: error: expected a section header such as 'variables:'",
    ]


def test_solution_line_reader_stopping_early_quotes_a_later_character():
    fm = FlatModel(name="f", variables=[FlatVar("x", INT, (), IntInterval(0, 3))])
    with pytest.raises(ContractError) as exc:
        _parse_value("x @", fm, fm.variables[0], 1)
    assert str(exc.value) == "solution line 1: unexpected character '@'"


# The model, data and descriptor readers recover at each statement and only
# stop early where the input nests deeper than the stack, here on the line
# before the '@'.  Where on that line the depth guard trips depends on the
# stack, so its column is not pinned.
NESTED_PAST_THE_STACK = {
    "model": (parse_model,
              "class A {\n  int x in [0,1];\n  constraint c { x = " + "(" * 3000 + "1\n@ }\n}\n",
              "m.scm:4:1: error: unexpected character '@'"),
    "data": (parse_data, "int a := " + "[" * 3000 + "1\n@;\n",
             "d.dat:2:1: error: unexpected character '@'"),
    "descriptor": (parse_descriptor,
                   "target t;\ntemplate Problem: " + "(isDefined(objective) ? " * 3000 + '"x"\n@;\n',
                   "t.bd:3:1: error: unexpected character '@'"),
}


@pytest.mark.parametrize("reader", sorted(NESTED_PAST_THE_STACK))
def test_reader_stopped_by_the_depth_guard_reports_a_later_character_first(reader):
    parse, text, lexical = NESTED_PAST_THE_STACK[reader]
    filename = lexical.split(":")[0]
    result, diags = parse(text, filename)
    assert result is None
    assert diags[0].render() == lexical
    assert [(d.severity, d.span.line, d.message) for d in diags[1:]] == [
        ("error", diags[0].span.line - 1, "input nested too deeply")
    ]


def test_the_cursor_looks_at_most_four_tokens_ahead(monkeypatch):
    held = []
    peek = TokenCursor.peek

    def recording_peek(self, offset=1):
        tok = peek(self, offset)
        held.append(1 + len(self._ahead))
        return tok

    monkeypatch.setattr(TokenCursor, "peek", recording_peek)
    reader = {".scm": parse_model, ".dat": parse_data, ".bd": parse_descriptor}
    for path in source_files().values():
        _result, diags = reader[path.suffix](path.read_text(encoding="utf-8"), path.name)
        assert not any(d.is_error for d in diags), path
    _tm, fm, _ = compile_corpus("stable")
    assert parse_flat(compile_to_target(fm, find_target("flat")))[0] is not None
    assert held and max(held) <= 4
