import pytest

from scomma.lexer import EOF, IDENT, INT, KEYWORD, LexError, REAL, SYMBOL, count_tokens, tokenize


def kinds(text):
    return [(t.kind, t.text) for t in tokenize(text) if t.kind != EOF]


def test_numbers_and_ranges():
    assert kinds("1..5") == [(INT, "1"), (SYMBOL, ".."), (INT, "5")]
    assert kinds("1.5") == [(REAL, "1.5")]
    assert kinds("2.5e-3")[0][0] == REAL


def test_arrow_family_maximal_munch():
    assert [t.text for t in tokenize("a <-> b <- c -> d")[:7:2]] == ["a", "b", "c", "d"]
    assert kinds("x<-1") == [(IDENT, "x"), (SYMBOL, "<-"), (INT, "1")]
    # whitespace splits the pair: '<' then unary minus
    assert kinds("x < -1") == [(IDENT, "x"), (SYMBOL, "<"), (SYMBOL, "-"), (INT, "1")]


def test_comments_and_keywords():
    toks = kinds("class A { // comment to end\n int x; }")
    assert (KEYWORD, "class") == toks[0]
    assert all("comment" not in t for _, t in toks)


def test_underscore_is_a_token_but_not_in_names():
    assert kinds("_") == [(SYMBOL, "_")]
    assert kinds("man_wife") == [(IDENT, "man_wife")]


def test_strict_mode_rejects_garbage():
    with pytest.raises(LexError):
        tokenize("int @ x;")


def test_lenient_counting_never_fails():
    assert count_tokens("int x := 5;") == 5
    assert count_tokens("public class X { int[] a = {1,2}; } @&#") > 0
    assert count_tokens("// only a comment\n") == 0


def test_spans_are_one_based():
    tok = tokenize("  abc")[0]
    assert (tok.span.line, tok.span.column) == (1, 3)
    tok = tokenize("x\n  y")[1]
    assert (tok.span.line, tok.span.column) == (2, 3)


def test_numeric_characters_that_are_not_decimal_digits_are_rejected():
    # "²" and "½" are numeric but neither decimal digits nor letters
    for text, col in (("int x in [1, ²];", 14), ("½", 1), ("1²", 2)):
        with pytest.raises(LexError) as exc:
            tokenize(text)
        bad = text[col - 1]
        assert exc.value.diagnostic.message == f"unexpected character {bad!r}"
        assert exc.value.diagnostic.span.column == col
    assert kinds("x² ٣") == [(IDENT, "x²"), (INT, "٣")]


def test_escaped_newline_in_a_string_counts_as_a_line():
    toks = tokenize('"a\\\nb" c')
    assert toks[0].value == "a\nb"
    assert (toks[1].span.line, toks[1].span.column) == (2, 4)


def test_keyword_and_symbol_texts_are_the_table_strings():
    from scomma.lexer import KEYWORDS, SYMBOLS

    _, word, arrow, _, _ = tokenize("x and <-> y")
    assert any(word.text is k for k in KEYWORDS)
    assert any(arrow.text is s for s in SYMBOLS)
