"""Property: rendering an expression and parsing the text back gives the
same tree.  ``neg`` of a literal is left out because the parser folds it into
a negative literal."""

from __future__ import annotations

from hypothesis import given, strategies as st

from scomma.nodes import (
    ArrayLit, BinOp, BoolLit, Call, IntLit, RealLit, Ref, RefPart, SetLit, UnOp,
)
from scomma.parser import parse_expression
from scomma.printer import render_expr

BINARY_OPS = (
    "->", "<-", "<->", "or", "xor", "and",
    "<", ">", "<=", ">=", "=", "<>", "in", "subset", "superset",
    "union", "diff", "symdiff", "intersection", "+", "-", "*", "/",
)
NAMES = st.sampled_from(("x", "y", "q", "man_wife", "_t", "a2"))

leaves = st.one_of(
    st.integers(-1000, 1000).map(IntLit),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False).map(RealLit),
    st.booleans().map(BoolLit),
    NAMES.map(lambda n: Ref((RefPart(n),))),
)


def _ref(parts):
    return Ref(tuple(RefPart(n, tuple(ix)) for n, ix in parts))


def _negate(e):
    """``neg`` of ``e``, or ``not`` of a literal, which ``-`` would fold into."""
    return UnOp("not", e) if type(e) in (IntLit, RealLit) else UnOp("neg", e)


def _extend(sub):
    return st.one_of(
        st.builds(BinOp, st.sampled_from(BINARY_OPS), sub, sub),
        st.builds(UnOp, st.just("not"), sub),
        sub.map(_negate),
        st.builds(Call, NAMES, st.lists(sub, max_size=3).map(tuple)),
        st.lists(sub, max_size=3).map(lambda xs: ArrayLit(tuple(xs))),
        st.lists(sub, max_size=3).map(lambda xs: SetLit(tuple(xs))),
        st.lists(st.tuples(NAMES, st.lists(sub, max_size=2)), min_size=1, max_size=3).map(_ref),
    )


expressions = st.recursive(leaves, _extend, max_leaves=24)


@given(expressions)
def test_parse_of_render_is_identity(e):
    text = render_expr(e)
    parsed, diags = parse_expression(text)
    assert not diags, (text, [d.render() for d in diags])
    assert parsed == e, text


def test_less_than_a_negative_operand_is_not_read_as_an_arrow():
    for text in ("x < -1", "x < -1.5", "x < -y", "x < -(-y)"):
        e, _ = parse_expression(text)
        assert parse_expression(render_expr(e))[0] == e, render_expr(e)
