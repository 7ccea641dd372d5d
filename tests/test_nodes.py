"""The shared traversals of ``nodes``: ``walk`` and ``map_item``; and the
rule that expression nodes hold their declared fields and nothing else."""

import random

import pytest

from scomma import nodes
from scomma.nodes import (
    BinOp,
    Constraint,
    Forall,
    GlobalCall,
    IfElse,
    IntLit,
    IntRange,
    NameRange,
    Objective,
    Ref,
    UnOp,
    map_item,
    simple_ref,
    transform,
    walk,
)
from scomma.parser import parse_expression
from scomma.printer import render_expr


def expr(text):
    e, _ = parse_expression(text)
    assert e is not None
    return e


def children(e):
    """The reference's child relation on expressions, written apart from
    ``walk``."""
    if isinstance(e, BinOp):
        return [e.left, e.right]
    if isinstance(e, UnOp):
        return [e.operand]
    if isinstance(e, Ref):
        return [i for part in e.parts for i in part.indices]
    return []


def recursive_walk(e):
    yield e
    for c in children(e):
        yield from recursive_walk(c)


def random_expr(rng, depth):
    if depth == 0:
        return IntLit(rng.randrange(-2, 3))
    if rng.random() < 0.2:
        return simple_ref(f"x{rng.randrange(5)}", *(
            random_expr(rng, depth - 1) for _ in range(rng.randrange(3))))
    if rng.random() < 0.2:
        return UnOp("neg", random_expr(rng, depth - 1))
    return BinOp(rng.choice("+-*"), random_expr(rng, depth - 1), random_expr(rng, depth - 1))


class TestWalk:
    def test_pre_order_matches_the_recursive_definition(self):
        rng = random.Random(5)
        for _ in range(50):
            e = random_expr(rng, 6)
            assert [id(n) for n in walk(e)] == [id(n) for n in recursive_walk(e)]

    def test_long_chain_has_no_depth_limit(self):
        n = 5000
        leaves = [simple_ref(f"x{k}") for k in range(n)]
        sums = []
        e = leaves[0]
        for leaf in leaves[1:]:
            e = BinOp("+", e, leaf)
            sums.append(e)
        # pre-order of a left-deep chain: the sums from the root down, then
        # the leaves left to right
        expected = sums[::-1] + leaves
        assert [id(node) for node in walk(e)] == [id(node) for node in expected]

    def test_items_pre_order(self):
        lo, hi = IntLit(1), simple_ref("n")
        then_c = Constraint(expr("q[i] > 0"))
        else_c = GlobalCall("alldifferent", (simple_ref("q"),))
        cond = IfElse(expr("i = 1"), (then_c,), (else_c,))
        loop = Forall("i", IntRange(lo, hi), (cond,))
        goal = Objective("maximize", simple_ref("a"))
        expected = [
            loop, lo, hi,
            cond, cond.cond, cond.cond.left, cond.cond.right,
            then_c, then_c.expr, then_c.expr.left, then_c.expr.left.parts[0].indices[0],
            then_c.expr.right,
            else_c, else_c.args[0],
            goal, goal.expr,
        ]
        assert [id(n) for n in walk(loop, goal)] == [id(n) for n in expected]

    def test_a_name_range_has_no_bounds_to_visit(self):
        body = Constraint(simple_ref("b"))
        loop = Forall("i", NameRange("E"), (body,))
        assert [id(n) for n in walk(loop)] == [id(loop), id(body), id(body.expr)]


def bump(e):
    """``e`` with every literal ``1`` made ``2``; ``e`` itself when it has none."""

    def repl(node):
        if isinstance(node, IntLit) and node.value == 1:
            return IntLit(2)
        return node

    return transform(e, repl)


class TestMapItem:
    def test_unchanged_items_come_back_as_themselves(self):
        items = [
            Constraint(expr("a < b")),
            GlobalCall("alldifferent", (simple_ref("q"),)),
            Objective("maximize", expr("a + b")),
            Forall("i", IntRange(IntLit(3), IntLit(4)), (Constraint(expr("q[i] > 0")),)),
            Forall("i", NameRange("E"), (Constraint(expr("q[i] > 0")),)),
            IfElse(expr("a > 0"), (Constraint(expr("b = 0")),), (Constraint(expr("b = 3")),)),
            IfElse(expr("a > 0"), (Constraint(expr("b = 0")),), None),
        ]
        for item in items:
            assert map_item(item, bump) is item
            assert map_item(item, lambda e: e) is item

    def test_every_expression_slot_is_mapped(self):
        item = Forall("i", IntRange(IntLit(1), IntLit(1)), (
            Constraint(expr("a < 1")),
            GlobalCall("alldifferent", (simple_ref("q"), IntLit(1))),
            IfElse(expr("a = 1"), (Objective("minimize", expr("1 + a")),),
                   (Constraint(expr("b <> 1")),)),
        ))
        out = map_item(item, bump)
        assert isinstance(out.range, IntRange)
        assert (out.range.lo.value, out.range.hi.value) == (2, 2)
        con, call, cond = out.body
        assert render_expr(con.expr) == "a<2"
        assert call.name == "alldifferent" and call.args[1].value == 2
        assert render_expr(cond.cond) == "a=2"
        assert render_expr(cond.then_items[0].expr) == "2+a"
        assert cond.then_items[0].kind == "minimize"
        assert render_expr(cond.else_items[0].expr) == "b<>2"

    def test_only_changed_sub_items_are_rebuilt(self):
        same = Constraint(expr("a < b"))
        changed = Constraint(expr("a < 1"))
        item = IfElse(expr("c"), (same, changed), (same,))
        out = map_item(item, bump)
        assert out is not item
        assert out.then_items[0] is same
        assert out.then_items[1] is not changed
        assert out.else_items is item.else_items
        assert out.cond is item.cond

    def test_else_branch_is_mapped_before_the_condition(self):
        seen = []

        def record(e):
            seen.append(render_expr(e))
            return e

        item = IfElse(expr("c"), (Constraint(expr("t")),), (Constraint(expr("e")),))
        map_item(item, record)
        assert seen == ["e", "c", "t"]

    def test_name_range_is_left_alone(self):
        body = (Constraint(expr("q[i] > 1")),)
        out = map_item(Forall("i", NameRange("E"), body), bump)
        assert out.range == NameRange("E")
        assert render_expr(out.body[0].expr) == "q[i]>2"
        assert isinstance(out.body[0].expr.left, Ref)


EXPR_CLASSES = sorted(
    (c for c in vars(nodes).values() if isinstance(c, type) and issubclass(c, nodes.Expr)),
    key=lambda c: c.__name__,
)


@pytest.mark.parametrize("cls", EXPR_CLASSES, ids=lambda c: c.__name__)
def test_expression_nodes_are_slotted(cls):
    node = cls()
    assert not hasattr(node, "__dict__")
    with pytest.raises(AttributeError):
        setattr(node, "ty", "int")
