import dataclasses
import itertools

import pytest

from conftest import compile_corpus
from scomma.backend import apply_rewrites
from scomma.errors import ContractError, EvalError, OutOfBoundsError
from scomma.evaluate import check_solution, eval_expr
from scomma.flatparse import parse_flat
from scomma.ir import FlatConstraint, FlatModel, FlatVar, IntInterval, Solution, Table
from scomma.parser import parse_expression


def expr(text):
    e, diags = parse_expression(text)
    assert e is not None, [d.render() for d in diags]
    return e


class TestEvalExpr:
    def test_implication_of_comparisons(self):
        # a true antecedent with a false consequent is false
        assert eval_expr(expr("3 < 5 -> 1 = 2"), {}) is False

    def test_variable_lookup(self):
        assert eval_expr(expr("man_wife[1]"), {("man_wife", (1,)): 4}) == 4

    def test_nested_subscript(self):
        asg = {("man_wife", (1,)): 2, ("woman_husband", (2,)): 1}
        assert eval_expr(expr("woman_husband[man_wife[1]] = 1"), asg) is True

    def test_out_of_bounds_is_index_error_with_name(self):
        with pytest.raises(IndexError) as exc:
            eval_expr(expr("a[7]"), {("a", (1,)): 0})
        assert "a" in str(exc.value) and "7" in str(exc.value)

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            eval_expr(expr("1/0"), {})

    def test_inexact_integer_division(self):
        with pytest.raises(EvalError):
            eval_expr(expr("7/2"), {})
        assert eval_expr(expr("8/2"), {}) == 4

    def test_iff_equals_two_implications_exhaustively(self):
        iff = expr("a <-> b")
        both = expr("(a -> b) and (b -> a)")
        for a, b in itertools.product([False, True], repeat=2):
            asg = {("a", ()): a, ("b", ()): b}
            assert eval_expr(iff, asg) == eval_expr(both, asg)

    def test_xor_and_reverse_implication(self):
        for a, b in itertools.product([False, True], repeat=2):
            asg = {("a", ()): a, ("b", ()): b}
            assert eval_expr(expr("a xor b"), asg) == (a != b)
            assert eval_expr(expr("a <- b"), asg) == (a or not b)

    def test_set_operations(self):
        asg = {("s", ()): frozenset({1, 2}), ("t", ()): frozenset({2, 3})}
        assert eval_expr(expr("s union t"), asg) == frozenset({1, 2, 3})
        assert eval_expr(expr("s intersection t"), asg) == frozenset({2})
        assert eval_expr(expr("s diff t"), asg) == frozenset({1})
        assert eval_expr(expr("s symdiff t"), asg) == frozenset({1, 3})
        assert eval_expr(expr("cardinality(s)"), asg) == 2
        assert eval_expr(expr("1 in s"), asg) is True
        assert eval_expr(expr("s subset {1,2,3}"), asg) is True
        assert eval_expr(expr("t superset {3}"), asg) is True

    def test_real_tolerance(self):
        asg = {("r", ()): 0.1 + 0.2}
        assert eval_expr(expr("r = 0.3"), asg) is True  # within 1e-9
        assert eval_expr(expr("r < 0.3"), asg) is False

    def test_tables_supply_constant_arrays(self):
        tables = {"t": Table("t", (3,), (10, 20, 30))}
        assert eval_expr(expr("t[i]"), {("i", ()): 2}, tables) == 20

    def test_purity(self):
        e = expr("x*2+1 = 7")
        asg = {("x", ()): 3}
        assert eval_expr(e, asg) == eval_expr(e, asg)


def tiny_model():
    return FlatModel(
        name="tiny",
        variables=[FlatVar("x", "int", (), IntInterval(0, 9)),
                   FlatVar("y", "int", (), IntInterval(0, 9))],
        constraints=[FlatConstraint(expr("x < y"))],
    )


class TestCheckSolution:
    def test_trivial_model_all_true(self):
        fm = FlatModel(name="t", variables=[], constraints=[FlatConstraint(expr("1 < 2"))])
        ok, violations = check_solution(fm, Solution({}))
        assert ok and violations == []

    def test_violation_reported_with_text(self):
        fm = tiny_model()
        ok, violations = check_solution(fm, Solution({("x", ()): 2, ("y", ()): 1}))
        assert not ok
        assert violations[0].index == 0
        assert "x<y" in violations[0].text

    def test_partial_assignment_is_contract_error(self):
        fm = tiny_model()
        with pytest.raises(ContractError):
            check_solution(fm, Solution({("x", ()): 2}))

    def test_identity_matching_satisfies_the_equality_rows(self, stable):
        # under the identity permutation both husband/wife tables agree, so
        # the first ten flattened constraints (the matching equations) hold
        _tm, fm = stable
        values = {}
        for i in range(1, 6):
            values[("man_wife", (i,))] = i
            values[("woman_husband", (i,))] = i
        ok, violations = check_solution(fm, Solution(values))
        violated = {v.index for v in violations}
        assert not violated.intersection(range(10))

    def test_check_is_pure(self, stable):
        _tm, fm = stable
        values = {}
        for i in range(1, 6):
            values[("man_wife", (i,))] = i
            values[("woman_husband", (i,))] = i
        first = check_solution(fm, Solution(values))
        second = check_solution(fm, Solution(values))
        assert first[0] == second[0]
        assert [v.index for v in first[1]] == [v.index for v in second[1]]


def test_out_of_domain_value_is_a_violation():
    fm = tiny_model()
    ok, violations = check_solution(fm, Solution({("x", ()): 0, ("y", ()): 42}))
    assert not ok
    assert any(v.index == -1 and "outside its domain" in v.text for v in violations)


def test_constraint_that_cannot_be_evaluated():
    fm = FlatModel(
        name="t",
        variables=[FlatVar("x", "int", (), IntInterval(1, 9))],
        constraints=[FlatConstraint(expr("t[x] = 2")), FlatConstraint(expr("6 / x = 2"))],
        tables={"t": Table("t", (3,), (1, 2, 2))},
    )
    # in its domain, x = 5 reads t out of bounds: an error, as before
    with pytest.raises(OutOfBoundsError):
        check_solution(fm, Solution({("x", ()): 5}))
    # outside it, the constraints that cannot be evaluated are violated
    ok, violations = check_solution(fm, Solution({("x", ()): 0}))
    assert not ok
    assert [v.index for v in violations] == [-1, 0, 1]


class TestPinnedSemantics:
    """Error classes, texts and evaluation order of the evaluator."""

    @pytest.mark.parametrize("text, value", [
        ("false and 1/0 = 1", False),
        ("true or 1/0 = 1", True),
        ("false and a.b = 1", False),
        ("false and foo(x)", False),
    ])
    def test_and_or_short_circuit(self, text, value):
        assert eval_expr(expr(text), {}) is value

    def test_implication_evaluates_both_sides(self):
        with pytest.raises(EvalError, match=r"^division by zero in 1/0$"):
            eval_expr(expr("false -> 1/0 = 1"), {})

    @pytest.mark.parametrize("text, message", [
        ("1 = true", "'=' applied to a bool"),
        ("-true", "negation applied to a non-number"),
        ("{1} < {2}", "'<' is not a set comparison"),
        ("x", "'x' is not assigned"),
        ("x[true]", "expected an integer, got True in x[true]"),
        ("a.b = 1", "reference 'a.b' is not flat"),
        ("foo(x)", "cannot evaluate global constraint 'foo'"),
        ("cardinality()", "'cardinality' applied to no argument"),
    ])
    def test_error_texts(self, text, message):
        with pytest.raises(EvalError) as exc:
            eval_expr(expr(text), {})
        assert str(exc.value) == message

    def test_table_index_out_of_bounds(self):
        tables = {"t": Table("t", (3,), (1, 2, 2))}
        with pytest.raises(OutOfBoundsError) as exc:
            eval_expr(expr("t[0]"), {}, tables)
        assert str(exc.value) == "index [0] out of bounds for 't'"

    def test_alldifferent_over_variables_and_tables(self):
        asg = {("x", (1,)): 3, ("x", (2,)): 1, ("x", (3,)): 2}
        assert eval_expr(expr("alldifferent(x)"), asg) is True
        tables = {"t": Table("t", (3,), (1, 2, 2))}
        assert eval_expr(expr("alldifferent(t)"), {}, tables) is False

    def test_long_left_nested_sum(self):
        e = expr(" + ".join(["x"] * 450) + " = 900")
        assert eval_expr(e, {("x", ()): 2}) is True


class TestCheckCache:
    """The compiled check belongs to one model and never changes equality."""

    @staticmethod
    def indices(fm, values):
        return [v.index for v in check_solution(fm, Solution(values))[1]]

    def test_replaced_constraints_are_checked(self):
        fm = tiny_model()
        values = {("x", ()): 2, ("y", ()): 1}
        assert self.indices(fm, values) == [0]
        flipped = dataclasses.replace(fm, constraints=[FlatConstraint(expr("x > y"))])
        assert self.indices(flipped, values) == []
        assert self.indices(fm, values) == [0]

    def test_rewritten_model_is_checked_against_its_own_constraints(self):
        fm = tiny_model()
        values = {("x", ()): 0, ("y", ()): 42}
        assert self.indices(fm, values) == [-1]
        widened = apply_rewrites(fm, [("int_bounds_widen", ())])
        # y's bound is now the constraint y <= 9 instead of its domain
        assert self.indices(widened, values) == [4]

    def test_parsed_flat_model_is_checked(self):
        values = {("x", ()): 2, ("y", ()): 1}
        assert self.indices(tiny_model(), values) == [0]
        parsed, diags = parse_flat("variables:\n int x in [0,9];\n int y in [0,9];\n"
                                   "constraints:\n x > y;\n y < 5;\n x = 7;\n",
                                   name="tiny")
        assert parsed is not None, [d.render() for d in diags]
        assert self.indices(parsed, values) == [2]

    def test_checked_model_equals_unchecked_copy(self):
        checked, fresh = tiny_model(), tiny_model()
        check_solution(checked, Solution({("x", ()): 1, ("y", ()): 2}))
        assert checked == fresh
        assert repr(checked) == repr(fresh)
