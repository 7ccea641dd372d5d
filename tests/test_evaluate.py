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


def test_a_violated_long_sum_is_reported():
    # a left-deep chain 5,000 terms long, rendered for its violation at the
    # default recursion limit
    n = 5000
    terms = "+".join(f"x[{i}]" for i in range(1, n + 1))
    fm, diags = parse_flat(f"variables:\n  int x[{n}] in [0,1];\nconstraints:\n"
                           f"{terms} = {n // 2};\n")
    assert fm is not None, [d.render() for d in diags]
    ok, [violation] = check_solution(fm, [0] * n)
    assert not ok
    assert violation.index == 0 and violation.text == f"{terms}={n // 2}"


@pytest.mark.parametrize("op, chain, holds, fails", [
    ("or", "x[{}] = 1", [0] * 2999 + [1], [0] * 3000),
    ("and", "x[{}] = 0", [0] * 3000, [0] * 2999 + [1]),
    ("*", "x[{}]", [1] * 3000, [1] * 2999 + [0]),
], ids=["or", "and", "*"])
def test_long_chains_are_checked(op, chain, holds, fails):
    # a left-deep chain of 3,000 operands, checked at the default recursion
    # limit; the two solutions differ only in the last operand's variable
    n = 3000
    text = f" {op} ".join(chain.format(i) for i in range(1, n + 1))
    if op == "*":
        text += " = 1"
    fm, diags = parse_flat(f"variables:\n  int x[{n}] in [0,1];\nconstraints:\n{text};\n")
    assert fm is not None, [d.render() for d in diags]
    assert check_solution(fm, holds) == (True, [])
    ok, [violation] = check_solution(fm, fails)
    assert not ok and violation.index == 0


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
        ("true and false and 1/0 = 1", False),
        ("false or true or 1/0 = 1", True),
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
        ("false or 1 or true", "'or' applied to a non-bool"),
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

    def test_five_thousand_term_sum(self):
        # compiled on an explicit stack and added in one closure
        e = expr(" + ".join(["x"] * 2500) + " - " + " - ".join(["-x"] * 2500) + " = 20000")
        assert eval_expr(e, {("x", ()): 4}) is True

    def test_sum_checks_terms_left_to_right(self):
        # each term is checked as the operator that adds it would check it
        for text, message in [
            ("x + b - 1", "'+' applied to a non-number"),
            ("x - 1 + b", "'+' applied to a non-number"),
            ("x - b + 1/0", "'-' applied to a non-number"),
            ("b - x", "'-' applied to a non-number"),
            ("x + -b", "negation applied to a non-number"),
            ("-b + x", "negation applied to a non-number"),
            ("x + 1/0 + b", "division by zero in 1/0"),
            ("x * b", "'*' applied to a non-number"),
            ("x * 2 * b * (1/0)", "'*' applied to a non-number"),
            ("x * (1/0) * b", "division by zero in 1/0"),
        ]:
            with pytest.raises(EvalError) as exc:
                eval_expr(expr(text), {("x", ()): 1, ("b", ()): True})
            assert str(exc.value) == message, text
        asg = {("x", ()): 1, ("r", ()): 0.5}
        assert eval_expr(expr("x - (r + r) + -r * 2"), asg) == -1.0
        assert eval_expr(expr("-(x - 3) - -x"), asg) == 3


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


class TestSubscripts:
    """Variable subscripts into variable matrices and tables, and constant
    subscripts outside an array: the value, or the error class and text."""

    MATRIX = {("m", (i, j)): 10 * i + j for i in (1, 2) for j in (1, 2, 3)}
    TABLES = {"t": Table("t", (2, 3), (11, 12, 13, 21, 22, 23))}

    @staticmethod
    def model(*constraints, **tables):
        return FlatModel(
            name="subscripts",
            variables=[FlatVar("m", "int", (2, 3), IntInterval(0, 30)),
                       FlatVar("a", "int", (3,), IntInterval(0, 9)),
                       FlatVar("i", "int", (), IntInterval(-5, 5)),
                       FlatVar("j", "int", (), IntInterval(-5, 5)),
                       FlatVar("b", "bool", (), IntInterval(0, 1))],
            constraints=[FlatConstraint(expr(c)) for c in constraints],
            tables=tables,
        )

    def values(self, i, j, b=False):
        values = dict(self.MATRIX)
        values.update({("a", (1,)): 1, ("a", (2,)): 2, ("a", (3,)): 3,
                       ("i", ()): i, ("j", ()): j, ("b", ()): b})
        return values

    @pytest.mark.parametrize("name", ["m", "t"])
    def test_in_range(self, name):
        for i, j in itertools.product((1, 2), (1, 2, 3)):
            asg = self.values(i, j)
            assert eval_expr(expr(f"{name}[i,j]"), asg, self.TABLES) == 10 * i + j
            fm = self.model(f"{name}[i,j] = {10 * i + j}", t=self.TABLES["t"])
            assert check_solution(fm, Solution(asg)) == (True, [])

    @pytest.mark.parametrize("name", ["m", "t"])
    @pytest.mark.parametrize("i, j", [(0, 4), (2, 0), (3, 1), (1, -1), (3, 3)])
    def test_an_axis_out_of_range(self, name, i, j):
        # m[0,4] and m[2,0] have a row-major offset inside the array
        asg = self.values(i, j)
        message = f"index [{i},{j}] out of bounds for '{name}'"
        with pytest.raises(OutOfBoundsError) as exc:
            eval_expr(expr(f"{name}[i,j]"), asg, self.TABLES)
        assert str(exc.value) == message
        fm = self.model(f"{name}[i,j] = 1", t=self.TABLES["t"])
        with pytest.raises(OutOfBoundsError) as exc:
            check_solution(fm, Solution(asg))
        assert str(exc.value) == message

    @pytest.mark.parametrize("name", ["m", "t"])
    def test_too_few_subscripts(self, name):
        with pytest.raises(OutOfBoundsError) as exc:
            check_solution(self.model(f"{name}[i] = 1", t=self.TABLES["t"]),
                           Solution(self.values(1, 1)))
        assert str(exc.value) == f"index [1] out of bounds for '{name}'"

    @pytest.mark.parametrize("text", ["m[b,j]", "m[i,b]", "a[b]", "t[b,j]"])
    def test_bool_subscript(self, text):
        fm = self.model(f"{text} = 1", t=self.TABLES["t"])
        with pytest.raises(EvalError) as exc:
            check_solution(fm, Solution(self.values(1, 1, b=True)))
        assert str(exc.value) == f"expected an integer, got True in {text}"
        with pytest.raises(EvalError) as exc:
            eval_expr(expr(text), self.values(1, 1, b=True), self.TABLES)
        assert str(exc.value) == f"expected an integer, got True in {text}"

    def test_bool_subscript_is_read_before_a_range_check(self):
        # every subscript is read, in order, before the index is looked up
        with pytest.raises(EvalError) as exc:
            check_solution(self.model("m[i,b] = 1"), Solution(self.values(5, 1, b=True)))
        assert str(exc.value) == "expected an integer, got True in m[i,b]"

    @pytest.mark.parametrize("text, message", [
        ("a[7] = 1", "index [7] out of bounds for 'a'"),
        ("a[0] = 1", "index [0] out of bounds for 'a'"),
        ("m[1,4] = 1", "index [1,4] out of bounds for 'm'"),
        ("m[0,4] = 1", "index [0,4] out of bounds for 'm'"),
        ("m[1] = 1", "index [1] out of bounds for 'm'"),
        ("z[1] = 1", "index [1] out of bounds for 'z'"),
    ])
    def test_constant_subscript_outside_an_array(self, text, message):
        fm = self.model(text)
        with pytest.raises(OutOfBoundsError) as exc:
            check_solution(fm, Solution(self.values(1, 1)))
        assert str(exc.value) == message

    def test_constant_subscript_error_waits_for_evaluation(self):
        # the reference is compiled, but only an evaluation that reaches it fails
        fm = self.model("i < 9 or a[7] = 1", "true or z[1] = 1")
        assert check_solution(fm, Solution(self.values(1, 1))) == (True, [])

    def test_equal_subscripts_into_two_tables(self):
        tables = dict(self.TABLES, u=Table("u", (2, 3), (1, 2, 3, 4, 5, 6)))
        assert eval_expr(expr("t[i,j] * 10 + u[i,j]"), self.values(2, 1), tables) == 214
        fm = self.model("t[i,j] = 21", "u[i,j] = 4", **tables)
        assert check_solution(fm, Solution(self.values(2, 1))) == (True, [])

    def test_whole_variable_array(self):
        fm = self.model("alldifferent(a)", "alldifferent(m)")
        assert check_solution(fm, Solution(self.values(1, 1))) == (True, [])
        values = self.values(1, 1)
        values[("a", (3,))] = 1
        ok, violations = check_solution(fm, Solution(values))
        assert [v.index for v in violations] == [0]
