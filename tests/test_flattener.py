import itertools
import random
import sys

import pytest

from conftest import (
    FIXTURES,
    compile_corpus,
    compile_formulas,
    compile_text,
    parse_data_ok,
    parse_ok,
)
from scomma.analyzer import analyze
from scomma.backend import apply_rewrites, compile_to_target, find_target
from scomma.cli import corpus_dir
from scomma import flattener
from scomma.errors import EvalError, FlattenError
from scomma.evaluate import eval_expr
from scomma.flatparse import parse_flat
from scomma.flattener import (
    PIPELINE,
    conditional_formula,
    flatten,
    fold_expr,
    normalize_expr,
    state_from_typed_model,
    substitute_data,
    substitute_enums,
)
from scomma.ir import IntInterval, flatness_violations
from scomma.nodes import BinOp, Constraint, IfElse, IntLit, RealLit, Ref, transform, walk
from scomma.parser import parse_expression
from scomma.printer import render_expr


def expr(text):
    e, _ = parse_expression(text)
    assert e is not None
    return e


def constraint_texts(fm):
    return [render_expr(c.expr) for c in fm.constraints]


class TestStableGolden:
    def test_variables(self, stable):
        _tm, fm = stable
        assert [(v.name, v.shape, v.domain, v.enum_tag) for v in fm.variables] == [
            ("man_wife", (5,), IntInterval(1, 5), "womenList"),
            ("woman_husband", (5,), IntInterval(1, 5), "menList"),
        ]

    def test_census_10_vars_60_constraints(self, stable):
        _tm, fm = stable
        assert sum(v.element_count for v in fm.variables) == 10
        assert len(fm.constraints) == 60

    def test_equalities_then_implications(self, stable):
        _tm, fm = stable
        texts = constraint_texts(fm)
        assert texts[0] == "woman_husband[man_wife[1]]=1"
        assert texts[5] == "man_wife[woman_husband[1]]=1"
        assert texts[10] == "5<man_1_rank[man_wife[1]] -> woman_1_rank[woman_husband[1]]<1"
        assert texts[11] == "1<woman_1_rank[woman_husband[1]] -> man_1_rank[man_wife[1]]<5"
        # ten equalities plus fifty implications
        assert sum(1 for t in texts if "->" in t) == 50

    def test_enum_tables_recorded(self, stable):
        _tm, fm = stable
        assert fm.enum_types["menList"] == ("Richard", "James", "John", "Hugh", "Greg")
        assert fm.enum_types["womenList"] == ("Helen", "Tracy", "Linda", "Sally", "Wanda")

    def test_rank_tables_live_as_constant_arrays(self, stable):
        _tm, fm = stable
        assert set(fm.tables) == {
            f"man_{i}_rank" for i in range(1, 6)
        } | {f"woman_{i}_rank" for i in range(1, 6)}
        assert fm.tables["man_1_rank"].values == (5, 1, 2, 4, 3)

    def test_trace_lists_all_six_passes_in_order(self):
        _tm, _fm, trace = compile_corpus("stable")
        assert [s[0] for s in trace.steps] == [name for name, _ in PIPELINE]

    @pytest.mark.parametrize(
        "name, steps",
        [
            ("stable", [
                ("substitute_enums", 58, 66),
                ("substitute_data", 66, 66),
                ("unroll_loops", 66, 966),
                ("expand_composition", 966, 672),
                ("remove_conditionals", 672, 672),
                ("normalize_logic", 672, 672),
            ]),
            ("queens-10", [
                ("substitute_enums", 35, 35),
                ("substitute_data", 35, 35),
                ("unroll_loops", 35, 991),
                ("expand_composition", 991, 991),
                ("remove_conditionals", 991, 991),
                ("normalize_logic", 991, 991),
            ]),
        ],
    )
    def test_trace_node_counts_are_exact(self, name, steps):
        _tm, _fm, trace = compile_corpus(name)
        assert trace.steps == steps

    @pytest.mark.parametrize("name, steps", [
        ("stable", [("substitute_enums", 58, 66), ("substitute_data", 66, 66),
                    ("unroll_loops", 66, 966), ("expand_composition", 966, 672),
                    ("remove_conditionals", 672, 672), ("normalize_logic", 672, 672)]),
        ("queens-10", [("substitute_enums", 35, 35), ("substitute_data", 35, 35),
                       ("unroll_loops", 35, 991), ("expand_composition", 991, 991),
                       ("remove_conditionals", 991, 991), ("normalize_logic", 991, 991)]),
    ])
    def test_nodes_are_counted_only_when_the_trace_is_read(self, monkeypatch, name, steps):
        calls = []
        count = flattener.node_count
        monkeypatch.setattr(flattener, "node_count", lambda state: calls.append(1) or count(state))
        _tm, _fm, trace = compile_corpus(name)
        assert calls == []  # flatten counts nothing
        assert trace.steps == steps
        assert len(calls) == 7  # the first read counts each pass boundary once
        assert trace.steps == steps
        assert len(calls) == 7  # a second read counts nothing

    def test_flatness_machine_check(self, stable):
        _tm, fm = stable
        assert flatness_violations(fm) == []

    def test_only_outside_input_is_checked_for_flatness(self, monkeypatch):
        # the passes build flat models; a flat text and a rewrite's result
        # come from outside them.  Every module that holds the check counts.
        calls = []
        for name, module in list(sys.modules.items()):
            if name.startswith("scomma") and hasattr(module, "flatness_violations"):
                monkeypatch.setattr(module, "flatness_violations",
                                    lambda fm: calls.append(fm) or flatness_violations(fm))
        _tm, fm = compile_text((FIXTURES / "setmat.scm").read_text())
        assert calls == []
        parsed, diags = parse_flat(compile_to_target(fm, find_target("flat")))
        assert diags == [] and calls == [parsed]
        out = apply_rewrites(fm, [("decompose_set_matrix", ())])
        assert out is not fm and calls == [parsed, out]


class TestSubstituteEnums:
    def _state(self, model_text, data_text):
        model = parse_ok(model_text)
        data = parse_data_ok(data_text)
        tm, diags = analyze(model, data)
        assert tm is not None, [d.render() for d in diags]
        return state_from_typed_model(tm)

    def test_enum_typed_attribute_becomes_int_range(self):
        state = self._state(
            "class A { womenList wife; }",
            "enum womenList := {Helen,Tracy,Linda,Sally,Wanda};",
        )
        state = substitute_enums(state)
        wife = state.classes["A"].attributes[0]
        assert wife.enum_tag == "womenList"
        assert render_expr(wife.domain.lo) == "1"
        assert render_expr(wife.domain.hi) == "5"
        assert state.enum_types["womenList"][1] == "Tracy"

    def test_enum_literal_becomes_ordinal(self):
        state = self._state(
            "class A { womenList wife; constraint z { wife = Tracy; } }",
            "enum womenList := {Helen,Tracy,Linda,Sally,Wanda};",
        )
        state = substitute_enums(state)
        con = state.classes["A"].zones[0].items[0]
        assert con.expr.right == IntLit(2)

    def test_enum_shape_becomes_cardinality(self):
        state = self._state(
            "class A { int rank[womenList]; }",
            "enum womenList := {Helen,Tracy,Linda,Sally,Wanda};",
        )
        state = substitute_enums(state)
        assert state.classes["A"].attributes[0].shape == (IntLit(5),)

    def test_no_enums_is_identity(self):
        state = self._state("class A { int x in [0,3]; constraint z { x > 1; } }", "")
        before = state.classes["A"]
        state = substitute_enums(state)
        assert state.classes["A"] == before
        assert state.enum_types == {}


class TestSubstituteData:
    def _after_data(self, model_text, data_text):
        model = parse_ok(model_text)
        data = parse_data_ok(data_text)
        tm, _ = analyze(model, data)
        state = state_from_typed_model(tm)
        return substitute_data(substitute_enums(state))

    def test_rank_row_becomes_constant_table(self, stable):
        _tm, fm = stable
        assert fm.tables["man_1_rank"].values == (5, 1, 2, 4, 3)

    def test_constant_as_shape(self):
        state = self._after_data(
            "class A { int a[n] in [0,1]; }",
            "int n := 5;",
        )
        assert state.classes["A"].attributes[0].shape == (IntLit(5),)

    def test_scalar_constants_folded_into_expressions(self):
        state = self._after_data(
            "class A { int x in [0,50]; constraint z { x < n*2; } }",
            "int n := 5;",
        )
        con = state.classes["A"].zones[0].items[0]
        assert render_expr(con.expr) == "x<10"

    def test_fig7_constant_fold_shape(self, stable):
        # man[1].rank[1] folded to 5 against the element lookup on the right
        _tm, fm = stable
        assert "5<man_1_rank[man_wife[1]]" in constraint_texts(fm)[10]


class TestUnrollLoops:
    def test_match_zone_unrolls_to_five_equalities(self, stable):
        _tm, fm = stable
        texts = constraint_texts(fm)[:5]
        assert texts == [f"woman_husband[man_wife[{i}]]={i}" for i in range(1, 6)]

    def test_nested_five_by_five_gives_fifty(self, stable):
        _tm, fm = stable
        assert sum(1 for t in constraint_texts(fm) if "->" in t) == 50

    def test_empty_range_contributes_nothing(self):
        _tm, fm = compile_text(
            """
            class A {
              int x in [0,1];
              constraint z { forall(i in 1..0) x = i; x >= 0; }
            }
            """
        )
        assert len(fm.constraints) == 1

    def test_non_constant_range_is_an_error(self):
        model = parse_ok(
            "class A { int x in [0,5]; constraint z { forall(i in 1..n) x > i; } }"
        )
        tm, diags = analyze(model, None)
        assert tm is None  # the analyzer already rejects the unknown constant
        assert any("unknown name 'n'" in d.message for d in diags)


class TestSharing:
    """A loop body is built once per value of the loop variables each of its
    subtrees names, and expansion resolves each distinct node once, so the
    flat constraints share what the source writes once."""

    def queens(self, n):
        model = parse_ok((corpus_dir() / "queens-10.scm").read_text())
        tm, diags = analyze(model, parse_data_ok(f"int n := {n};"))
        assert tm is not None, [d.render() for d in diags]
        return flatten(tm)[0]

    def test_queens_30_flat_constraints_hold_fewer_distinct_objects(self):
        fm = self.queens(30)
        nodes = walk(*(c.expr for c in fm.constraints))
        assert len(nodes) == 8265
        # 6,989 distinct objects when every unrolled copy was rebuilt whole
        assert len({id(node) for node in nodes}) == 3277

    def test_a_reference_is_one_object_where_its_loop_variable_has_one_value(self):
        # constraint (i, j, line) for 1 <= i < j <= 30 and the three lines
        #   q[i] <> q[j];  q[i] <> q[j] + (j-i);  q[i] <> q[j] - (j-i);
        fm = self.queens(30)
        rows = [(i, j) for i in range(1, 31) for j in range(i + 1, 31)]
        exprs = [c.expr for c in fm.constraints]
        assert len(exprs) == 3 * len(rows)
        for line in range(3):
            q_i, q_j = {}, {}
            for (i, j), e in zip(rows, exprs[line::3]):
                right = e.right if line == 0 else e.right.left
                assert render_expr(e.left) == f"q[{i}]" and render_expr(right) == f"q[{j}]"
                q_i.setdefault(i, set()).add(id(e.left))
                q_j.setdefault(j, set()).add(id(right))
            # one q[i] for all the constraints of outer iteration i, and one
            # q[j] for all the outer iterations that reach j
            assert all(len(ids) == 1 for ids in q_i.values())
            assert all(len(ids) == 1 for ids in q_j.values())


class TestExpandComposition:
    def test_grouped_scalar_attribute(self, stable):
        _tm, fm = stable
        assert fm.variables[0].name == "man_wife"

    def test_per_object_constant_array_naming(self, stable):
        _tm, fm = stable
        assert "man_1_rank" in fm.tables

    def test_model_without_objects_is_unchanged_shape(self):
        _tm, fm = compile_text(
            "class A { int x in [0,3]; constraint z { x > 1; } }"
        )
        assert [v.name for v in fm.variables] == ["x"]
        assert constraint_texts(fm) == ["x>1"]

    def test_name_collision_is_hard_error(self):
        model = parse_ok(
            """
            class A {
              int p_x in [0,1];
              P p[2];
            }
            class P { int x in [0,1]; }
            """
        )
        tm, _ = analyze(model, None)
        with pytest.raises(FlattenError) as exc:
            flatten(tm)
        assert "collides" in str(exc.value)
        assert str(exc.value).count("[expand_composition]") == 1

    def test_variable_index_into_per_object_array_rejected(self):
        model = parse_ok(
            """
            class A {
              P p[2];
              int k in [1,2];
              constraint z { p[k].arr[1] = 0; }
            }
            class P { int arr[2] in [0,1]; }
            """
        )
        tm, _ = analyze(model, None)
        with pytest.raises(FlattenError) as exc:
            flatten(tm)
        assert "p[k].arr[1]" in str(exc.value)

    @pytest.mark.parametrize("zone, message", [
        # the index literal carries its own position
        ("x[5] = 1;",
         "[expand_composition] m.scm:4:7: index 5 outside 1..3 in 'x[5]'"),
        # a folded index has none, so the reference's position stands in
        ("forall (i in 1..2) { x[i + 2] = 1; }",
         "[expand_composition] m.scm:4:26: index 4 outside 1..3 in 'x[4]'"),
    ], ids=["direct", "folded"])
    def test_constant_index_out_of_range_is_positioned(self, zone, message):
        model = parse_ok(
            "class A {\n  int x[3] in [0,1]; int y in [0,1];\n"
            f"  constraint c {{ y = 1;\n    {zone} }}\n}}",
            "m.scm",
        )
        tm, _ = analyze(model, None)
        with pytest.raises(FlattenError) as exc:
            flatten(tm)
        assert str(exc.value) == message

    def test_variable_index_into_grouped_scalar_allowed(self):
        _tm, fm = compile_text(
            """
            class A {
              P p[2];
              int k in [1,2];
              constraint z { p[k].x = 1; }
            }
            class P { int x in [0,1]; }
            """
        )
        assert "p_x[k]=1" in constraint_texts(fm)

    def test_scalar_object_prefixing(self):
        _tm, fm = compile_text(
            """
            class A {
              Engine engine;
              constraint z { engine.cyl > 2; }
            }
            class Engine { int cyl in [1,8]; }
            """
        )
        assert [v.name for v in fm.variables] == ["engine_cyl"]
        assert constraint_texts(fm) == ["engine_cyl>2"]

    def test_component_zones_are_instantiated_per_object(self):
        _tm, fm = compile_text(
            """
            class A { P p[2]; }
            class P {
              int x in [0,3];
              constraint positive { x > 0; }
            }
            """
        )
        assert constraint_texts(fm) == ["p_x[1]>0", "p_x[2]>0"]

    def test_partial_array_fill_pins_constants_keeps_decisions(self):
        _tm, fm = compile_text(
            "class A { int a[3] in [0,9]; }",
            "int A.a := [7, _, 9];",
        )
        assert [v.name for v in fm.variables] == ["a"]
        assert constraint_texts(fm) == ["a[1]=7", "a[3]=9"]

    def test_missing_domain_for_decision_slot(self):
        model = parse_ok("class A { int x; }")
        tm, _ = analyze(model, None)
        with pytest.raises(FlattenError) as exc:
            flatten(tm)
        assert "no finite domain" in str(exc.value)

    def test_pin_outside_domain_rejected(self):
        model = parse_ok("class A { int a[2] in [0,5]; }")
        data = parse_data_ok("int A.a := [9, _];")
        tm, diags = analyze(model, data)
        assert tm is None
        assert [(d.severity, d.message, d.span.line, d.span.column) for d in diags] == [
            ("error", "assigned value 9 for 'A.a[1]' lies outside its domain", 1, 1)
        ]


class TestRemoveConditionals:
    def test_if_else_formula_shape(self):
        item = IfElse(
            expr("x < 1"),
            (Constraint(expr("y = 2")),),
            (Constraint(expr("y = 3")),),
        )
        formula = conditional_formula(item)
        assert formula == expr("(x < 1 -> y = 2) and (x < 1 or y = 3)")

    def test_if_without_else(self):
        item = IfElse(expr("x < 1"), (Constraint(expr("y = 2")),), None)
        assert conditional_formula(item) == expr("x < 1 -> y = 2")

    def test_true_guard_not_simplified(self):
        item = IfElse(expr("true"), (Constraint(expr("x = 1")),), None)
        assert conditional_formula(item) == expr("true -> x = 1")

    def test_ternary_truth_table_exhaustive(self):
        item = IfElse(
            expr("a"), (Constraint(expr("b")),), (Constraint(expr("c")),)
        )
        (formula_of,) = compile_formulas("abc", conditional_formula(item))
        for a, b, c in itertools.product([False, True], repeat=3):
            direct = b if a else c
            assert formula_of((a, b, c)) == direct

    def test_in_pipeline(self):
        _tm, fm = compile_text(
            """
            class A {
              int x in [0,3];
              int y in [0,3];
              constraint z { if (x < 1) y = 2 else y = 3; }
            }
            """
        )
        assert constraint_texts(fm) == ["(x<1 -> y=2) and (x<1 or y=3)"]


class TestNormalizeLogic:
    def test_iff(self):
        assert normalize_expr(expr("a <-> b")) == expr("(a -> b) and (b -> a)")

    def test_reverse_implication(self):
        assert normalize_expr(expr("a <- b")) == expr("b -> a")

    def test_untouched_formula(self):
        e = expr("a -> b and c")
        assert normalize_expr(e) == e

    def test_nested(self):
        got = normalize_expr(expr("(a <-> b) <- c"))
        want = expr("c -> ((a -> b) and (b -> a))")
        assert got == want

    def test_random_formulas_preserve_semantics(self):
        rng = random.Random(7)
        atoms = ["a", "b", "c", "d"]
        ops = ["and", "or", "xor", "->", "<-", "<->"]

        def gen(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(atoms)
            if rng.random() < 0.15:
                return f"not ({gen(depth - 1)})"
            return f"({gen(depth - 1)}) {rng.choice(ops)} ({gen(depth - 1)})"

        for _ in range(200):
            e = expr(gen(3))
            e_of, normalized_of = compile_formulas(atoms, e, normalize_expr(e))
            for bits in itertools.product([False, True], repeat=len(atoms)):
                assert e_of(bits) == normalized_of(bits)


class TestTransform:
    def test_identity_fn_returns_the_same_object(self):
        e = expr("q[i] <> q[j] + (j - i) and not (cardinality(s) in {1, 2})")
        assert transform(e, lambda node: node) is e
        assert fold_expr(e) is e

    def test_one_leaf_change_rebuilds_only_the_spine(self):
        e = expr("(a + b) * c[d + 1]")

        def repl(node):
            if isinstance(node, Ref) and node.simple_name == "d":
                return IntLit(2)
            return node

        out = transform(e, repl)
        assert render_expr(out) == "(a+b)*c[2+1]"
        assert render_expr(e) == "(a+b)*c[d+1]"
        # rebuilt: the path from the root down to the changed leaf
        old_index, new_index = e.right.parts[0].indices[0], out.right.parts[0].indices[0]
        assert out is not e
        assert out.right is not e.right
        assert new_index is not old_index
        # shared: everything off that path
        assert out.left is e.left
        assert new_index.right is old_index.right


class TestFold:
    def test_literal_arithmetic_agrees_with_the_evaluator(self):
        values = [IntLit(v) for v in (-7, -2, 0, 1, 3, 6)]
        values += [RealLit(v) for v in (-1.5, 0.0, 0.25, 2.0)]
        for op in ("+", "-", "*", "/"):
            for a, b in itertools.product(values, repeat=2):
                e = BinOp(op, a, b)
                folded = fold_expr(e)
                try:
                    value = eval_expr(e, {})
                except EvalError:
                    assert folded is e, render_expr(e)
                    continue
                assert isinstance(folded, (IntLit, RealLit)), render_expr(e)
                assert type(folded.value) is type(value) and folded.value == value

    def test_inexact_and_zero_division_stay_unfolded(self):
        for text in ("7/2", "1/0", "1.5/0"):
            e = expr(text)
            assert fold_expr(e) is e
        assert render_expr(fold_expr(expr("x + 7/2 + 6/3"))) == "x+7/2+2"


class TestDeterminism:
    def test_flatten_twice_identical_text(self):
        from scomma.backend import compile_to_target, find_target

        flat = find_target("flat")
        _tm, fm1, _ = compile_corpus("stable")
        _tm, fm2, _ = compile_corpus("stable")
        assert compile_to_target(fm1, flat) == compile_to_target(fm2, flat)


class TestObjectivePassThrough:
    def test_objective_survives_with_rewritten_expr(self):
        _tm, fm, _ = compile_corpus("production")
        assert fm.objective is not None
        assert fm.objective.kind == "maximize"
        assert "make[1]" in render_expr(fm.objective.expr)

    def test_duplicated_objective_after_expansion_rejected(self):
        model = parse_ok(
            """
            class A { P p[2]; }
            class P {
              int x in [0,3];
              constraint best { [minimize] x; }
            }
            """
        )
        tm, diags = analyze(model, None)
        if tm is None:
            assert any("at most one" in d.message for d in diags)
            return
        with pytest.raises(FlattenError):
            flatten(tm)
