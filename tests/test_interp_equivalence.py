"""Semantics preservation: flat-model brute force vs the direct interpreter."""

import itertools

from conftest import FIXTURES, compile_corpus, compile_text, parse_data_ok, parse_ok
from scomma.analyzer import analyze
from scomma.cli import corpus_dir
from scomma.evaluate import compile_check
from scomma.flattener import flatten
from scomma.interp import (
    ModelInterpreter,
    backtrack,
    count_candidates,
    enumerate_flat,
    flat_solution_set,
)
from scomma.ir import BOOL, SET, iter_indices
from scomma.solver import build_space, solve

LIMIT = 10**6


def assert_equivalent(tm, fm):
    assert count_candidates(fm) <= LIMIT
    interp = ModelInterpreter(tm)
    assert interp.candidate_count() == count_candidates(fm)
    assert flat_solution_set(fm) == interp.solution_set()
    assert_generate_and_test_order(fm)


def assert_generate_and_test_order(fm):
    """``enumerate_flat`` finds what testing every candidate of the full
    product against the compiled constraints finds, in the same order."""
    keys, domains = [], []
    for var in fm.variables:
        if var.base == BOOL:
            dom = [False, True]
        elif var.base == SET:
            universe = list(var.domain.values())
            dom = [frozenset(u for i, u in enumerate(universe) if mask >> i & 1)
                   for mask in range(1 << len(universe))]
        else:
            dom = list(var.domain.values())
        for idx in iter_indices(var.shape):
            keys.append((var.name, idx))
            domains.append(dom)
    constraints = compile_check(fm)[2]
    reference = [dict(zip(keys, combo)) for combo in itertools.product(*domains)
                 if all(holds(combo) for holds in constraints)]
    assert [s.values for s in enumerate_flat(fm)] == reference


def corpus_with_fixture_data(name, data_file):
    model = parse_ok((__import__("scomma.cli", fromlist=["corpus_dir"]).corpus_dir() / f"{name}.scm").read_text())
    data = parse_data_ok((FIXTURES / data_file).read_text())
    tm, diags = analyze(model, data)
    assert tm is not None, [d.render() for d in diags]
    fm, _ = flatten(tm)
    return tm, fm


class TestCorpusModelsWithinBudget:
    def test_ineq20(self):
        tm, fm, _ = compile_corpus("ineq20")
        assert_equivalent(tm, fm)

    def test_production_satisfaction_set(self):
        tm, fm, _ = compile_corpus("production")
        assert_equivalent(tm, fm)


class TestReducedInstances:
    def test_stable_three_couples(self):
        tm, fm = corpus_with_fixture_data("stable", "stable3.dat")
        assert_equivalent(tm, fm)

    def test_queens_five(self):
        tm, fm = corpus_with_fixture_data("queens-10", "queens-5.dat")
        assert_equivalent(tm, fm)
        assert len(flat_solution_set(fm)) == 10  # classic 5-queens count

    def test_packing_mini_exercises_conditionals(self):
        tm, fm = corpus_with_fixture_data("packing", "packing-mini.dat")
        assert_equivalent(tm, fm)
        assert len(flat_solution_set(fm)) > 0

    def test_golfers_tiny_exercises_sets(self):
        tm, fm = corpus_with_fixture_data("golfers", "golfers-tiny.dat")
        assert_equivalent(tm, fm)
        assert len(flat_solution_set(fm)) == 4  # 2 singleton partitions per week

    def test_mixed_features_model(self):
        tm, fm = compile_text(
            """
            class Plant {
              Unit unit[2];
              int target in [0, 9];

              constraint wiring {
                forall(i in 1..2) {
                  if (unit[i].on) unit[i].load >= 1 else unit[i].load <= 0;
                }
                unit[1].load + unit[2].load = target;
                unit[1].on or unit[2].on;
                unit[1].on xor unit[2].on;
                (unit[1].on <-> unit[2].on) <- false;
              }
            }
            class Unit {
              bool on;
              int load in [0, 3];
            }
            """,
            "int Plant.target := 3;",
        )
        assert_equivalent(tm, fm)


class TestDataValues:
    """Both oracles read data as analysis resolved it."""

    def test_label_reads_in_the_enum_its_declaration_names(self):
        tm, fm = compile_text(
            "class R {\n  B pick;\n  B free;\n  constraint c { free = pick; }\n}",
            "enum A := {x, y};\nenum B := {y, x, z};\nB R.pick := x;\n",
        )
        assert_equivalent(tm, fm)
        assert flat_solution_set(fm) == {frozenset({(("free", ()), 2)})}

    def test_keys_are_laid_out_by_the_axis_enum(self):
        # the keys fit the smaller enum too; p[2] (label z) is the gap.  The
        # objects hold whole arrays, so each is data or decisions throughout.
        tm, fm = compile_text(
            "class R {\n  P p[Big];\n"
            "  constraint c { forall(i in 1..2) p[2].w[i] <= p[3].w[i]; }\n}\n"
            "class P { int w[2] in [0,1]; }",
            "enum Small := {x, y};\nenum Big := {y, z, x};\n"
            "P R.p := [x: {[1, 0]}, y: {[0, 1]}];\n",
        )
        assert_equivalent(tm, fm)
        assert flat_solution_set(fm) == {
            frozenset({(("p_2_w", (1,)), 0), (("p_2_w", (2,)), 0)}),
            frozenset({(("p_2_w", (1,)), 1), (("p_2_w", (2,)), 0)}),
        }

    def test_a_partly_assigned_array_is_one_decision_with_its_data_pinned(self):
        tm, fm = compile_text(
            "class R {\n  int v[3] in [0,3];\n  constraint c { v[3] <= 1; }\n}",
            "int R.v := [1, 2, _];\n",
        )
        assert_equivalent(tm, fm)
        assert count_candidates(fm) == 64
        assert flat_solution_set(fm) == {
            frozenset({(("v", (1,)), 1), (("v", (2,)), 2), (("v", (3,)), v)}) for v in (0, 1)
        }

    def test_a_partly_assigned_grouped_scalar_is_one_decision_with_its_data_pinned(self):
        tm, fm = compile_text(
            "class R {\n  P p[3];\n  constraint c { p[2].x <> p[1].x; p[1].x < p[3].x; }\n}\n"
            "class P { int x in [0,2]; }",
            "P R.p := [{1}, _, {2}];\n",
        )
        assert_equivalent(tm, fm)
        assert count_candidates(fm) == 27
        assert flat_solution_set(fm) == {
            frozenset({(("p_x", (1,)), 1), (("p_x", (2,)), x), (("p_x", (3,)), 2)})
            for x in (0, 2)
        }

    def test_object_arrays_nest_with_the_flattener_naming(self):
        tm, fm = compile_text(
            "class R {\n  Q q[2];\n  constraint c { q[1].p[2].x < q[2].p[1].x; }\n}\n"
            "class Q { P p[2]; }\nclass P { int x in [0,2]; }",
            "Q R.q := [{[{1}, _]}, _];\n",
        )
        assert_equivalent(tm, fm)
        assert [v.name for v in fm.variables] == ["q_1_p_x", "q_2_p_x"]
        assert len(flat_solution_set(fm)) == 9


class TestQueensEight:
    """8^8 candidates: only a backtracking oracle gets through them in a test."""

    def test_both_oracles_return_the_solvers_92_solutions(self):
        model = (corpus_dir() / "queens-10.scm").read_text()
        tm, diags = analyze(parse_ok(model), parse_data_ok("int n := 8;"))
        assert tm is not None, [d.render() for d in diags]
        fm, _ = flatten(tm)
        interp = ModelInterpreter(tm)
        assert count_candidates(fm) == interp.candidate_count() == 16_777_216
        solver = {s.as_frozen() for s in solve(build_space(fm))}
        assert len(solver) == 92
        assert flat_solution_set(fm) == solver
        assert interp.solution_set() == solver


class TestConstantShadowing:
    """A loop variable, then an attribute, then a constant: the flattener
    resolves a name as analysis and the interpreter do."""

    def test_a_loop_variable_shadows_a_constant(self):
        tm, fm = compile_text(
            "class R { int x[3] in [0,9]; constraint c { forall (n in 1..3) { x[n] = n; } } }",
            "int n := 2;",
        )
        assert_equivalent(tm, fm)
        assert flat_solution_set(fm) == {
            frozenset({(("x", (1,)), 1), (("x", (2,)), 2), (("x", (3,)), 3)})
        }

    def test_an_attribute_shadows_a_constant(self):
        tm, fm = compile_text(
            "class R { int t[3] in [0,9]; int x in [0,9]; int n in [0,9];"
            " constraint c { x = t[1]; x = n; } }",
            "int t[3] := [7,8,9]; int n := 4;",
        )
        assert_equivalent(tm, fm)
        assert len(flat_solution_set(fm)) == 1000

    def test_a_loop_range_inside_a_loop_over_the_name_reads_the_loop_variable(self):
        tm, fm = compile_text(
            "class R { int x[3] in [0,3]; constraint c {"
            " forall (n in 1..2) { forall (i in 1..n) { x[i] >= n; } } x[3] = n; } }",
            "int n := 3;",
        )
        assert_equivalent(tm, fm)
        assert len(flat_solution_set(fm)) == 4

    def test_a_component_attribute_shadows_a_constant_in_its_own_class_only(self):
        tm, fm = compile_text(
            "class R { P p[2]; int n in [0,1]; constraint c { p[1].v = n; } }\n"
            "class P { int v in [0,2]; int n in [1,2]; constraint d { v <> n; } }",
            "int n := 0;",
        )
        assert_equivalent(tm, fm)

    def test_a_flat_name_does_not_read_the_constant_table_it_shares_a_name_with(self):
        tm, fm = compile_text(
            "class R { P p; int t[2] in [0,1]; constraint c { p.v = t[1] + t[2]; } }\n"
            "class P { int v in [0,2]; constraint d { v <> t[1]; } }",
            "int t[2] := [1, 1];",
        )
        assert_equivalent(tm, fm)
        assert len(flat_solution_set(fm)) == 2


class TestBacktrack:
    def test_a_check_runs_once_per_value_of_the_last_slot_it_reads(self):
        calls = []

        def first_is_not_one(values):
            calls.append(values[0])
            return values[0] != 1

        domains = [[0, 1, 2]] * 3
        found = list(backtrack(domains, [(first_is_not_one, frozenset({0}))]))
        assert calls == [0, 1, 2]
        assert found == [c for c in itertools.product(*domains) if c[0] != 1]

    def test_a_check_that_reads_no_slot_runs_before_any_is_assigned(self):
        assert list(backtrack([[0, 1]], [(lambda values: False, frozenset())])) == []
        assert list(backtrack([], [(lambda values: True, frozenset())])) == [()]
        assert list(backtrack([[0, 1], []], [])) == []
