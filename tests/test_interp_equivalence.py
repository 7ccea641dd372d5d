"""Semantics preservation: flat-model brute force vs the direct interpreter."""


from conftest import FIXTURES, compile_corpus, compile_text, parse_data_ok, parse_ok
from scomma.analyzer import analyze
from scomma.flattener import flatten
from scomma.interp import ModelInterpreter, count_candidates, flat_solution_set

LIMIT = 10**6


def assert_equivalent(tm, fm):
    assert count_candidates(fm) <= LIMIT
    interp = ModelInterpreter(tm)
    assert interp.candidate_count() == count_candidates(fm)
    assert flat_solution_set(fm) == interp.solution_set()


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
