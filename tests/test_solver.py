import itertools

import pytest

from conftest import FIXTURES, compile_corpus, compile_text, parse_data_ok, parse_ok
from scomma.analyzer import analyze
from scomma.errors import ContractError, UnsupportedModelError
from scomma.evaluate import check_solution
from scomma.flattener import flatten
from scomma.interp import ModelInterpreter, flat_solution_set
from scomma.solver import (
    INPUT_ORDER,
    SearchConfig,
    _Ne,
    _ReifCmp,
    build_space,
    optimize,
    solve,
)


def corpus_with_data(name, data_file):
    from scomma.cli import corpus_dir

    model = parse_ok((corpus_dir() / f"{name}.scm").read_text())
    data = parse_data_ok((FIXTURES / data_file).read_text())
    tm, diags = analyze(model, data)
    assert tm is not None, [d.render() for d in diags]
    fm, _ = flatten(tm)
    return tm, fm


# -- independent oracles ------------------------------------------------------


def send_money_oracle():
    """All injective digit assignments satisfying SEND+MORE=MONEY."""
    out = []
    for digits in itertools.permutations(range(10), 8):
        s, e, n, d, m, o, r, y = digits
        if s == 0 or m == 0:
            continue
        send = 1000 * s + 100 * e + 10 * n + d
        more = 1000 * m + 100 * o + 10 * r + e
        money = 10000 * m + 1000 * o + 100 * n + 10 * e + y
        if send + more == money:
            out.append({"s": s, "e": e, "n": n, "d": d, "m": m, "o": o, "r": r, "y": y})
    return out


def queens_oracle(n):
    """All placements of n non-attacking queens, as row tuples by column,
    found by backtracking column by column."""
    solutions = set()

    def place(rows):
        col = len(rows)
        if col == n:
            solutions.add(tuple(rows))
            return
        for row in range(1, n + 1):
            if all(r != row and abs(r - row) != col - c for c, r in enumerate(rows)):
                place(rows + [row])

    place([])
    return solutions


STABLE_MAN_RANK = [
    [5, 1, 2, 4, 3],
    [4, 1, 3, 2, 5],
    [5, 3, 2, 4, 1],
    [1, 5, 4, 3, 2],
    [4, 3, 2, 1, 5],
]
STABLE_WOMAN_RANK = [
    [1, 2, 4, 3, 5],
    [3, 5, 1, 2, 4],
    [5, 4, 2, 1, 3],
    [1, 3, 5, 4, 2],
    [4, 2, 3, 5, 1],
]


def stable_matchings_oracle():
    """Enumerate all 120 perfect matchings and keep the stable ones."""
    stable = set()
    for perm in itertools.permutations(range(5)):
        ok = True
        for m in range(5):
            for w in range(5):
                if perm[m] == w:
                    continue
                husband = perm.index(w)
                if (
                    STABLE_MAN_RANK[m][w] < STABLE_MAN_RANK[m][perm[m]]
                    and STABLE_WOMAN_RANK[w][m] < STABLE_WOMAN_RANK[w][husband]
                ):
                    ok = False
        if ok:
            stable.add(tuple(p + 1 for p in perm))
    return stable


# -- build_space ----------------------------------------------------------------


class TestBuildSpace:
    def test_stable_space_shape(self, stable):
        _tm, fm = stable
        space = build_space(fm)
        assert len(space.decision_cells) == 10
        assert len(space.props) >= 60

    def test_single_var_no_constraints(self):
        _tm, fm = compile_text("class A { int x in [1,3]; }")
        space = build_space(fm)
        (name, idx, cell), = space.decision_cells
        assert (name, idx) == ("x", ())
        assert space.cell_values(cell) == [1, 2, 3]

    def test_set_variables_unsupported(self):
        _tm, fm, _ = compile_corpus("golfers")
        with pytest.raises(UnsupportedModelError) as exc:
            build_space(fm)
        assert any("set-of-int" in c for c in exc.value.constructs)

    def test_real_variables_unsupported(self):
        _tm, fm = compile_text((FIXTURES / "mix-real.scm").read_text())
        with pytest.raises(UnsupportedModelError) as exc:
            build_space(fm)
        assert any("real" in c for c in exc.value.constructs)

    def test_cumulatives_unsupported(self):
        _tm, fm = compile_text(
            """
            class A {
              int a[2] in [0,3];
              constraint z { cumulatives(a, a, a); }
            }
            """
        )
        with pytest.raises(UnsupportedModelError) as exc:
            build_space(fm)
        assert any("cumulatives" in c for c in exc.value.constructs)


# -- search correctness -----------------------------------------------------------


class TestSearch:
    def test_send_unique_solution_matches_oracle(self):
        oracle = send_money_oracle()
        assert len(oracle) == 1
        _tm, fm, _ = compile_corpus("send")
        search = solve(build_space(fm))
        solutions = list(search)
        assert len(solutions) == 1
        got = {k[0]: v for k, v in solutions[0].values.items()}
        assert got == oracle[0]
        assert got == {"s": 9, "e": 5, "n": 6, "d": 7, "m": 1, "o": 0, "r": 8, "y": 2}

    def test_ten_queens_full_enumeration(self):
        oracle = queens_oracle(10)
        assert len(oracle) == 724
        _tm, fm, _ = compile_corpus("queens-10")
        rows = [tuple(s.values[("q", (i,))] for i in range(1, 11))
                for s in solve(build_space(fm))]
        assert len(rows) == 724
        assert set(rows) == oracle

    def test_five_queens_matches_both_oracles(self):
        tm, fm = corpus_with_data("queens-10", "queens-5.dat")
        search = solve(build_space(fm))
        solver_set = {tuple(s.values[("q", (i,))] for i in range(1, 6)) for s in search}
        assert solver_set == queens_oracle(5)
        assert len(solver_set) == 10
        brute = {
            tuple(dict(fs)[("q", (i,))] for i in range(1, 6))
            for fs in flat_solution_set(fm)
        }
        assert solver_set == brute

    def test_stable_solutions_are_exactly_the_stable_matchings(self, stable):
        _tm, fm = stable
        oracle = stable_matchings_oracle()
        search = solve(build_space(fm))
        got = set()
        for sol in search:
            wife = tuple(sol.values[("man_wife", (i,))] for i in range(1, 6))
            husband = tuple(sol.values[("woman_husband", (i,))] for i in range(1, 6))
            # the husband table must be the inverse permutation
            assert all(wife[husband[w - 1] - 1] == w for w in range(1, 6))
            got.add(wife)
        assert got == oracle

    def test_completeness_on_small_instances(self):
        tm, fm = corpus_with_data("stable", "stable3.dat")
        solver_count = sum(1 for _ in solve(build_space(fm)))
        assert solver_count == len(flat_solution_set(fm))

    def test_every_solution_passes_check(self):
        _tm, fm, _ = compile_corpus("packing")
        search = solve(build_space(fm), SearchConfig(solution_limit=5))
        for sol in search:
            ok, violations = check_solution(fm, sol)
            assert ok, violations

    def test_infeasible_model_yields_nothing(self):
        _tm, fm = compile_text(
            "class A { int x in [1,1]; constraint z { x > 1; } }"
        )
        assert list(solve(build_space(fm))) == []

    def test_product_with_a_zero_factor(self):
        # a fixed factor of 0 makes a linear term with coefficient 0
        _tm, fm = compile_text(
            "class A { int a in [0,0]; int b in [-2,2]; constraint z { a * b >= b; } }"
        )
        assert sorted(s.values[("b", ())] for s in solve(build_space(fm))) == [-2, -1, 0]

    def test_solution_limit_sets_truncated(self):
        _tm, fm, _ = compile_corpus("queens-10")
        search = solve(build_space(fm), SearchConfig(solution_limit=3))
        assert len(list(search)) == 3
        assert search.truncated

    def test_time_limit_truncates_without_error(self):
        _tm, fm, _ = compile_corpus("queens-18")
        search = solve(build_space(fm), SearchConfig(time_limit=0.05))
        list(search)
        assert search.truncated or search.stats.nodes > 0

    def test_input_order_and_value_max_strategies(self):
        _tm, fm = compile_text("class A { int x in [1,3]; int y in [1,2]; }")
        search = solve(build_space(fm), SearchConfig(var_order=INPUT_ORDER,
                                                     value_order="max"))
        first = next(iter(search))
        assert first.values[("x", ())] == 3
        assert first.values[("y", ())] == 2


class TestStatsAndDeterminism:
    def test_failures_bounded_by_nodes(self):
        _tm, fm, _ = compile_corpus("send")
        search = solve(build_space(fm))
        list(search)
        assert 0 <= search.stats.failures <= search.stats.nodes

    def test_identical_stats_across_runs(self):
        def run():
            _tm, fm, _ = compile_corpus("stable")
            search = solve(build_space(fm), SearchConfig())
            count = sum(1 for _ in search)
            return count, search.stats.nodes, search.stats.failures, search.stats.propagations

        assert run() == run()

    def test_propagation_reaches_fixpoint(self, stable):
        _tm, fm = stable
        space = build_space(fm)
        assert space.propagate()
        masks = list(space.mask)
        assert space.propagate()  # no queued work: nothing may change
        assert masks == list(space.mask)

    def test_domains_only_shrink_during_propagation(self):
        _tm, fm, _ = compile_corpus("send")
        space = build_space(fm)
        before = [space.cell_size(c) for _, _, c in space.decision_cells]
        assert space.propagate()
        after = [space.cell_size(c) for _, _, c in space.decision_cells]
        assert all(a <= b for a, b in zip(after, before))


class TestOptimize:
    def test_unconstrained_minimum_is_lower_bound(self):
        _tm, fm = compile_text(
            "class A { int x in [3,7]; constraint z { [minimize] x; } }"
        )
        best, _stats = optimize(build_space(fm))
        assert best.values[("x", ())] == 3
        assert best.objective_value == 3

    def test_forced_minimum(self):
        _tm, fm = compile_text(
            """
            class A {
              int x in [1,3];
              int y in [1,3];
              constraint z { x + y > 3; [minimize] x + y; }
            }
            """
        )
        best, _ = optimize(build_space(fm))
        assert best.objective_value == 4

    def test_production_optimum_equals_exhaustive_search(self):
        tm, fm, _ = compile_corpus("production")
        best, _ = optimize(build_space(fm))
        kind, brute_best = ModelInterpreter(tm).optimum()
        assert kind == "maximize"
        assert best.objective_value == brute_best

    def test_component_objective_equals_exhaustive_search(self):
        # the objective is declared in the class of a component, not the root
        tm, fm = compile_text(
            "class R { A a; int y in [0,2]; constraint c { y <> a.v; } }\n"
            "class A { int v in [0,2]; constraint z { [minimize] v; } }"
        )
        best, _ = optimize(build_space(fm))
        assert ModelInterpreter(tm).optimum() == ("minimize", best.objective_value)
        assert best.objective_value == 0

    def test_infeasible_returns_none(self):
        _tm, fm = compile_text(
            "class A { int x in [1,1]; constraint z { x > 1; [minimize] x; } }"
        )
        best, _stats = optimize(build_space(fm))
        assert best is None

    def test_optimize_requires_objective(self):
        _tm, fm = compile_text("class A { int x in [1,3]; }")
        with pytest.raises(ContractError):
            optimize(build_space(fm))


class TestCompletenessOnCorpus:
    @pytest.mark.parametrize("name", ["ineq20", "production"])
    def test_solution_count_matches_brute_force(self, name):
        # the two shipped models inside the enumeration budget
        _tm, fm, _ = compile_corpus(name)
        brute = len(flat_solution_set(fm))
        solver_count = sum(1 for _ in solve(build_space(fm)))
        assert solver_count == brute


def test_gate_reads_a_constant_operand_at_its_own_base():
    # `true` compiles to a constant cell whose base is 1, not 0: a gate that
    # read its mask as if the base were 0 would take it for `false`, and
    # `b or true` would force b, losing the solution with b false
    _tm, fm = compile_text(
        "class A { bool b; bool c; constraint z { b or true; c -> false; } }"
    )
    found = [s.as_frozen() for s in solve(build_space(fm))]
    assert len(found) == 2
    assert set(found) == flat_solution_set(fm)


class TestRootNotEqual:
    """The root ``<>`` over one pair of cells share one ``_Ne``."""

    MODEL = "class A {{ int x in [0,5]; int y in [0,5]; int z in [0,5]; constraint c {{ {} }} }}"

    def space(self, body):
        _tm, fm = compile_text(self.MODEL.format(body))
        return fm, build_space(fm)

    def test_one_propagator_per_pair(self):
        fm, space = self.space("x <> y; y <> x + 2; x <> y; x <> z - 1;")
        nes = [p for p in space.props if type(p) is _Ne]
        assert len(space.props) == len(nes) == 2
        # y <> x + 2 is read as x <> y - 2
        assert [(p.x, p.y, p.offsets) for p in nes] == [(0, 1, {0, -2}), (0, 2, {-1})]
        assert {s.as_frozen() for s in solve(space)} == flat_solution_set(fm)

    def test_a_fixed_side_removes_every_offset(self):
        _fm, space = self.space("x <> y - 1; x <> y; y <> x - 1; x <> y + 3;")
        assert space.propagate()
        space.assign(0, 2)
        assert space.propagate()
        assert space.cell_values(1) == [0, 4, 5]  # not 3, 2, 1 or -1
        assert space.cell_values(0) == [2]

    def test_reified_not_equal_is_not_merged(self):
        fm, space = self.space("x <> y; not (x <> y + 1); x <> y + 2 or z = 1;")
        # the other _Ne (over a reified cell and its negation) are `not` gates
        roots = [p for p in space.props if type(p) is _Ne and p.cells == (0, 1)]
        assert [p.offsets for p in roots] == [{0}]
        reified = [p.rel for p in space.props if type(p) is _ReifCmp and type(p.rel) is _Ne]
        assert [(r.d, r.offsets) for r in reified] == [(1, {1}), (2, {2})]
        assert {s.as_frozen() for s in solve(space)} == flat_solution_set(fm)
