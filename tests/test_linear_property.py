"""Linear sums in the embedded solver.

Each side of a comparison, and an objective, is read into one n-ary linear
propagator: repeated variables merge their coefficients, zero coefficients
drop, and literals go into the constant.  The properties compare the solver
with brute force over the flat model on sums of 1-40 terms over 2-3 integer
variables with domains inside [-3,3]: coefficients -3..3 (0 among them),
repeated variables, unary minus, ``-`` and constants on both sides.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from conftest import compile_text
from scomma.evaluate import eval_expr
from scomma.flatparse import parse_flat
from scomma.interp import enumerate_flat, flat_solution_set
from scomma.solver import SearchConfig, _Eq, _Le, _Linear, build_space, optimize, solve

OPS = ("<", "<=", ">", ">=", "=", "<>")


@st.composite
def terms(draw, names):
    v = draw(st.sampled_from(names))
    c = draw(st.integers(-3, 3))
    return draw(st.sampled_from((
        v, f"-{v}", f"{c}*{v}", f"{v}*{c}", f"-({c}*{v})", str(abs(c)),
    )))


@st.composite
def sums(draw, names):
    parts = draw(st.lists(terms(names), min_size=1, max_size=40))
    text = parts[0]
    for part in parts[1:]:
        text += f" {draw(st.sampled_from('+-'))} {part}"
    return text


@st.composite
def variables(draw):
    names = ("x", "y", "z")[: draw(st.integers(2, 3))]
    lines = []
    for name in names:
        lo = draw(st.integers(-3, 3))
        lines.append(f"  int {name} in [{lo},{draw(st.integers(lo, 3))}];")
    return names, "\n".join(lines)


def model(lines: str, constraints: list[str], objective: str | None = None) -> str:
    body = "\n".join(f"    {c};" for c in constraints)
    text = f"class M {{\n{lines}\n  constraint c {{\n{body}\n  }}\n"
    if objective is not None:
        text += f"  constraint goal {{\n    {objective};\n  }}\n"
    return text + "}\n"


@st.composite
def comparison_models(draw):
    names, lines = draw(variables())
    constraints = []
    for _ in range(draw(st.integers(1, 2))):
        c = f"{draw(sums(names))} {draw(st.sampled_from(OPS))} {draw(sums(names))}"
        constraints.append(f"not ({c})" if draw(st.booleans()) else c)
    return model(lines, constraints)


@st.composite
def objective_models(draw):
    names, lines = draw(variables())
    c = f"{draw(sums(names))} {draw(st.sampled_from(OPS))} {draw(sums(names))}"
    sense = draw(st.sampled_from(("maximize", "minimize")))
    return model(lines, [c], f"[{sense}] {draw(sums(names))}")


@settings(max_examples=150)
@given(comparison_models())
def test_solver_solutions_equal_flat_brute_force(text):
    _tm, fm = compile_text(text)
    found = [s.as_frozen() for s in solve(build_space(fm))]
    assert len(found) == len(set(found))
    assert set(found) == flat_solution_set(fm)


@settings(max_examples=100)
@given(objective_models())
def test_optimum_equals_flat_brute_force(text):
    _tm, fm = compile_text(text)
    best, _stats = optimize(build_space(fm))
    values = [eval_expr(fm.objective.expr, s) for s in enumerate_flat(fm)]
    if not values:
        assert best is None
    else:
        pick = max if fm.objective.kind == "maximize" else min
        assert best.objective_value == pick(values)


def props_of(text: str) -> list:
    return build_space(compile_text(text)[1]).props


def test_repeated_cells_merge_and_zero_coefficients_drop():
    # the left side comes to x + 3 and the right to 5: x <= 5 - 3
    props = props_of(model("  int x in [0,9];\n  int y in [0,9];",
                           ["2*x + y - x - y + 0*y + 3 <= 2*y - 2*y + 5"]))
    assert [type(p) for p in props] == [_Le]
    assert props[0].d == -3


def test_equal_sums_share_one_propagator():
    props = props_of(model("  int x in [0,9];\n  int y in [0,9];",
                           ["x + 2*y <= 9", "2*y + x + 1 >= 4"]))
    assert [type(p) for p in props] == [_Linear, _Le, _Le]


def test_a_long_sum_builds_one_linear_propagator():
    # a left-deep chain 5,000 terms long, read at the default recursion limit
    n = 5000
    text = (f"variables:\n  int x[{n}] in [0,1];\nconstraints:\n"
            + "+".join(f"x[{i}]" for i in range(1, n + 1)) + f" = {n // 2};\n")
    fm, diags = parse_flat(text)
    assert fm is not None, [d.render() for d in diags]
    space = build_space(fm)
    assert [type(p) for p in space.props] == [_Linear, _Eq]
    assert len(space.props[0].terms) == n
    assert space.propagate()
    # the first solution's check compiles and evaluates the sum without recursion
    first = list(solve(space, SearchConfig(solution_limit=1)))
    assert len(first) == 1 and sum(first[0].values.values()) == n // 2
