"""Property: on small models of comparisons, the solver finds exactly the
solutions that brute force over the flat model finds.

Each model has 2-3 integer variables with domains inside [-3,3] and 1-3
constraints.  A constraint is a comparison ``a op b + k``, posted on its own
or placed under ``not``, ``or`` or ``->``.  Under a connective the
comparison is reified, so every operator reaches both the positive and the
negated branch of the reified propagator and its entailment test; posted on
its own it is the plain propagator.  An operand of ``or`` or ``->`` is
sometimes ``true`` or ``false``, a constant cell of the gate: ``true``'s
cell holds 1 at base 1, which the gate must read as 1.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from conftest import compile_text
from scomma.interp import flat_solution_set
from scomma.solver import build_space, solve

OPS = ("<", "<=", ">", ">=", "=", "<>")


@st.composite
def comparisons(draw, names):
    a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
    k = draw(st.integers(-3, 3))
    right = b if k == 0 else f"{b} + {k}" if k > 0 else f"{b} - {-k}"
    return f"{a} {draw(st.sampled_from(OPS))} {right}"


def operands(names):
    return st.one_of(comparisons(names), st.sampled_from(("true", "false")))


@st.composite
def models(draw):
    names = ("x", "y", "z")[: draw(st.integers(2, 3))]
    lines = []
    for name in names:
        lo = draw(st.integers(-3, 3))
        lines.append(f"  int {name} in [{lo},{draw(st.integers(lo, 3))}];")
    constraints = []
    for _ in range(draw(st.integers(1, 3))):
        form = draw(st.sampled_from(("direct", "not", "or", "->")))
        if form == "direct":
            constraints.append(draw(comparisons(names)))
        elif form == "not":
            constraints.append(f"not ({draw(comparisons(names))})")
        else:
            left, right = draw(operands(names)), draw(operands(names))
            constraints.append(f"({left}) {form} ({right})")
    body = "\n".join(f"    {c};" for c in constraints)
    return "class M {\n" + "\n".join(lines) + f"\n  constraint c {{\n{body}\n  }}\n}}\n"


@given(models())
def test_solver_solutions_equal_flat_brute_force(model):
    _tm, fm = compile_text(model)
    found = [s.as_frozen() for s in solve(build_space(fm))]
    assert len(found) == len(set(found))
    assert set(found) == flat_solution_set(fm)
