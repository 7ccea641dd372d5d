"""Data values read in the enums their declarations name.

Two small enums are drawn over one overlapping label pool, so a label or a
set of keys often belongs to both, in different positions.  The model holds
an enum-typed scalar assigned a label, and an object array over the larger
enum whose keyed literal covers a random subset of that enum's labels; each
object holds a two-cell array, and a drawn cell may be ``_``, so an array is
data, decisions or both; at most ``DECIDED`` objects hold a decision.  A
keyed constant over the same enum caps each object's first cell.  The
solver, flat brute force and the model interpreter must all give the
solution set the test computes from the drawn data itself.
"""

from __future__ import annotations

import itertools

from hypothesis import assume, given, settings, strategies as st

from conftest import compile_text
from scomma.interp import ModelInterpreter, flat_solution_set
from scomma.ir import flatness_violations
from scomma.solver import build_space, solve

POOL = ("a", "b", "c", "d")
TOP = 2  # each cell lies in [0, TOP]
DECIDED = 3  # objects whose array holds a decision, at most


def model_text(scalar_enum: str, axis_enum: str) -> str:
    return f"""
class R {{
  {scalar_enum} pick;
  {scalar_enum} free;
  P p[{axis_enum}];
  constraint c {{
    free = pick;
    forall(i in {axis_enum}) p[i].w[1] <= cap[i];
    forall(i in {axis_enum}) p[i].w[2] <> p[i].w[1];
    forall(i in 1..n - 1) p[i].w[1] <= p[i + 1].w[1];
  }}
}}
class P {{ int w[2] in [0,{TOP}]; }}
"""


@st.composite
def instances(draw):
    enums = [tuple(draw(st.permutations(POOL))[: draw(st.integers(2, 4))]) for _ in range(2)]
    big = enums[1] if len(enums[1]) >= len(enums[0]) else enums[0]
    scalar = draw(st.sampled_from(enums))
    label = draw(st.sampled_from(scalar))
    keys = draw(st.lists(st.sampled_from(big), min_size=1, max_size=len(big), unique=True))
    cell = st.none() | st.integers(0, TOP)  # None is a '_'
    values = {k: (draw(cell), draw(cell)) for k in keys}
    # every cell of a decided object is a slot over [0, TOP], so the oracles
    # that enumerate try at most 4 * (TOP + 1) ** (2 * DECIDED) candidates
    assume(len(big) - sum(None not in pair for pair in values.values()) <= DECIDED)
    caps = {k: draw(st.integers(0, TOP)) for k in draw(st.permutations(big))}
    return enums, big, scalar, label, values, caps


def sources(enums, big, scalar, label, values, caps):
    names = {enums[0]: "E1", enums[1]: "E2"}  # equal enums share one name
    data = "".join(f"enum E{i} := {{{', '.join(e)}}};\n" for i, e in enumerate(enums, 1))
    data += f"int n := {len(big)};\n"
    data += f"int cap[{names[big]}] := [{', '.join(f'{k}: {v}' for k, v in caps.items())}];\n"
    data += f"{names[scalar]} R.pick := {label};\n"
    cells = {k: ", ".join("_" if v is None else str(v) for v in pair) for k, pair in values.items()}
    data += f"P R.p := [{', '.join(f'{k}: {{[{c}]}}' for k, c in cells.items())}];\n"
    return model_text(names[scalar], names[big]), data


def expected(big, scalar, label, values, caps):
    """The solution set read from the drawn data, positions by ``big``.  An
    object's array is one decision unless the data fills both its cells, and
    then its data cells are pinned."""
    data = {(i, j): v for i, k in enumerate(big, 1)
            for j, v in enumerate(values.get(k, (None, None)), 1)}
    free = [cell for cell, v in data.items() if v is None]
    decided = {i for i, _ in free}
    out = set()
    for choice in itertools.product(range(TOP + 1), repeat=len(free)):
        w = dict(data)
        w.update(zip(free, choice))
        firsts = [w[i, 1] for i in range(1, len(big) + 1)]
        if all(w[i, 1] <= caps[k] and w[i, 2] != w[i, 1] for i, k in enumerate(big, 1)) \
                and firsts == sorted(firsts):
            sol = {(f"p_{i}_w", (j,)): w[i, j] for i, j in w if i in decided}
            sol[("free", ())] = scalar.index(label) + 1
            out.add(frozenset(sol.items()))
    return out


@settings(max_examples=120)
@given(instances())
def test_three_oracles_agree_with_the_drawn_data(instance):
    enums, big, scalar, label, values, caps = instance
    tm, fm = compile_text(*sources(*instance))
    assert flatness_violations(fm) == []
    flat = flat_solution_set(fm)
    assert {s.as_frozen() for s in solve(build_space(fm))} == flat
    assert ModelInterpreter(tm).solution_set() == flat
    assert flat == expected(big, scalar, label, values, caps)
