"""Property: propagation wakes every propagator that a change can make prune.

Each propagator names one propagation condition (fix, bounds or domain), and
a domain change wakes only the propagators whose condition it meets; an
entailed propagator is parked until backtracking.  If a condition were
narrower than the propagator's filtering needs, or a propagator were parked
while it could still prune, some propagator would be left short of its
fixpoint and ``propagate`` would return a state it has not finished.

So a depth-first walk over each model stops after every successful
``propagate()`` and runs every propagator once more, parked or live, under a
mark: no domain may change and nothing may fail.  The models are the corpus
models the solver accepts, and 300 generated models of 3-4 variables in
[-6,6] with 2-5 relations ``a op b + k`` between random pairs.  A term is
sometimes a sum, a product, or an element of a constant table or of a
variable array; a relation is sometimes reified under ``not``, ``or`` or
``->``; and some models add an ``alldifferent``.  Each of these faults
leaves some of the models short of a fixpoint: ``<=``, ``>=``, a linear sum
or a product woken on fix only; ``=``, an element or a reified ``=``/``<>``
woken on bounds only; ``<>`` parked before a side is fixed, or never
released on backtracking.  ``alldifferent`` woken on fix only is not
caught: only its pigeonhole check reads more than the fixed values, and it
seldom fires on these domains.
"""

from __future__ import annotations

import random

import pytest

from conftest import compile_corpus, compile_text
from scomma.solver import _Fail, build_space

SOLVABLE = ["ineq20", "packing", "production", "queens-10", "queens-18",
            "send", "stable", "sudoku"]
# "=" and "<>" twice as often: their holes in the middle of a domain are the
# events that only domain propagators see
OPS = ("<", "<=", ">", ">=", "=", "<>", "=", "<>")
TABLE = "int t[6] := [3, -2, 5, 0, -4, 1];"
NODE_BUDGET = 150


def idle_after_fixpoint(space) -> str | None:
    """Run every propagator once at the current fixpoint; the first one that
    prunes or fails, or None."""
    before = list(space.mask)
    for prop_id, prop in enumerate(space.props):
        mark = space.mark()
        try:
            prop.run(space)
        except _Fail:
            return f"propagator {prop_id} ({type(prop).__name__}) fails"
        if space.mask != before:
            changed = [c for c, m in enumerate(space.mask) if m != before[c]]
            return f"propagator {prop_id} ({type(prop).__name__}) prunes cells {changed}"
        space.undo(mark)
    return None


def walk(space, budget: int = NODE_BUDGET) -> str | None:
    """Depth-first over the decision cells in input order, for at most
    ``budget`` nodes, checking every node that propagates without failure."""
    nodes = 0

    def visit() -> str | None:
        nonlocal nodes
        nodes += 1
        if not space.propagate():
            return None
        fault = idle_after_fixpoint(space)
        if fault is not None:
            return fault
        cell = next((c for _, _, c in space.decision_cells if not space.cell_fixed(c)), None)
        if cell is None:
            return None
        for v in space.cell_values(cell):
            if nodes >= budget:
                break
            mark = space.mark()
            space.assign(cell, v)
            fault = visit()
            space.undo(mark)
            if fault is not None:
                return f"{fault}, below cell {cell} = {v}"
        return None

    return None if space.root_failed else visit()


def small_model(rng: random.Random) -> str:
    names = ["a", "b", "c", "d"][: rng.randint(3, 4)]

    def term(name: str) -> str:
        shape = rng.random()
        if shape < 0.1:
            return f"{name} + {rng.choice(names)}"
        if shape < 0.2:
            return f"{name} * {rng.choice(names)}"
        if shape < 0.3:
            return f"t[{name}]"
        if shape < 0.35:
            return f"w[{name}]"
        return name

    def relation() -> str:
        a, b = rng.sample(names, 2)
        k = rng.randint(-3, 3)
        right = term(b) if k == 0 else f"{term(b)} + {k}" if k > 0 else f"{term(b)} - {-k}"
        return f"{term(a)} {rng.choice(OPS)} {right}"

    constraints = []
    for _ in range(rng.randint(2, 5)):
        form = rng.random()
        if form < 0.6:
            constraints.append(relation())
        elif form < 0.7:
            constraints.append(f"not ({relation()})")
        else:
            constraints.append(f"({relation()}) {rng.choice(('or', '->'))} ({relation()})")
    if rng.random() < 0.2:
        constraints.append(f"alldifferent([{', '.join(rng.sample(names, 3))}])")
    lines = [f"  int {name} in [-6,6];" for name in names]
    if any("w[" in c for c in constraints):
        lines.append("  int w[3] in [-6,6];")
    body = "\n".join(f"    {c};" for c in constraints)
    return "class M {\n" + "\n".join(lines) + f"\n  constraint c {{\n{body}\n  }}\n}}\n"


MODELS = [small_model(random.Random(seed)) for seed in range(300)]


@pytest.mark.parametrize("name", SOLVABLE)
def test_corpus_search_never_stops_short_of_fixpoint(name):
    space = build_space(compile_corpus(name)[1])
    assert walk(space) is None


def test_small_model_search_never_stops_short_of_fixpoint():
    faults = []
    for model in MODELS:
        fault = walk(build_space(compile_text(model, TABLE)[1]))
        if fault is not None:
            faults.append((fault, model))
    assert not faults, f"{len(faults)} of {len(MODELS)} models; first: {faults[0]}"
