"""Pins of the embedded solver's work on fixed models.

For each model: the cells and propagators `build_space` creates, the nodes,
failures and propagator runs of the search, the number of solutions and the
SHA-256 of the solution sequence, in order.  Propagation strength and the
order of the search show in the nodes, failures and the digest; which
propagators a domain change wakes, which are parked as entailed, and the
order in which they are queued show in the propagator runs.  So a rewrite
of the solver that keeps these figures keeps its behaviour.

Every figure but the runs was recorded before the solver was rebuilt around
per-relation propagators and an iterative search, and holds unchanged
since.  The runs were re-recorded when propagation became event-based (a
propagator wakes only on the changes its condition names) with
subsumption; that reaches the same fixpoints, so nothing else moved.  They
were re-recorded once more when the count came to include the runs of every
node of the search, failing nodes after the last good one among them.

The cells, propagators and runs of the models with sums (ineq20,
production, send, knapsack) were re-recorded when each sum became one
n-ary linear propagator instead of an auxiliary cell and a two-term
propagator per ``+``, ``-`` and constant factor.  On these models the one
sum prunes what its chain of pieces pruned, so the nodes, failures and
solutions stayed as they were.

The propagators and runs of the queens models (queens-10, queens-10-inline,
queens-18, queens-50-first) were re-recorded when the root ``<>`` over one
pair of cells became one ``_Ne`` with a set of offsets instead of one
``_Ne`` per constraint: a queen pair's three constraints wake on the same
fix events and prune what the three did, so the nodes, failures and
solutions stayed as they were.
"""

from __future__ import annotations

import hashlib

import pytest

from conftest import compile_corpus, compile_text
from scomma.solver import SearchConfig, build_space, optimize, solve

QUEENS = """class Board {
  int row[n] in [1,n];
  constraint noAttack {
    forall(a in 1..n) {
      forall(b in a+1..n) {
        row[a] <> row[b] - (b-a);
        row[a] <> row[b];
        row[a] <> row[b] + (b-a);
      }
    }
  }
}
"""

KNAPSACK = """class Knapsack {
  int x[6] in [0,3];
  constraint capacity {
    7*x[1] + 3*x[2] + 12*x[3] + 5*x[4] + 9*x[5] + 2*x[6] <= 40;
    4*x[1] + 11*x[2] + 6*x[3] + 8*x[4] + 3*x[5] + 10*x[6] <= 45;
  }
  constraint profit {
    [maximize] 9*x[1] + 7*x[2] + 15*x[3] + 6*x[4] + 11*x[5] + 8*x[6];
  }
}
"""


def _corpus(name, data=None):
    return lambda: compile_corpus(name, data)[1]


def _inline(model, data=None):
    return lambda: compile_text(model, data)[1]


# name -> (flat model, search: "all" or "optimize", solution_limit,
#          (cells, propagators, nodes, failures, propagations, solutions, sha256))
PINS = {
    "ineq20": (_corpus("ineq20"), "all", None, (
        30, 36, 429, 6, 22037, 399,
        "0e74d2ef83ba2ec1d31070e34ae59de16c6c226c9174eabe679c43559792865e")),
    "packing": (_corpus("packing"), "all", 20, (
        472, 464, 211, 140, 22219, 20,
        "36d601c1b0c1031dfaa39c12db239e16c776ad6e65f56b3a5e440f74083460c1")),
    "production": (_corpus("production"), "all", None, (
        8, 5, 3944, 0, 31711, 3674,
        "fa2d656c456c974b9b2ac8d6a0f2395712cf6ba2e1968ae5572fe8544f27d22a")),
    "production-optimum": (_corpus("production"), "optimize", None, (
        8, 5, 53, 9, 499, 1,
        "68065dd99d04cd845e637833c1777ca2ac02249f9fe829c77320e6f90105e77c")),
    "queens-10": (_corpus("queens-10"), "all", None, (
        10, 45, 10071, 4992, 72025, 724,
        "15e36a55e3055cf41a771126bbe6b3ba2d109ff0917cf7e9a2f5bf5bf23ccb42")),
    "queens-18": (_corpus("queens-18"), "all", 20, (
        18, 153, 1249, 657, 14202, 20,
        "b3d1b184944cc46aa3fef3c5f6764cf70e52ca79513056dee437e5fb302ab0ab")),
    "send": (_corpus("send"), "all", None, (
        11, 6, 8, 6, 143, 1,
        "c3de1a348042317a4651683f4657f029befc073adff91edc9e27f87edea30e1b")),
    "stable": (_corpus("stable"), "all", None, (
        185, 180, 5, 0, 1013, 3,
        "172dc65b0de4f5273e3d1ec183b41a95800401d10d84368dedfdabe28da3c87e")),
    "sudoku": (_corpus("sudoku"), "all", None, (
        90, 57, 1, 0, 204, 1,
        "f70b1fde07adbea50d76fa73bf7c054b6b8e1f3db16335d4ba789c6f01d69073")),
    "queens-10-inline": (_inline(QUEENS, "int n := 10;"), "all", None, (
        10, 45, 10071, 4992, 72025, 724,
        "737392096d4c033b260bcabefb404a3a973833096d8ae63081a451aa157528e9")),
    # 737,270 propagator runs before propagation was event-based
    "queens-50-first": (_inline(QUEENS, "int n := 50;"), "all", 1, (
        50, 1225, 1018, 512, 16563, 1,
        "ddcec941ea605596fc1a4799b05a06c3f1c9627e3171002b5bcb99b4e29fe6b7")),
    "stable3": (_corpus("stable", "stable3.dat"), "all", None, (
        75, 72, 1, 0, 224, 1,
        "c05fa7b540e25a2e9f2c1bfc2e8b452da829ab1d2c22a8a1055aef7c5a406155")),
    "knapsack": (_inline(KNAPSACK), "optimize", None, (
        11, 5, 75, 38, 555, 1,
        "83ac4d97f7eb26e3b648c3998f6b01e73e737c28c7ed81b3ef74b69fe5e4408f")),
}


def sequence_digest(solutions) -> str:
    h = hashlib.sha256()
    for s in solutions:
        h.update(repr((sorted(s.values.items()), s.objective_value)).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", PINS)
def test_search_matches_pin(name):
    make, mode, limit, expected = PINS[name]
    space = build_space(make())
    if mode == "optimize":
        best, stats = optimize(space)
        solutions = [] if best is None else [best]
    else:
        search = solve(space, SearchConfig(solution_limit=limit))
        solutions = list(search)
        stats = search.stats
    got = (len(space.mask), len(space.props), stats.nodes, stats.failures,
           stats.propagations, len(solutions), sequence_digest(solutions))
    assert got == expected


def test_search_leaves_the_root_domains():
    """A search that is exhausted, or stopped at its solution limit, undoes
    its branching: every domain is as root propagation left it, and the
    same space can be searched again in full."""
    space = build_space(compile_corpus("ineq20")[1])
    assert space.propagate()
    root = list(space.mask)
    assert sum(1 for _ in solve(space, SearchConfig(solution_limit=1))) == 1
    assert space.mask == root
    assert sum(1 for _ in solve(space)) == 399
    assert space.mask == root


def test_search_counts_every_run_of_its_own():
    """The propagator runs of a search are all those its space made while it
    ran, failing nodes included, and none made before it."""
    space = build_space(compile_corpus("send")[1])
    search = solve(space)
    assert len(list(search)) == 1
    assert search.stats.propagations == space.propagation_count == 143
    again = solve(space)
    assert len(list(again)) == 1
    assert again.stats.propagations == space.propagation_count - 143
