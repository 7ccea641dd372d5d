"""The four generated workloads.

Each workload turns a ``random.Random`` into one instance (model text and
data text), says which phases of scomma the instance goes through, and
checks the result against ``reference``, which does not use scomma.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

import reference as ref


@dataclass
class Instance:
    model: str
    data: str | None
    facts: dict


@dataclass
class Outcome:
    """What one instance produced; filled in by the pipeline."""

    fm: object = None
    passes: object = None
    emitted: dict[str, str] = field(default_factory=dict)
    solutions: list = field(default_factory=list)
    stats: object = None
    cells: int = 0
    propagators: int = 0


class Workload:
    name = ""
    why = ""
    emits = False  # compile_to_target for every target
    search: str | None = None  # "all" solutions, the "optimum", or no solve
    prefix = 1  # timed instances whose counts form the run's fingerprint

    def generate(self, rng: random.Random) -> Instance:
        raise NotImplementedError

    def check(self, inst: Instance, out: Outcome) -> str | None:
        """Why the outcome is wrong, or None."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Queens
# ---------------------------------------------------------------------------

_CLASSES = ("Queens", "Board", "NQueens", "Placement")
_ARRAYS = ("q", "queen", "row", "pos")
_LOOPS = (("i", "j"), ("a", "b"), ("k", "l"), ("u", "v"))
_SIZES = ("n", "size", "dim")


def queens_instance(n: int, rng: random.Random) -> Instance:
    """queens-n with seeded names and a seeded order of the three lines."""
    cls, arr, (i, j), size = (rng.choice(c) for c in (_CLASSES, _ARRAYS, _LOOPS, _SIZES))
    lines = [
        f"{arr}[{i}] <> {arr}[{j}];",
        f"{arr}[{i}] <> {arr}[{j}] + ({j}-{i});",
        f"{arr}[{i}] <> {arr}[{j}] - ({j}-{i});",
    ]
    rng.shuffle(lines)
    body = "\n".join(" " * 8 + line for line in lines)
    model = f"""// N-queens: one queen per column, no shared rows or diagonals.
class {cls} {{
  int {arr}[{size}] in [1,{size}];

  constraint noAttack {{
    forall({i} in 1..{size}) {{
      forall({j} in {i}+1..{size}) {{
{body}
      }}
    }}
  }}
}}
"""
    return Instance(model, f"int {size} := {n};\n", {"n": n, "array": arr})


# One pattern per target for `x[i] <> x[j] + d`.
_NEQ = {
    "flat": re.compile(r"^\s*(\w+)\[(\d+)\]<>(\w+)\[(\d+)\]([+-]\d+)?;$", re.M),
    "gecodej": re.compile(
        r"^\s*post\(this, get\(this,(\w+),(\d+)\)!=get\(this,(\w+),(\d+)\)([+-]\d+)?\);$", re.M
    ),
    "clp": re.compile(r"^\s*\((\w+)\[(\d+)\] #\\= \(?(\w+)\[(\d+)\]([+-]\d+)?\)?\),$", re.M),
}


def queens_text_problem(text: str, target: str, n: int, arr: str) -> str | None:
    found = []
    for a, i, b, j, d in _NEQ[target].findall(text):
        if a != arr or b != arr:
            return f"{target}: constraint over {a}/{b}, expected {arr}"
        found.append((int(i), int(j), int(d or 0)))
    expected = ref.queens_constraint_set(n)
    if len(found) != len(expected) or set(found) != expected:
        return f"{target}: {len(found)} constraints do not match the {len(expected)} expected"
    return None


class CompileQueens(Workload):
    name = "compile-queens"
    why = ("queens-100 compiled and emitted to all three targets without solving: "
           "loads unrolling, composition expansion, logic normalization and the backend")
    emits = True
    n = 100

    def generate(self, rng):
        return queens_instance(self.n, rng)

    def check(self, inst, out):
        for target in _NEQ:
            problem = queens_text_problem(out.emitted[target], target, inst.facts["n"],
                                          inst.facts["array"])
            if problem:
                return problem
        return None


class EnumQueens(Workload):
    name = "enum-queens"
    why = ("all 724 solutions of queens-10: loads binary <> propagation, depth-first "
           "search and the per-solution check; flattening is about 1% of the time")
    search = "all"
    prefix = 2
    n = 10

    def generate(self, rng):
        return queens_instance(self.n, rng)

    def check(self, inst, out):
        n, arr = inst.facts["n"], inst.facts["array"]
        if len(out.solutions) != ref.A000170[n]:
            return f"{len(out.solutions)} solutions, OEIS A000170 says {ref.A000170[n]}"
        seen = set()
        for sol in out.solutions:
            rows = [sol.values[(arr, (c,))] for c in range(1, n + 1)]
            problem = ref.queens_attack(rows)
            if problem:
                return problem
            seen.add(tuple(rows))
        if len(seen) != len(out.solutions):
            return "a solution was reported twice"
        return None


# ---------------------------------------------------------------------------
# Stable marriage
# ---------------------------------------------------------------------------

_STABLE_MODEL = """// Stable marriage: every matching with no couple preferring each other
// over their assigned spouses (rank 1 = most preferred).
class StableMarriage {
  Man man[menList];
  Woman woman[womenList];

  constraint matchHusbandWife {
    forall(m in menList)
      woman[man[m].wife].husband = m;
    forall(w in womenList)
      man[woman[w].husband].wife = w;
  }

  constraint forbidUnstableCouples {
    forall(m in menList) {
      forall(w in womenList) {
        man[m].rank[w] < man[m].rank[man[m].wife] ->
        woman[w].rank[woman[w].husband] < woman[w].rank[m];

        woman[w].rank[m] < woman[w].rank[woman[w].husband] ->
        man[m].rank[man[m].wife] < man[m].rank[w];
      }
    }
  }
}

class Man {
  int rank[womenList];
  womenList wife;
}

class Woman {
  int rank[menList];
  menList husband;
}
"""


def _rank_table(owner: str, labels: list[str], other: list[str], prefs: list[list[int]]) -> str:
    rows = []
    for who, pref in zip(labels, prefs):
        rank = {o: pos + 1 for pos, o in enumerate(pref)}
        entries = ", ".join(f"{other[o]}:{rank[o]}" for o in range(len(other)))
        rows.append(f"  {who}: {{[{entries}], _}}")
    return f"{owner} StableMarriage.{owner.lower()} :=\n  [" + ",\n".join(rows).lstrip() + "];\n"


class StableMarriage(Workload):
    name = "stable-marriage"
    why = ("30 men and women with seeded random preferences, emitted to all targets and "
           "all stable matchings enumerated: enums, data files, object arrays, element "
           "propagators and reified ->")
    emits = True
    search = "all"
    prefix = 2
    n = 30
    # Preferences are drawn until the instance has exactly this many stable
    # matchings (counted by the reference), so that search work does not
    # swing with the seed.
    matchings = 8

    def generate(self, rng):
        n = self.n
        while True:
            mpref = [rng.sample(range(n), n) for _ in range(n)]
            wpref = [rng.sample(range(n), n) for _ in range(n)]
            all_stable = ref.stable_matchings(mpref, wpref)
            if len(all_stable) == self.matchings:
                break
        men = [f"M{i + 1}" for i in range(n)]
        women = [f"W{i + 1}" for i in range(n)]
        data = (
            f"enum menList := {{{','.join(men)}}};\n"
            f"enum womenList := {{{','.join(women)}}};\n\n"
            + _rank_table("Man", men, women, mpref) + "\n"
            + _rank_table("Woman", women, men, wpref)
        )
        return Instance(_STABLE_MODEL, data,
                        {"mpref": mpref, "wpref": wpref, "stable": all_stable})

    def check(self, inst, out):
        n = self.n
        found = []
        for sol in out.solutions:
            wife = [sol.values[("man_wife", (m + 1,))] - 1 for m in range(n)]
            husband = [sol.values[("woman_husband", (w + 1,))] - 1 for w in range(n)]
            problem = ref.blocking_pair(wife, inst.facts["mpref"], inst.facts["wpref"])
            if problem:
                return problem
            if any(husband[w] != m for m, w in enumerate(wife)):
                return "man_wife and woman_husband disagree"
            found.append(tuple(wife))
        if sorted(found) != inst.facts["stable"]:
            return f"{len(found)} matchings found, the reference has {len(inst.facts['stable'])}"
        for target in ("flat", "gecodej", "clp"):
            if not out.emitted.get(target):
                return f"nothing emitted for {target}"
        return None


# ---------------------------------------------------------------------------
# Knapsack
# ---------------------------------------------------------------------------


class OptKnapsack(Workload):
    name = "opt-knapsack"
    why = ("seeded bounded knapsacks (8 items, 2 resources, quantities 0..3) under "
           "[maximize] as explicit sums: the only user of branch-and-bound and linear propagators")
    search = "optimum"
    prefix = 20
    items = 8
    resources = 2
    qmax = 3
    # Instances are drawn until the reference's branch-and-bound, which
    # searches the way a default CP engine does, needs this many nodes
    # (about the middle seventh of the distribution), so that the
    # per-instance median does not swing with the seed.
    hardness = (320, 380)

    def generate(self, rng):
        n, lo, hi = self.items, *self.hardness
        while True:
            weights = [[rng.randint(1, 20) for _ in range(n)] for _ in range(self.resources)]
            values = [rng.randint(1, 20) for _ in range(n)]
            caps = [sum(w) * self.qmax // 2 for w in weights]
            if lo <= ref.knapsack_search_nodes(values, weights, caps, self.qmax) <= hi:
                break
        lines = [" + ".join(f"{w[i]}*x[{i + 1}]" for i in range(n)) + f" <= {cap};"
                 for w, cap in zip(weights, caps)]
        body = "\n".join("    " + line for line in lines)
        objective = " + ".join(f"{values[i]}*x[{i + 1}]" for i in range(n))
        model = f"""// Bounded multi-resource knapsack.
class Knapsack {{
  int x[{n}] in [0,{self.qmax}];

  constraint capacity {{
{body}
  }}

  constraint profit {{
    [maximize] {objective};
  }}
}}
"""
        facts = {"values": values, "weights": weights, "caps": caps,
                 "optimum": ref.knapsack_optimum(values, weights, caps, self.qmax)}
        return Instance(model, None, facts)

    def check(self, inst, out):
        f = inst.facts
        if not out.solutions:
            return "no optimum reported"
        best = out.solutions[0]
        if best.objective_value != f["optimum"]:
            return f"optimum {best.objective_value}, the DP says {f['optimum']}"
        x = [best.values[("x", (i + 1,))] for i in range(self.items)]
        problem = ref.knapsack_violation(x, f["weights"], f["caps"], self.qmax)
        if problem:
            return problem
        if sum(v * q for v, q in zip(f["values"], x)) != f["optimum"]:
            return "the witness does not reach the optimum"
        return None


WORKLOADS = {w.name: w for w in (CompileQueens(), EnumQueens(), StableMarriage(), OptKnapsack())}
