"""Reference answers computed without scomma.

Every workload's output is checked against these: OEIS counts and a direct
no-attack test for queens, a forward-checking enumeration of all stable
matchings, and a dynamic program for the bounded knapsack.
"""

from __future__ import annotations

# OEIS A000170: number of ways to place n non-attacking queens on an n x n board.
A000170 = {
    1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724,
    11: 2680, 12: 14200, 13: 73712, 14: 365596,
}


def queens_attack(rows: list[int]) -> str | None:
    """Why ``rows`` (rows[i] = row of the queen in column i) is not a
    solution, or None when no two queens attack each other."""
    n = len(rows)
    if sorted(rows) != list(range(1, n + 1)):
        return f"rows {rows} are not a permutation of 1..{n}"
    for i in range(n):
        for j in range(i + 1, n):
            if abs(rows[i] - rows[j]) == j - i:
                return f"queens in columns {i + 1} and {j + 1} share a diagonal"
    return None


def queens_constraint_set(n: int) -> set[tuple[int, int, int]]:
    """The flat queens constraints as (i, j, d), meaning q[i] <> q[j] + d."""
    out = set()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.update({(i, j, 0), (i, j, j - i), (i, j, i - j)})
    return out


# ---------------------------------------------------------------------------
# Stable marriage
# ---------------------------------------------------------------------------


def _ranks(prefs: list[list[int]]) -> list[list[int]]:
    ranks = []
    for p in prefs:
        r = [0] * len(p)
        for pos, other in enumerate(p):
            r[other] = pos
        ranks.append(r)
    return ranks


def blocking_pair(wife: list[int], mpref, wpref) -> str | None:
    """Why ``wife`` (wife[m] = woman) is not a perfect stable matching."""
    n = len(mpref)
    if sorted(wife) != list(range(n)):
        return f"matching {wife} is not perfect"
    mrank, wrank = _ranks(mpref), _ranks(wpref)
    husband = [0] * n
    for m, w in enumerate(wife):
        husband[w] = m
    for m in range(n):
        for w in range(n):
            if mrank[m][w] < mrank[m][wife[m]] and wrank[w][m] < wrank[w][husband[w]]:
                return f"man {m} and woman {w} form a blocking pair"
    return None


def _gale_shapley(prefs: list[list[int]], other_rank: list[list[int]]) -> list[int]:
    """Proposer-optimal stable matching: result[proposer] = receiver."""
    n = len(prefs)
    nxt = [0] * n
    held = [-1] * n
    free = list(range(n))
    while free:
        a = free.pop()
        b = prefs[a][nxt[a]]
        nxt[a] += 1
        c = held[b]
        if c < 0:
            held[b] = a
        elif other_rank[b][a] < other_rank[b][c]:
            held[b] = a
            free.append(c)
        else:
            free.append(a)
    result = [0] * n
    for b, a in enumerate(held):
        result[a] = b
    return result


def stable_matchings(mpref: list[list[int]], wpref: list[list[int]]) -> list[tuple[int, ...]]:
    """Every stable matching, as tuples wife[m], in lexicographic order.

    A backtracking search over the possible (man, woman) pairs. Fixing a pair
    (m, w) forbids every pair that would block it: each woman m prefers to w
    must end with a man she prefers to m, and each man w prefers to m must
    end with a woman he prefers to w.
    """
    n = len(mpref)
    mrank, wrank = _ranks(mpref), _ranks(wpref)
    out: list[tuple[int, ...]] = []

    def fix(alive: list[set[int]], fixed: frozenset[int], m: int, w: int):
        alive = [set(s) for s in alive]
        fixed = set(fixed)
        todo = [(m, w)]
        while todo:
            m, w = todo.pop()
            if w not in alive[m]:
                return None
            alive[m] = {w}
            fixed.add(m)
            for m2 in range(n):
                if m2 != m:
                    alive[m2].discard(w)
                    if wrank[w][m2] < wrank[w][m]:
                        alive[m2] = {x for x in alive[m2] if mrank[m2][x] < mrank[m2][w]}
            for w2 in mpref[m][: mrank[m][w]]:
                for m2 in range(n):
                    if w2 in alive[m2] and wrank[w2][m2] > wrank[w2][m]:
                        alive[m2].discard(w2)
            suitors: list[list[int]] = [[] for _ in range(n)]
            for m2 in range(n):
                if not alive[m2]:
                    return None
                for w2 in alive[m2]:
                    suitors[w2].append(m2)
            for w2 in range(n):
                if not suitors[w2]:
                    return None
                if len(suitors[w2]) == 1 and len(alive[suitors[w2][0]]) > 1:
                    alive[suitors[w2][0]] = {w2}
            for m2 in range(n):
                if len(alive[m2]) == 1 and m2 not in fixed and all(m2 != t for t, _ in todo):
                    todo.append((m2, next(iter(alive[m2]))))
        return alive, frozenset(fixed)

    def search(alive: list[set[int]], fixed: frozenset[int]) -> None:
        if len(fixed) == n:
            out.append(tuple(next(iter(s)) for s in alive))
            return
        m = min((x for x in range(n) if x not in fixed), key=lambda x: len(alive[x]))
        for w in sorted(alive[m]):
            child = fix(alive, fixed, m, w)
            if child is not None:
                search(*child)

    # Every stable matching gives each man a woman between his partners in
    # the man-optimal and the woman-optimal matchings (Gale-Shapley).
    best = _gale_shapley(mpref, wrank)
    worst = _gale_shapley(wpref, mrank)
    wife_worst = [0] * n
    for m, w in enumerate(worst):
        wife_worst[w] = m
    alive = [set(mpref[m][mrank[m][best[m]]: mrank[m][wife_worst[m]] + 1]) for m in range(n)]
    search(alive, frozenset())
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Bounded knapsack
# ---------------------------------------------------------------------------


def knapsack_optimum(values: list[int], weights: list[list[int]], caps: list[int], qmax: int) -> int:
    """Maximum of sum(values[i] * x[i]) with 0 <= x[i] <= qmax and
    sum(weights[r][i] * x[i]) <= caps[r] for every resource r: a dynamic
    program over usage vectors, each packed into one mixed-radix int."""
    radix, k = [], 1
    for cap in caps:
        radix.append(k)
        k *= cap + 1
    best = {0: 0}
    for i, v in enumerate(values):
        step = sum(w[i] * r for w, r in zip(weights, radix))
        nxt: dict[int, int] = {}
        for used, val in best.items():
            room = min((cap - used // r % (cap + 1)) // w[i]
                       for w, cap, r in zip(weights, caps, radix))
            for q in range(min(qmax, room) + 1):
                u, total = used + step * q, val + v * q
                if nxt.get(u, -1) < total:
                    nxt[u] = total
        best = nxt
    return max(best.values())


def knapsack_violation(x: list[int], weights, caps, qmax: int) -> str | None:
    if any(not 0 <= q <= qmax for q in x):
        return f"quantities {x} leave 0..{qmax}"
    for r, cap in enumerate(caps):
        used = sum(w * q for w, q in zip(weights[r], x))
        if used > cap:
            return f"resource {r} uses {used} > {cap}"
    return None


def knapsack_search_nodes(values: list[int], weights: list[list[int]], caps: list[int],
                          qmax: int) -> int:
    """Nodes of a textbook CP branch-and-bound: at each node, bounds
    propagation of every capacity sum and of ``objective >= best + 1`` to a
    fixpoint, then branch on the first of the smallest unfixed domains,
    smallest quantity first. A node is counted on entry, failed or not. A
    measure of how hard the instance is for a search of that shape."""
    n = len(values)
    best: int | None = None
    nodes = 0

    def propagate(lo: list[int], hi: list[int]) -> bool:
        changed = True
        while changed:
            changed = False
            for w, cap in zip(weights, caps):
                slack = cap - sum(w[i] * lo[i] for i in range(n))
                if slack < 0:
                    return False
                for i in range(n):
                    top = lo[i] + slack // w[i]
                    if top < hi[i]:
                        hi[i], changed = top, True
            if best is not None:
                room = sum(values[i] * hi[i] for i in range(n)) - (best + 1)
                if room < 0:
                    return False
                for i in range(n):
                    bottom = hi[i] - room // values[i]
                    if bottom > lo[i]:
                        lo[i], changed = bottom, True
        return True

    def dfs(lo: list[int], hi: list[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if not propagate(lo, hi):
            return
        pick, size = None, None
        for i in range(n):
            s = hi[i] - lo[i] + 1
            if s > 1 and (size is None or s < size):
                pick, size = i, s
                if s == 2:
                    break
        if pick is None:
            best = sum(v * q for v, q in zip(values, lo))
            return
        for q in range(lo[pick], hi[pick] + 1):
            lo2, hi2 = lo[:], hi[:]
            lo2[pick] = hi2[pick] = q
            dfs(lo2, hi2)

    dfs([0] * n, [qmax] * n)
    return nodes
