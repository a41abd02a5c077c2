"""Independent output checks for the benchmark's ops.

Nothing here imports lrsnet: each check recomputes its answer by a
different route than the program under test, so a fault in the program
cannot hide a fault in its check.
"""

from __future__ import annotations


def _max_matching(left, adj) -> int:
    """Maximum bipartite matching by augmenting paths (Kuhn's algorithm)."""
    match = {}

    def augment(u, seen):
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match or augment(match[v], seen):
                match[v] = u
                return True
        return False

    return sum(1 for u in left if augment(u, set()))


def cover_dimension(k: int, zero_sets) -> int:
    """max over nonempty row subsets W of |intersection of Z_i, i in W| + |W|.

    By Koenig's theorem a row subset W (forced to hold row i) together with
    columns inside all of its zero sets is an independent set of the
    bipartite support graph restricted to rows != i and columns in Z_i, so
    the maximum is max_i (k + |Z_i| - maximum matching of that graph).
    """
    zero_sets = [frozenset(z) for z in zero_sets]
    if len(zero_sets) != k or k < 1:
        raise ValueError("need one zero set per row")
    best = 0
    for i, zi in enumerate(zero_sets):
        rows = [r for r in range(k) if r != i]
        adj = {r: [j for j in sorted(zi) if j not in zero_sets[r]] for r in rows}
        best = max(best, k + len(zi) - _max_matching(rows, adj))
    return best


def subset_value(zero_sets, rows) -> int:
    """|intersection of the zero sets of the 1-based rows| + |rows|."""
    inter = frozenset.intersection(*(frozenset(zero_sets[r - 1]) for r in rows))
    return len(inter) + len(rows)


def support_matches(matrix, zero_sets, n: int) -> bool:
    """True iff every row is zero exactly on its (1-based) zero set."""
    if len(matrix) != len(zero_sets):
        return False
    for row, z in zip(matrix, zero_sets):
        if len(row) != n:
            return False
        for j, entry in enumerate(row, start=1):
            if (entry == 0) != (j in z):
                return False
    return True
