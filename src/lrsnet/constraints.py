"""Zero-pattern combinatorics for support-constrained generator matrices.

A constraint prescribes zero sets Z_1..Z_k of column indices.  A full-support
MSRD code compatible with them exists exactly when every nonempty row subset
W satisfies |intersection of Z_i, i in W| + |W| <= k; the maximum of that
expression over all subsets is the smallest dimension of a covering code
whose subcode meets infeasible patterns optimally.

Every answer comes from maximum matchings in the bipartite support graph,
where row r is joined to column c iff c is not in Z_r.  For a subset W that
holds row i, the rows of W - {i} and the columns of the intersection form an
independent set of the subgraph on the rows != i and the columns of Z_i, and
every independent set there arises this way.  By Koenig's theorem the
largest has (k - 1) + |Z_i| - nu_i vertices, nu_i the size of a maximum
matching, so the maximum over the W holding i is k + |Z_i| - nu_i: the
condition holds iff every Z_i matches completely into the other rows, and
the cover dimension is k plus the largest deficiency |Z_i| - nu_i.
The graph is n masks of k bits, and `_support`, the one routine that builds
it, refuses a pattern past `_SUPPORT_GRAPH_MAX_BITS` before allocating.

Every subset meets the bound with equality exactly when k = 1 and Z_1 is
empty, or Z_i = U - {c_i} for one k-set U and distinct c_i: singletons force
|Z_i| = k - 1, pairs force the Z_i apart, and inclusion-exclusion over the
values k - |W| gives |union of the Z_i| = k.  Conversely, zero sets of
size k - 1 with a union of size k are such a system once they are distinct,
which the condition ensures.

`format_pattern` writes a pattern file, which production never does; its
round trip through `parse_pattern` checks the parser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

# Bits n k of the support graph `_support` builds (n masks of k bits).  The
# guard bounds memory, not time: the toy access structure with r_4 = 2883
# (n = 2903, k = 2889) is the largest inside, and `check_condition` decides
# it in 2 ms on a 2-vCPU Xeon, a half-dense random n = k = 2896 pattern in
# 4.3 s.  At r_4 = 10^6 the graph would need ~10^12 bits, and building it
# exhausted memory.
_SUPPORT_GRAPH_MAX_BITS = 1 << 23


@dataclass(frozen=True)
class SupportConstraint:
    n: int
    k: int
    zero_sets: tuple  # k frozensets of 1-based column indices

    def __post_init__(self):
        object.__setattr__(self, "zero_sets",
                           tuple(frozenset(z) for z in self.zero_sets))
        if self.k < 1 or len(self.zero_sets) != self.k:
            raise ValueError("need one zero set per row, k >= 1")
        if self.n < self.k:
            raise ValueError(f"a full-rank {self.k} x {self.n} generator needs n >= k columns")
        for i, z in enumerate(self.zero_sets):
            if z and (min(z) < 1 or max(z) > self.n):
                raise ValueError(f"zero set {i + 1} leaves the column range [1, {self.n}]")

    def masks(self):
        """Zero sets as bitmasks, bit j - 1 for column j, each parsed from an
        n-digit binary string: summing the powers of two is quadratic in n.
        Equal zero sets share one mask, built once."""
        built = {}
        for z in self.zero_sets:
            if z not in built:
                digits = bytearray(b"0" * self.n)
                for j in z:
                    digits[self.n - j] = 49  # "1", most significant digit first
                built[z] = int(digits, 2)
        return [built[z] for z in self.zero_sets]


@dataclass(frozen=True)
class ConditionReport:
    holds: bool
    witness: tuple | None   # lexicographically least violating row subset
    equality_system: bool   # every subset meets the bound with equality
    cover_dim: int          # max over nonempty subsets of |intersection| + |subset|


class ConditionViolation(ValueError):
    """The zero pattern admits no full-support code of this dimension."""

    def __init__(self, witness):
        super().__init__(f"support condition violated by rows {witness}")
        self.witness = witness


def _support(sc: SupportConstraint) -> list:
    """adj[c]: bitmask of the rows whose zero set misses 0-based column c;
    `ValueError` before any allocation past `_SUPPORT_GRAPH_MAX_BITS`."""
    if sc.n * sc.k > _SUPPORT_GRAPH_MAX_BITS:
        raise ValueError(f"the support graph of a {sc.k} x {sc.n} pattern has n k = "
                         f"{sc.n * sc.k} bits, past the guard of 2^23")
    adj = [(1 << sc.k) - 1] * sc.n
    for r, z in enumerate(sc.zero_sets):
        for j in z:
            adj[j - 1] &= ~(1 << r)
    return adj


# ASCII binary digits to the byte values 0 and 1
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _augment(adj, row_of, col_of, start, seen, used=0) -> int:
    """Grow a matching of columns into rows by one augmenting path from the
    free column `start`; the bit of the free row the path ends at, or 0.

    adj[c] is the bitmask of rows joined to column c, row_of/col_of hold the
    matched pairs both ways, and rows set in `seen` are barred.  From each
    column the search takes the lowest unseen row joined to it, preferring
    one outside `used` (rows matched or barred), which ends the path at
    once; with `used` = 0 no row is preferred.  The search is iterative, so
    no path length meets the recursion limit; on failure the matching is
    left as it was.
    """
    path, picked = [start], []
    while path:
        rows = adj[path[-1]] & ~seen
        if not rows:
            path.pop()
            if picked:
                picked.pop()
            continue
        rows = rows & ~used or rows
        low = rows & -rows
        seen |= low
        row = low.bit_length() - 1
        picked.append(row)
        nxt = col_of.get(row)
        if nxt is None:
            for c, r in zip(path, picked):
                row_of[c] = r
                col_of[r] = c
            return low
        path.append(nxt)
    return 0


def _matching(adj, cols: int, barred: int):
    """A maximum matching of the column bitmask `cols` into the rows outside
    `barred`, as (row_of, col_of).  Columns are taken in ascending order,
    read off one binary string: clearing bits of an n-bit int one at a time
    costs O(n) per column.

    A greedy pass first gives each column the lowest free row it is joined
    to.  Only the columns it leaves unmatched search for augmenting paths,
    each stepping to a free row as soon as it reaches a column joined to
    one, and the searches stop once every row that some column of `cols` is
    joined to is matched or barred: no path can then end at a free row.  A
    column whose neighbours match those of a column that found no
    augmenting path is skipped: any path from it would start one from that
    free column too, and by Berge's lemma a free vertex without an
    augmenting path never gains one as the matching grows.  So at most
    (distinct neighbour sets + k) searches run.  Which maximum matching
    comes out is not specified; every caller reads only its size, or
    whether a complete one exists, and by Berge's lemma neither depends on
    which maximum matching is held.
    """
    row_of, col_of = {}, {}
    used, reach, left = barred, 0, []
    bits = bin(cols)[:1:-1].encode().translate(_BIT_VALUES)  # bit c at index c
    for c in compress(range(len(bits)), bits):
        nbrs = adj[c]
        reach |= nbrs
        free = nbrs & ~used
        if free:
            low = free & -free
            used |= low
            row = low.bit_length() - 1
            row_of[c] = row
            col_of[row] = c
        else:
            left.append(c)
    failed = set()
    for c in left:
        if not reach & ~used:
            break
        if adj[c] not in failed:
            got = _augment(adj, row_of, col_of, c, barred, used)
            used |= got
            if not got:
                failed.add(adj[c])
    return row_of, col_of


def _deficiency(adj, cols: int, barred: int) -> int:
    """Columns of `cols` left unmatched by a maximum matching."""
    return cols.bit_count() - len(_matching(adj, cols, barred)[0])


def _least_witness(sc: SupportConstraint, adj, masks) -> tuple:
    """Lexicographically least violating row subset of a failing pattern.

    Walks the include-first subset order, which is lexicographic on sorted
    tuples, and enters a row only when its subtree holds a violation.  With
    rows `chosen` taken and the later rows free, the best value in the
    subtree is |chosen| + |later rows| + |inter| - nu(later rows, inter), by
    the same Koenig argument as the decision; so the walk costs O(k^2)
    matchings.
    """
    k = sc.k
    chosen, inter, start = [], (1 << sc.n) - 1, 0
    while True:
        row = next(r for r in range(start, k)
                   if _deficiency(adj, inter & masks[r], (2 << r) - 1) > r - len(chosen))
        chosen.append(row + 1)
        inter &= masks[row]
        if inter.bit_count() + len(chosen) > k:
            return tuple(chosen)
        start = row + 1


def _equality_system(sc: SupportConstraint) -> bool:
    """Whether every subset meets the bound with equality, for a pattern that
    holds the condition: holding it forces Z_1 empty at k = 1 and keeps
    zero sets of size k - 1 pairwise distinct."""
    return sc.k == 1 or (all(len(z) == sc.k - 1 for z in sc.zero_sets)
                         and len(frozenset().union(*sc.zero_sets)) == sc.k)


def check_condition(sc: SupportConstraint) -> ConditionReport:
    """Decide the condition by the cover dimension, which is k exactly when
    it holds; on a violation, report the lexicographically least violating
    row subset."""
    adj = _support(sc)
    masks = sc.masks()
    cover_dim = sc.k + _max_deficiency(adj, masks)
    if cover_dim == sc.k:
        return ConditionReport(True, None, _equality_system(sc), cover_dim)
    return ConditionReport(False, _least_witness(sc, adj, masks), False, cover_dim)


def _max_deficiency(adj, masks) -> int:
    """Largest deficiency of a zero set, from one matching of each distinct
    Z_i into the other rows: no row need be barred, since row i is joined
    to no column of Z_i, so rows with equal zero sets pose one problem."""
    return max(_deficiency(adj, mask, 0) for mask in set(masks))


def cover_dimension(sc: SupportConstraint) -> int:
    """max over nonempty subsets of |intersection| + |subset| (always >= k)."""
    return sc.k + _max_deficiency(_support(sc), sc.masks())


def _add_zero(adj, matchings, i: int, c: int) -> bool:
    """Make 0-based column c a zero of row i if the condition survives.

    This deletes the edge (c, row i).  Each matching that paired c with row
    i needs an augmenting path from c again, and row i's matching needs one
    from its new column c.  At the first that fails, its pair and the edge
    come back; the matchings already re-augmented are kept, since a
    complete matching without the edge is one with it too.
    """
    zeros = ~adj[c] & ((1 << len(matchings)) - 1)  # the rows whose matchings hold c
    adj[c] &= ~(1 << i)
    while zeros:
        low = zeros & -zeros
        zeros ^= low
        row_of, col_of = matchings[low.bit_length() - 1]
        if row_of[c] == i:
            del row_of[c], col_of[i]
            if not _augment(adj, row_of, col_of, c, 0):
                row_of[c], col_of[i] = i, c
                adj[c] |= 1 << i
                return False
    if _augment(adj, *matchings[i], c, 0):
        return True
    adj[c] |= 1 << i
    return False


def complete_zero_sets(sc: SupportConstraint) -> SupportConstraint:
    """Grow every zero set to size k-1, greedily, preserving the condition.

    The per-row matchings decide the condition first and are then updated
    in place: rows are processed in index order and candidate columns in
    increasing order, and a candidate is kept only if the condition still
    holds; a pattern that violates it raises ConditionViolation.  Rows with
    equal zero sets start from copies of one matching.
    """
    adj = _support(sc)
    masks = sc.masks()
    distinct = {mask: _matching(adj, mask, 0) for mask in set(masks)}
    matchings = [(dict(distinct[mask][0]), dict(distinct[mask][1])) for mask in masks]
    if any(len(row_of) < len(z) for (row_of, _), z in zip(matchings, sc.zero_sets)):
        raise ConditionViolation(_least_witness(sc, adj, masks))
    zero_sets = [set(z) for z in sc.zero_sets]
    for i in range(sc.k):
        for j in range(1, sc.n + 1):
            if len(zero_sets[i]) == sc.k - 1:
                break
            if j not in zero_sets[i] and _add_zero(adj, matchings, i, j - 1):
                zero_sets[i].add(j)
        if len(zero_sets[i]) < sc.k - 1:
            raise RuntimeError(
                f"greedy completion stuck at row {i + 1} with {sorted(zero_sets[i])}; "
                "this contradicts the completion guarantee and indicates a bug")
    return SupportConstraint(sc.n, sc.k, tuple(zero_sets))


def derive_zero_sets(access, message_lengths, source_lengths) -> SupportConstraint:
    """Zero pattern of the distributed encoding matrix.

    Rows are grouped by message; a row of message g must vanish on the column
    range of every source that has no access to g.
    """
    access = [frozenset(a) for a in access]
    h = len(message_lengths)
    if len(access) != len(source_lengths):
        raise ValueError("need one encoded length per source")
    for g in range(1, h + 1):
        if not any(g in a for a in access):
            raise ValueError(f"message {g} is not accessible from any source")
    n = sum(source_lengths)
    k = sum(message_lengths)
    ranges = []
    start = 1
    for ln in source_lengths:
        ranges.append(range(start, start + ln))
        start += ln
    zero_sets = []
    for g in range(1, h + 1):
        cols = frozenset(
            j for a, rng in zip(access, ranges) if g not in a for j in rng)
        zero_sets.extend([cols] * message_lengths[g - 1])
    return SupportConstraint(n, k, tuple(zero_sets))


class FieldParams(NamedTuple):
    q: int
    m: int
    m_sharp: int  # smaller extension degree certified by the exact degree bound


def _ceil_log(q: int, k: int) -> int:
    c, v = 0, 1
    while v < k:
        v *= q
        c += 1
    return c


def smallest_prime_power_at_least(x: int) -> int:
    from .gf import prime_power  # here, not at the top: `check` loads no numpy

    c = max(2, x)
    while prime_power(c) is None:
        c += 1
    return c


def sufficient_extension_degrees(q: int, k: int, parts):
    """(m, m_sharp) sufficient at base size q: the closed-form bound
    max(k-1+log_q(k), max block length) with the log rounded up exactly, and
    the exact polynomial-degree threshold q^m > (k-1)(q-1)q^(k-2) + q^(n_l-1)."""
    parts = list(parts)
    m = max(k - 1 + _ceil_log(q, k), max(parts))
    bound = max((k - 1) * (q - 1) * q ** max(k - 2, 0) + q ** (nl - 1) for nl in parts)
    # the float estimate is at most the answer, and the loop makes it exact
    m_sharp = max(1, int(math.log(bound, q)) - 1)
    while q ** m_sharp <= bound:
        m_sharp += 1
    return m, m_sharp


def suggest_field_params(k: int, ell: int, parts) -> FieldParams:
    """Smallest admissible base size q >= ell+1 and sufficient degrees."""
    parts = list(parts)
    if k < 1 or ell < 1 or len(parts) != ell:
        raise ValueError("need k >= 1 and one part per block")
    q = smallest_prime_power_at_least(ell + 1)
    m, m_sharp = sufficient_extension_degrees(q, k, parts)
    return FieldParams(q=q, m=m, m_sharp=m_sharp)


# ----------------------------------------------------------------------
# pattern files: one line per row, space-separated 1-based columns, `-` empty


def parse_pattern(text: str, n: int) -> SupportConstraint:
    zero_sets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "-":
            zero_sets.append(frozenset())
            continue
        try:
            cols = frozenset(map(int, line.split()))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if cols and (min(cols) < 1 or max(cols) > n):
            raise ValueError(f"line {lineno}: column index outside [1, {n}]")
        zero_sets.append(cols)
    if not zero_sets:
        raise ValueError("pattern file holds no rows")
    return SupportConstraint(n, len(zero_sets), tuple(zero_sets))


def format_pattern(sc: SupportConstraint) -> str:
    lines = []
    for z in sc.zero_sets:
        lines.append(" ".join(str(j) for j in sorted(z)) if z else "-")
    return "\n".join(lines) + "\n"
