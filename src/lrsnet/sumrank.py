"""Sum-rank weights and distances, brute-force minimum distance and decoding.

The sum-rank weight of a vector over F_{q^m} splits the coordinates into
ordered blocks and sums the F_q-rank of each block's basis expansion.  With
one block it is the rank metric, with all blocks of size one the Hamming
metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .gf import FieldTower

_BRUTE_FORCE_MAX = 1 << 22  # cap on enumerated messages
_CHUNK = 1 << 15


class OrderedPartition:
    """Ordered partition (n_1, ..., n_ell) of n with every part >= 1."""

    __slots__ = ("parts", "n")

    def __init__(self, parts):
        parts = tuple(int(x) for x in parts)
        if not parts or any(x < 1 for x in parts):
            raise ValueError("all parts must be positive")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "n", sum(parts))

    def __setattr__(self, *a):
        raise AttributeError("OrderedPartition is immutable")

    @property
    def ell(self) -> int:
        return len(self.parts)

    def slices(self):
        """0-based (start, stop) ranges of the blocks."""
        out = []
        start = 0
        for p in self.parts:
            out.append((start, start + p))
            start += p
        return out

    def position(self, l: int, t: int) -> int:
        """1-based column index of entry t of block l (both 1-based)."""
        if not (1 <= l <= self.ell) or not (1 <= t <= self.parts[l - 1]):
            raise ValueError("block index out of range")
        return t + sum(self.parts[: l - 1])

    def locate(self, j: int):
        """Inverse of position: 1-based column -> (block, offset)."""
        if not (1 <= j <= self.n):
            raise ValueError("column index out of range")
        acc = 0
        for l, p in enumerate(self.parts, start=1):
            if j <= acc + p:
                return l, j - acc
            acc += p
        raise AssertionError

    def __eq__(self, other):
        return isinstance(other, OrderedPartition) and other.parts == self.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"OrderedPartition{self.parts}"


def sum_rank_weight(tower: FieldTower, x, part: OrderedPartition) -> int:
    """Sum of per-block F_q-ranks of a vector over F_{q^m}."""
    x = list(x)
    if len(x) != part.n:
        raise ValueError(f"vector length {len(x)} does not match partition n={part.n}")
    return sum(tower.rank_over_base(x[a:b]) for a, b in part.slices())


def sum_rank_distance(tower: FieldTower, x, y, part: OrderedPartition) -> int:
    diff = [tower.sub(a, b) for a, b in zip(x, y)]
    return sum_rank_weight(tower, diff, part)


def sum_rank_weight_matrix(tower: FieldTower, mat, part: OrderedPartition,
                           orientation: str = "columns") -> int:
    """Sum of block ranks of an F_q matrix partitioned column- or row-wise."""
    mat = [list(r) for r in mat]
    if orientation == "columns":
        if not mat or len(mat[0]) != part.n:
            raise ValueError("column count does not match partition")
        blocks = ([row[a:b] for row in mat] for a, b in part.slices())
    elif orientation == "rows":
        if len(mat) != part.n:
            raise ValueError("row count does not match partition")
        blocks = (mat[a:b] for a, b in part.slices())
    else:
        raise ValueError("orientation must be 'columns' or 'rows'")
    return sum(tower.base_matrix_rank(b) for b in blocks)


# ----------------------------------------------------------------------
# brute-force enumeration


@dataclass(frozen=True)
class DecodeResult:
    status: str  # "decoded" | "no_codeword" | "ambiguous"
    message: tuple | None
    distance: int | None

    @property
    def ok(self) -> bool:
        return self.status == "decoded"


DECODED = "decoded"
NO_CODEWORD = "no_codeword"
AMBIGUOUS = "ambiguous"


def enumerable(tower: FieldTower, k: int) -> bool:
    """True when a k-dimensional code over `tower` is small enough for the
    table-driven brute-force distance and decoding."""
    return tower.order <= gf._NUMPY_TABLE_MAX and tower.order ** k <= _BRUTE_FORCE_MAX


def _check_guard(tower, k):
    if k == 0:
        raise ValueError("zero-dimensional code")
    if not enumerable(tower, k):
        raise ValueError(
            f"brute-force enumeration needs q^m <= {gf._NUMPY_TABLE_MAX} and "
            f"(q^m)^k <= {_BRUTE_FORCE_MAX}; got q^m = {tower.order}, k = {k}")


def _codeword_chunks(tower, add, mul, G, start):
    """Yield (message indices, codeword array) chunk by chunk over messages
    start, start + 1, ..., (q^m)^k - 1; digit i of an index in base q^m is
    coordinate i of its message."""
    order, k, n = tower.order, len(G), len(G[0])
    total = order ** k
    for lo in range(start, total, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        cw = np.zeros((idx.shape[0], n), dtype=np.int64)
        for i, gi in enumerate(G):
            di = (idx // order ** i) % order
            for j in range(n):
                if gi[j]:
                    cw[:, j] = add[cw[:, j], mul[di, gi[j]]]
        yield idx, cw


def min_distance_bruteforce(tower: FieldTower, G, part: OrderedPartition) -> int:
    """Minimum sum-rank weight over all nonzero messages of msg * G."""
    k = len(G)
    _check_guard(tower, k)
    if len(G[0]) != part.n:
        raise ValueError("generator width does not match partition")
    if gf.mat_rank(tower, G) < k:
        return 0  # some nonzero message encodes to the zero word
    add, mul = tower.numpy_tables()
    best = part.n
    for _, cw in _codeword_chunks(tower, add, mul, G, 1):
        best = min(best, int(_batch_weights(tower, add, mul, cw, part).min()))
        if best <= 1:
            break
    return best


def _block_ranks(tower, add, mul, block):
    """Vector of F_q-ranks for a batch of blocks, via span cardinality.

    The rank of the expansion of (c_1..c_s) equals log_q of the number of
    distinct F_q-combinations sum a_t c_t.
    """
    q = tower.q
    B, s = block.shape
    combos = np.zeros((B, q ** s), dtype=np.int64)
    for idx in range(1, q ** s):
        v = idx
        acc = np.zeros(B, dtype=np.int64)
        for t in range(s):
            a = v % q
            v //= q
            if a:
                acc = add[acc, mul[a, block[:, t]]]
        combos[:, idx] = acc
    combos.sort(axis=1)
    distinct = 1 + (combos[:, 1:] != combos[:, :-1]).sum(axis=1)
    ranks = np.zeros(B, dtype=np.int64)
    size = 1
    r = 0
    while size < q ** s + 1:
        ranks[distinct == size] = r
        size *= q
        r += 1
    return ranks


def _batch_weights(tower, add, mul, cw, part):
    total = np.zeros(cw.shape[0], dtype=np.int64)
    for a, b in part.slices():
        total += _block_ranks(tower, add, mul, cw[:, a:b])
    return total


def bruteforce_decode(tower: FieldTower, G, part: OrderedPartition, y,
                      code_distance: int | None = None) -> DecodeResult:
    """Nearest-codeword decoding within radius floor((d-1)/2).

    Reports ambiguity (a tie at the minimum distance) separately from the
    absence of any codeword within the radius.
    """
    k = len(G)
    _check_guard(tower, k)
    y = list(y)
    if len(y) != part.n:
        raise ValueError("received word length does not match partition")
    if code_distance is None:
        code_distance = min_distance_bruteforce(tower, G, part)
    radius = (code_distance - 1) // 2

    add, mul = tower.numpy_tables()
    neg = (add == 0).argmax(axis=1)
    ny = neg[np.asarray(y, dtype=np.int64)]
    best, best_idx, tie = part.n + 1, 0, False
    for idx, cw in _codeword_chunks(tower, add, mul, G, 0):
        w = _batch_weights(tower, add, mul, add[cw, ny], part)
        m = int(w.min())
        if m < best:
            hits = idx[w == m]
            best, best_idx, tie = m, int(hits[0]), len(hits) > 1
        elif m == best:
            tie = True
    if best <= radius:
        order = tower.order
        msg = tuple((best_idx // order ** i) % order for i in range(k))
        return DecodeResult(DECODED, msg, best)
    if tie:
        return DecodeResult(AMBIGUOUS, None, best)
    return DecodeResult(NO_CODEWORD, None, best)
