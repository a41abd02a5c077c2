"""Sum-rank weights and distances, brute-force minimum distance and decoding.

`bruteforce_decode`, nearest-codeword decoding over every message, is the
oracle of the algebraic decoder `lrs.decode`, which production runs.

The sum-rank weight of a vector over F_{q^m} splits the coordinates into
ordered blocks and sums the F_q-rank of each block's basis expansion.  With
one block it is the rank metric, with all blocks of size one the Hamming
metric.

Brute force runs on order x order numpy tables of F_{q^m} behind one guard,
`enumerable`: q^m <= 512 and (q^m)^k <= 2^22 messages.  The minimum distance
enumerates one message per line of F_{q^m}^k, the one whose highest nonzero
coordinate is 1, because nonzero scalars keep the weight; decoding
enumerates all (q^m)^k messages, on the tables `FieldTower.numpy_tables`
fetched once per call.  Codewords are built coordinate-major from each
generator row's table of multiples.  A block's rank counts the elements left
nonzero after each is reduced by the earlier, already reduced ones, one
lookup per pair in the reduction table, for a whole batch of blocks at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .gf import FieldTower

_BRUTE_FORCE_MAX = 1 << 22  # cap on enumerated messages
# messages per chunk: for n <= 6 coordinates an n x B int32 codeword array
# (96 KiB) stays below glibc's 128 KiB mmap threshold, so the chunks reuse
# heap memory instead of mapping and faulting in fresh pages each time.  On
# the F_81, k = 3 distance of the micro codes 2^13 (past the threshold) and
# 2^11 (twice the chunks) were both slower.
_CHUNK = 1 << 12


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

    def __eq__(self, other):
        return isinstance(other, OrderedPartition) and other.parts == self.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"OrderedPartition{self.parts}"


def sum_rank_weight(tower: FieldTower, x, part: OrderedPartition) -> int:
    """Sum of per-block F_q-ranks of a vector over F_{q^m}; each entry is
    checked once, for the whole vector."""
    x = tower.check_elements(x, "vector entry")
    if len(x) != part.n:
        raise ValueError(f"vector length {len(x)} does not match partition n={part.n}")
    return sum(tower._element_rank(x[a:b]) for a, b in part.slices())


def sum_rank_weight_matrix(tower: FieldTower, mat, part: OrderedPartition) -> int:
    """Sum of the ranks of the column blocks of an F_q matrix, all ranked by
    one `FieldTower.base_block_ranks` call (for p = 2 on columns packed once);
    `ValueError` on an entry outside 0 .. q - 1.  A block has the rank of
    its transpose, so a row-partitioned matrix is passed transposed."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[1] != part.n:
        raise ValueError("column count does not match partition")
    return sum(tower.base_block_ranks(mat, part.slices()))


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


def _check_guard(tower, G, y=()):
    """Reject what the table-driven brute force cannot run on: an empty
    generator, a code outside `enumerable`, and any generator or
    received-word entry that is not an element encoding 0 .. q^m - 1 (numpy
    would read a negative one as an index from the end)."""
    k = len(G)
    if k == 0:
        raise ValueError("zero-dimensional code")
    if not enumerable(tower, k):
        raise ValueError(
            f"brute-force enumeration needs q^m <= {gf._NUMPY_TABLE_MAX} and "
            f"(q^m)^k <= {_BRUTE_FORCE_MAX}; got q^m = {tower.order}, k = {k}")
    tower.check_elements((v for row in G for v in row), "generator entry")
    tower.check_elements(y, "received word entry")


def _codeword_chunks(tower, add, mul, G, start, stop=None, offset=None):
    """Yield (message indices, codewords) chunk by chunk over messages
    start, start + 1, ..., stop - 1 (default (q^m)^k - 1); digit i of an
    index in base q^m is coordinate i of its message.  The codewords come
    coordinate-major, an n x B array, each shifted by the length-n vector
    `offset` (default zero)."""
    order = tower.order
    if stop is None:
        stop = order ** len(G)
    # row i's multiples: mults[i][j, d] = d * G[i][j], row 0 shifted by offset
    mults = [mul[np.asarray(gi, dtype=np.int64)] for gi in G]
    if offset is not None:
        mults[0] = add[np.asarray(offset, dtype=np.int64)[:, None], mults[0]]
    add = add.ravel()
    for lo in range(start, stop, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, stop), dtype=np.int32)
        cw = mults[0].take(idx % order, axis=1)
        for i in range(1, len(G)):
            # in place: fewer chunk-sized temporaries to allocate and free
            cw *= order
            cw += mults[i].take(idx // order ** i % order, axis=1)
            cw = add.take(cw)
        yield idx, cw


def _projective_ranges(order, k):
    """(start, stop) index ranges of the messages whose highest nonzero
    coordinate is 1: one representative of each line of F_{q^m}^k."""
    return [(order ** p, 2 * order ** p) for p in range(k)]


def min_distance_bruteforce(tower: FieldTower, G, part: OrderedPartition) -> int:
    """Minimum sum-rank weight of msg * G over nonzero messages.

    Weights do not change under nonzero F_{q^m} scalars, so only one
    message per line, the one whose highest nonzero coordinate is 1, is
    enumerated."""
    k = len(G)
    _check_guard(tower, G)
    if len(G[0]) != part.n:
        raise ValueError("generator width does not match partition")
    if gf.mat_rank(tower, G) < k:
        return 0  # some nonzero message encodes to the zero word
    add, mul, red = tower.numpy_tables()
    best = part.n
    for start, stop in _projective_ranges(tower.order, k):
        for _, cw in _codeword_chunks(tower, add, mul, G, start, stop):
            best = min(best, int(_batch_weights(red, cw, part).min()))
            if best <= 1:
                return best
    return best


def block_ranks(red, block):
    """Vector of F_q-ranks of the base-field expansions of B blocks of s
    elements, given as an s x B array (element t of every block in row t).

    Each element is reduced by the earlier ones of its block, already reduced,
    through `red`, the third table of `FieldTower.numpy_tables`: reducing by a
    nonzero a clears a's pivot, its first nonzero base-q digit.  A reduced
    element is zero on the pivots of all reduced elements before it, so the
    nonzero ones are independent over F_q and span the block, and an element
    reduces to zero exactly when it lies in the span of those before it.  The
    rank is the number of nonzero reduced elements.
    """
    order = len(red)
    red = red.ravel()
    ranks = np.zeros(block.shape[1], dtype=np.int64)
    rows = []  # reduced elements times order: their rows of the flat table
    for x in block:
        for r in rows:
            x = red.take(r + x)
        ranks += x != 0
        rows.append(x * order)
    return ranks


def _batch_weights(red, cw, part):
    total = np.zeros(cw.shape[1], dtype=np.int64)
    for a, b in part.slices():
        total += block_ranks(red, cw[a:b])
    return total


def bruteforce_decode(tower: FieldTower, G, part: OrderedPartition, y,
                      code_distance: int | None = None) -> DecodeResult:
    """Nearest-codeword decoding within radius floor((d-1)/2).

    Reports ambiguity (a tie at the minimum distance) separately from the
    absence of any codeword within the radius.
    """
    k = len(G)
    y = list(y)
    _check_guard(tower, G, y)
    if len(y) != part.n:
        raise ValueError("received word length does not match partition")
    if code_distance is None:
        code_distance = min_distance_bruteforce(tower, G, part)
    radius = (code_distance - 1) // 2

    add, mul, red = tower.numpy_tables()
    # the codewords start at -y, so they come out as c - y
    best, best_idx, tie = part.n + 1, 0, False
    for idx, cw in _codeword_chunks(tower, add, mul, G, 0,
                                    offset=[tower.neg(v) for v in y]):
        w = _batch_weights(red, cw, part)
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
