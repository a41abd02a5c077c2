"""Distributed multi-source network designer and adversarial channel simulator.

Pipeline: an integer program sizes the per-source encoded lengths, the access
structure induces a generator zero pattern, a support-constrained LRS
(sub)code is synthesized over a sufficient field, and a (t, rho)-adversary
channel Y = A X + E is sampled and audited against the rank/sum-rank weight
bounds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

import numpy as np

from . import construct, gf, lrs, sumrank
from .constraints import (
    SupportConstraint,
    cover_dimension,
    derive_zero_sets,
    suggest_field_params,
)
from .construct import _fields
from .gf import FieldTower, make_field, prime_power
from .sumrank import OrderedPartition

_DESIGN_GUARD = 10  # max messages and max sources for the subset constraints


@dataclass(frozen=True)
class NetworkInstance:
    h: int                 # number of messages
    lengths: tuple         # message lengths r_1..r_h (symbols over F_{q^m})
    access: tuple          # source access sets, subsets of {1..h}
    t: int                 # malicious-node bound
    rho: int               # frozen-node bound
    ell: int               # number of code blocks

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(int(x) for x in self.lengths))
        object.__setattr__(self, "access", tuple(frozenset(a) for a in self.access))
        if self.h < 1 or len(self.lengths) != self.h:
            raise ValueError("need one length per message")
        if any(r < 1 for r in self.lengths):
            raise ValueError("message lengths must be >= 1")
        if self.t < 0 or self.rho < 0 or self.ell < 1:
            raise ValueError("need t, rho >= 0 and ell >= 1")
        for a in self.access:
            if any(not (1 <= g <= self.h) for g in a):
                raise ValueError("access sets must reference messages 1..h")
        for g in range(1, self.h + 1):
            if not any(g in a for a in self.access):
                raise ValueError(f"message {g} is not accessible from any source")

    @property
    def s(self) -> int:
        return len(self.access)

    @property
    def k(self) -> int:
        return sum(self.lengths)

    @classmethod
    def from_json(cls, text: str) -> "NetworkInstance":
        doc = _fields(json.loads(text), "instance", ("h", "r", "S", "t", "rho", "ell"),
                      ints=("h", "t", "rho", "ell"), int_lists=("r",), nested=("S",))
        return cls(h=doc["h"], lengths=tuple(doc["r"]),
                   access=tuple(frozenset(a) for a in doc["S"]),
                   t=doc["t"], rho=doc["rho"], ell=doc["ell"])

    def to_json(self) -> str:
        return json.dumps({
            "h": self.h, "r": list(self.lengths),
            "S": [sorted(a) for a in self.access],
            "t": self.t, "rho": self.rho, "ell": self.ell,
        }, sort_keys=True)


def design_lengths(inst: NetworkInstance):
    """Minimize the total encoded length n under the zero-pattern subset
    constraints; return the per-source lengths and n.

    A message subset Omega asks the sources that see it for at least
    r(Omega) + 2*ell*t + rho symbols, so each distinct source cover keeps
    the largest such demand.  Targets n go upward from the largest demand
    (and from ell, one symbol per block).  For each target the search gives
    sources in index order lengths from 0 upward, the last source taking
    what is left, so it meets the tuples of sum n in lexicographic order.
    A branch is cut only when no completion can be feasible: a cover that
    is still short has no later source, or its shortfall exceeds what is
    left.  The first tuple found is therefore the lexicographically least
    optimum."""
    if inst.h > _DESIGN_GUARD or inst.s > _DESIGN_GUARD:
        raise ValueError(f"instance beyond the design guard of {_DESIGN_GUARD}")
    serving = [sum(1 << j for j, a in enumerate(inst.access) if g in a)
               for g in range(1, inst.h + 1)]
    demands = {}
    for omega in range(1, 1 << inst.h):
        cover = need = 0
        for g in range(inst.h):
            if omega >> g & 1:
                cover |= serving[g]
                need += inst.lengths[g]
        # ell >= 1, so this dominates the capacity demand r + 2t + rho;
        # every message has a source, so no cover is empty
        need += 2 * inst.ell * inst.t + inst.rho
        demands[cover] = max(demands.get(cover, 0), need)
    s = inst.s
    # no demand exceeds k + 2*ell*t + rho, so no optimum needs a longer
    # source unless the ell blocks alone force n up to ell
    cap = max(inst.k + 2 * inst.ell * inst.t + inst.rho, inst.ell)

    def search(i, unmet, left):
        # unmet: (cover, demand still unmet) for the covers still short; each
        # holds a source >= i and asks for at most `left` more symbols
        if i == s - 1:
            return (left,) if left <= cap else None
        bit = 1 << i
        # a cover that only source i can still serve bounds it from below; a
        # cover without source i leaves its shortfall to the sources after
        # it, which bounds source i from above
        low = max((u for c, u in unmet if c >> i == 1), default=0)
        high = min(cap, left - max((u for c, u in unmet if not c & bit), default=0))
        for v in range(low, high + 1):
            rest = search(i + 1, [(c, u - v) if c & bit else (c, u)
                                  for c, u in unmet if not (c & bit and u <= v)], left - v)
            if rest is not None:
                return (v,) + rest
        return None

    n = max(max(demands.values()), inst.ell)
    while (lengths := search(0, list(demands.items()), n)) is None:
        n += 1
    return lengths, n


def even_partition(n: int, ell: int) -> OrderedPartition:
    """Split n into ell near-equal parts with rounded block boundaries."""
    if ell < 1:
        raise ValueError("need ell >= 1 blocks")
    if n < ell:
        raise ValueError("fewer symbols than blocks")
    bounds = [(2 * l * n + ell) // (2 * ell) for l in range(ell + 1)]
    return OrderedPartition(tuple(b - a for a, b in zip(bounds, bounds[1:])))


@dataclass(frozen=True)
class DesignResult:
    instance: NetworkInstance
    lengths: tuple           # per-source encoded lengths
    n: int
    k: int
    cover_dim: int
    distance: int            # designed decoding distance 2*ell*t + rho + 1
    q: int
    m: int
    parts: tuple             # code block partition
    constraint: SupportConstraint
    code: construct.ConstrainedCode | None

    def to_json(self) -> str:
        doc = {
            "instance": json.loads(self.instance.to_json()),
            "lengths": list(self.lengths),
            "n": self.n,
            "k": self.k,
            "cover_dim": self.cover_dim,
            "distance": self.distance,
            "q": self.q,
            "m": self.m,
            "parts": list(self.parts),
            "code": json.loads(construct.to_json(self.code)) if self.code else None,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DesignResult":
        doc = _fields(json.loads(text), "design",
                      ("instance", "code", "lengths", "n", "k", "cover_dim", "distance", "q",
                       "m", "parts"),
                      ints=("n", "k", "cover_dim", "distance", "q", "m"),
                      int_lists=("lengths", "parts"))
        inst = NetworkInstance.from_json(json.dumps(doc["instance"]))
        if len(doc["lengths"]) != inst.s or any(x < 0 for x in doc["lengths"]):
            raise ValueError(f'design field "lengths" must hold {inst.s} nonnegative '
                             "integers, one per source")
        # before _sized, whose zero pattern has sum(lengths) columns
        if doc["n"] != sum(doc["lengths"]):
            raise ValueError(f'design field "n" is {doc["n"]}, but its lengths sum to '
                             f'{sum(doc["lengths"])}')
        res = _sized(inst, doc["lengths"])
        want = json.loads(res.to_json())
        for key in ("n", "k", "cover_dim", "distance", "q", "m", "parts"):
            if doc[key] != want[key]:
                raise ValueError(f'design field "{key}" is {doc[key]}, but its instance '
                                 f"and lengths give {want[key]}")
        if res.distance > res.n - res.cover_dim + 1:
            raise ValueError("design lengths violate the decoding-capability bound")
        if doc["code"] is None:
            return res
        code = construct.from_json(json.dumps(doc["code"]))
        tower = code.code.tower
        if ((code.n, code.sc.k, code.cover_dim, tower.q, tower.m, code.code.part.parts)
                != (res.n, res.k, res.cover_dim, res.q, res.m, res.parts)):
            raise ValueError("embedded code does not match the design's n, k, cover_dim, "
                             "field or parts")
        if any(not d <= z for d, z in zip(res.constraint.zero_sets, code.sc.zero_sets)):
            raise ValueError("embedded code lacks a zero the access structure requires")
        return replace(res, code=code)


def _sized(inst: NetworkInstance, lengths) -> DesignResult:
    """Everything the per-source lengths determine, without a code."""
    n = sum(lengths)
    sc = derive_zero_sets(inst.access, inst.lengths, lengths)
    ktil = cover_dimension(sc)
    parts = even_partition(n, inst.ell)
    params = suggest_field_params(ktil, inst.ell, parts.parts)
    return DesignResult(
        instance=inst, lengths=tuple(lengths), n=n, k=inst.k, cover_dim=ktil,
        distance=2 * inst.ell * inst.t + inst.rho + 1,
        q=params.q, m=params.m, parts=parts.parts, constraint=sc, code=None)


def build_distributed_code(inst: NetworkInstance, seed: int = 0,
                           build_code: bool = True) -> DesignResult:
    """Full design pipeline; set build_code=False to stop after the sizing
    stage."""
    res = _sized(inst, design_lengths(inst)[0])
    if not build_code:
        return res
    tower = make_field(*prime_power(res.q), res.m)
    code = construct.subcode_generator(tower, OrderedPartition(res.parts), inst.k,
                                       res.constraint, seed=seed)
    return replace(res, code=code)


# ----------------------------------------------------------------------
# the adversarial channel


@dataclass(frozen=True)
class ChannelRealization:
    """One channel draw Y = A X + E over F_q, the base field of `tower`.
    `rank_A` is the F_q-rank of A that `sample_channel` verified
    (n - rho_eff), so the audit reports it without eliminating A again; a
    hand-built realization must pass A's true rank."""

    A: np.ndarray      # N x n transfer matrix over F_q
    E: np.ndarray      # N x M error matrix over F_q
    tower: FieldTower  # make_field(p, e, 1): F_q = F_{p^e} itself
    t: int
    rho: int
    rank_A: int        # F_q-rank of A


_SNAPSHOT_WORDS = 1 << 16  # words drawn between the states a `_WordStream` saves


class _WordStream:
    """The 32-bit Mersenne Twister words of `rng`, a plain `random.Random`
    (`SystemRandom` keeps no state to rewind), drawn in bulk and read in
    order: `below(n, count)` returns what `count` calls of `rng.randrange(n)`
    would, as an int64 array; needs n < 2^32.

    CPython's `randrange(n)` takes one word per try, keeps its top
    `n.bit_length()` bits and tries again while they are >= n, and
    `getrandbits(32 * w)` returns the next w words, the first one least
    significant.  A stream draws more words than it reads, sized by the
    acceptance rate n / 2^bit_length(n), and keeps only the words not yet
    read.  `sync(start)` leaves `rng` where the scalar calls would have,
    given `start`, the `rng.getstate()` that the caller took when it made
    the stream: if words were drawn past those read, it restores the last
    state at or before the read position, `start` or one the stream saved,
    and reads the words from there to it again.  The stream saves a state
    before a draw once `_SNAPSHOT_WORDS` words were drawn since position 0
    or the last saved state, so a long rejection loop replays few words,
    and a caller that never syncs takes no state at its start."""

    def __init__(self, rng):
        self._rng = rng
        self._saved = []  # (position > 0, rng's state there), increasing
        self._words = np.empty(0, dtype="<u4")  # the words from position _base on
        self._base = 0
        self._pos = 0  # words read

    def peek(self, n: int, count: int):
        """The next `count` values below n, without reading them, and the
        word position after each, for `seek`."""
        if not count:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.intp)
        k = n.bit_length()
        vals, ends, start = [], [], self._pos
        while count:
            span = (count << k) // n + (count >> 2) + 8
            short = start + span - self._base - self._words.size
            if short > 0:
                self._draw(short)
            window = self._words[start - self._base:start + span - self._base] >> (32 - k)
            ok = np.flatnonzero(window < n)[:count]
            vals.append(window[ok])
            ends.append(ok + (start + 1))
            count -= ok.size
            start += span
        if len(vals) == 1:
            return vals[0].astype(np.int64), ends[0]
        return np.concatenate(vals).astype(np.int64), np.concatenate(ends)

    def seek(self, pos: int):
        """Mark the words before position `pos` read."""
        self._pos = int(pos)

    def below(self, n: int, count: int) -> np.ndarray:
        vals, ends = self.peek(n, count)
        if count:
            self.seek(ends[-1])
        return vals

    def _draw(self, w: int):
        end = self._base + self._words.size  # the position of rng's state
        if end - (self._saved[-1][0] if self._saved else 0) >= _SNAPSHOT_WORDS:
            self._saved.append((end, self._rng.getstate()))
            while self._saved[1:] and self._saved[1][0] <= self._pos:
                del self._saved[0]
        new = np.frombuffer(self._rng.getrandbits(32 * w).to_bytes(4 * w, "little"),
                            dtype="<u4")
        self._words = np.concatenate((self._words[self._pos - self._base:], new))
        self._base = self._pos

    def sync(self, start):
        if self._base + self._words.size > self._pos:
            at, state = ([(0, start)] + [s for s in self._saved if s[0] <= self._pos])[-1]
            self._rng.setstate(state)
            # in chunks: getrandbits takes a C int of bits
            for done in range(at, self._pos, _SNAPSHOT_WORDS):
                self._rng.getrandbits(32 * min(_SNAPSHOT_WORDS, self._pos - done))


def sample_channel(n: int, N: int, M: int, t: int, rho: int, q: int,
                   seed: int = 0) -> ChannelRealization:
    """Transfer matrix with at most rho deleted pivots and a factored error of
    rank at most t; deterministic per seed.  After the erasures, every entry
    and the error rank come from one `_WordStream` on the seeded stream, as
    the `randrange` calls of a scalar loop would draw them (`randint(0, t)`
    is `randrange(t + 1)`), so q < 2^32.  Nothing reads the generator after
    the stream, so it is never synced."""
    if t < 0 or rho < 0:
        raise ValueError(f"need t, rho >= 0; got t = {t}, rho = {rho}")
    if N < n - rho:
        raise ValueError("the sink must collect at least n - rho packets")
    if q >= 1 << 32:
        raise ValueError(f"channel draws need q < 2^32; got q = {q}")
    pe = prime_power(q)
    if pe is None:
        raise ValueError(f"q = {q} is not a prime power")
    tower = make_field(*pe, 1)
    rng = random.Random(seed)
    rho_eff = rng.randint(max(0, n - N), rho)
    deleted = rng.sample(range(n), rho_eff)
    words = _WordStream(rng)
    while True:
        A = words.below(q, N * n).reshape(N, n)
        A[:, deleted] = 0
        rank_A = tower.base_matrix_rank(A)
        if rank_A == n - rho_eff:
            break
    t_eff = int(words.below(t + 1, 1)[0])
    if t_eff:
        UV = words.below(q, (N + M) * t_eff)
        U = UV[:N * t_eff].reshape(N, t_eff)
        V = UV[N * t_eff:].reshape(t_eff, M)
        E = tower._base_product(U, V)  # the draws lie in 0 .. q - 1
    else:
        E = np.zeros((N, M), dtype=np.int64)
    return ChannelRealization(A=A, E=E, tower=tower, t=t, rho=rho, rank_A=rank_A)


def audit_weights(ch: ChannelRealization, row_partition: OrderedPartition,
                  col_partition: OrderedPartition) -> dict:
    """Check the erasure and error weight bounds on one channel draw."""
    tower = ch.tower
    ell = row_partition.ell
    rank_A = ch.rank_A
    wtsr_A = sumrank.sum_rank_weight_matrix(tower, ch.A, col_partition)
    rank_E = tower.base_matrix_rank(ch.E)
    wtsr_E = sumrank.sum_rank_weight_matrix(tower, ch.E.T, row_partition)
    return {
        "rank_A": rank_A,
        "wtsr_A": wtsr_A,
        "erasure_ok": rank_A >= ch.A.shape[1] - ch.rho and wtsr_A >= rank_A,
        "rank_E": rank_E,
        "wtsr_E": wtsr_E,
        "error_ok": rank_E <= ch.t and wtsr_E <= ell * ch.t,
        "error_tight": rank_E == ch.t and wtsr_E == ell * ch.t,
    }


def weight_statistics(q: int, ell: int, t: int, row_parts, M: int,
                      trials: int, seed: int = 0, rho: int = 0) -> dict:
    """Monte-Carlo audit over seeded channel draws.

    Each draw sends as many packets as it receives, n = N = sum(row_parts).
    Reports the empirical frequency of the error weight bound being tight,
    conditioned on full error rank.
    """
    if t < 0 or rho < 0 or trials < 0:
        raise ValueError(f"need t, rho, trials >= 0; got t = {t}, rho = {rho}, trials = {trials}")
    row_partition = OrderedPartition(row_parts)
    N = row_partition.n
    col_partition = even_partition(N, ell)
    all_ok = True
    full_rank = 0
    tight = 0
    for i in range(trials):
        ch = sample_channel(N, N, M, t, rho, q, seed=(seed << 20) ^ i)
        rep = audit_weights(ch, row_partition, col_partition)
        all_ok = all_ok and rep["erasure_ok"] and rep["error_ok"]
        if rep["rank_E"] == t:
            full_rank += 1
            if rep["wtsr_E"] == ell * t:
                tight += 1
    return {
        "trials": trials,
        "seed": seed,
        "bounds_ok": all_ok,
        "full_rank_draws": full_rank,
        "tight_draws": tight,
        "tight_given_full_rank": (tight / full_rank) if full_rank else None,
    }


# ----------------------------------------------------------------------
# end-to-end micro decoding with injected sum-rank errors and erasures


def puncture(part: OrderedPartition, erased):
    """Partition and column keep-list after deleting erased 1-based columns."""
    erased = set(erased)
    keep = [j for j in range(1, part.n + 1) if j not in erased]
    sizes = []
    for (a, b) in part.slices():
        size = sum(1 for j in range(a + 1, b + 1) if j not in erased)
        if size:
            sizes.append(size)
    return OrderedPartition(sizes), keep


_BATCH_MAX = 4096  # candidate blocks per batch of `random_error_of_weight`


def _first_batch(q: int, m: int, s: int, r: int) -> int:
    """Twice the expected number of candidate blocks of s elements of F_{q^m}
    up to the first of rank r, within [8, _BATCH_MAX]: a share
    prod_{i<r} (q^m - q^i)(q^s - q^i)/(q^r - q^i) of the q^(m s) blocks has
    rank r over F_q."""
    num = den = 1
    for i in range(r):
        num *= (q ** m - q ** i) * (q ** s - q ** i)
        den *= q ** r - q ** i
    return min(_BATCH_MAX, max(8, 2 * den * q ** (m * s) // num))


def random_error_of_weight(tower: FieldTower, part: OrderedPartition,
                           weight: int, rng) -> list:
    """Error vector of exact sum-rank weight, built block by block.

    `rng` must be a plain `random.Random`.  After the per-block ranks are
    chosen, the candidate blocks come from one `_WordStream` on `rng`: each
    batch is peeked at and ranked in one `sumrank.block_ranks` call, and its
    words are read up to the end of the first block of the wanted rank.
    The first batch of a block is `_first_batch`, and each further one four
    times the last.  One `sync` at the end leaves `rng` where drawing
    candidates one at a time would have, so the result and the state are
    those of that scalar loop.  Its guard is `numpy_tables`, fetched first."""
    red = tower.numpy_tables()[2]
    capacities = [min(nl, tower.m) for nl in part.parts]
    if weight > sum(capacities):
        raise ValueError("weight exceeds the partition capacity")
    target = [0] * part.ell
    left = weight
    while left:
        l = rng.randrange(part.ell)
        if target[l] < capacities[l]:
            target[l] += 1
            left -= 1
    err = [0] * part.n
    start = rng.getstate()  # where `sync` rewinds to
    words = _WordStream(rng)
    for l, (a, b) in enumerate(part.slices()):
        if target[l] == 0:
            continue
        s = b - a
        batch = _first_batch(tower.q, tower.m, s, target[l])
        while True:
            vals, ends = words.peek(tower.order, batch * s)
            blocks = vals.reshape(batch, s)
            hits = np.flatnonzero(sumrank.block_ranks(red, blocks.T) == target[l])
            if hits.size:
                j = int(hits[0])
                words.seek(ends[(j + 1) * s - 1])
                err[a:b] = blocks[j].tolist()
                break
            words.seek(ends[-1])
            batch = min(4 * batch, _BATCH_MAX)
    words.sync(start)
    return err


def end_to_end_trial(cc: construct.ConstrainedCode, distance: int,
                     error_weight: int, erasures: int, rng) -> bool:
    """Encode a random message, inject an exact-weight error plus erasures,
    decode the covering LRS code on the kept columns by `lrs.decode` within
    radius floor((distance - erasures - 1)/2), map its message back through
    T^-1 and compare: the entries past k must be zero, the first k the
    message.  `distance` may not exceed the covering code's
    n - cover_dim + 1."""
    tower = cc.code.tower
    part = cc.code.part
    k = cc.sc.k
    msg = tuple(tower.random_element(rng) for _ in range(k))
    cw = gf.vec_mat(tower, list(msg), [list(r) for r in cc.matrix])
    err = random_error_of_weight(tower, part, error_weight, rng)
    y = [tower.add(c, e) for c, e in zip(cw, err)]
    erased = rng.sample(range(1, part.n + 1), erasures)
    keep = puncture(part, erased)[1]
    f = lrs.decode(cc.code, [y[j - 1] for j in keep], keep,
                   radius=(distance - erasures - 1) // 2)
    if f is None:
        return False
    u = gf.vec_mat(tower, list(f), cc.inverse_transform)
    return tuple(u[:k]) == msg and not any(u[k:])
