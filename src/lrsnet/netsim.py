"""Distributed multi-source network designer and adversarial channel simulator.

Pipeline: an integer program sizes the per-source encoded lengths, the access
structure induces a generator zero pattern, a support-constrained LRS
(sub)code is synthesized over a sufficient field, packets are lifted with
identity headers, and a (t, rho)-adversary channel Y = A X + E is sampled
and audited against the rank/sum-rank weight bounds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

import numpy as np

from . import construct, gf, sumrank
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
# lifting and the adversarial channel


def lift(blocks) -> np.ndarray:
    """Stack per-source packets (0 .. I .. 0 | C^T) into the n x (n+m) matrix."""
    blocks = [np.asarray(b, dtype=np.int64) for b in blocks]
    if not blocks:
        raise ValueError("no source blocks")
    m = blocks[0].shape[0]
    if any(b.shape[0] != m for b in blocks):
        raise ValueError("inconsistent expansion height across sources")
    widths = [b.shape[1] for b in blocks]
    n = sum(widths)
    X = np.zeros((n, n + m), dtype=np.int64)
    row = 0
    for b, w in zip(blocks, widths):
        X[row:row + w, row:row + w] = np.eye(w, dtype=np.int64)
        X[row:row + w, n:] = b.T
        row += w
    return X


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


def _rand_matrix(rng, rows, cols, q):
    return np.array([[rng.randrange(q) for _ in range(cols)] for _ in range(rows)],
                    dtype=np.int64)


def sample_channel(n: int, N: int, M: int, t: int, rho: int, q: int,
                   seed: int = 0) -> ChannelRealization:
    """Transfer matrix with at most rho deleted pivots and a factored error of
    rank at most t; deterministic per seed."""
    if N < n - rho:
        raise ValueError("the sink must collect at least n - rho packets")
    pe = prime_power(q)
    if pe is None:
        raise ValueError(f"q = {q} is not a prime power")
    tower = make_field(*pe, 1)
    rng = random.Random(seed)
    rho_eff = rng.randint(max(0, n - N), rho)
    deleted = rng.sample(range(n), rho_eff)
    while True:
        A = _rand_matrix(rng, N, n, q)
        A[:, deleted] = 0
        rank_A = tower.base_matrix_rank(A)
        if rank_A == n - rho_eff:
            break
    t_eff = rng.randint(0, t)
    if t_eff:
        U = _rand_matrix(rng, N, t_eff, q)
        V = _rand_matrix(rng, t_eff, M, q)
        E = tower.base_mat_mul(U, V)
    else:
        E = np.zeros((N, M), dtype=np.int64)
    return ChannelRealization(A=A, E=E, tower=tower, t=t, rho=rho, rank_A=rank_A)


def transmit(X, ch: ChannelRealization) -> np.ndarray:
    """Network equation Y = A X + E over F_q."""
    X = np.asarray(X, dtype=np.int64)
    if ch.A.shape[1] != X.shape[0] or ch.E.shape[1] != X.shape[1]:
        raise ValueError("shape mismatch between packets and channel")
    tower = ch.tower
    AX = tower.base_mat_mul(ch.A, X)
    if tower.e == 1:
        return (AX + ch.E) % tower.q
    return tower._base_numpy_tables()[0][AX, ch.E]


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


def random_error_of_weight(tower: FieldTower, part: OrderedPartition,
                           weight: int, rng) -> list:
    """Error vector of exact sum-rank weight, built block by block."""
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
    for l, (a, b) in enumerate(part.slices()):
        if target[l] == 0:
            continue
        while True:
            blk = [tower.random_element(rng) for _ in range(b - a)]
            if tower.rank_over_base(blk) == target[l]:
                err[a:b] = blk
                break
    return err


def end_to_end_trial(cc: construct.ConstrainedCode, distance: int,
                     error_weight: int, erasures: int, rng) -> bool:
    """Encode a random message, inject an exact-weight error plus erasures,
    decode by brute force on the punctured code, compare messages."""
    tower = cc.code.tower
    part = cc.code.part
    k = cc.sc.k
    G = [list(r) for r in cc.matrix]
    msg = tuple(tower.random_element(rng) for _ in range(k))
    cw = gf.vec_mat(tower, list(msg), G)
    err = random_error_of_weight(tower, part, error_weight, rng)
    y = [tower.add(c, e) for c, e in zip(cw, err)]
    erased = rng.sample(range(1, part.n + 1), erasures)
    sub_part, keep = puncture(part, erased)
    sub_G = [[row[j - 1] for j in keep] for row in G]
    sub_y = [y[j - 1] for j in keep]
    res = sumrank.bruteforce_decode(tower, sub_G, sub_part, sub_y,
                                    code_distance=distance - erasures)
    return res.ok and res.message == msg
