"""Linearized Reed-Solomon codes.

A code is determined by block representatives from distinct conjugacy
classes, per-block column multipliers that are linearly independent over the
base field, and a dimension k.  Codewords are b * (f(alpha))_alpha for skew
polynomials f of degree < k evaluated at the code locators
alpha = a_l * b^(q-1).

Two independent paths stay as oracles of `generator_matrix`:
`generator_by_vandermonde` (twisted Vandermonde matrix times multipliers)
and `encode` (evaluation of the message polynomial at each locator).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import skewpoly
from .gf import FieldTower
from .skewpoly import SkewPoly
from .sumrank import OrderedPartition


@dataclass(frozen=True)
class LrsCode:
    tower: FieldTower
    part: OrderedPartition
    k: int
    reps: tuple          # block representatives, one per block
    multipliers: tuple   # tuple of per-block multiplier tuples

    @property
    def n(self) -> int:
        return self.part.n

    def flat_multipliers(self) -> list:
        return [b for blk in self.multipliers for b in blk]


def default_representatives(tower: FieldTower, ell: int):
    """1, gamma, ..., gamma^(ell-1): pairwise from distinct conjugacy classes."""
    return tuple(tower.pow(tower.gamma, l) for l in range(ell))


def default_multipliers(tower: FieldTower, part: OrderedPartition):
    """Power-basis slice per block, block l shifted by gamma^l."""
    out = []
    for l, nl in enumerate(part.parts):
        out.append(tuple(tower.pow(tower.gamma, l + t) for t in range(nl)))
    return tuple(out)


def make_code(tower: FieldTower, part: OrderedPartition, k: int,
              reps=None, multipliers=None) -> LrsCode:
    if reps is None:
        reps = default_representatives(tower, part.ell)
    if multipliers is None:
        multipliers = default_multipliers(tower, part)
    code = LrsCode(tower, part, k, tuple(reps),
                   tuple(tuple(b) for b in multipliers))
    problems = validate(code)
    if problems:
        raise ValueError("invalid LRS code: " + "; ".join(problems))
    return code


def validate(code: LrsCode) -> list:
    """All violated construction requirements, each named individually."""
    t = code.tower
    part = code.part
    problems = []
    if part.ell > t.q - 1:
        problems.append(f"number of blocks {part.ell} exceeds q-1 = {t.q - 1}")
    for l, nl in enumerate(part.parts):
        if nl > t.m:
            problems.append(f"block {l + 1} length {nl} exceeds m = {t.m}")
    if not (1 <= code.k <= part.n):
        problems.append(f"dimension k = {code.k} outside [1, n = {part.n}]")
    if len(code.reps) != part.ell:
        problems.append("one representative required per block")
    else:
        for l, a in enumerate(code.reps):
            if a == 0:
                problems.append(f"representative of block {l + 1} is zero")
        # nonzero reps are sigma-conjugate iff their norms agree: one norm each
        norms = [t.norm(a) for a in code.reps]
        for i in range(part.ell):
            for j in range(i + 1, part.ell):
                if code.reps[i] and norms[i] == norms[j]:
                    problems.append(
                        f"representatives of blocks {i + 1} and {j + 1} share a conjugacy class")
    if len(code.multipliers) != part.ell:
        problems.append("one multiplier tuple required per block")
    else:
        for l, blk in enumerate(code.multipliers):
            if len(blk) != part.parts[l]:
                problems.append(f"block {l + 1} needs {part.parts[l]} multipliers")
            elif not t.linearly_independent_over_base(blk):
                problems.append(f"multipliers of block {l + 1} are dependent over F_q")
    return problems


def locators(code: LrsCode) -> list:
    """Code locators a_l * b^(q-1) in block order."""
    t = code.tower
    out = []
    for a, blk in zip(code.reps, code.multipliers):
        for b in blk:
            out.append(t.mul(a, t.pow(b, t.q - 1)))
    return out


def generator_matrix(code: LrsCode) -> list:
    """k x n generator with entry (i, (l,t)) = N_i(a_l) * b_{l,t}^(q^i)."""
    t = code.tower
    rows = []
    # per block: running norm N_i(a_l) and multiplier powers b^(q^i)
    norms = [1] * code.part.ell
    sigs = list(code.reps)
    bpow = [list(blk) for blk in code.multipliers]
    for i in range(code.k):
        if i > 0:
            norms = [t.mul(nm, s) for nm, s in zip(norms, sigs)]
            sigs = [t.frobenius(s) for s in sigs]
            bpow = [[t.frobenius(b) for b in blk] for blk in bpow]
        row = []
        for l in range(code.part.ell):
            nm = norms[l]
            row.extend(t.mul(nm, b) for b in bpow[l])
        rows.append(row)
    return rows


def generator_by_vandermonde(code: LrsCode) -> list:
    """Same matrix as V_k(locators) * diag(multipliers); cross-check path."""
    t = code.tower
    v = skewpoly.vandermonde(t, locators(code), code.k)
    flat = code.flat_multipliers()
    return [[t.mul(x, b) for x, b in zip(row, flat)] for row in v]


def encode(code: LrsCode, msg) -> list:
    """Evaluation encoding: codeword_j = b_j * f(alpha_j), f = sum msg_i X^i."""
    msg = list(msg)
    if len(msg) != code.k:
        raise ValueError(f"message length {len(msg)} != k = {code.k}")
    t = code.tower
    f = SkewPoly(t, msg)
    out = []
    for alpha, b in zip(locators(code), code.flat_multipliers()):
        out.append(t.mul(b, skewpoly.evaluate(f, alpha)))
    return out
