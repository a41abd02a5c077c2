"""Linearized Reed-Solomon codes.

A code is determined by block representatives from distinct conjugacy
classes, per-block column multipliers that are linearly independent over the
base field, and a dimension k.  Codewords are b * (f(alpha))_alpha for skew
polynomials f of degree < k evaluated at the code locators
alpha = a_l * b^(q-1).

Two independent paths stay as oracles of `generator_matrix`:
`generator_by_vandermonde` (twisted Vandermonde matrix times multipliers)
and `encode` (evaluation of the message polynomial at each locator).

`decode` corrects up to floor((n' - k)/2) sum-rank errors on n' unerased
columns by one Welch-Berlekamp key equation; `sumrank.bruteforce_decode` is
its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf, skewpoly
from .gf import FieldTower
from .skewpoly import SkewPoly
from .sumrank import OrderedPartition, sum_rank_weight


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
            elif t.rank_over_base(blk) < len(blk):
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
    return _moore_rows(code.tower, code.reps, code.multipliers, code.k)


def _moore_rows(t: FieldTower, reps, blocks, rows: int) -> list:
    """rows x n matrix with entry (i, (l,t)) = N_i(a_l) * sigma^i(b_{l,t}) for
    block representatives a_l and per-block element tuples b_l: the operator
    evaluations of X^i at the block's elements."""
    out = []
    # per block: running norm N_i(a_l) and element powers b^(q^i)
    norms = [1] * len(reps)
    sigs = list(reps)
    bpow = [list(blk) for blk in blocks]
    for i in range(rows):
        if i > 0:
            norms = [t.mul(nm, s) for nm, s in zip(norms, sigs)]
            sigs = [t.frobenius(s) for s in sigs]
            bpow = [[t.frobenius(b) for b in blk] for blk in bpow]
        row = []
        for nm, blk in zip(norms, bpow):
            row.extend(t.mul(nm, b) for b in blk)
        out.append(row)
    return out


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


def decode(code: LrsCode, y, columns=None, radius=None):
    """Message of the codeword within sum-rank distance `radius` of the
    received word, as a tuple of k coefficients, or None if there is none.

    `y` holds the received symbols at `columns`, distinct 1-based columns of
    the code (default all n); the others are erased.  On the n' kept columns
    the punctured code is MSRD, so it decodes uniquely up to
    tau = floor((n' - k)/2) errors, the default and the largest `radius`.

    Welch-Berlekamp: solve L_(a_j)(y_j) = R_(a_j)(b_j) on every kept column
    for a nonzero (L, R) with deg L <= radius and deg R <= k - 1 + radius,
    under operator evaluation F_a(b) = sum_i F_i N_i(a) sigma^i(b).  If the
    error has weight at most radius, every nonzero solution has R = L f for
    the sent message f, so f = `skewpoly.left_div`(R, L).  The result is
    certified: it is returned only if the division is exact, deg f < k and
    the error y - encode(f) on the kept columns has `sum_rank_weight` at
    most radius over their blocks.
    Exact division already bounds that weight by deg L, since the error
    lies in the kernel of L; the check repeats it on the codeword itself.
    """
    t = code.tower
    n, k = code.n, code.k
    cols = list(range(1, n + 1)) if columns is None else [int(j) for j in columns]
    if len(set(cols)) != len(cols) or any(not 1 <= j <= n for j in cols):
        raise ValueError(f"columns must be distinct and within 1 .. n = {n}")
    y = t.check_elements(y, "received word entry")
    if len(y) != len(cols):
        raise ValueError(f"received word length {len(y)} does not match "
                         f"{len(cols)} kept columns")
    tau = (len(cols) - k) // 2
    if radius is not None:
        if radius > tau:
            raise ValueError(f"radius {radius} exceeds floor((n' - k)/2) = {tau} "
                             f"for n' = {len(cols)} kept columns and k = {k}")
        tau = radius
    if tau < 0:
        return None
    # the kept columns, block by block in column order
    got = dict(zip(cols, y))
    reps, betas, ys = [], [], []
    for l, (a, b) in enumerate(code.part.slices()):
        here = [j for j in range(a + 1, b + 1) if j in got]
        if here:
            reps.append(code.reps[l])
            betas.append([code.multipliers[l][j - a - 1] for j in here])
            ys.append([got[j] for j in here])
    # row j of the system: [L_i coefficients | R_i coefficients], R negated
    lhs = _moore_rows(t, reps, ys, tau + 1)
    rhs = _moore_rows(t, reps, betas, k + tau)
    ncols = 2 * tau + k + 1
    system = [list(row) for row in zip(*lhs, *rhs)]
    rank = len(gf._eliminate(system, ncols, t.inv, t.mul, t.sub)[0])
    # each pivot row starts with a 1 at its pivot column; take the first
    # free column as 1, the other free ones as 0, and back-substitute
    pivot_cols = [next(c for c, v in enumerate(row) if v) for row in system[:rank]]
    free = next((c for c in range(ncols) if c not in pivot_cols), None)
    if free is None:
        return None
    x = [0] * ncols
    x[free] = 1
    for row, pc in zip(reversed(system[:rank]), reversed(pivot_cols)):
        acc = 0
        for c in range(pc + 1, ncols):
            if row[c] and x[c]:
                acc = t.add(acc, t.mul(row[c], x[c]))
        x[pc] = t.neg(acc)
    L = SkewPoly(t, x[:tau + 1])
    if L.is_zero():
        return None
    f, rem = skewpoly.left_div(SkewPoly(t, [t.neg(v) for v in x[tau + 1:]]), L)
    if not rem.is_zero() or len(f.coeffs) > k:
        return None
    msg = f.coeffs + (0,) * (k - len(f.coeffs))
    # the first k rows of rhs generate the punctured code
    cw = gf.vec_mat(t, msg, rhs[:k])
    err = [t.sub(v, c) for v, c in zip((v for blk in ys for v in blk), cw)]
    kept = OrderedPartition(tuple(len(blk) for blk in ys))
    return msg if sum_rank_weight(t, err, kept) <= tau else None
