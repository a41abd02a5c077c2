"""Synthesis of support-constrained LRS generator matrices.

The construction multiplies a plain LRS generator from the left by the
square matrix whose rows hold the coefficients of the minimal polynomials of
each row's forbidden locators, all built in one batch: the rows of a message
share its derived columns, so they extend one Newton product instead of
rebuilding it.  Whenever that matrix is invertible the
product generates the same code and carries exactly the prescribed zeros;
invertibility is guaranteed to be reachable by multiplier choice once the
field is large enough, so the search tries a structured assignment first and
falls back to uniform sampling.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property

from . import gf, lrs
from .constraints import (
    SupportConstraint,
    complete_zero_sets,
    cover_dimension,
    sufficient_extension_degrees,
)
from .gf import FieldTower
from .lrs import LrsCode
from .skewpoly import minimal_polynomials
from .sumrank import OrderedPartition

# Multiplier samples `synthesize` tries before it raises SynthesisError.
_BUDGET = 64


class SynthesisError(RuntimeError):
    """Multiplier sampling budget exhausted."""

    def __init__(self, attempts, last_reason):
        super().__init__(f"no admissible multipliers after {attempts} attempts "
                         f"(last failure: {last_reason})")
        self.attempts = attempts
        self.last_reason = last_reason


@dataclass(frozen=True)
class ConstrainedCode:
    code: LrsCode                 # underlying LRS code (dimension = cover_dim)
    sc: SupportConstraint         # constraint the emitted rows satisfy
    transform: tuple              # square row transform over F_{q^m}
    matrix: tuple                 # emitted generator rows (sc.k x n)
    attempts: int                 # multiplier samples used

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def cover_dim(self) -> int:
        """Dimension of the covering LRS code."""
        return self.code.k

    @cached_property
    def inverse_transform(self) -> list:
        """T^-1, computed once per code.  The matrix is T[:k] G_LRS, so a
        message u encodes to the LRS message (u, 0, ..., 0) T, and
        T^-1 maps that back."""
        return gf.mat_inv(self.code.tower, self.transform)


def row_transform(code: LrsCode, sc: SupportConstraint) -> list:
    """Square matrix whose row i holds the minimal-polynomial coefficients of
    row i's forbidden locators (zero sets completed to size k-1), all rows
    built in one batch that shares Newton steps between zero sets."""
    k = sc.k
    if any(len(z) != k - 1 for z in sc.zero_sets):
        raise ValueError("zero sets must be completed to size k-1 first")
    locs = lrs.locators(code)
    polys = minimal_polynomials(code.tower, [[locs[j - 1] for j in z] for z in sc.zero_sets])
    return [list(f.coeffs) + [0] * (k - len(f.coeffs)) for f in polys]


def verify_support(G, sc: SupportConstraint) -> list:
    """Mismatches between a matrix and the prescribed zero pattern, each as
    (row, column, kind) with kind 'missing-zero' or 'spurious-zero'."""
    out = []
    for i in range(sc.k):
        z = sc.zero_sets[i]
        for j in range(1, sc.n + 1):
            entry = G[i][j - 1]
            if j in z and entry != 0:
                out.append((i + 1, j, "missing-zero"))
            elif j not in z and entry == 0:
                out.append((i + 1, j, "spurious-zero"))
    return out


def _checked_rows(code: LrsCode, T, sc: SupportConstraint):
    """The first sc.k rows of T * G_LRS (None if T is singular) and why they
    break the code invariant (None if they hold): T is singular, or the rows
    are not zero exactly on sc's zero sets."""
    if gf.mat_det(code.tower, T) == 0:
        return None, "transform is singular"
    G = gf.mat_mul(code.tower, T[:sc.k], lrs.generator_matrix(code))
    mismatches = verify_support(G, sc)
    return G, f"matrix does not match the zero sets: {mismatches[:3]}" if mismatches else None


def _random_multipliers(tower: FieldTower, part: OrderedPartition, rng) -> tuple:
    out = []
    for nl in part.parts:
        while True:
            blk = tuple(tower.random_nonzero(rng) for _ in range(nl))
            if tower.rank_over_base(blk) == len(blk):
                break
        out.append(blk)
    return tuple(out)


def synthesize(tower: FieldTower, part: OrderedPartition, k: int,
               sc: SupportConstraint, seed: int = 0) -> ConstrainedCode:
    """Search multipliers until the row transform is invertible and the
    product generator matches the zero pattern exactly, raising
    SynthesisError after `_BUDGET` attempts; a pattern that violates the
    condition raises ConditionViolation."""
    if sc.n != part.n or sc.k != k:
        raise ValueError("constraint shape does not match (partition, k)")
    completed = complete_zero_sets(sc)
    if tower.q < part.ell + 1:
        raise ValueError(f"need q >= ell+1 = {part.ell + 1}, got q = {tower.q}")
    m_bound, m_sharp = sufficient_extension_degrees(tower.q, k, part.parts)
    if tower.m < min(m_bound, m_sharp):
        raise ValueError(
            f"field (q={tower.q}, m={tower.m}) below the sufficient size "
            f"m >= {min(m_bound, m_sharp)}")
    reps = lrs.default_representatives(tower, part.ell)
    rng = random.Random(seed)
    last_reason = "no attempt made"
    for attempt in range(_BUDGET):
        if attempt == 0:
            multipliers = lrs.default_multipliers(tower, part)
        else:
            multipliers = _random_multipliers(tower, part, rng)
        code = lrs.make_code(tower, part, k, reps=reps, multipliers=multipliers)
        T = row_transform(code, completed)
        G, last_reason = _checked_rows(code, T, completed)
        if last_reason:
            continue
        return ConstrainedCode(
            code=code, sc=completed,
            transform=tuple(tuple(r) for r in T),
            matrix=tuple(tuple(r) for r in G),
            attempts=attempt + 1)
    raise SynthesisError(_BUDGET, last_reason)


def subcode_generator(tower: FieldTower, part: OrderedPartition, k: int,
                      sc: SupportConstraint, seed: int = 0) -> ConstrainedCode:
    """Meet an infeasible pattern with the first k rows of a covering code.

    Rows k+1..cover_dim get empty zero sets, which always satisfy the
    condition at the larger dimension; the resulting subcode reaches the
    optimal sum-rank distance n - cover_dim + 1.
    """
    ktil = cover_dimension(sc)
    if ktil > sc.n:
        raise ValueError(f"cover dimension {ktil} exceeds the length {sc.n}; infeasible")
    padded = SupportConstraint(
        sc.n, ktil, sc.zero_sets + (frozenset(),) * (ktil - k))
    full = synthesize(tower, part, ktil, padded, seed=seed)
    return ConstrainedCode(
        code=full.code,
        sc=SupportConstraint(sc.n, k, full.sc.zero_sets[:k]),
        transform=full.transform,
        matrix=full.matrix[:k],
        attempts=full.attempts)


# ----------------------------------------------------------------------
# serialization: enough to rebuild the object bit-exactly


def _csv_block(rows) -> str:
    return "\n".join(",".join(str(x) for x in row) for row in rows)


def _parse_csv_block(text: str) -> tuple:
    return tuple(tuple(int(x) for x in line.split(",")) for line in text.split("\n") if line)


def to_json(cc: ConstrainedCode) -> str:
    doc = {
        "field": cc.code.tower.spec(),
        "partition": list(cc.code.part.parts),
        "k": cc.sc.k,
        "cover_dim": cc.cover_dim,
        "representatives": list(cc.code.reps),
        "multipliers": [list(b) for b in cc.code.multipliers],
        "zero_sets": [sorted(z) for z in cc.sc.zero_sets],
        "attempts": cc.attempts,
        "transform_csv": _csv_block(cc.transform),
        "matrix_csv": _csv_block(cc.matrix),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(map(_is_int, v))


def _is_int_lists(v) -> bool:
    return isinstance(v, list) and all(map(_is_int_list, v))


def _fields(doc, what: str, keys, ints=(), int_lists=(), nested=(), strs=()):
    """Check that a parsed `what` JSON document is an object holding every
    key of `keys`, and that the keys named by ints, int_lists, nested and
    strs hold values of that JSON type; return the document.  The first
    defect raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} JSON must be an object")
    missing = [f'"{key}"' for key in keys if key not in doc]
    if missing:
        raise ValueError(f"{what} JSON lacks {', '.join(missing)}")
    for group, ok, kind in ((ints, _is_int, "an integer"),
                            (int_lists, _is_int_list, "a list of integers"),
                            (nested, _is_int_lists, "a list of integer lists"),
                            (strs, lambda v: isinstance(v, str), "a string")):
        for key in group:
            if not ok(doc[key]):
                raise ValueError(f'{what} field "{key}" must be {kind}')
    return doc


def from_json(text: str) -> ConstrainedCode:
    """Rebuild a serialized code and re-verify it: T must be invertible and
    the matrix must be the first k rows of T * G_LRS, zero exactly on the
    stored zero sets.  Every defect raises ValueError."""
    doc = _fields(json.loads(text), "code",
                  ("field", "partition", "k", "cover_dim", "representatives", "multipliers",
                   "zero_sets", "attempts", "transform_csv", "matrix_csv"),
                  ints=("k", "cover_dim", "attempts"),
                  int_lists=("partition", "representatives"),
                  nested=("multipliers", "zero_sets"),
                  strs=("transform_csv", "matrix_csv"))
    field = doc["field"]
    if not (isinstance(field, dict) and all(_is_int(field.get(key)) for key in "pem")
            and all(_is_int_list(field.get(key)) for key in ("base_modulus", "top_modulus"))):
        raise ValueError('code field "field" must be an object with integers p, e, m '
                         "and integer lists base_modulus, top_modulus")
    tower = FieldTower.from_spec(field)
    T, G = _parse_csv_block(doc["transform_csv"]), _parse_csv_block(doc["matrix_csv"])
    for key, values in (("representatives", doc["representatives"]),
                        ("multipliers", [x for b in doc["multipliers"] for x in b]),
                        ("transform_csv", [x for r in T for x in r]),
                        ("matrix_csv", [x for r in G for x in r])):
        if any(not 0 <= x < tower.order for x in values):
            raise ValueError(f'code field "{key}" holds a value outside F_{tower.order}')
    part = OrderedPartition(doc["partition"])
    k, ktil = doc["k"], doc["cover_dim"]
    code = lrs.make_code(tower, part, ktil, reps=doc["representatives"],
                         multipliers=[tuple(b) for b in doc["multipliers"]])
    sc = SupportConstraint(part.n, k, tuple(frozenset(z) for z in doc["zero_sets"]))
    if len(T) != ktil or any(len(r) != ktil for r in T):
        raise ValueError(f"transform is not {ktil} x {ktil}")
    if k > ktil or len(G) != k or any(len(r) != part.n for r in G):
        raise ValueError(f"matrix is not {k} x {part.n} with k <= cover_dim = {ktil}")
    rows, reason = _checked_rows(code, T, sc)
    if rows is not None and [list(r) for r in G] != rows:
        reason = "matrix is not the first k rows of transform * LRS generator"
    if reason:
        raise ValueError(reason)
    return ConstrainedCode(code=code, sc=sc, transform=T, matrix=G,
                           attempts=doc["attempts"])
