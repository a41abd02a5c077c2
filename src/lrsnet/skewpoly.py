"""Skew polynomials over F_{q^m} twisted by the Frobenius a -> a^q.

Multiplication follows X * a = sigma(a) * X, so the product of f and g has
coefficients sum_{i,j} f_i sigma^i(g_j) X^(i+j).  Evaluation is remainder
evaluation: f(a) = sum_i f_i N_i(a) with the truncated norm
N_i(a) = a^((q^i - 1)/(q - 1)), which equals the remainder of f on right
division by (X - a).

Division comes in two kinds: `right_div` writes f = quo * g + rem, and
`left_div` writes f = g * quo + rem, which `lrs.decode` uses to take the
message f from R = L * f.

Minimal polynomials come from Newton interpolation without inverses: a step
left-multiplies the running product g by (v X - sigma(v) a) with v = g(a),
and one ``monic`` at the end normalises.  `minimal_polynomials` builds many
sets in one batch, extending a shared ordered prefix instead of rebuilding
it; `minimal_polynomial` is its one-set case.

Kept for checks only: `evaluate_by_division` is the oracle of `evaluate`,
`truncated_norm` checks the Moore identity behind `lrs.generator_matrix`,
`is_p_independent` checks `lrs.locators`, and `gcrd`, `lclm` and
`roots_in_field` check the paper's criteria 6 to 8.
"""

from __future__ import annotations

from collections import Counter

from .gf import FieldTower

NEG_INF = float("-inf")  # degree of the zero polynomial


class SkewPoly:
    """Immutable skew polynomial; ``coeffs[i]`` is the coefficient of X^i."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: FieldTower, coeffs=()):
        cs = tuple(int(c) for c in coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):
        raise AttributeError("SkewPoly is immutable")

    # constructors ------------------------------------------------------

    @classmethod
    def zero(cls, tower):
        return cls(tower, ())

    @classmethod
    def one(cls, tower):
        return cls(tower, (1,))

    @classmethod
    def x_minus(cls, tower, alpha):
        return cls(tower, (tower.neg(alpha), 1))

    # basic queries -----------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def monic(self) -> "SkewPoly":
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        inv = self.tower.inv(self.coeffs[-1])
        return SkewPoly(self.tower, tuple(self.tower.mul(inv, c) for c in self.coeffs))

    def __eq__(self, other):
        return (isinstance(other, SkewPoly) and other.tower == self.tower
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.tower, self.coeffs))

    def __repr__(self):
        return f"SkewPoly({self.to_text()})"

    def to_text(self) -> str:
        """Canonical textual form `c0 + c1*X + ...` over integer encodings."""
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*X")
            else:
                parts.append(f"{c}*X^{i}")
        return " + ".join(parts)

    # ring operations ---------------------------------------------------

    def __add__(self, other):
        t = self.tower
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return SkewPoly(t, tuple(t.add(x, y) for x, y in zip(a, b)))

    def __neg__(self):
        t = self.tower
        return SkewPoly(t, tuple(t.neg(c) for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return skew_mul(self, other)


def skew_mul(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Product with the twist X*a = sigma(a)*X."""
    t = f.tower
    if f.is_zero() or g.is_zero():
        return SkewPoly.zero(t)
    res = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    # sigma^i applied to all of g, computed incrementally over i
    gi = list(g.coeffs)
    for i, fc in enumerate(f.coeffs):
        if i > 0:
            gi = [t.frobenius(c) for c in gi]
        if fc == 0:
            continue
        for j, gc in enumerate(gi):
            if gc:
                res[i + j] = t.add(res[i + j], t.mul(fc, gc))
    return SkewPoly(t, res)


def right_div(f: SkewPoly, g: SkewPoly):
    """Quotient and remainder with f = quo * g + rem, deg rem < deg g."""
    if g.is_zero():
        raise ZeroDivisionError("right division by the zero polynomial")
    t = f.tower
    rem = list(f.coeffs)
    dg = len(g.coeffs) - 1
    if len(rem) - 1 < dg:
        return SkewPoly.zero(t), f
    quo = [0] * (len(rem) - dg)
    for d in range(len(rem) - 1 - dg, -1, -1):
        lead = rem[d + dg]
        if lead == 0:
            continue
        # c * sigma^d(g_lead) = lead
        c = t.mul(lead, t.inv(t.frobenius(g.coeffs[-1], d)))
        quo[d] = c
        # rem -= (c X^d) * g
        sg = [t.frobenius(gc, d) for gc in g.coeffs]
        for j, gc in enumerate(sg):
            if gc:
                rem[d + j] = t.sub(rem[d + j], t.mul(c, gc))
    return SkewPoly(t, quo), SkewPoly(t, rem)


def left_div(f: SkewPoly, g: SkewPoly):
    """Quotient and remainder with f = g * quo + rem, deg rem < deg g.

    g (c X^d) = sum_j g_j sigma^j(c) X^(j+d), so the term that cancels the
    lead r of the remainder at degree d + deg g has c = sigma^-deg g(r / g_lead).
    """
    if g.is_zero():
        raise ZeroDivisionError("left division by the zero polynomial")
    t = f.tower
    rem = list(f.coeffs)
    dg = len(g.coeffs) - 1
    if len(rem) - 1 < dg:
        return SkewPoly.zero(t), f
    quo = [0] * (len(rem) - dg)
    inv_lead = t.inv(g.coeffs[-1])
    for d in range(len(rem) - 1 - dg, -1, -1):
        lead = rem[d + dg]
        if lead == 0:
            continue
        c = t.frobenius(t.mul(inv_lead, lead), -dg)
        quo[d] = c
        # rem -= g * (c X^d)
        sc = c
        for j, gc in enumerate(g.coeffs):
            if j > 0:
                sc = t.frobenius(sc)
            if gc:
                rem[d + j] = t.sub(rem[d + j], t.mul(gc, sc))
    return SkewPoly(t, quo), SkewPoly(t, rem)


def truncated_norm(tower: FieldTower, alpha: int, i: int):
    """N_i(alpha) = prod_{j<i} sigma^j(alpha) = alpha^((q^i-1)/(q-1))."""
    if i < 0:
        raise ValueError("norm index must be >= 0")
    if i == 0:
        return 1
    return tower.pow(alpha, (tower.q ** i - 1) // (tower.q - 1))


def evaluate(f: SkewPoly, alpha: int):
    """Remainder evaluation f(alpha) = sum_i f_i N_i(alpha)."""
    return _evaluate_coeffs(f.tower, f.coeffs, alpha)


def _evaluate_coeffs(t: FieldTower, coeffs, alpha: int):
    acc = 0
    norm = 1
    sig = alpha  # sigma^i(alpha) while processing coefficient i+1
    for i, c in enumerate(coeffs):
        if i > 0:
            norm = t.mul(norm, sig)
            sig = t.frobenius(sig)
        if c:
            acc = t.add(acc, t.mul(c, norm))
    return acc


def evaluate_by_division(f: SkewPoly, alpha: int):
    """f(alpha) as the remainder of right division by (X - alpha)."""
    if f.is_zero():
        return 0
    _, rem = right_div(f, SkewPoly.x_minus(f.tower, alpha))
    return rem.coeffs[0] if rem.coeffs else 0


def gcrd(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Monic greatest common right divisor via the right Euclidean algorithm."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcrd(0, 0) is undefined")
    a, b = f, g
    while not b.is_zero():
        _, r = right_div(a, b)
        a, b = b, r
    return a.monic()


def lclm(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Monic least common left multiple via the extended Euclidean scheme."""
    if f.is_zero() or g.is_zero():
        raise ValueError("lclm of the zero polynomial is undefined")
    t = f.tower
    r_prev, r_cur = f, g
    u_prev, u_cur = SkewPoly.one(t), SkewPoly.zero(t)
    while not r_cur.is_zero():
        q, r_next = right_div(r_prev, r_cur)
        u_next = u_prev - q * u_cur
        r_prev, r_cur = r_cur, r_next
        u_prev, u_cur = u_cur, u_next
    # u_cur * f = +-lclm once the remainder hits zero
    return (u_cur * f).monic()


def minimal_polynomial(tower: FieldTower, points) -> SkewPoly:
    """Monic minimal polynomial of a point set, by Newton interpolation.

    Points already annihilated by the running polynomial are skipped, so the
    result has degree |points| exactly when the set is P-independent.
    """
    pts = list(points)
    if not pts:
        raise ValueError("minimal polynomial of an empty set")
    return minimal_polynomials(tower, [pts])[0]


def minimal_polynomials(tower: FieldTower, point_sets) -> list:
    """Monic minimal polynomial of each point set (1 for an empty set).

    Each set takes its points rarest first (by how often the sets hold them,
    then by encoding), and the Newton product of every ordered prefix is built
    once per call, so sets that share points share steps.  Rarest first
    suits `construct.row_transform`: a message's rows share its derived
    columns, which few other rows hold, while completion piles onto the
    first columns.  The minimal polynomial does not depend on the order.
    """
    sets = [tuple(s) for s in point_sets]
    held = Counter(a for s in sets for a in s)
    products = {}  # ordered prefix -> its Newton product
    out = []
    for s in sets:
        prefix, g = (), (1,)
        for alpha in sorted(s, key=lambda a: (held[a], a)):
            prefix += (alpha,)
            h = products.get(prefix)
            if h is None:
                h = products[prefix] = (_newton_step(tower, g, alpha) if len(prefix) > 1
                                        else (tower.neg(alpha), 1))
            g = h
        out.append(SkewPoly(tower, g).monic())
    return out


def _newton_step(t: FieldTower, g, alpha: int):
    """Coefficients of (v X - sigma(v) alpha) g with v = g(alpha) != 0, the
    left multiple of g that also vanishes at alpha (g itself when v = 0).

    It is v times the monic Newton factor X - sigma(v) alpha v^-1, so the
    step needs no inverse: h_i = c_0 g_i + v sigma(g_(i-1)) with
    c_0 = -sigma(v) alpha.
    """
    v = _evaluate_coeffs(t, g, alpha)
    if v == 0:
        return g
    c0 = t.neg(t.mul(t.frobenius(v), alpha))
    h = [t.mul(c0, g[0])]
    for lo, hi in zip(g, g[1:]):
        h.append(t.add(t.mul(c0, hi), t.mul(v, t.frobenius(lo))))
    h.append(t.mul(v, t.frobenius(g[-1])))
    return tuple(h)


def is_p_independent(tower: FieldTower, points) -> bool:
    """True iff the minimal polynomial degree equals the number of points."""
    pts = list(dict.fromkeys(points))
    if not pts:
        return True
    return minimal_polynomial(tower, pts).degree == len(pts)


def vandermonde(tower: FieldTower, points, rows: int):
    """Twisted Vandermonde matrix: entry (i, j) = N_i(points[j])."""
    if rows < 1:
        raise ValueError("need at least one row")
    pts = list(points)
    mat = [[1] * len(pts)]
    sigs = list(pts)  # sigma^(i-1) of each point while filling row i
    norms = [1] * len(pts)
    for _ in range(1, rows):
        norms = [tower.mul(n, s) for n, s in zip(norms, sigs)]
        sigs = [tower.frobenius(s) for s in sigs]
        mat.append(list(norms))
    return mat


_ROOT_ENUM_MAX = 1 << 16


def roots_in_field(f: SkewPoly):
    """All distinct field elements annihilated by f under remainder
    evaluation, by exhaustive evaluation.

    Each nonzero root a here, conjugate to a block representative a_l, stands
    for q - 1 nonzero roots beta of the operator evaluation
    beta * f(a_l beta^(q-1)): the solutions of a_l beta^(q-1) = a differ by
    a scalar c in F_q^*, since (c beta)^(q-1) = beta^(q-1).
    """
    t = f.tower
    if t.order > _ROOT_ENUM_MAX:
        raise ValueError(f"field order {t.order} exceeds root-enumeration guard")
    return {a for a in range(t.order) if evaluate(f, a) == 0}
