"""Skew ring arithmetic, evaluation oracles, lclm/gcrd, minimal polynomials."""

import contextlib
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrsnet.gf import FieldTower, make_field
from lrsnet.skewpoly import (
    NEG_INF,
    SkewPoly,
    evaluate,
    evaluate_by_division,
    gcrd,
    is_p_independent,
    lclm,
    left_div,
    minimal_polynomial,
    minimal_polynomials,
    right_div,
    roots_in_field,
    skew_mul,
    truncated_norm,
    vandermonde,
)

F9 = make_field(3, 1, 2)
F27 = make_field(3, 1, 3)
G = F9.gamma


def rand_poly(tower, rng, deg):
    coeffs = [tower.random_element(rng) for _ in range(deg)]
    coeffs.append(tower.random_nonzero(rng))
    return SkewPoly(tower, coeffs)


def test_commutation_rule():
    # X * gamma = sigma(gamma) * X = (2*gamma + 2) X
    x = SkewPoly(F9, (0, 1))
    c = SkewPoly(F9, (G,))
    prod = x * c
    assert prod.coeffs == (0, 8)  # 2 + 2*3 = 8 encodes 2gamma+2
    assert prod.coeffs[1] == F9.frobenius(G)


def test_multiplicative_identity():
    rng = random.Random(0)
    one = SkewPoly.one(F9)
    for _ in range(20):
        f = rand_poly(F9, rng, rng.randrange(5))
        assert f * one == f
        assert one * f == f


def test_difference_of_squares_with_sigma_fixed_constant():
    # (X+1)(X-1) = X^2 - 1 because -1 lies in F_q
    f = SkewPoly(F9, (1, 1))
    g = SkewPoly(F9, (F9.neg(1), 1))
    assert (f * g).coeffs == (F9.neg(1), 0, 1)


def test_degree_of_zero_polynomial():
    z = SkewPoly.zero(F9)
    assert z.degree == NEG_INF
    assert z.degree < -10 ** 9


def test_right_division_basic():
    x2 = SkewPoly(F9, (0, 0, 1))
    quo, rem = right_div(x2, SkewPoly(F9, (F9.neg(1), 1)))
    assert quo.coeffs == (1, 1)  # X + 1
    assert rem.coeffs == (1,)


def test_right_division_self_and_constant():
    rng = random.Random(1)
    for _ in range(10):
        f = rand_poly(F9, rng, rng.randrange(1, 5)).monic()
        q, r = right_div(f, f)
        assert q == SkewPoly.one(F9) and r.is_zero()
    c = SkewPoly(F9, (5,))
    g = rand_poly(F9, rng, 2)
    q, r = right_div(c, g)
    assert q.is_zero() and r == c


def test_right_division_reconstructs():
    rng = random.Random(2)
    for _ in range(100):
        f = rand_poly(F9, rng, rng.randrange(6))
        g = rand_poly(F9, rng, rng.randrange(4))
        q, r = right_div(f, g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        right_div(SkewPoly.one(F9), SkewPoly.zero(F9))
    with pytest.raises(ZeroDivisionError):
        left_div(SkewPoly.one(F9), SkewPoly.zero(F9))


# F_{2^40} and F_{5^10} have no log tables: their products and Frobenius
# powers run on the packed routes
_DIV_TOWERS = [F9, F27, make_field(2, 2, 3), make_field(2, 1, 40), make_field(5, 1, 10)]


@pytest.mark.parametrize("tower", _DIV_TOWERS, ids=["F9", "F27", "F64", "F2^40", "F5^10"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_left_division_reconstructs(tower, data):
    seed = data.draw(st.integers(0, 2 ** 32))
    rng = random.Random(seed)
    f = SkewPoly(tower, [tower.random_element(rng)
                         for _ in range(data.draw(st.integers(0, 7)))])
    g = rand_poly(tower, rng, data.draw(st.integers(0, 4)))
    q, r = left_div(f, g)
    assert skew_mul(g, q) + r == f
    assert r.degree < g.degree
    # an exact left multiple divides with no remainder, and the cofactor
    # comes back
    h = rand_poly(tower, rng, data.draw(st.integers(0, 4)))
    assert left_div(skew_mul(g, h), g) == (h, SkewPoly.zero(tower))


def test_left_and_right_division_differ():
    # X * gamma = gamma^3 X over F_9: X * gamma is gamma^3 times X from the
    # right side, but the left cofactor of X is sigma^-1(gamma^3) = gamma
    xg = skew_mul(SkewPoly(F9, (0, 1)), SkewPoly(F9, (G,)))
    assert left_div(xg, SkewPoly(F9, (0, 1))) == (SkewPoly(F9, (G,)), SkewPoly.zero(F9))
    assert right_div(xg, SkewPoly(F9, (0, 1))) == (SkewPoly(F9, (F9.pow(G, 3),)),
                                                   SkewPoly.zero(F9))


def test_truncated_norm_values():
    rng = random.Random(3)
    for _ in range(20):
        a = F9.random_element(rng)
        assert truncated_norm(F9, a, 0) == 1
    assert truncated_norm(F9, G, 2) == F9.pow(G, 4) == 2
    for i in range(5):
        assert truncated_norm(F9, 1, i) == 1


def test_truncated_norm_matches_product_form():
    rng = random.Random(4)
    for tower in (F9, F27):
        for _ in range(50):
            a = tower.random_element(rng)
            i = rng.randrange(6)
            prod = 1
            for j in range(i):
                prod = tower.mul(prod, tower.frobenius(a, j))
            assert truncated_norm(tower, a, i) == prod


def test_evaluation_examples():
    rng = random.Random(5)
    for _ in range(20):
        a = F9.random_element(rng)
        assert evaluate(SkewPoly.x_minus(F9, a), a) == 0
    x2 = SkewPoly(F9, (0, 0, 1))
    assert evaluate(x2, G) == 2


def test_evaluation_equals_division_remainder():
    rng = random.Random(6)
    for _ in range(1000):
        f = rand_poly(F9, rng, rng.randrange(7))
        a = F9.random_element(rng)
        assert evaluate(f, a) == evaluate_by_division(f, a)


def test_lclm_idempotent():
    f = SkewPoly(F9, (F9.neg(1), 1))
    assert lclm(f, f) == f


def test_lclm_of_distinct_linear_factors():
    f = SkewPoly.x_minus(F9, 1)
    g = SkewPoly.x_minus(F9, F9.pow(G, 2))
    h = lclm(f, g)
    assert h.degree == 2
    assert gcrd(f, g) == SkewPoly.one(F9)
    # both divide on the right
    assert right_div(h, f)[1].is_zero()
    assert right_div(h, g)[1].is_zero()


def test_lclm_with_x_is_minimal_polynomial_of_zero_union():
    rng = random.Random(7)
    for _ in range(20):
        a = F9.random_nonzero(rng)
        h = lclm(SkewPoly(F9, (0, 1)), SkewPoly.x_minus(F9, a))
        assert h == minimal_polynomial(F9, [0, a])
        assert h.coeffs[0] == 0


def test_gcrd_basics():
    rng = random.Random(8)
    for _ in range(10):
        f = rand_poly(F9, rng, rng.randrange(1, 5))
        assert gcrd(f, f) == f.monic()
    with pytest.raises(ValueError):
        gcrd(SkewPoly.zero(F9), SkewPoly.zero(F9))
    with pytest.raises(ValueError):
        lclm(SkewPoly.zero(F9), SkewPoly.one(F9))


def test_degree_identity_lclm_gcrd():
    rng = random.Random(9)
    for _ in range(500):
        f = rand_poly(F9, rng, rng.randrange(5))
        g = rand_poly(F9, rng, rng.randrange(5))
        assert lclm(f, g).degree + gcrd(f, g).degree == f.degree + g.degree


def _random_locator_set(tower, rng, sizes):
    """P-independent set built from per-block independent multipliers and
    representatives in distinct conjugacy classes (gamma powers)."""
    out = []
    blocks = []
    for l, s in enumerate(sizes):
        rep = tower.pow(tower.gamma, l)
        while True:
            mult = [tower.random_nonzero(rng) for _ in range(s)]
            if tower.rank_over_base(mult) == len(mult):
                break
        pts = [tower.mul(rep, tower.pow(b, tower.q - 1)) for b in mult]
        out.extend(pts)
        blocks.append(pts)
    return out, blocks


def test_gcrd_of_minimal_polynomials_is_minimal_polynomial_of_intersection():
    rng = random.Random(10)
    for _ in range(200):
        pts, _ = _random_locator_set(F27, rng, (rng.randrange(1, 4), rng.randrange(0, 3)))
        if len(pts) < 2:
            continue
        z1 = set(rng.sample(pts, rng.randrange(1, len(pts) + 1)))
        z2 = set(rng.sample(pts, rng.randrange(1, len(pts) + 1)))
        f1 = minimal_polynomial(F27, sorted(z1))
        f2 = minimal_polynomial(F27, sorted(z2))
        inter = z1 & z2
        expected = (minimal_polynomial(F27, sorted(inter)) if inter
                    else SkewPoly.one(F27))
        assert gcrd(f1, f2) == expected


def test_minimal_polynomial_examples():
    rng = random.Random(11)
    for _ in range(10):
        a = F9.random_element(rng)
        assert minimal_polynomial(F9, [a]) == SkewPoly.x_minus(F9, a)
    assert minimal_polynomial(F9, [0]) == SkewPoly(F9, (0, 1))
    f = minimal_polynomial(F9, [1, F9.pow(G, 2)])
    assert f.degree == 2
    assert evaluate(f, 1) == 0 and evaluate(f, F9.pow(G, 2)) == 0


def test_p_independence_examples():
    assert is_p_independent(F9, [G])
    assert not is_p_independent(F9, [1, F9.pow(G, 2), F9.pow(G, 4)])
    # manual locator set of a valid micro code
    locs = [1, F9.pow(G, 2), G, F9.pow(G, 3)]
    assert is_p_independent(F9, locs)


def test_p_independence_agrees_with_vandermonde_rank():
    from lrsnet.gf import mat_rank

    rng = random.Random(12)
    for _ in range(100):
        pts = list({F27.random_element(rng) for _ in range(rng.randrange(1, 5))})
        v = vandermonde(F27, pts, len(pts))
        assert is_p_independent(F27, pts) == (mat_rank(F27, v) == len(pts))


def test_subsets_of_p_independent_sets():
    rng = random.Random(13)
    for _ in range(50):
        pts, _ = _random_locator_set(F27, rng, (2, 2))
        assert is_p_independent(F27, pts)
        sub = rng.sample(pts, rng.randrange(1, len(pts) + 1))
        assert is_p_independent(F27, sub)


def test_vandermonde_shape_and_zero_column():
    pts = [0, 1, G]
    v = vandermonde(F9, pts, 3)
    assert v[0] == [1, 1, 1]
    col0 = [row[0] for row in v]
    assert col0 == [1, 0, 0]


def test_roots_of_linear_and_x():
    rng = random.Random(14)
    for _ in range(10):
        a = F9.random_element(rng)
        assert roots_in_field(SkewPoly.x_minus(F9, a)) == {a}
    assert roots_in_field(SkewPoly(F9, (0, 1))) == {0}


def test_root_set_is_conjugate_image_of_multiplier_span():
    # roots of the minimal polynomial of block locators are exactly
    # {rep * b^(q-1) : b in span(multipliers) - 0}, checked by exhaustion
    rng = random.Random(15)
    q = F27.q
    for _ in range(25):
        sizes = (rng.randrange(1, 3), rng.randrange(0, 3))
        if sum(sizes) == 0:
            continue
        pts, blocks = _random_locator_set(F27, rng, sizes)
        f = minimal_polynomial(F27, pts)
        expected = set()
        for l, blk in enumerate(blocks):
            if not blk:
                continue
            rep = F27.pow(F27.gamma, l)
            # recover the multiplier span from the block points
            mults = [F27.mul(p, F27.inv(rep)) for p in blk]  # b^(q-1) values
            # span image: gather all nonzero F_q-combinations of the b's
            # the b's themselves are unknown here, so rebuild from exhaustion:
            members = {a for a in range(F27.order)
                       if a and F27.norm(rep) == F27.norm(a) and evaluate(f, a) == 0}
            expected |= members
        assert roots_in_field(f) == expected
        # per-block root counts: (q^s - 1)/(q - 1) distinct elements
        count = sum((q ** s - 1) // (q - 1) for s in sizes)
        assert len(roots_in_field(f)) == count


def test_no_zero_divisors_and_degree_additivity():
    rng = random.Random(16)
    for _ in range(100):
        f = rand_poly(F9, rng, rng.randrange(4))
        g = rand_poly(F9, rng, rng.randrange(4))
        prod = skew_mul(f, g)
        assert not prod.is_zero()
        assert prod.degree == f.degree + g.degree


def _x_power(tower, t_exp):
    return SkewPoly(tower, (0,) * t_exp + (1,))


def _right_divisible(f, g):
    return right_div(f, g)[1].is_zero()


def test_x_power_divisibility_left_iff_right():
    # X^t * g = sum sigma^t(g_i) X^(i+t), so X^t divides f on the left iff
    # the t lowest coefficients of f vanish; the division algorithm must
    # agree on the right
    rng = random.Random(17)
    for _ in range(100):
        t_exp = rng.randrange(4)
        f = rand_poly(F9, rng, rng.randrange(5))
        if rng.random() < 0.5:
            f = _x_power(F9, t_exp) * f  # force left divisibility
        left = not any(f.coeffs[:t_exp])
        right = _right_divisible(f, _x_power(F9, t_exp))
        assert left == right


def test_x_power_divides_product_iff_divides_left_factor():
    rng = random.Random(18)
    for _ in range(100):
        t_exp = rng.randrange(1, 4)
        f1 = rand_poly(F9, rng, rng.randrange(4))
        if rng.random() < 0.5:
            f1 = _x_power(F9, t_exp) * f1
        # f2 with nonzero constant term, so X does not divide it
        while True:
            f2 = rand_poly(F9, rng, rng.randrange(3))
            if f2.coeffs[0] != 0:
                break
        lhs = _right_divisible(f1 * f2, _x_power(F9, t_exp))
        rhs = _right_divisible(f1, _x_power(F9, t_exp))
        assert lhs == rhs


def test_minimal_polynomial_of_set_with_zero():
    rng = random.Random(19)
    for _ in range(30):
        pts, _ = _random_locator_set(F27, rng, (rng.randrange(1, 3),))
        f_z = minimal_polynomial(F27, pts)
        f = minimal_polynomial(F27, pts + [0])
        assert f == lclm(SkewPoly(F27, (0, 1)), f_z)
        assert f.coeffs[0] == 0


def test_no_spurious_zeros_on_p_independent_supersets():
    rng = random.Random(20)
    for _ in range(50):
        pts, _ = _random_locator_set(F27, rng, (2, 2))
        sub = rng.sample(pts, rng.randrange(1, len(pts)))
        f = minimal_polynomial(F27, sub)
        for alpha in pts:
            if alpha in sub:
                assert evaluate(f, alpha) == 0
            else:
                assert evaluate(f, alpha) != 0


def test_lclm_all_order_independent():
    rng = random.Random(21)
    for _ in range(20):
        polys = [SkewPoly.x_minus(F9, F9.random_element(rng)) for _ in range(4)]
        a = functools.reduce(lclm, polys)
        rng.shuffle(polys)
        assert functools.reduce(lclm, polys) == a


def test_text_form():
    f = SkewPoly(F9, (2, 0, 1))
    assert f.to_text() == "2 + 1*X^2"
    assert SkewPoly.zero(F9).to_text() == "0"


# ----------------------------------------------------------------------
# Newton interpolation without inverses, alone and batched with shared
# prefixes, against the lclm of the linear factors (X - a).  Towers: p = 2
# past the log tables, the Kronecker product (q = 5), the F_q polynomial
# product (q = 9) and the log tables of F_27.

NEWTON_TOWERS = [make_field(2, 2, 10), make_field(5, 1, 10), make_field(3, 2, 6), F27]
_newton_settings = settings(max_examples=25, deadline=None)


def _lclm_oracle(tower, points):
    if not points:
        return SkewPoly.one(tower)
    return functools.reduce(lclm, [SkewPoly.x_minus(tower, a) for a in points])


@st.composite
def _point_pool(draw, tower):
    """Locator-like points rep * b^(q-1), with P-dependent extras
    rep * (b + b')^(q-1) from the span of a class's multipliers, and
    sometimes 0 or arbitrary elements."""
    element = st.integers(1, tower.order - 1)
    reps = draw(st.lists(st.sampled_from([1, tower.gamma]), min_size=1, max_size=4))
    mults = [draw(element) for _ in reps]
    points = [tower.mul(rep, tower.pow(b, tower.q - 1)) for rep, b in zip(reps, mults)]
    for i in range(1, len(reps)):
        b = tower.add(mults[i - 1], mults[i])
        if reps[i - 1] == reps[i] and b:
            points.append(tower.mul(reps[i], tower.pow(b, tower.q - 1)))
    return points + draw(st.lists(st.one_of(st.just(0), element), max_size=2))


@st.composite
def _point_family(draw, tower):
    """Overlapping point sets drawn from one pool, repeats allowed."""
    pool = draw(_point_pool(tower))
    return draw(st.lists(st.lists(st.sampled_from(pool), max_size=5), min_size=1, max_size=4))


@contextlib.contextmanager
def _counted_inversions():
    calls = []
    inv = FieldTower.inv

    def counting(self, a):
        calls.append(a)
        return inv(self, a)

    FieldTower.inv = counting
    try:
        yield calls
    finally:
        FieldTower.inv = inv


@pytest.mark.parametrize("tower", NEWTON_TOWERS, ids=repr)
@_newton_settings
@given(data=st.data())
def test_minimal_polynomial_matches_lclm_with_one_inversion(tower, data):
    points = data.draw(_point_family(tower))[0] or [0]
    with _counted_inversions() as calls:
        f = minimal_polynomial(tower, points)
    assert len(calls) <= 1
    assert f == _lclm_oracle(tower, points)


@pytest.mark.parametrize("tower", NEWTON_TOWERS, ids=repr)
@_newton_settings
@given(data=st.data())
def test_shared_prefix_batch_matches_lclm(tower, data):
    family = data.draw(_point_family(tower))
    with _counted_inversions() as calls:
        polys = minimal_polynomials(tower, family)
    assert len(calls) <= len(family)
    assert polys == [_lclm_oracle(tower, s) for s in family]
    assert polys == [minimal_polynomial(tower, s) if s else SkewPoly.one(tower)
                     for s in family]
