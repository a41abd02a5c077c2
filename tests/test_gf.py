"""Field tower construction, Frobenius, expansion and conjugacy classes."""

import hashlib
import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrsnet import gf
from lrsnet.gf import (
    FieldTower,
    _eliminate,
    make_field,
    mat_det,
    mat_inv,
    mat_mul,
    mat_rank,
    prime_power,
    vec_mat,
)
from lrsnet.sumrank import OrderedPartition, sum_rank_weight, sum_rank_weight_matrix


# Independent micro-oracle for F_9 used to freeze expected values: residues
# mod (y^2 + y + 2) over F_3 as (c0, c1) pairs, schoolbook arithmetic only.
def _f9_mul(a, b):
    a0, a1 = a
    b0, b1 = b
    # (a0 + a1 y)(b0 + b1 y) with y^2 = -y - 2 = 2y + 1
    c0 = a0 * b0
    c1 = a0 * b1 + a1 * b0
    c2 = a1 * b1
    return ((c0 + c2) % 3, (c1 + 2 * c2) % 3)


def _f9_pow(a, n):
    out = (1, 0)
    for _ in range(n):
        out = _f9_mul(out, a)
    return out


def enc9(pair):
    return pair[0] + 3 * pair[1]


F9 = make_field(3, 1, 2)
F4 = make_field(2, 1, 2)


def test_f4_modulus_is_the_unique_quadratic():
    assert F4.top_modulus == (1, 1, 1)  # y^2 + y + 1
    # gamma = y has order 3
    assert F4.gamma == 2
    assert F4.pow(F4.gamma, 3) == 1
    assert F4.pow(F4.gamma, 1) != 1


def test_f9_modulus_exhaustive_search_oracle():
    # oracle: scan all monic quadratics over F_3, keep irreducible ones whose
    # root has multiplicative order 8
    primitive = []
    for c1 in range(3):
        for c0 in range(3):
            # irreducible iff no root in F_3
            if any((x * x + c1 * x + c0) % 3 == 0 for x in range(3)):
                continue

            def mul(a, b, c0=c0, c1=c1):
                s0 = a[0] * b[0]
                s1 = a[0] * b[1] + a[1] * b[0]
                s2 = a[1] * b[1]
                return ((s0 - s2 * c0) % 3, (s1 - s2 * c1) % 3)

            cur, order = (0, 1), 1
            while cur != (1, 0):
                cur = mul(cur, (0, 1))
                order += 1
                if order > 9:
                    break
            if order == 8:
                primitive.append((c0, c1))
    # smallest key c0 + 3*c1 among primitives
    best = min(primitive, key=lambda t: t[0] + 3 * t[1])
    assert F9.top_modulus == (best[0], best[1], 1)
    assert F9.top_modulus == (2, 1, 1)  # y^2 + y + 2


def test_supplied_non_primitive_modulus_rejected():
    # y^2 + 1 over F_3: root has order 4, not 8
    with pytest.raises(ValueError, match="primitive"):
        FieldTower(3, 1, 2, top_modulus=(1, 0, 1))


def test_supplied_reducible_modulus_rejected():
    with pytest.raises(ValueError, match="reducible"):
        FieldTower(3, 1, 2, top_modulus=(2, 0, 1))  # y^2+2 = (y-1)(y+1)
    with pytest.raises(ValueError, match="reducible"):
        FieldTower(3, 2, 2, base_modulus=(2, 0, 1))  # x^2+2 = (x-1)(x+1)


@pytest.mark.parametrize("moduli", [{"base_modulus": (1, 1)}, {"base_modulus": (2, 0, 2)},
                                    {"top_modulus": (5, 1)}, {"top_modulus": (5, 1, 2)}],
                         ids=["base-degree", "base-lead", "top-degree", "top-lead"])
def test_supplied_modulus_not_monic_of_its_degree_rejected(moduli):
    with pytest.raises(ValueError, match="monic of degree"):
        FieldTower(3, 2, 2, **moduli)


def test_non_prime_p_rejected():
    with pytest.raises(ValueError, match="prime"):
        FieldTower(4, 1, 2)


@pytest.mark.parametrize("p", [gf._MR_DETERMINISTIC_BOUND, 2 ** 89 - 1],
                         ids=["strong-pseudoprime", "2^89-1"])
def test_p_past_the_deterministic_range_rejected(p):
    # the bound is 1287836182261 * 2575672364521, a strong pseudoprime to every
    # base `is_prime` tries; 2^89 - 1 is prime, but those bases only say probably
    assert gf.is_prime(p)
    with pytest.raises(ValueError, match="deterministic"):
        FieldTower(p, 1, 1)


def test_field_arithmetic_matches_f9_oracle():
    for av in range(9):
        for bv in range(9):
            a = (av % 3, av // 3)
            b = (bv % 3, bv // 3)
            assert F9.mul(av, bv) == enc9(_f9_mul(a, b))
            assert F9.add(av, bv) == enc9(((a[0] + b[0]) % 3, (a[1] + b[1]) % 3))


def test_frobenius_fixed_points():
    assert F9.frobenius(0) == 0
    assert F9.frobenius(1) == 1


def test_frobenius_gamma_f9():
    # gamma^3 with modulus y^2+y+2 is 2y+2
    expected = enc9(_f9_pow((0, 1), 3))
    assert expected == enc9((2, 2)) == 8
    assert F9.frobenius(F9.gamma) == expected


@pytest.mark.parametrize("tower", [F4, F9, make_field(2, 2, 2), make_field(3, 1, 3)])
def test_frobenius_order_m(tower):
    rng = random.Random(7)
    for _ in range(100):
        a = tower.random_element(rng)
        x = a
        for _ in range(tower.m):
            x = tower.frobenius(x)
        assert x == a


@pytest.mark.parametrize("tower", [F9, make_field(2, 2, 2)])
def test_frobenius_is_field_automorphism(tower):
    rng = random.Random(11)
    for _ in range(200):
        a, b = tower.random_element(rng), tower.random_element(rng)
        assert tower.frobenius(tower.add(a, b)) == tower.add(tower.frobenius(a), tower.frobenius(b))
        assert tower.frobenius(tower.mul(a, b)) == tower.mul(tower.frobenius(a), tower.frobenius(b))


def _expansion(tower, vec):
    """m x n matrix over F_q whose column j holds the digits of vec[j]."""
    return np.array([tower.digits(v) for v in vec], dtype=np.int64).T.reshape(tower.m, len(vec))


def test_expand_basis_vectors():
    M = _expansion(F9, [1, F9.gamma])
    assert M.tolist() == [[1, 0], [0, 1]]
    assert F9.rank_over_base([1, F9.gamma]) == 2


def test_expand_equal_columns():
    g = F9.gamma
    M = _expansion(F9, [g, g])
    assert M[:, 0].tolist() == M[:, 1].tolist()
    assert F9.rank_over_base([g, g]) == 1


def test_expand_subfield_elements_rank_one():
    # 1 and 2 both lie in F_3: columns are multiples of (1, 0)^T
    M = _expansion(F9, [1, 2])
    assert M.tolist() == [[1, 2], [0, 0]]
    assert F9.rank_over_base([1, 2]) == 1


def test_linear_independence_over_base():
    g = F9.gamma
    assert F9.rank_over_base([1, g]) == 2
    assert F9.rank_over_base([1, 2]) == 1
    assert F9.rank_over_base([g, F9.pow(g, 2), F9.pow(g, 4)]) == 2


def test_rank_invariant_under_base_column_ops():
    rng = random.Random(3)
    for _ in range(50):
        v = [F9.random_element(rng) for _ in range(4)]
        r = F9.rank_over_base(v)
        # scale a column by a nonzero base scalar and add one column to another
        w = list(v)
        j = rng.randrange(4)
        w[j] = F9.mul(w[j], rng.randrange(1, 3))
        i = rng.randrange(4)
        if i != j:
            w[i] = F9.add(w[i], w[j])
        assert F9.rank_over_base(w) == r


def test_conjugacy_classes_f4():
    classes = F4.conjugacy_classes()
    assert classes[0] == {0}
    nonzero = classes[1:]
    assert len(nonzero) == 1
    assert nonzero[0] == {1, 2, 3}


def test_conjugacy_classes_f9_squares():
    classes = F9.conjugacy_classes()
    squares = {F9.mul(c, c) for c in range(1, 9)}
    assert classes[0] == {0}
    assert len(classes[1:]) == 2
    assert all(len(c) == 4 for c in classes[1:])
    assert classes[1] == squares  # class of gamma^0 = 1


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (3, 1, 3), (2, 1, 4)])
def test_conjugacy_partition_structure(p, e, m):
    tower = make_field(p, e, m)
    classes = tower.conjugacy_classes()
    q = tower.q
    assert len(classes) == q  # {0} plus q-1 nonzero classes
    size = (tower.order - 1) // (q - 1)
    assert all(len(c) == size for c in classes[1:])
    union = set()
    for c in classes:
        assert not (union & c)
        union |= c
    assert union == set(range(tower.order))


def test_norms_match_class_enumeration():
    # a and b are sigma-conjugate iff their norms agree (the check of lrs.validate)
    classes = F9.conjugacy_classes()
    for a in range(9):
        for b in range(9):
            in_same = any(a in c and b in c for c in classes)
            assert (F9.norm(a) == F9.norm(b)) == in_same


def test_spec_roundtrip():
    spec = F9.spec()
    again = FieldTower.from_spec(spec)
    assert again == F9
    assert again.gamma == F9.gamma


def test_explicit_moduli_match_search():
    built = FieldTower(3, 1, 2, base_modulus=(0, 1), top_modulus=(2, 1, 1))
    assert built == F9
    for a in range(9):
        for b in range(9):
            assert built.mul(a, b) == F9.mul(a, b)


def test_default_fields_are_cached_singletons():
    assert make_field(3, 1, 2) is make_field(3, 1, 2)
    assert make_field(3, 1, 2) is not make_field(3, 1, 3)


def test_inverse_and_division():
    for tower in (F9, make_field(2, 2, 2)):
        for a in range(1, tower.order):
            assert tower.mul(a, tower.inv(a)) == 1


def test_large_binary_field_smoke():
    # non-table path: F_{2^33}, carry-less multiply route
    tower = make_field(2, 1, 33)
    rng = random.Random(1)
    for _ in range(20):
        a, b = tower.random_element(rng), tower.random_nonzero(rng)
        assert tower.mul(a, tower.inv(tower.mul(a, b))) == (tower.inv(b) if a else 0)
        x = a
        for _ in range(33):
            x = tower.frobenius(x)
        assert x == a


def test_f4_tower_with_extension_base():
    # q = 4 = 2^2 exercises the non-prime base field
    tower = make_field(2, 2, 3)
    assert tower.q == 4 and tower.order == 64
    rng = random.Random(9)
    for _ in range(100):
        a, b, c = (tower.random_element(rng) for _ in range(3))
        assert tower.mul(a, tower.add(b, c)) == tower.add(tower.mul(a, b), tower.mul(a, c))
    assert tower.pow(tower.gamma, 63) == 1
    assert all(tower.pow(tower.gamma, (63 // r)) != 1 for r in (3, 7))


def test_matrix_helpers():
    A = [[1, F9.gamma], [F9.gamma, 2]]
    I = mat_mul(F9, A, mat_inv(F9, A))
    assert I == [[1, 0], [0, 1]]
    assert mat_rank(F9, A) == 2
    det = mat_det(F9, A)
    # det = 1*2 - gamma^2
    assert det == F9.sub(2, F9.mul(F9.gamma, F9.gamma))
    singular = [[1, 2], [2, 4 % 3]]  # rows F_3-proportional? force dependence:
    singular = [[1, 2], [F9.mul(2, 1), F9.mul(2, 2)]]
    assert mat_det(F9, singular) == 0
    assert mat_rank(F9, singular) == 1


def test_numpy_tables_consistency():
    add, mul, _ = F9.numpy_tables()
    for a in range(9):
        for b in range(9):
            assert add[a, b] == F9.add(a, b)
            assert mul[a, b] == F9.mul(a, b)


# odd-p fields with log tables, up to F_{3^10}: add, sub and neg run on Zech
# logarithms there, and the digit loops of the larger fields are their oracle
@pytest.mark.parametrize("pem", [(3, 1, 1), (3, 2, 1), (3, 1, 3), (3, 1, 4), (3, 2, 2),
                                 (5, 1, 3), (7, 1, 3), (3, 1, 10)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_zech_add_sub_neg_match_digit_loops(pem, data):
    tower = make_field(*pem)
    assert tower._zech is not None
    p, nd = tower.p, tower.e * tower.m
    a = data.draw(st.integers(0, tower.order - 1))
    minus_a = gf._digitwise_mod_sub(0, a, p, nd)
    # b = a and b = -a make a difference and a sum zero
    b = data.draw(st.one_of(st.integers(0, tower.order - 1), st.sampled_from([a, minus_a, 0])))
    assert tower.neg(a) == minus_a
    for x, y in ((a, b), (b, a), (a, 0), (0, a)):
        assert tower.add(x, y) == gf._digitwise_mod_add(x, y, p, nd)
        assert tower.sub(x, y) == gf._digitwise_mod_sub(x, y, p, nd)


# the scalar base ops read these tables, so each table is also checked against
# an independent oracle: sums against the digit loops over e base-p digits,
# products against the schoolbook product mod the base modulus
@pytest.mark.parametrize("pem", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (3, 2, 1),
                                 (2, 3, 1), (5, 2, 1), (3, 3, 1), (7, 2, 1)],
                         ids=["F2", "F3", "F4", "F5", "F9", "F8", "F25", "F27", "F49"])
def test_base_numpy_tables_match_scalar_ops(pem):
    tower = make_field(*pem)
    add, mul, neg, inv = tower._base_tables
    p, e, q = tower.p, tower.e, tower.q
    assert add.shape == mul.shape == (q, q) and neg.shape == inv.shape == (q,)
    for a in range(q):
        assert neg[a] == tower.base_neg(a) == gf._digitwise_mod_sub(0, a, p, e)
        assert inv[a] == (tower.base_inv(a) if a else 0)
        if a:
            assert mul[a, inv[a]] == 1
        for b in range(q):
            assert add[a, b] == tower.base_add(a, b) == gf._digitwise_mod_add(a, b, p, e)
            assert tower.base_sub(a, b) == gf._digitwise_mod_sub(a, b, p, e)
            assert mul[a, b] == tower.base_mul(a, b) == _base_product(tower, a, b)


def test_base_tables_up_to_the_table_bound():
    assert make_field(509)._base_tables[1].shape == (509, 509)
    assert make_field(521)._base_tables is None


def _base_product(tower, a, b):
    """a b in F_q by the schoolbook product mod the base modulus."""
    p, e = tower.p, tower.e
    prod = make_field(p)._qpoly_mulmod(gf._int_digits(a, p, e), gf._int_digits(b, p, e),
                                        tower.base_modulus)
    return gf._digits_int(prod, p)


# the base tables come from the powers of a primitive element; check them
# against the polynomial product on every pair up to q = 64
@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3),
                                 (5, 2), (7, 2)])
def test_base_tables_match_polynomial_products(p, e):
    tower = make_field(p, e, 1)
    q = tower.q
    for a in range(q):
        for b in range(q):
            assert tower.base_mul(a, b) == _base_product(tower, a, b)
        if a:
            assert tower.base_mul(a, tower.base_inv(a)) == 1


@pytest.mark.parametrize("p,e", [(2, 8), (3, 5), (7, 3), (2, 9)],
                         ids=["F256", "F243", "F343", "F512"])
def test_base_tables_match_sampled_products(p, e):
    tower = make_field(p, e, 1)
    rng = random.Random(p * 100 + e)
    for _ in range(2000):
        a, b = rng.randrange(tower.q), rng.randrange(tower.q)
        assert tower.base_mul(a, b) == _base_product(tower, a, b)
    assert all(tower.base_mul(a, tower.base_inv(a)) == 1 for a in range(1, tower.q))


def test_class_enumeration_guard():
    tower = make_field(2, 1, 21)  # order 2^21, just past the guard
    with pytest.raises(ValueError, match="guard"):
        tower.conjugacy_classes()


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_degenerate_tower_m_one(p, e):
    tower = make_field(p, e, 1)
    assert tower.order == tower.q
    seen, x = set(), 1
    for _ in range(tower.order - 1):
        seen.add(x)
        x = tower.mul(x, tower.gamma)
    assert len(seen) == tower.order - 1  # gamma generates
    assert tower.frobenius(tower.gamma) == tower.gamma  # sigma = identity at m=1


# ----------------------------------------------------------------------
# Pinned moduli: the default modulus search must keep choosing these, since a
# different modulus changes every element encoding and every serialized code.

SPEC_GOLDEN = {
    (3, 1, 1): ([0, 1], [1, 1]),
    (5, 1, 3): ([0, 1], [2, 3, 0, 1]),
    (2, 1, 8): ([0, 1], [1, 0, 1, 1, 1, 0, 0, 0, 1]),
    (3, 1, 4): ([0, 1], [2, 1, 0, 0, 1]),
    (5, 1, 10): ([0, 1], [3, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1]),
    (2, 2, 1): ([1, 1, 1], [2, 1]),
    (2, 2, 3): ([1, 1, 1], [2, 1, 1, 1]),
    (2, 3, 4): ([1, 1, 0, 1], [3, 1, 0, 0, 1]),
    (2, 2, 10): ([1, 1, 1], [3, 0, 2, 1, 0, 0, 0, 0, 0, 0, 1]),
    (3, 2, 2): ([1, 0, 1], [5, 1, 1]),
    (3, 3, 2): ([1, 2, 0, 1], [10, 1, 1]),
    (5, 2, 3): ([2, 0, 1], [6, 1, 0, 1]),
    (7, 2, 2): ([1, 0, 1], [12, 1, 1]),
    (5, 1, 25): ([0, 1], [2, 3, 0, 2] + [0] * 21 + [1]),
    # odd p with e >= 2, whose searches run on the F_q tables
    (3, 2, 8): ([1, 0, 1], [5, 1, 1, 0, 0, 0, 0, 0, 1]),
    (5, 2, 6): ([2, 0, 1], [9, 1, 0, 0, 0, 0, 1]),
    (3, 3, 5): ([1, 2, 0, 1], [6, 1, 0, 0, 0, 1]),
    (7, 2, 4): ([1, 0, 1], [9, 2, 0, 0, 1]),
}


@pytest.mark.parametrize("pem", sorted(SPEC_GOLDEN))
def test_spec_golden(pem):
    base, top = SPEC_GOLDEN[pem]
    p, e, m = pem
    assert make_field(p, e, m).spec() == {
        "p": p, "e": e, "m": m, "base_modulus": base, "top_modulus": top}


# ----------------------------------------------------------------------
# Each arithmetic route against its oracle: products against the schoolbook
# F_q polynomial product, the Frobenius map and the Euclidean inverse against
# square-and-multiply powers.  Towers: p = 2 with e = 1, 2, 3 (packed
# carry-less product), odd p on the Kronecker product: prime q (F_{7^3} also
# has log tables, which that product built), e = 2 and 3 with slot forms
# spread 3, 2, 2 and 1 y-digits at a time (F_{9^10}, F_{25^6}, F_{27^5},
# F_{49^5}), and the prime field F_65537 past the tables.

ROUTE_TOWERS = [make_field(*pem) for pem in ((2, 2, 10), (2, 3, 7), (2, 1, 17), (5, 1, 10),
                                             (3, 1, 12), (7, 1, 3), (3, 2, 6), (3, 2, 10),
                                             (5, 2, 6), (3, 3, 5), (7, 2, 5), (65537, 1, 1))]
_route_ids = [repr(t) for t in ROUTE_TOWERS]
_route_settings = settings(max_examples=40, deadline=None)


def _element(tower, nonzero=False):
    edges = [1, tower.gamma, tower.order - 1] + ([] if nonzero else [0])
    return st.one_of(st.sampled_from(edges), st.integers(int(nonzero), tower.order - 1))


@pytest.mark.parametrize("tower", ROUTE_TOWERS, ids=_route_ids)
@_route_settings
@given(data=st.data())
def test_mul_matches_polynomial_product(tower, data):
    a, b = data.draw(_element(tower)), data.draw(_element(tower))
    coeffs = tower._qpoly_mulmod(tower.digits(a), tower.digits(b), tower.top_modulus)
    assert tower.mul(a, b) == sum(c * tower.q ** i for i, c in enumerate(coeffs))
    assert tower.sub(a, b) == tower.add(a, tower.neg(b))


@pytest.mark.parametrize("tower", ROUTE_TOWERS + [make_field(3, 1, 3)], ids=repr)
@_route_settings
@given(data=st.data())
def test_mul_by_one_returns_the_other_operand(tower, data):
    a = data.draw(_element(tower))
    assert tower.mul(a, 1) == tower.mul(1, a) == a


@pytest.mark.parametrize("tower", ROUTE_TOWERS, ids=_route_ids)
@_route_settings
@given(data=st.data())
def test_frobenius_matches_power(tower, data):
    a = data.draw(_element(tower))
    i = data.draw(st.integers(-tower.m, 2 * tower.m - 1))
    assert tower.frobenius(a, i) == tower.pow(a, tower.q ** (i % tower.m))


@pytest.mark.parametrize("tower", ROUTE_TOWERS, ids=_route_ids)
@_route_settings
@given(data=st.data())
def test_inv_matches_power(tower, data):
    a = data.draw(_element(tower, nonzero=True))
    assert tower.inv(a) == tower.pow(a, tower.order - 2)


# Itoh-Tsujii inverses past the log tables: odd p with e = 1 and e = 2 at the
# sizes of the paper, p = 2, and F_65537^2, whose Frobenius table is past its
# guard and which inverts by `pow`.  The F_q[y] Euclid must not run.
@pytest.mark.parametrize("pem", [(5, 1, 25), (2, 1, 40), (3, 2, 16), (65537, 1, 2)], ids=str)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_inv_past_the_tables_matches_power(pem, data):
    tower = make_field(*pem)
    a = data.draw(_element(tower, nonzero=True))

    def no_division(*args):
        raise AssertionError("inv ran a polynomial division")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FieldTower, "_qpoly_divmod", no_division)
        assert tower.inv(a) == tower.pow(a, tower.order - 2)


# A degree-1 top field past the tables is F_q itself: `inv` is one `base_inv`,
# checked against Fermat in Python's modular `pow`, and never the power chain.
@pytest.mark.parametrize("p", [65537, 2**61 - 1], ids=str)
def test_inv_of_a_prime_field_past_the_tables_is_one_base_inverse(p):
    tower = make_field(p, 1, 1)
    assert tower._exp is None

    def no_power(*args):
        raise AssertionError("inv ran FieldTower.pow")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FieldTower, "pow", no_power)
        for a in (1, 2, 3, p - 2, p - 1, 12345):
            assert tower.inv(a) == pow(a, p - 2, p)


@pytest.mark.parametrize("pem", [(3, 1, 2), (5, 1, 10), (3, 2, 6)], ids=str)
def test_negative_power_of_zero_raises(pem):
    tower = make_field(*pem)
    with pytest.raises(ZeroDivisionError):
        tower.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        tower.inv(0)
    assert tower.pow(0, 0) == 1 and tower.pow(0, 3) == 0


# Sums of slot products: `_slot_dot` reduces once per m products, so m + 1
# terms cross one chunk boundary and 2 m + 1 two.  All-(p - 1) digits give the
# largest slots; the oracle is the `mul`/`add` loop.
@pytest.mark.parametrize("pem", [(5, 1, 10), (3, 2, 6), (7, 1, 3), (5, 2, 3)], ids=str)
def test_slot_dot_across_chunk_boundaries(pem):
    tower = make_field(*pem)
    top = tower.order - 1
    rng = random.Random(7)
    for n in (tower.m, tower.m + 1, 2 * tower.m + 1):
        for xs, ys in (([top] * n, [top] * n),
                       ([tower.random_element(rng) for _ in range(n)],
                        [tower.random_element(rng) for _ in range(n)])):
            want = 0
            for x, y in zip(xs, ys):
                want = tower.add(want, tower.mul(x, y))
            pairs = [(tower._spread(x), tower._spread(y)) for x, y in zip(xs, ys)]
            assert tower._slot_dot(pairs) == want
            # the largest raw Frobenius sum times a spread operand
            assert tower._frobenius_mul(xs[0], ys[0], 1) == tower.mul(xs[0], tower.frobenius(ys[0]))


# ----------------------------------------------------------------------
# Elimination (rank, determinant, inverse) against oracles that do no
# elimination: row-span sizes, Leibniz determinants and nonzero minors.
# Towers: prime q, p = 2 on the carry-less path (order past the log tables),
# odd p with e >= 2 on the log-table and the slot path, F_4, the channel's
# base field, with p = 2 and e = 2, and F_{5^10}, prime q on the slot path.

LINALG_TOWERS = [make_field(5, 1, 2), make_field(2, 1, 17),
                 make_field(3, 2, 2), make_field(3, 2, 6), make_field(2, 2, 1),
                 make_field(5, 1, 10)]
_tower_ids = [repr(t) for t in LINALG_TOWERS]
_linalg_settings = settings(max_examples=40, deadline=None)


@st.composite
def _matrices(draw, size, max_rows, max_cols, square=False):
    """Rows of entries in range(size); with some chance the last row is a
    combination of the others, so rank-deficient inputs are common."""
    nrows = draw(st.integers(1, max_rows))
    ncols = nrows if square else draw(st.integers(1, max_cols))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, size - 1))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    coeffs = draw(st.none() | st.lists(entry, min_size=nrows - 1, max_size=nrows - 1))
    return rows, coeffs


def _with_dependent_row(rows, coeffs, add, mul):
    if coeffs is None or len(rows) < 2:
        return rows
    last = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        last = [add(x, mul(c, y)) for x, y in zip(last, row)]
    return rows[:-1] + [last]


def _leibniz(tower, A):
    det = 0
    for perm in itertools.permutations(range(len(A))):
        term = 1
        for i, j in enumerate(perm):
            term = tower.mul(term, A[i][j])
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        det = tower.add(det, tower.neg(term) if inversions % 2 else term)
    return det


def _rank_by_minors(tower, A):
    nrows, ncols = len(A), len(A[0])
    for k in range(min(nrows, ncols), 0, -1):
        for rs in itertools.combinations(range(nrows), k):
            for cs in itertools.combinations(range(ncols), k):
                if _leibniz(tower, [[A[i][j] for j in cs] for i in rs]):
                    return k
    return 0


@pytest.mark.parametrize("tower", LINALG_TOWERS, ids=_tower_ids)
@_linalg_settings
@given(data=st.data())
def test_base_matrix_rank_matches_span_size(tower, data):
    rows, coeffs = data.draw(_matrices(tower.q, 4, 4))
    rows = _with_dependent_row(rows, coeffs, tower.base_add, tower.base_mul)
    span = {(0,) * len(rows[0])}
    for row in rows:
        span = {tuple(tower.base_add(x, tower.base_mul(c, y)) for x, y in zip(v, row))
                for v in span for c in range(tower.q)}
    assert tower.q ** tower.base_matrix_rank(np.array(rows)) == len(span)


@st.composite
def _shaped_matrices(draw, q, max_side=12):
    """F_q matrices up to max_side x max_side, tall or wide, with zero rows
    and columns, all-zero inputs and rows that repeat or combine others."""
    nrows = draw(st.integers(1, max_side))
    ncols = draw(st.integers(1, max_side))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, q - 1))
    flat = draw(st.one_of(st.just([0] * (nrows * ncols)),
                          st.lists(entry, min_size=nrows * ncols, max_size=nrows * ncols)))
    M = np.array(flat, dtype=np.int64).reshape(nrows, ncols)
    if draw(st.booleans()):
        M[draw(st.integers(0, nrows - 1))] = 0
    if draw(st.booleans()):
        M[:, draw(st.integers(0, ncols - 1))] = 0
    for _ in range(draw(st.integers(0, 3))):
        dst, src = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        M[dst] = M[src]
    return M


def _oracle_rank(tower, M):
    rows = [list(map(int, r)) for r in M]
    return len(_eliminate(rows, M.shape[1], tower.base_inv, tower.base_mul, tower.base_sub)[0])


# one tower per base field: the packed kernel (F_2, F_4, F_8) and the numpy
# kernel on its mod-p route (F_5, and a prime past int64 residues) and on
# its table route (F_9), against the list elimination
RANK_TOWERS = [make_field(2), make_field(5), make_field(2147483659),
               make_field(2, 2), make_field(2, 3), make_field(3, 2)]


@pytest.mark.parametrize("tower", RANK_TOWERS, ids=[repr(t) for t in RANK_TOWERS])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_base_matrix_rank_matches_list_elimination(tower, data):
    M = data.draw(_shaped_matrices(tower.q))
    if data.draw(st.booleans()) and M.shape[0] >= 2:
        # a last row combining the others
        coeffs = data.draw(st.lists(st.integers(0, tower.q - 1),
                                    min_size=M.shape[0] - 1, max_size=M.shape[0] - 1))
        rows = _with_dependent_row([list(map(int, r)) for r in M[:-1]] + [[0] * M.shape[1]],
                                   coeffs, tower.base_add, tower.base_mul)
        M = np.array(rows, dtype=np.int64)
    want = _oracle_rank(tower, M)
    assert tower.base_matrix_rank(M) == want
    assert tower.base_matrix_rank(M.T) == want
    assert tower.base_matrix_rank(M.tolist()) == want


@st.composite
def _packed_matrices(draw, tower):
    """F_q matrices, p = 2, up to 62 // e + 4 on a side, so the packed
    columns of the taller ones span more than one int64 chunk: dense,
    all-zero, or products U V of rank at most 4, with zero rows, rows that
    repeat others and a last row combining the others.  Bulk entries come
    from a drawn numpy seed; the shape and the structure are drawn."""
    q, side = tower.q, 62 // tower.e + 4
    nrows, ncols = draw(st.integers(0, side)), draw(st.integers(0, side))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["dense", "zero", "low rank"]))
    if kind == "dense":
        M = rng.integers(0, q, (nrows, ncols))
    elif kind == "zero":
        M = np.zeros((nrows, ncols), dtype=np.int64)
    else:
        r = draw(st.integers(1, 4))
        M = tower.base_mat_mul(rng.integers(0, q, (nrows, r)), rng.integers(0, q, (r, ncols)))
    if nrows >= 2:
        for _ in range(draw(st.integers(0, 3))):
            M[draw(st.integers(0, nrows - 1))] = M[draw(st.integers(0, nrows - 1))]
        if draw(st.booleans()):
            M[draw(st.integers(0, nrows - 1))] = 0
        if draw(st.booleans()):
            M[-1] = tower.base_mat_mul(rng.integers(0, q, (1, nrows - 1)), M[:-1])[0]
    return M


@st.composite
def _column_partition(draw, ncols):
    parts = []
    while sum(parts) < ncols:
        parts.append(draw(st.integers(1, ncols - sum(parts))))
    return OrderedPartition(parts)


PACKED_TOWERS = [make_field(2), make_field(2, 2), make_field(2, 3), make_field(2, 4),
                 make_field(2, 9)]


@pytest.mark.parametrize("tower", PACKED_TOWERS, ids=[repr(t) for t in PACKED_TOWERS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_rank_matches_list_elimination(tower, data):
    M = data.draw(_packed_matrices(tower))
    want = _oracle_rank(tower, M)
    assert tower.base_matrix_rank(M) == want
    assert tower.base_matrix_rank(M.T) == want
    assert tower.base_matrix_rank(M.tolist()) == want
    if M.shape[1]:
        # the blocks of one packed matrix against one list elimination each
        part = data.draw(_column_partition(M.shape[1]))
        blocks = sum(_oracle_rank(tower, M[:, a:b]) for a, b in part.slices())
        assert sum_rank_weight_matrix(tower, M, part) == blocks


def test_p2_ranks_take_only_the_packed_route(monkeypatch):
    def forbidden(*args):
        raise AssertionError("p = 2 left the packed route")

    packed = []
    pack = FieldTower._pack_columns
    monkeypatch.setattr(gf, "_eliminate", forbidden)
    monkeypatch.setattr(FieldTower, "_numpy_rank", forbidden)
    monkeypatch.setattr(FieldTower, "_pack_columns", lambda t, M: packed.append(M.shape) or pack(t, M))
    F4 = make_field(2, 2)
    M = np.array([[1, 2, 3, 0, 1], [2, 3, 1, 0, 2], [0, 0, 0, 1, 1]])
    assert F4.base_matrix_rank(M) == 2
    assert sum_rank_weight_matrix(F4, M, OrderedPartition((2, 1, 2))) == 4
    assert packed == [(3, 5), (3, 5)]  # once per matrix, not per block
    F64 = make_field(2, 2, 3)
    assert F64.rank_over_base([1, 4, 5, F64.mul(3, 5)]) == 2


@pytest.mark.parametrize("tower,mat", [
    (make_field(2, 2), [[1, -1], [1, 3]]),   # a numpy index read -1 as 3
    (make_field(2, 2), [[1, 4], [0, 1]]),    # past the F_4 tables
    (make_field(2), [[1, 0], [3, 0]]),       # mod 2 read 3 as 1
    (make_field(3, 2), [[1, 9], [2, 0]]),
    (make_field(5), [[-5, 1]]),
])
def test_base_rank_rejects_out_of_field_entries(tower, mat):
    with pytest.raises(ValueError, match="not an element"):
        tower.base_matrix_rank(mat)
    with pytest.raises(ValueError, match="not an element"):
        tower.base_matrix_rank(np.array(mat).T)
    with pytest.raises(ValueError, match="not an element"):
        sum_rank_weight_matrix(tower, mat, OrderedPartition((1,) * len(mat[0])))


@pytest.mark.parametrize("tower,mat", [
    (make_field(5), [[1.5, 2], [1, 2]]),    # an int64 cast read 1.5 as 1: rank 1
    (make_field(2, 2), [[0.5, 0], [0, 0]]),  # and 0.5 as 0: rank 0
    (make_field(3), [[1.0, 2.0]]),           # a float dtype is refused whole
    (make_field(3), [["1", "2"]]),
])
def test_base_rank_rejects_non_integer_entries(tower, mat):
    with pytest.raises(ValueError, match="must be integers"):
        tower.base_matrix_rank(mat)
    with pytest.raises(ValueError, match="must be integers"):
        sum_rank_weight_matrix(tower, mat, OrderedPartition((1,) * len(mat[0])))


def test_base_rank_takes_object_arrays_of_ints():
    F5 = make_field(5)
    mat = np.array([[1, 2], [2, np.int64(4)]], dtype=object)
    assert F5.base_matrix_rank(mat) == 1
    with pytest.raises(ValueError, match="must be integers"):
        F5.base_matrix_rank(np.array([[1, 2.5]], dtype=object))


@pytest.mark.parametrize("tower,A,B,match", [
    (make_field(2, 2), [[1]], [[-1]], "not an element"),   # a table index read -1 as 3
    (make_field(2, 2), [[7]], [[1]], "not an element"),    # past the F_4 tables
    (make_field(2, 2), [[1]], [[1.5]], "must be integers"),  # an int64 cast read 1.5 as 1
    (make_field(3), [[5]], [[1]], "not an element"),       # mod 3 read 5 as 2
    (make_field(3), [[1, 2]], [[1, 2]], "cannot multiply"),
])
def test_base_mat_mul_rejects_bad_inputs(tower, A, B, match):
    with pytest.raises(ValueError, match=match):
        tower.base_mat_mul(A, B)
    with pytest.raises(ValueError, match=match):
        tower.base_mat_mul(np.array(B).T, np.array(A).T)


@pytest.mark.parametrize("p", [2 ** 31 - 1, 2 ** 32 - 5])
def test_base_mat_mul_exact_past_int64_products(p):
    # four products of (p - 1)^2 overflow an int64 sum below p = 2^31
    F = make_field(p)
    A = [[p - 1, p - 1, p - 1, p - 2]]
    B = [[p - 1], [p - 1], [p - 1], [p - 3]]
    want = sum(a * b for a, b in zip(A[0], (r[0] for r in B))) % p
    assert F.base_mat_mul(A, B).tolist() == [[want]]


@pytest.mark.parametrize("pem", [(3, 1, 2), (2, 2, 2), (2, 1, 3)], ids=["F9", "F16", "F8"])
@pytest.mark.parametrize("bad", ["order", "negative", "float"])
def test_top_field_inputs_are_checked(pem, bad):
    # digits() truncated 9 in F_9 to (0, 0), and a packed p = 2 rank read a
    # negative or too-large int as extra digits
    tower = make_field(*pem)
    v = {"order": tower.order, "negative": -1, "float": 1.0}[bad]
    with pytest.raises(ValueError, match="not an element"):
        tower.rank_over_base([1, v])
    with pytest.raises(ValueError, match="vector entry"):
        sum_rank_weight(tower, [v, 0], OrderedPartition((1, 1)))
    assert tower.check_elements(iter([np.int64(1), tower.order - 1])) == [1, tower.order - 1]


def test_base_matrix_rank_empty_and_fixed():
    F4 = make_field(2, 2, 1)
    assert F4.base_matrix_rank([]) == 0
    assert F4.base_matrix_rank(np.zeros((3, 0), dtype=np.int64)) == 0
    assert F4.base_matrix_rank(np.zeros((5, 7), dtype=np.int64)) == 0
    assert F4.base_matrix_rank(np.eye(6, dtype=np.int64)) == 6
    # x * (1, x) = (x, x + 1) with x^2 = x + 1: rows 1 and 2 are dependent
    assert F4.base_matrix_rank([[1, 2], [2, 3], [0, 1]]) == 2
    assert F4.base_matrix_rank([[1, 2], [2, 3]]) == 1


# plus F_512 over F_8, where p = 2 packs m = 3 digits of e = 3 bits
@pytest.mark.parametrize("tower", LINALG_TOWERS + [make_field(2, 3, 3)],
                         ids=_tower_ids + ["FieldTower(p=2, e=3, m=3)"])
@_linalg_settings
@given(data=st.data())
def test_rank_over_base_matches_expansion(tower, data):
    # widths up to m + 2, then copies of drawn elements appended
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, tower.order - 1))
    vec = data.draw(st.lists(entry, min_size=1, max_size=tower.m + 2))
    vec += data.draw(st.lists(st.sampled_from(vec), max_size=3))
    assert tower.rank_over_base(vec) == _oracle_rank(tower, _expansion(tower, vec))


@pytest.mark.parametrize("tower", LINALG_TOWERS, ids=_tower_ids)
@_linalg_settings
@given(data=st.data())
def test_mat_rank_matches_minors(tower, data):
    rows, coeffs = data.draw(_matrices(tower.order, 4, 4))
    rows = _with_dependent_row(rows, coeffs, tower.add, tower.mul)
    assert mat_rank(tower, rows) == _rank_by_minors(tower, rows)


@pytest.mark.parametrize("tower", LINALG_TOWERS, ids=_tower_ids)
@_linalg_settings
@given(data=st.data())
def test_mat_det_matches_leibniz(tower, data):
    rows, coeffs = data.draw(_matrices(tower.order, 4, 4, square=True))
    rows = _with_dependent_row(rows, coeffs, tower.add, tower.mul)
    assert mat_det(tower, rows) == _leibniz(tower, rows)


@pytest.mark.parametrize("tower", LINALG_TOWERS, ids=_tower_ids)
@_linalg_settings
@given(data=st.data())
def test_mat_inv_is_two_sided_inverse(tower, data):
    rows, coeffs = data.draw(_matrices(tower.order, 4, 4, square=True))
    rows = _with_dependent_row(rows, coeffs, tower.add, tower.mul)
    n = len(rows)
    if _leibniz(tower, rows) == 0:
        with pytest.raises(ValueError, match="singular"):
            mat_inv(tower, rows)
        return
    inv = mat_inv(tower, rows)
    identity = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert mat_mul(tower, rows, inv) == identity
    assert mat_mul(tower, inv, rows) == identity


@pytest.mark.parametrize("A", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[1], [2]]], ids=str)
def test_det_and_inverse_refuse_a_matrix_that_is_not_square(A):
    tower = make_field(5, 1, 10)
    for f in (mat_det, mat_inv):
        with pytest.raises(ValueError, match="square"):
            f(tower, A)


@pytest.mark.parametrize("A,B", [([[1, 2]], [[1, 2]]), ([[1, 2], [3]], [[1], [2]]),
                                 ([[1]], [[1, 2], [3]]), ([[1, 2]], []), ([], [[1, 2], [3]])],
                         ids=str)
def test_mat_mul_refuses_shapes_that_do_not_chain(A, B):
    with pytest.raises(ValueError, match="cannot multiply"):
        mat_mul(make_field(5, 1, 10), A, B)


# ----------------------------------------------------------------------
# Pinned product encodings: a SHA-256 over seeded mul, inv and Frobenius
# outputs on fields past the log tables (the packed carry-less product for
# p = 2 with e = 2 and e = 1, the Kronecker product for q = 5 and for q = 9).

PRODUCT_GOLDEN_TOWERS = [(2, 2, 10), (5, 1, 10), (3, 2, 6), (2, 1, 17)]
PRODUCT_GOLDEN_SHA256 = "3058a8392fd271126fbca434533f750f3c47774c0a06d95819c5eb754bb05657"


def test_product_encodings_golden():
    digest = hashlib.sha256()
    for pem in PRODUCT_GOLDEN_TOWERS:
        tower = make_field(*pem)
        rng = random.Random(1)
        for _ in range(40):
            a, b = tower.random_nonzero(rng), tower.random_element(rng)
            i = rng.randrange(tower.m)
            out = (tower.mul(a, b), tower.inv(a), tower.frobenius(b, i))
            digest.update(repr((pem, a, b, i, out)).encode())
    assert digest.hexdigest() == PRODUCT_GOLDEN_SHA256


# ----------------------------------------------------------------------
# Matrix products against the scalar loop, one `mul` and one `add` per term.
# Towers: log tables (F_27, F_81), p = 2 with e = 2 (F_{4^10}), prime q
# (F_{5^10}), odd p with e >= 2 (F_{9^6}), an order past 2^63 (digits on
# Python ints, F_{3^40}), and primes past the float64 bound, where the
# contraction runs on Python ints: F_{2^61 - 1}, F_{(2^31 - 1)^2} (int64
# digits) and F_{(2^61 - 1)^2} (Python-int digits).

MATMUL_TOWERS = [make_field(*pem) for pem in (
    (3, 1, 3), (3, 1, 4), (2, 2, 10), (5, 1, 10), (3, 2, 6), (3, 1, 40),
    (2 ** 61 - 1, 1, 1), (2 ** 31 - 1, 1, 2), (2 ** 61 - 1, 1, 2))]


def _scalar_mat_mul(tower, A, B):
    cols = len(B[0]) if B else 0
    out = []
    for row in A:
        acc = [0] * cols
        for a, brow in zip(row, B):
            acc = [tower.add(x, tower.mul(a, b)) for x, b in zip(acc, brow)]
        out.append(acc)
    return out


@st.composite
def _product_operands(draw, tower):
    """A (n x k) and B (k x c) with n, k, c down to 0, and with some
    chance an all-zero row of A and an all-zero column of B."""
    n, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    entry = _element(tower)
    A = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    B = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=k, max_size=k))
    if n and draw(st.booleans()):
        A[draw(st.integers(0, n - 1))] = [0] * k
    if c and draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        for row in B:
            row[j] = 0
    return A, B


@pytest.mark.parametrize("tower", MATMUL_TOWERS, ids=repr)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mat_mul_matches_scalar_loop(tower, data):
    A, B = data.draw(_product_operands(tower))
    want = _scalar_mat_mul(tower, A, B)
    got = mat_mul(tower, A, B)
    assert got == want
    assert all(type(x) is int for row in got for x in row)
    for row, want_row in zip(A, want):
        assert vec_mat(tower, row, B) == want_row


@pytest.mark.parametrize("tower", MATMUL_TOWERS, ids=repr)
def test_mat_mul_edge_shapes(tower):
    top = tower.order - 1
    assert mat_mul(tower, [], [[1, 2]]) == []
    assert mat_mul(tower, [[], []], []) == [[], []]
    assert mat_mul(tower, [[top]], [[]]) == [[]]
    assert mat_mul(tower, [[top]], [[top]]) == [[tower.mul(top, top)]]
    assert vec_mat(tower, [tower.gamma], [[1, 0, top]]) == [tower.gamma, 0,
                                                            tower.mul(tower.gamma, top)]


@pytest.mark.parametrize("k", [31, 32], ids=["float64", "python-int"])
def test_mat_mul_at_the_float_bound(k):
    # over F_65537 the bound k (p - 1)^3 = k 2^48 crosses 2^53 between k = 31
    # and 32: k = 31 multiplies on float64, k = 32 on Python ints
    tower = make_field(65537)
    top = tower.order - 1
    assert mat_mul(tower, [[top] * k] * 2, [[top] * 3] * k) == [[k] * 3] * 2


def _first_primitive_modulus(tower):
    """The first monic f of degree m, with its low coefficients counted up
    as base-q digits from y^m, modulo which y has multiplicative order
    q^m - 1; then F_q[y]/(f) is a field, so f is irreducible and primitive.
    The order is found by multiplying by y, one shift and one fold a step."""
    q, m = tower.q, tower.m
    one = [1] + [0] * (m - 1)
    for low in range(q ** m):
        f = [low // q ** i % q for i in range(m)]
        v, order = one, 0
        while True:
            top, v = v[-1], [0] + v[:-1]
            v = [tower.base_sub(x, tower.base_mul(top, c)) for x, c in zip(v, f)]
            order += 1
            if v == one or order == q ** m - 1:
                break
        if v == one and order == q ** m - 1:
            return tuple(f) + (1,)
    raise AssertionError("no primitive modulus")


@pytest.mark.parametrize("pem", [
    (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 1, 6), (2, 1, 8), (2, 1, 10),
    (3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 1, 5), (5, 1, 2), (5, 1, 3), (5, 1, 4),
    (7, 1, 1), (7, 1, 2), (7, 1, 3), (11, 1, 2), (13, 1, 1), (13, 1, 2), (31, 1, 2),
    (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 2), (2, 3, 3), (3, 2, 2), (3, 2, 3),
    (5, 2, 2), (2, 4, 2)], ids=str)
def test_top_modulus_search_matches_plain_enumeration(pem):
    tower = FieldTower(*pem)
    assert tower.top_modulus == _first_primitive_modulus(tower)


def test_top_modulus_search_of_large_prime_q():
    # the q binomials y^2 + c come first in the candidate order and none is
    # primitive, so the first primitive modulus lies past them
    start = time.perf_counter()
    assert FieldTower(65521, 1, 2).top_modulus == (29, 1, 1)
    assert FieldTower(2 ** 61 - 1, 1, 2).top_modulus == (43, 1, 1)
    assert time.perf_counter() - start < 1.0


def _monic_candidates(tower, d):
    """Every monic polynomial of degree d over F_q, low-to-high tuples."""
    return [tuple(c) + (1,) for c in itertools.product(range(tower.q), repeat=d)]


def _irreducible_by_trial_division(tower, f):
    """f of degree d is reducible iff some monic polynomial of degree 1 .. d/2
    divides it."""
    return not any(tower._qpoly_divmod(f, g)[1] == ()
                   for k in range(1, (len(f) - 1) // 2 + 1) for g in _monic_candidates(tower, k))


@pytest.mark.parametrize("pe", [(5, 1), (3, 2), (2, 2)], ids=["F5", "F9", "F4"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_qpoly_divmod_is_euclidean_division(pe, data):
    # the one division of F_q[y]: a = quo b + rem with deg rem < deg b, both
    # trimmed, checked by the schoolbook product and the coefficient difference
    tower = make_field(*pe)
    poly = st.lists(st.integers(0, tower.q - 1), max_size=9)
    a, b = data.draw(poly), data.draw(poly.filter(any))
    quo, rem = tower._qpoly_divmod(a, b)
    assert quo == gf._qpoly_trim(quo) and rem == gf._qpoly_trim(rem)
    assert len(rem) < len(gf._qpoly_trim(b))
    assert gf._qpoly_trim(tower._qpoly_sub(tower._qpoly_sub(a, rem), tower._qpoly_mul(quo, b))) == ()
    with pytest.raises(ZeroDivisionError):
        tower._qpoly_divmod(a, [0] * len(b))


@pytest.mark.parametrize("pe,d", [((2, 1), 4), ((2, 1), 6), ((2, 1), 8), ((3, 1), 4),
                                  ((3, 1), 5), ((3, 1), 6), ((2, 2), 4), ((5, 1), 3),
                                  ((5, 1), 4), ((7, 1), 3), ((2, 3), 3), ((3, 2), 3)], ids=str)
def test_irreducibility_matches_trial_division(pe, d):
    tower = make_field(*pe)
    for f in _monic_candidates(tower, d):
        assert tower._qpoly_irreducible(f) == _irreducible_by_trial_division(tower, f), f


def _mobius(n):
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("pe,degrees", [((2, 1), range(2, 11)), ((3, 1), range(2, 7)),
                                        ((2, 2), range(2, 6)), ((5, 1), range(2, 5)),
                                        ((7, 1), range(2, 4)), ((2, 3), range(2, 4)),
                                        ((3, 2), range(2, 4))], ids=str)
def test_irreducible_counts_match_gauss(pe, degrees):
    # the monic irreducibles of degree d over F_q number (1/d) sum_{k | d} mu(k) q^(d/k)
    tower = make_field(*pe)
    q = tower.q
    for d in degrees:
        gauss = sum(_mobius(k) * q ** (d // k) for k in range(1, d + 1) if d % k == 0) // d
        assert sum(map(tower._qpoly_irreducible, _monic_candidates(tower, d))) == gauss, d


def _factorize_by_trial_division(n):
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10 ** 10))
def test_factorize_matches_trial_division(n):
    assert gf.factorize(n) == _factorize_by_trial_division(n)


@pytest.mark.parametrize("n", [5 ** 25 - 1, 5 ** 34 - 1, 9 ** 16 - 1, 2 ** 40 - 1],
                         ids=["5^25-1", "5^34-1", "9^16-1", "2^40-1"])
def test_factorize_of_field_orders(n):
    factors = gf.factorize(n)
    assert all(gf.is_prime(p) for p in factors)  # certain below the bound
    assert n == math.prod(p ** k for p, k in factors.items())


@pytest.mark.parametrize("n", [0, -1, -12])
def test_factorize_refuses_n_below_one(n):
    with pytest.raises(ValueError, match="n >= 1"):
        gf.factorize(n)


def test_factorize_refuses_a_probable_prime_factor():
    # 2^89 - 1 is prime, so the order of F_{2^89} has a factor that Miller-Rabin
    # on fixed bases only calls probably prime: no primitivity claim rests on it
    with pytest.raises(ValueError, match="deterministic"):
        gf.factorize(2 ** 89 - 1)
    with pytest.raises(ValueError, match="deterministic"):
        FieldTower(2, 1, 89)


def test_frobenius_table_guard():
    # one table of F_65537^2 holds 2 * 65537 entries, past the guard
    tower = make_field(65537, 1, 2)
    with pytest.raises(ValueError, match="Frobenius table"):
        tower.frobenius(tower.gamma)
    assert tower.frobenius(tower.gamma, 2) == tower.gamma  # sigma^m needs no table


def _prime_power_by_trial_division(limit):
    """n -> (p, e) for every prime power n <= limit, from a sieve of
    smallest prime factors."""
    spf = list(range(limit + 1))
    for p in range(2, int(limit ** 0.5) + 1):
        if spf[p] == p:
            for j in range(p * p, limit + 1, p):
                if spf[j] == j:
                    spf[j] = p
    out = {}
    for n in range(2, limit + 1):
        p, rest, e = spf[n], n, 0
        while rest % p == 0:
            rest //= p
            e += 1
        if rest == 1:
            out[n] = (p, e)
    return out


def test_prime_power_matches_trial_division():
    expected = _prime_power_by_trial_division(10 ** 5)
    assert all(prime_power(n) == expected.get(n) for n in range(-2, 10 ** 5 + 1))


def test_prime_power_of_large_orders():
    mersenne = 2 ** 61 - 1
    start = time.perf_counter()
    assert prime_power(mersenne) == (mersenne, 1)
    assert prime_power(3 ** 40) == (3, 40)
    assert prime_power(mersenne ** 2) == (mersenne, 2)
    assert prime_power(2 ** 64) == (2, 64)
    assert prime_power((2 * mersenne) ** 2) is None
    assert prime_power(3 * (2 ** 31 - 1) ** 2) is None
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", [2 ** 89 - 1, (2 ** 89 - 1) ** 2], ids=["prime", "square"])
def test_prime_power_refuses_past_the_deterministic_range(n):
    # 2^89 - 1 is prime, but Miller-Rabin on fixed bases only says probably
    with pytest.raises(ValueError, match="deterministic"):
        prime_power(n)


def test_prime_power_answers_certain_composites_past_the_range():
    # a Miller-Rabin witness proves compositeness at any size
    big = 2 ** 89 - 1
    assert prime_power(3 * big) is None
    assert prime_power(big * (2 ** 61 - 1)) is None
    assert prime_power(2 ** 100) == (2, 100)
