"""Constrained generator synthesis, support verification, subcode fallback,
multiplication matrices and the stacked rank test."""

import random

import pytest

from lrsnet.constraints import ConditionViolation, SupportConstraint
from lrsnet.construct import (
    SynthesisError,
    constraint_matrix_rank,
    from_json,
    row_transform,
    skew_mult_matrix,
    subcode_generator,
    synthesize,
    to_json,
    verify_support,
)
from lrsnet.gf import make_field, mat_det, mat_mul, mat_rank
from lrsnet.lrs import generator_matrix, make_code
from lrsnet.skewpoly import SkewPoly, skew_mul
from lrsnet.sumrank import OrderedPartition, min_distance_bruteforce

F9 = make_field(3, 1, 2)
F27 = make_field(3, 1, 3)
F81 = make_field(3, 1, 4)
G = F9.gamma


def micro_code():
    return make_code(F9, OrderedPartition((2, 2)), 2,
                     reps=(1, G), multipliers=((1, G), (1, G)))


MICRO_SC = SupportConstraint(4, 2, ({2}, {1}))


def test_row_transform_micro_values():
    code = micro_code()
    T = row_transform(code, MICRO_SC)
    # rows are X - gamma^2 and X - 1
    assert T == [[F9.neg(F9.pow(G, 2)), 1], [F9.neg(1), 1]]
    assert mat_det(F9, T) == G


def test_row_transform_monic_last_column():
    rng = random.Random(0)
    for _ in range(10):
        part = OrderedPartition((3, 3))
        k = 3
        code = make_code(F81, part, k)
        zs = []
        for _ in range(k):
            zs.append(frozenset(rng.sample(range(1, 7), k - 1)))
        T = row_transform(code, SupportConstraint(6, k, tuple(zs)))
        assert all(row[-1] == 1 for row in T)


def test_row_transform_zero_locator_row():
    # a zero set pointing at locator 0 is impossible for valid codes, but the
    # minimal polynomial of {0} alone is X: exercised via the polynomial API
    from lrsnet.skewpoly import minimal_polynomial

    assert minimal_polynomial(F9, [0]) == SkewPoly.x(F9)


def test_row_transform_requires_completion():
    code = micro_code()
    with pytest.raises(ValueError, match="completed"):
        row_transform(code, SupportConstraint(4, 2, (frozenset(), {1})))


def test_synthesize_micro_first_attempt():
    cc = synthesize(F9, OrderedPartition((2, 2)), 2, MICRO_SC, seed=0)
    assert cc.attempts == 1
    assert cc.cover_dim == 2
    assert verify_support(cc.matrix, cc.sc) == []
    # G = T * G_lrs exactly
    assert [list(r) for r in cc.matrix] == mat_mul(
        F9, [list(r) for r in cc.transform], generator_matrix(cc.code))
    assert mat_rank(F9, [list(r) for r in cc.transform]) == 2
    d = min_distance_bruteforce(F9, [list(r) for r in cc.matrix], cc.code.part)
    assert d == 3


def test_synthesize_rejects_violated_condition():
    with pytest.raises(ConditionViolation) as exc:
        synthesize(F9, OrderedPartition((2, 2)), 2, SupportConstraint(4, 2, ({1}, {1})))
    assert exc.value.witness == (1, 2)


def test_synthesize_rejects_small_field():
    # k = 3 needs m >= 3 at q = 3; F_9 has m = 2
    sc = SupportConstraint(4, 3, (frozenset(), frozenset(), frozenset()))
    with pytest.raises(ValueError, match="below the sufficient size"):
        synthesize(F9, OrderedPartition((2, 2)), 3, sc)


def test_synthesize_random_constraints_msrd():
    rng = random.Random(1)
    part = OrderedPartition((3, 3))
    done = 0
    while done < 5:
        k = rng.choice((2, 3))
        zs = tuple(frozenset(rng.sample(range(1, 7), rng.randrange(0, k)))
                   for _ in range(k))
        sc = SupportConstraint(6, k, zs)
        from lrsnet.constraints import check_condition
        if not check_condition(sc).holds:
            continue
        done += 1
        cc = synthesize(F81, part, k, sc, seed=done)
        assert verify_support(cc.matrix, cc.sc) == []
        # original zeros are contained in the completed pattern
        for z_orig, z_full in zip(sc.zero_sets, cc.sc.zero_sets):
            assert z_orig <= z_full
        d = min_distance_bruteforce(F81, [list(r) for r in cc.matrix], part)
        assert d == 6 - k + 1


def test_verify_support_mismatch_kinds():
    sc = SupportConstraint(2, 2, ({1}, frozenset()))
    zero = [[0, 0], [0, 0]]
    mm = verify_support(zero, sc)
    assert (1, 2, "spurious-zero") in mm
    assert (2, 1, "spurious-zero") in mm
    dense = [[1, 1], [1, 1]]
    mm2 = verify_support(dense, sc)
    assert mm2 == [(1, 1, "missing-zero")]


def test_subcode_generator_example():
    # Z = ({1},{1}) violates at k=2; cover dimension 3
    sc = SupportConstraint(4, 2, ({1}, {1}))
    part = OrderedPartition((2, 2))
    cc = subcode_generator(F27, part, 2, sc, seed=0)
    assert cc.cover_dim == 3
    assert len(cc.matrix) == 2
    assert all(row[0] == 0 for row in cc.matrix)
    d = min_distance_bruteforce(F27, [list(r) for r in cc.matrix], part)
    assert d == 4 - 3 + 1 == 2


def test_subcode_delegates_when_condition_holds():
    cc = subcode_generator(F9, OrderedPartition((2, 2)), 2, MICRO_SC, seed=0)
    assert cc.cover_dim == 2


def test_subcode_infeasible_full_rows():
    full = frozenset(range(1, 5))
    sc = SupportConstraint(4, 2, (full, full))
    with pytest.raises(ValueError, match="infeasible"):
        subcode_generator(F27, OrderedPartition((2, 2)), 2, sc)


def test_skew_mult_matrix_shapes():
    one = SkewPoly.one(F9)
    S = skew_mult_matrix(one, 3, 5)
    assert S == [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]]
    u = SkewPoly(F9, (2, G, 1))
    S1 = skew_mult_matrix(u, 1, 3)
    assert S1 == [[2, G, 1]]
    with pytest.raises(ValueError):
        skew_mult_matrix(u, 3, 4)


def test_skew_mult_matrix_respects_products():
    rng = random.Random(2)
    for _ in range(50):
        du, dv = rng.randrange(0, 3), rng.randrange(0, 3)
        u = SkewPoly(F9, [F9.random_element(rng) for _ in range(du)] + [F9.random_nonzero(rng)])
        v = SkewPoly(F9, [F9.random_element(rng) for _ in range(dv)] + [F9.random_nonzero(rng)])
        a = rng.randrange(1, 3)
        c = a + dv + rng.randrange(0, 2)
        b = c + du + rng.randrange(0, 2)
        left = skew_mult_matrix(skew_mul(v, u), a, b)
        right = mat_mul(F9, skew_mult_matrix(v, a, c), skew_mult_matrix(u, c, b))
        assert left == right


def test_coefficient_row_of_combination_lies_in_row_space():
    # molecule of the stacked-matrix identity: the coefficient row of
    # sum g_i f_i equals (u_1 .. u_s) M for the coefficient rows u_i of g_i
    rng = random.Random(3)
    part = OrderedPartition((3, 3))
    code = make_code(F81, part, 4)
    k = 4
    for _ in range(20):
        specs = []
        polys = []
        for _ in range(2):
            tau = rng.randrange(0, 2)
            z = frozenset(rng.sample(range(1, 7), rng.randrange(0, k - tau)))
            specs.append((z, tau))
        from lrsnet.construct import shifted_zero_set_polynomial

        rows = []
        for z, tau in specs:
            rows.extend(skew_mult_matrix(shifted_zero_set_polynomial(code, z, tau),
                                         k - tau - len(z), k))
        u = [F81.random_element(rng) for _ in range(len(rows))]
        lhs = [0] * k
        offset = 0
        total = SkewPoly.zero(F81)
        for z, tau in specs:
            f = shifted_zero_set_polynomial(code, z, tau)
            nrows = k - tau - len(z)
            g = SkewPoly(F81, u[offset:offset + nrows])
            total = total + skew_mul(g, f)
            offset += nrows
        from lrsnet.gf import vec_mat

        rhs = vec_mat(F81, u, rows)
        coeffs = list(total.coeffs) + [0] * (k - len(total.coeffs))
        assert coeffs == rhs


def test_constraint_matrix_full_rank_micro():
    code = micro_code()
    rank, full = constraint_matrix_rank(code, [({2}, 0), ({1}, 0)], 2)
    assert rank == 2 and full


def test_constraint_matrix_deficient_for_repeated_row():
    rng = random.Random(4)
    part = OrderedPartition((2, 2))
    for trial in range(50):
        mults = []
        for nl in part.parts:
            while True:
                blk = tuple(F9.random_nonzero(rng) for _ in range(nl))
                if F9.linearly_independent_over_base(blk):
                    break
            mults.append(blk)
        code = make_code(F9, part, 2, multipliers=tuple(mults))
        rank, full = constraint_matrix_rank(code, [({1}, 0), ({1}, 0)], 2)
        assert not full
        assert rank < 2


def test_constraint_matrix_identity_pattern():
    code = micro_code()
    rank, full = constraint_matrix_rank(code, [(frozenset(), 0)], 2)
    assert full and rank == 2


def test_constraint_matrix_precondition():
    code = micro_code()
    with pytest.raises(ValueError, match="below k"):
        constraint_matrix_rank(code, [({1, 2}, 1)], 2)


def test_stacked_matrix_coincides_with_row_transform():
    # with s = k rows, no shifts and completed zero sets, each block is a
    # single coefficient row, so the stack equals the square row transform
    rng = random.Random(5)
    part = OrderedPartition((3, 3))
    for _ in range(10):
        k = 3
        code = make_code(F81, part, k)
        zs = tuple(frozenset(rng.sample(range(1, 7), k - 1)) for _ in range(k))
        sc = SupportConstraint(6, k, zs)
        T = row_transform(code, sc)
        from lrsnet.construct import shifted_zero_set_polynomial

        stacked = []
        for z in zs:
            stacked.extend(skew_mult_matrix(
                shifted_zero_set_polynomial(code, z, 0), 1, k))
        assert stacked == T
        rank, full = constraint_matrix_rank(code, [(z, 0) for z in zs], k)
        assert rank == mat_rank(F81, T)
        assert full == (mat_det(F81, T) != 0)


def test_serialization_roundtrip():
    cc = synthesize(F9, OrderedPartition((2, 2)), 2, MICRO_SC, seed=0)
    text = to_json(cc)
    again = from_json(text)
    assert again.matrix == cc.matrix
    assert again.transform == cc.transform
    assert again.sc == cc.sc
    assert again.code.multipliers == cc.code.multipliers
    assert to_json(again) == text


def test_serialization_roundtrip_of_true_subcode(monkeypatch):
    # k = 2 rows of a cover_dim = 3 code: loading re-checks them against the
    # first k rows of T * G_LRS and multiplies only those rows of T
    cc = subcode_generator(F27, OrderedPartition((2, 2)), 2,
                           SupportConstraint(4, 2, ({1}, {1})), seed=0)
    assert (cc.sc.k, cc.cover_dim) == (2, 3)
    shapes = []

    def mat_mul_spy(tower, A, B):
        shapes.append((len(A), len(B)))
        return mat_mul(tower, A, B)

    monkeypatch.setattr("lrsnet.gf.mat_mul", mat_mul_spy)
    again = from_json(to_json(cc))
    assert shapes == [(2, 3)]
    assert (again.matrix, again.transform, again.sc) == (cc.matrix, cc.transform, cc.sc)


def test_synthesis_attempt_counter_advances():
    # force failures by shrinking the budget to zero
    with pytest.raises(SynthesisError):
        synthesize(F9, OrderedPartition((2, 2)), 2, MICRO_SC, seed=0, budget=0)


def test_synthesis_over_extension_base_field():
    # q = 4 = 2^2 exercises every non-prime base-field path end to end
    rng = random.Random(6)
    t16 = make_field(2, 2, 2)
    t64 = make_field(2, 2, 3)
    part = OrderedPartition((2, 2))
    from lrsnet.constraints import check_condition

    done = 0
    while done < 5:
        k = rng.choice((2, 3))
        tower = t16 if k == 2 else t64
        zs = tuple(frozenset(rng.sample(range(1, 5), rng.randrange(0, k)))
                   for _ in range(k))
        sc = SupportConstraint(4, k, zs)
        if not check_condition(sc).holds:
            continue
        done += 1
        cc = synthesize(tower, part, k, sc, seed=done)
        assert verify_support(cc.matrix, cc.sc) == []
        d = min_distance_bruteforce(tower, [list(r) for r in cc.matrix], part)
        assert d == 4 - k + 1
    # the covering subcode route over the extension base
    sc = SupportConstraint(4, 2, ({1}, {1}))
    cc = subcode_generator(t64, part, 2, sc, seed=1)
    d = min_distance_bruteforce(t64, [list(r) for r in cc.matrix], part)
    assert (cc.cover_dim, d) == (3, 2)


def test_field_gate_uses_actual_base_size():
    # at q = 4 the log term shrinks: k = 3 fits in m = 3 even though the
    # smallest admissible base (q = 3) would demand m = 3 as well; a q = 4
    # tower with m = 2 stays below the bound and is refused
    sc = SupportConstraint(4, 3, (frozenset(), frozenset(), frozenset()))
    with pytest.raises(ValueError, match="below the sufficient size"):
        synthesize(make_field(2, 2, 2), OrderedPartition((2, 2)), 3, sc)
    cc = synthesize(make_field(2, 2, 3), OrderedPartition((2, 2)), 3, sc, seed=0)
    assert cc.cover_dim == 3
