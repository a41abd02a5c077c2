"""LRS code validation, locators, generator matrices and encoding."""

import random

import pytest

from lrsnet.gf import make_field, mat_rank, vec_mat
from lrsnet.lrs import (
    LrsCode,
    default_multipliers,
    default_representatives,
    encode,
    generator_by_vandermonde,
    generator_matrix,
    locators,
    make_code,
    validate,
)
from lrsnet.skewpoly import is_p_independent, truncated_norm
from lrsnet.sumrank import OrderedPartition, min_distance_bruteforce

F9 = make_field(3, 1, 2)
F81 = make_field(3, 1, 4)
G = F9.gamma


def micro_code():
    return make_code(F9, OrderedPartition((2, 2)), 2,
                     reps=(1, G), multipliers=((1, G), (1, G)))


def test_validate_distinct_class_reps():
    code = micro_code()
    assert validate(code) == []


def test_validate_same_class_rejected():
    # gamma^2 is a square, hence conjugate to 1
    code = LrsCode(F9, OrderedPartition((2, 2)), 2,
                   (1, F9.pow(G, 2)), ((1, G), (1, G)))
    problems = validate(code)
    assert any("conjugacy class" in p for p in problems)


def test_validate_too_many_blocks():
    part = OrderedPartition((1, 1, 1))
    code = LrsCode(F9, part, 2, (1, G, F9.pow(G, 2)), ((1,), (G,), (1,)))
    problems = validate(code)
    assert any("exceeds q-1" in p for p in problems)


def test_validate_block_length_and_dependence():
    code = LrsCode(F9, OrderedPartition((3, 1)), 2, (1, G), ((1, G, 2), (1,)))
    problems = validate(code)
    assert any("exceeds m" in p for p in problems)
    assert any("dependent" in p for p in problems)
    code2 = LrsCode(F9, OrderedPartition((2, 2)), 2, (1, G), ((1, 2), (1, G)))
    assert any("dependent" in p for p in validate(code2))


def test_default_parameters_are_valid():
    for tower, parts, k in [
        (F9, (2, 2), 2),
        (F81, (3, 3), 3),
        (F81, (4, 2), 4),
        (make_field(2, 2, 3), (3, 2, 2), 3),
    ]:
        code = make_code(tower, OrderedPartition(parts), k)
        assert validate(code) == []
        assert code.reps == default_representatives(tower, len(parts))
        assert code.multipliers == default_multipliers(tower, OrderedPartition(parts))


def test_locators_micro_example():
    code = micro_code()
    assert locators(code) == [1, F9.pow(G, 2), G, F9.pow(G, 3)]


def test_base_field_multiplier_gives_representative():
    # b in F_q means b^(q-1) = 1, so the locator is the representative itself
    code = make_code(F9, OrderedPartition((1, 1)), 2, reps=(1, G),
                     multipliers=((2,), (1,)))
    assert locators(code) == [1, G]


def test_locator_sets_are_p_independent():
    rng = random.Random(0)
    for _ in range(20):
        parts = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 3)))
        part = OrderedPartition(parts)
        mults = []
        for nl in parts:
            while True:
                blk = [F81.random_nonzero(rng) for _ in range(nl)]
                if F81.linearly_independent_over_base(blk):
                    break
            mults.append(tuple(blk))
        code = make_code(F81, part, min(2, part.n), multipliers=tuple(mults))
        assert is_p_independent(F81, locators(code))


def test_generator_first_row_is_multiplier_vector():
    code = micro_code()
    Gm = generator_matrix(code)
    assert Gm[0] == [1, G, 1, G]


def test_generator_second_row_micro():
    code = micro_code()
    Gm = generator_matrix(code)
    # block 1 of row 2: (N_1(1) * 1^q, N_1(1) * gamma^q) = (1, gamma^3)
    assert Gm[1][:2] == [1, F9.pow(G, 3)]


def test_generator_full_rank():
    rng = random.Random(1)
    for _ in range(10):
        part = OrderedPartition((3, 2))
        k = rng.randrange(1, 6)
        code = make_code(F81, part, k)
        assert mat_rank(F81, generator_matrix(code)) == k


def test_generator_matches_vandermonde_times_diagonal():
    rng = random.Random(2)
    for _ in range(10):
        part = OrderedPartition((rng.randrange(1, 4), rng.randrange(1, 4)))
        k = rng.randrange(1, part.n + 1)
        code = make_code(F81, part, k)
        assert generator_matrix(code) == generator_by_vandermonde(code)


def test_moore_identity():
    rng = random.Random(3)
    for tower in (F9, F81):
        for _ in range(50):
            b = tower.random_nonzero(rng)
            i = rng.randrange(5)
            lhs = tower.mul(truncated_norm(tower, tower.pow(b, tower.q - 1), i), b)
            assert lhs == tower.pow(b, tower.q ** i)


def test_encode_zero_and_unit_messages():
    code = micro_code()
    assert encode(code, [0, 0]) == [0, 0, 0, 0]
    assert encode(code, [1, 0]) == code.flat_multipliers()


def test_encode_matches_matrix_path():
    rng = random.Random(4)
    code = micro_code()
    Gm = generator_matrix(code)
    for _ in range(100):
        msg = [F9.random_element(rng) for _ in range(2)]
        assert encode(code, msg) == vec_mat(F9, msg, Gm)


def test_encode_length_check():
    with pytest.raises(ValueError):
        encode(micro_code(), [1])


def test_micro_codes_are_msrd():
    rng = random.Random(5)
    for _ in range(5):
        part = OrderedPartition((2, 2))
        k = rng.randrange(1, 4)
        code = make_code(F9, part, k)
        d = min_distance_bruteforce(F9, generator_matrix(code), part)
        assert d == part.n - k + 1


def test_dimension_above_min_block_length_allowed():
    # k may exceed min(n_l); only the sum-rank distance is claimed
    part = OrderedPartition((3, 1))
    code = make_code(F81, part, 2)
    assert validate(code) == []
    d = min_distance_bruteforce(F81, generator_matrix(code), part)
    assert d == part.n - code.k + 1
