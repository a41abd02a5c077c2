"""LRS code validation, locators, generator matrices and encoding."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrsnet.gf import make_field, mat_rank, vec_mat
from lrsnet.lrs import (
    LrsCode,
    decode,
    default_multipliers,
    default_representatives,
    encode,
    generator_by_vandermonde,
    generator_matrix,
    locators,
    make_code,
    validate,
)
from lrsnet.netsim import (
    NetworkInstance,
    build_distributed_code,
    puncture,
    random_error_of_weight,
)
from lrsnet.skewpoly import is_p_independent, truncated_norm
from lrsnet.sumrank import (
    OrderedPartition,
    bruteforce_decode,
    min_distance_bruteforce,
    sum_rank_weight,
)

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
                if F81.rank_over_base(blk) == len(blk):
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


# ----------------------------------------------------------------------
# Welch-Berlekamp decoding against the brute-force oracle

def _random_multipliers(tower, part, rng):
    out = []
    for nl in part.parts:
        while True:
            blk = [tower.random_nonzero(rng) for _ in range(nl)]
            if tower.rank_over_base(blk) == len(blk):
                break
        out.append(tuple(blk))
    return tuple(out)


_ORACLE_MESSAGES = 1 << 13  # brute-force cost cap per example


@st.composite
def _decoding_cases(draw, tower, parts):
    """(code, kept columns, their partition, message, received word, error
    weight): an LRS code on `parts` (a strategy), random multipliers, random
    puncturing that keeps at least k columns, and an error of weight
    0 .. tau + 1 on the kept columns, or else a uniformly random word (error
    weight None)."""
    part = OrderedPartition(draw(parts))
    kmax = max(k for k in range(1, part.n + 1) if tower.order ** k <= _ORACLE_MESSAGES)
    k = draw(st.integers(1, kmax))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    code = make_code(tower, part, k, multipliers=_random_multipliers(tower, part, rng))
    erased = draw(st.sets(st.integers(1, part.n), max_size=part.n - k))
    sub_part, keep = puncture(part, erased)
    weight = draw(st.integers(0, (len(keep) - k) // 2 + 1))
    msg = tuple(tower.random_element(rng) for _ in range(k))
    cw = encode(code, msg)
    if draw(st.booleans()):
        err = random_error_of_weight(tower, sub_part, weight, rng)
    else:
        err, weight = [tower.random_element(rng) for _ in keep], None
    y = [tower.add(cw[j - 1], e) for j, e in zip(keep, err)]
    return code, keep, sub_part, msg, y, weight


def _check_against_bruteforce(case):
    code, keep, sub_part, msg, y, weight = case
    t, k = code.tower, code.k
    G = [[row[j - 1] for j in keep] for row in generator_matrix(code)]
    # the punctured code is MSRD: distance n' - k + 1, radius tau
    res = bruteforce_decode(t, G, sub_part, y, code_distance=len(keep) - k + 1)
    got = decode(code, y, keep)
    if res.ok:
        assert got == res.message
    else:
        assert got is None
    # the sent message comes back exactly when the error is within tau
    if weight is not None:
        assert (got == msg) == (weight <= (len(keep) - k) // 2)


def _blocks(tower, max_blocks):
    """Block sizes 1 .. m for 1 .. min(q - 1, max_blocks) blocks."""
    ell = st.integers(1, min(tower.q - 1, max_blocks))
    return ell.flatmap(lambda n: st.lists(st.integers(1, tower.m), min_size=n, max_size=n))


# F_16 twice: over F_4 (three blocks of up to 2) and over F_2 (one block)
DECODE_TOWERS = [make_field(3, 1, 2), make_field(2, 2, 2), make_field(2, 1, 4),
                 make_field(5, 1, 2), make_field(3, 1, 3), make_field(3, 1, 4)]
_decode_ids = ["F9", "F16-over-F4", "F16-over-F2", "F25", "F27", "F81"]


@pytest.mark.parametrize("tower", DECODE_TOWERS, ids=_decode_ids)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_decode_matches_bruteforce(tower, data):
    _check_against_bruteforce(data.draw(_decoding_cases(tower, _blocks(tower, 4))))


# the paper's extremes: n blocks of size 1 over F_q with m = 1 is Reed-Solomon
# in the Hamming metric, one block is Gabidulin in the rank metric
@pytest.mark.parametrize("tower", [make_field(3, 2, 1), make_field(2, 4, 1), make_field(5, 2, 1)],
                         ids=["F9", "F16", "F25"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_decode_reed_solomon_extreme(tower, data):
    parts = st.integers(1, min(tower.q - 1, 10)).map(lambda n: (1,) * n)
    _check_against_bruteforce(data.draw(_decoding_cases(tower, parts)))


@pytest.mark.parametrize("tower", [make_field(2, 1, 5), make_field(2, 1, 6), make_field(3, 1, 4)],
                         ids=["F32", "F64", "F81"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_decode_gabidulin_extreme(tower, data):
    parts = st.integers(1, tower.m).map(lambda n: (n,))
    _check_against_bruteforce(data.draw(_decoding_cases(tower, parts)))


def test_decode_refuses_a_quotient_of_degree_k():
    # past the radius the key equation can divide exactly with deg f >= k:
    # here R = L f with f = 4 + 4X + 3X^2 for k = 2, which is no message
    code = make_code(F9, OrderedPartition((2, 2)), 2)
    assert decode(code, [2, 3, 2, 0]) is None
    G = generator_matrix(code)
    assert not bruteforce_decode(F9, G, code.part, [2, 3, 2, 0], code_distance=3).ok


def test_decode_radius_and_inputs():
    code = make_code(F81, OrderedPartition((3, 3)), 2)
    t = code.tower
    cw = encode(code, [5, 7])
    assert decode(code, cw) == (5, 7)
    # two errors in one block: rank 1 if one is an F_3 multiple of the other
    y = list(cw)
    y[0] = t.add(y[0], 1)
    y[1] = t.add(y[1], 2)
    assert decode(code, y) == (5, 7)            # weight 1 <= tau = 2
    assert decode(code, y, radius=1) == (5, 7)
    assert decode(code, y, radius=0) is None
    assert decode(code, y, radius=-1) is None
    assert decode(code, y[1:], columns=range(2, 7)) == (5, 7)
    assert decode(code, [cw[j - 1] for j in (6, 2, 4)], columns=(6, 2, 4)) == (5, 7)
    assert decode(code, cw[:1], columns=[1]) is None   # fewer than k columns
    with pytest.raises(ValueError, match="radius 3 exceeds"):
        decode(code, y, radius=3)
    with pytest.raises(ValueError, match="distinct"):
        decode(code, cw[:2], columns=[1, 1])
    with pytest.raises(ValueError, match="distinct"):
        decode(code, cw[:2], columns=[0, 1])
    with pytest.raises(ValueError, match="length"):
        decode(code, cw[:5])
    with pytest.raises(ValueError, match="not an element"):
        decode(code, [81] + cw[1:])


# the README toy network: a [23, 9, 15] code over F_{4^10}, far past the
# brute-force guard, decoded at its full radius tau = 7
TOY = NetworkInstance(h=4, lengths=(1, 3, 2, 3),
                      access=({1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}), t=2, rho=2, ell=3)


def test_decode_past_the_bruteforce_guard():
    cc = build_distributed_code(TOY, seed=0).code
    code, t, part = cc.code, cc.code.tower, cc.code.part
    assert (code.n, code.k, t.order) == (23, 9, 4 ** 10)
    rng = random.Random(0)
    for _ in range(4):
        msg = [t.random_element(rng) for _ in range(code.k)]
        # a sum of 7 rank-one block pieces u v, u over F_q and v in F_{q^m}
        while True:
            err = [0] * code.n
            for _ in range(7):
                a, b = part.slices()[rng.randrange(part.ell)]
                v = t.random_nonzero(rng)
                for j in range(a, b):
                    err[j] = t.add(err[j], t.mul(rng.randrange(t.q), v))
            if sum_rank_weight(t, err, part) == 7:
                break
        y = [t.add(c, e) for c, e in zip(encode(code, msg), err)]
        assert decode(code, y) == tuple(msg)
        # one more rank-one piece puts it past the radius: the certificate
        # refuses anything it finds
        a, b = part.slices()[0]
        y2 = list(y)
        v = t.random_nonzero(rng)
        for j in range(a, b):
            y2[j] = t.add(y2[j], t.mul(rng.randrange(1, t.q), v))
        got = decode(code, y2)
        assert got is None or sum_rank_weight(
            t, [t.sub(u, c) for u, c in zip(y2, encode(code, got))], part) <= 7
