"""Sum-rank weights, brute-force minimum distance and the micro decoder."""

import hashlib
import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrsnet import sumrank
from lrsnet.gf import make_field, mat_rank, vec_mat
from lrsnet.lrs import make_code, generator_matrix
from lrsnet.sumrank import (
    AMBIGUOUS,
    DECODED,
    NO_CODEWORD,
    OrderedPartition,
    bruteforce_decode,
    enumerable,
    min_distance_bruteforce,
    sum_rank_weight,
    sum_rank_weight_matrix,
)

F9 = make_field(3, 1, 2)
G = F9.gamma


def micro_code():
    # locators (1, gamma^2, gamma, gamma^3): the standing [4, 2] example
    return make_code(F9, OrderedPartition((2, 2)), 2,
                     reps=(1, G), multipliers=((1, G), (1, G)))


def test_partition_basics():
    part = OrderedPartition((2, 3, 1))
    assert part.n == 6 and part.ell == 3
    assert part.slices() == [(0, 2), (2, 5), (5, 6)]
    with pytest.raises(ValueError):
        OrderedPartition((2, 0))


def test_zero_vector_weight():
    part = OrderedPartition((2, 2))
    assert sum_rank_weight(F9, [0, 0, 0, 0], part) == 0


def test_all_ones_partition_is_hamming():
    rng = random.Random(0)
    part = OrderedPartition((1, 1, 1, 1))
    for _ in range(50):
        x = [F9.random_element(rng) for _ in range(4)]
        assert sum_rank_weight(F9, x, part) == sum(1 for v in x if v)


def test_single_block_is_rank_weight():
    rng = random.Random(1)
    part = OrderedPartition((4,))
    for _ in range(50):
        x = [F9.random_element(rng) for _ in range(4)]
        assert sum_rank_weight(F9, x, part) == F9.rank_over_base(x)


@pytest.mark.parametrize("pem", [(3, 1, 4), (2, 2, 3)], ids=["F81", "F64"])
def test_sum_rank_weight_checks_each_entry_once(pem, monkeypatch):
    # the whole vector is checked once; the block ranks do not check again
    tower = make_field(*pem)
    checked = []
    check = type(tower).check_elements

    def counting(self, vals, *args):
        out = check(self, vals, *args)
        checked.extend(out)
        return out

    monkeypatch.setattr(type(tower), "check_elements", counting)
    x = [tower.random_element(random.Random(j)) for j in range(6)]
    weight = sum_rank_weight(tower, x, OrderedPartition((3, 3)))
    assert checked == x
    assert weight == sum(tower.rank_over_base(blk) for blk in (x[:3], x[3:]))


def test_length_mismatch():
    with pytest.raises(ValueError):
        sum_rank_weight(F9, [0, 0], OrderedPartition((3,)))


def test_matrix_weight_identity_and_zero():
    part = OrderedPartition((2, 2))
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert sum_rank_weight_matrix(F9, eye, part) == 4
    zero = [[0] * 4 for _ in range(4)]
    assert sum_rank_weight_matrix(F9, zero, part) == 0


def test_matrix_weight_rank_one_bounds():
    rng = random.Random(2)
    for _ in range(30):
        u = [rng.randrange(3) for _ in range(4)]
        v = [rng.randrange(3) for _ in range(6)]
        if not any(u) or not any(v):
            continue
        M = [[(a * b) % 3 for b in v] for a in u]
        part = OrderedPartition((2, 2, 2))
        w = sum_rank_weight_matrix(F9, M, part)
        assert 1 <= w <= 3


# the paper's two special cases of the sum-rank metric on F_q matrices, on
# the packed route (F_4) and on both numpy routes (F_5, F_9)
METRIC_TOWERS = [make_field(2, 2), make_field(5), make_field(3, 2)]


@pytest.mark.parametrize("tower", METRIC_TOWERS, ids=[repr(t) for t in METRIC_TOWERS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_matrix_weight_special_cases(tower, data):
    nrows, ncols = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    M = rng.integers(0, tower.q, (nrows, ncols))
    M[:, data.draw(st.lists(st.integers(0, ncols - 1), max_size=ncols))] = 0
    if data.draw(st.booleans()):
        M[:, -1] = M[:, 0]  # a repeated column
    # all blocks of size one: the Hamming weight, counting nonzero columns
    hamming = int(M.any(axis=0).sum())
    assert sum_rank_weight_matrix(tower, M, OrderedPartition((1,) * ncols)) == hamming
    # one block: the rank weight
    assert sum_rank_weight_matrix(tower, M, OrderedPartition((ncols,))) == tower.base_matrix_rank(M)


def test_rank_sumrank_sandwich_for_matrices():
    rng = random.Random(4)
    for _ in range(50):
        rows, cols = rng.randrange(2, 5), rng.randrange(2, 7)
        M = [[rng.randrange(3) for _ in range(cols)] for _ in range(rows)]
        # random partition of cols
        parts = []
        left = cols
        while left:
            p = rng.randrange(1, left + 1)
            parts.append(p)
            left -= p
        part = OrderedPartition(parts)
        r = F9.base_matrix_rank(M)
        w = sum_rank_weight_matrix(F9, M, part)
        assert r <= w <= part.ell * r


def test_hamming_rank_sandwich_for_vectors():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(2, 7)
        x = [F9.random_element(rng) for _ in range(n)]
        parts = []
        left = n
        while left:
            p = rng.randrange(1, left + 1)
            parts.append(p)
            left -= p
        part = OrderedPartition(parts)
        rank_w = F9.rank_over_base(x)
        ham_w = sum(1 for v in x if v)
        assert rank_w <= sum_rank_weight(F9, x, part) <= ham_w


def test_coarsening_never_increases_weight():
    rng = random.Random(6)
    for _ in range(50):
        x = [F9.random_element(rng) for _ in range(6)]
        fine = OrderedPartition((2, 2, 2))
        merged = OrderedPartition((4, 2))
        assert sum_rank_weight(F9, x, merged) <= sum_rank_weight(F9, x, fine)


def test_micro_lrs_code_distance():
    code = micro_code()
    Gm = generator_matrix(code)
    d = min_distance_bruteforce(F9, Gm, code.part)
    assert d == 3 == code.n - code.k + 1


def test_identity_generator_distance_one():
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert min_distance_bruteforce(F9, eye, OrderedPartition((1, 1, 1))) == 1


def test_rank_one_row_distance():
    # single row, one block: distance = rank weight of the row
    row = [[1, 2, 0]]
    part = OrderedPartition((3,))
    assert min_distance_bruteforce(F9, row, part) == F9.rank_over_base([1, 2, 0])


def test_decode_exact_codeword():
    from lrsnet.lrs import encode

    code = micro_code()
    Gm = generator_matrix(code)
    rng = random.Random(8)
    for _ in range(10):
        msg = tuple(F9.random_element(rng) for _ in range(2))
        cw = encode(code, msg)
        res = bruteforce_decode(F9, Gm, code.part, cw, code_distance=3)
        assert res.status == DECODED and res.message == msg and res.distance == 0


def test_decode_corrects_weight_one_errors():
    from lrsnet.lrs import encode

    code = micro_code()
    Gm = generator_matrix(code)
    rng = random.Random(9)
    for _ in range(30):
        msg = tuple(F9.random_element(rng) for _ in range(2))
        cw = encode(code, msg)
        pos = rng.randrange(4)
        y = list(cw)
        y[pos] = F9.add(y[pos], F9.random_nonzero(rng))
        res = bruteforce_decode(F9, Gm, code.part, y, code_distance=3)
        assert res.status == DECODED and res.message == msg


def test_decode_failure_outside_radius():
    code = micro_code()
    Gm = generator_matrix(code)
    # search a word at sum-rank distance >= 2 from every codeword
    found = None
    for trial_val in range(9 ** 4):
        y = [(trial_val // 9 ** i) % 9 for i in range(4)]
        dmin = min(
            sum_rank_weight(F9, [
                F9.sub(y[j], F9.add(F9.mul(m0, Gm[0][j]), F9.mul(m1, Gm[1][j])))
                for j in range(4)
            ], code.part)
            for m0 in range(9) for m1 in range(9)
        )
        if dmin >= 2:
            found = y
            break
    assert found is not None
    res = bruteforce_decode(F9, Gm, code.part, found, code_distance=3)
    assert res.status in (NO_CODEWORD, AMBIGUOUS)
    assert res.message is None


def test_degenerate_generator_distance_zero():
    Gm = [[1, 2, 0, 0], [F9.mul(2, 1), F9.mul(2, 2), 0, 0]]
    assert min_distance_bruteforce(F9, Gm, OrderedPartition((2, 2))) == 0


# ----------------------------------------------------------------------
# the enumeration kernel against an independent oracle

ENUM_TOWERS = [F9, make_field(2, 2, 2), make_field(3, 1, 3)]  # F_16 uses the XOR add table
_enum_ids = ["F9", "F16", "F27"]
_enum_settings = settings(max_examples=25, deadline=None)
# small chunk sizes make minima and ties span several chunks
_chunk_sizes = st.sampled_from([sumrank._CHUNK, 5, 64])


def _messages_by_index(tower, k):
    """Every message in increasing index order (coordinate 0 varies fastest)."""
    for rev in itertools.product(range(tower.order), repeat=k):
        yield rev[::-1]


def _oracle_weights(tower, Gm, part, y):
    """(sum-rank distance of msg * Gm to y, msg) for every message."""
    return [(sum_rank_weight(tower, [tower.sub(c, v) for c, v in
                                     zip(vec_mat(tower, list(msg), Gm), y)], part), msg)
            for msg in _messages_by_index(tower, len(Gm))]


@st.composite
def _codes(draw, tower):
    """(generator, partition) with (q^m)^k <= 729; the last row is sometimes
    a multiple of the first, so rank-deficient generators are common."""
    k = draw(st.integers(1, 3 if tower.order <= 9 else 2))
    n = draw(st.integers(k, 5))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, tower.order - 1))
    Gm = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):
        c = draw(entry)
        Gm[-1] = [tower.mul(c, x) for x in Gm[0]]
    cuts = draw(st.lists(st.integers(1, n - 1), unique=True, max_size=n - 1)) if n > 1 else []
    bounds = [0] + sorted(cuts) + [n]
    return Gm, OrderedPartition([b - a for a, b in zip(bounds, bounds[1:])])


@pytest.mark.parametrize("tower", ENUM_TOWERS, ids=_enum_ids)
@_enum_settings
@given(data=st.data())
def test_min_distance_matches_oracle(tower, data):
    Gm, part = data.draw(_codes(tower))
    weights = _oracle_weights(tower, Gm, part, [0] * part.n)
    expected = min(w for w, msg in weights if any(msg))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sumrank, "_CHUNK", data.draw(_chunk_sizes))
        assert min_distance_bruteforce(tower, Gm, part) == expected


@pytest.mark.parametrize("tower", ENUM_TOWERS, ids=_enum_ids)
@_enum_settings
@given(data=st.data())
def test_decode_matches_oracle(tower, data):
    Gm, part = data.draw(_codes(tower))
    entry = st.one_of(st.just(0), st.integers(0, tower.order - 1))
    msg = data.draw(st.lists(st.integers(0, tower.order - 1), min_size=len(Gm),
                             max_size=len(Gm)))
    err = data.draw(st.lists(entry, min_size=part.n, max_size=part.n))
    y = [tower.add(c, e) for c, e in zip(vec_mat(tower, msg, Gm), err)]
    # a stated distance above the true one widens the radius, so ties can
    # fall inside it and the lowest message index must win
    code_distance = data.draw(st.none() | st.integers(0, part.n + 2))
    weights = _oracle_weights(tower, Gm, part, y)
    best = min(w for w, _ in weights)
    winners = [m for w, m in weights if w == best]
    if code_distance is None:
        code_distance = min(w for w, m in _oracle_weights(tower, Gm, part, [0] * part.n)
                            if any(m))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sumrank, "_CHUNK", data.draw(_chunk_sizes))
        res = bruteforce_decode(tower, Gm, part, y, code_distance=code_distance)
    if best <= (code_distance - 1) // 2:
        assert (res.status, res.message, res.distance) == (DECODED, winners[0], best)
    elif len(winners) > 1:
        assert (res.status, res.message, res.distance) == (AMBIGUOUS, None, best)
    else:
        assert (res.status, res.message, res.distance) == (NO_CODEWORD, None, best)


# the last two: odd p with e = 2, and order 512 over F_8
RANK_TOWERS = [F9, make_field(2, 2, 2), make_field(3, 1, 3), make_field(3, 1, 4),
               make_field(2, 1, 9), make_field(3, 2, 2), make_field(2, 3, 3)]
_rank_ids = ["F9", "F16", "F27", "F81", "F512", "F81-over-F9", "F512-over-F8"]


@st.composite
def _blocks(draw, tower):
    """A batch of blocks of one width in 1..m+2; columns are drawn at random,
    left zero, or copied from an earlier column times an F_q or F_{q^m}
    scalar, so dependent and rank-deficient blocks are common."""
    s = draw(st.integers(1, tower.m + 2))
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        cols = []
        for t in range(s):
            kind = draw(st.sampled_from(["random", "zero", "copy"] if t else ["random", "zero"]))
            if kind == "random":
                cols.append(draw(st.integers(0, tower.order - 1)))
            elif kind == "zero":
                cols.append(0)
            else:
                c = draw(st.integers(0, tower.q - 1) | st.integers(0, tower.order - 1))
                cols.append(tower.mul(c, cols[draw(st.integers(0, t - 1))]))
        batch.append(cols)
    return batch


@pytest.mark.parametrize("tower", RANK_TOWERS, ids=_rank_ids)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_ranks_match_elimination(tower, data):
    batch = data.draw(_blocks(tower))
    ranks = sumrank.block_ranks(tower.numpy_tables()[2], np.array(batch, dtype=np.int64).T)
    assert list(ranks) == [tower.rank_over_base(block) for block in batch]


@pytest.mark.parametrize("tower", RANK_TOWERS, ids=_rank_ids)
def test_reduction_table_properties(tower):
    """Every entry of RED[a, x] = x - (x_p / a_p) * a, checked against the
    add/mul tables and the scalar digit expansion."""
    add, mul, red = tower.numpy_tables()
    elems = np.arange(tower.order)
    assert red.shape == (tower.order, tower.order)
    assert (red[0] == elems).all()
    # F_q sits in F_{q^m} as the encodings below q
    multiples = mul[np.arange(tower.q)]  # multiples[c, a] = c * a
    for c in range(tower.q):
        assert (red[elems, multiples[c]] == 0).all()
    neg = (add == 0).argmax(axis=1)
    diff = add[red, neg[elems][None, :]]  # RED[a, x] - x
    assert (diff[:, :, None] == multiples.T[:, None, :]).any(axis=2).all()
    digits = np.array([tower.digits(a) for a in elems])
    for a in range(1, tower.order):
        pivot = int(np.flatnonzero(digits[a])[0])
        assert not digits[red[a], pivot].any()


def test_reduction_table_guarded():
    # numpy_tables builds the reduction table and holds the one guard
    with pytest.raises(ValueError, match="numpy-table guard"):
        make_field(2, 1, 10).numpy_tables()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_projective_ranges_hold_one_message_per_line(k):
    Q = F9.order
    ranges = sumrank._projective_ranges(Q, k)
    reps = [i for a, b in ranges for i in range(a, b)]
    assert len(reps) == len(set(reps)) == (Q ** k - 1) // (Q - 1)

    def digits(i):
        return [(i // Q ** t) % Q for t in range(k)]

    for i in reps:
        nonzero = [d for d in digits(i) if d]
        assert nonzero[-1] == 1  # the highest nonzero coordinate is 1
    multiples = [tuple(F9.mul(c, d) for d in digits(i)) for i in reps for c in range(1, Q)]
    # every nonzero message is a nonzero multiple of exactly one representative
    assert sorted(multiples) == sorted(tuple(digits(i)) for i in range(1, Q ** k))


def test_min_distance_matches_oracle_on_seeded_f9_codes():
    rng = random.Random(7)
    part = OrderedPartition((2, 2))
    for _ in range(10):
        Gm = [[F9.random_element(rng) for _ in range(4)] for _ in range(2)]
        if mat_rank(F9, Gm) < 2:
            continue
        fast = min_distance_bruteforce(F9, Gm, part)
        slow = min(
            sum_rank_weight(F9, [
                F9.add(F9.mul(m0, Gm[0][j]), F9.mul(m1, Gm[1][j])) for j in range(4)
            ], part)
            for m0 in range(9) for m1 in range(9) if (m0, m1) != (0, 0)
        )
        assert fast == slow


def test_enumerable_bounds():
    assert enumerable(make_field(2, 1, 9), 2)  # q^m = 512, 2^18 messages
    assert not enumerable(make_field(2, 1, 10), 1)  # q^m = 1024 > 512
    assert enumerable(F9, 6) and not enumerable(F9, 7)  # 9^7 > 2^22


def test_guard_fails_fast_above_table_order():
    big = make_field(2, 1, 10)
    part = OrderedPartition((1, 1))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="brute-force enumeration"):
        min_distance_bruteforce(big, [[1, 0]], part)
    with pytest.raises(ValueError, match="brute-force enumeration"):
        bruteforce_decode(big, [[1, 0]], part, [0, 0], code_distance=1)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("bad", [-1, -9, 9, 10 ** 6])
def test_guard_rejects_entries_outside_the_field(bad):
    # numpy would read -9 as index 0: [0, 0, 0, -9] used to decode as (0, 0)
    part = OrderedPartition((2, 2))
    Gm = [[1, 0, 1, 2], [0, 1, 3, 4]]
    with pytest.raises(ValueError, match="received word entry"):
        bruteforce_decode(F9, Gm, part, [0, 0, 0, bad], code_distance=3)
    bad_G = [[1, 0, 1, 2], [0, 1, 3, bad]]
    with pytest.raises(ValueError, match="generator entry"):
        min_distance_bruteforce(F9, bad_G, part)
    with pytest.raises(ValueError, match="generator entry"):
        bruteforce_decode(F9, bad_G, part, [0] * 4, code_distance=3)


def test_guard_rejects_zero_dimension():
    part = OrderedPartition((2, 2))
    with pytest.raises(ValueError, match="zero-dimensional"):
        min_distance_bruteforce(F9, [], part)
    with pytest.raises(ValueError, match="zero-dimensional"):
        bruteforce_decode(F9, [], part, [0] * 4, code_distance=1)


# Pinned brute-force results at the micro-codes benchmark's shapes: for each
# generator (the default LRS code, which is MSRD, and three seeded random
# ones of lower distance) its minimum distance, then (status, message,
# distance) of decoding seeded received words: codewords, codewords plus
# errors on one or two coordinates, and uniform words, most of them past the
# radius.
BRUTEFORCE_SHA256 = {
    ((3, 1, 4), 2): "756f3199dd10c1bda6f5cf05c748272dc6afe420da6486966998acdb05cbf354",
    ((3, 1, 3), 3): "40df6d44228cd6324aed118cf29cd8a51e04a0e59c34a5d6b0132089900a953b",
}


@pytest.mark.parametrize("pem,k", sorted(BRUTEFORCE_SHA256))
def test_bruteforce_results_golden(pem, k):
    tower = make_field(*pem)
    part = OrderedPartition((3, 3))
    rng = random.Random(sum(pem) + k)
    gens = [generator_matrix(make_code(tower, part, k))]
    gens += [[[tower.random_element(rng) for _ in range(part.n)] for _ in range(k)]
             for _ in range(3)]
    digest = hashlib.sha256()
    statuses = set()
    for Gm in gens:
        d = min_distance_bruteforce(tower, Gm, part)
        digest.update(repr((Gm, d)).encode())
        for trial in range(12):
            msg = [tower.random_element(rng) for _ in range(k)]
            y = vec_mat(tower, msg, Gm)
            if trial % 4 == 3:
                y = [tower.random_element(rng) for _ in range(part.n)]
            else:
                for j in rng.sample(range(part.n), trial % 4):
                    y[j] = tower.add(y[j], tower.random_nonzero(rng))
            res = bruteforce_decode(tower, Gm, part, y,
                                    code_distance=None if trial == 0 else d)
            statuses.add(res.status)
            digest.update(repr((y, res.status, res.message, res.distance)).encode())
    assert statuses == {DECODED, NO_CODEWORD, AMBIGUOUS}
    assert digest.hexdigest() == BRUTEFORCE_SHA256[pem, k]
