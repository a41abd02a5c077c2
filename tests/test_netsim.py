"""Design ILP, distributed code assembly and the channel."""

import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrsnet import gf, netsim
from lrsnet.constraints import cover_dimension, derive_zero_sets
from lrsnet.construct import verify_support
from lrsnet.gf import _eliminate, make_field, mat_mul, mat_rank, prime_power, vec_mat
from lrsnet.netsim import (
    ChannelRealization,
    DesignResult,
    NetworkInstance,
    _WordStream,
    audit_weights,
    build_distributed_code,
    design_lengths,
    end_to_end_trial,
    even_partition,
    puncture,
    random_error_of_weight,
    sample_channel,
    weight_statistics,
)
from lrsnet.sumrank import OrderedPartition, bruteforce_decode

TOY = NetworkInstance(
    h=4, lengths=(1, 3, 2, 3),
    access=({1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}),
    t=2, rho=2, ell=3)
PAPER_TUPLE = (6, 7, 2, 8)


def recheck_constraints(inst, lengths):
    """Direct re-check of both subset constraint families."""
    n = sum(lengths)
    for size in range(1, inst.h + 1):
        for omega in itertools.combinations(range(1, inst.h + 1), size):
            omega = set(omega)
            rsum = sum(inst.lengths[g - 1] for g in omega)
            excluded = sum(ln for a, ln in zip(inst.access, lengths) if not (a & omega))
            if rsum + 2 * inst.t + inst.rho > n - excluded:
                return False
            if excluded + rsum > n - 2 * inst.ell * inst.t - inst.rho:
                return False
    return True


def cover_dimension_from_design(inst, lengths):
    """Oracle: the cover dimension in its instance-level subset form, the
    most blocked length plus message length over all 2^h - 1 message
    subsets."""
    best = 0
    for size in range(1, inst.h + 1):
        for omega in itertools.combinations(range(1, inst.h + 1), size):
            omega = set(omega)
            rsum = sum(inst.lengths[g - 1] for g in omega)
            blocked = sum(ln for a, ln in zip(inst.access, lengths) if not (a & omega))
            best = max(best, blocked + rsum)
    return best


def test_toy_design_optimum():
    lengths, n = design_lengths(TOY)
    assert n == 23
    assert sum(lengths) == 23
    assert recheck_constraints(TOY, lengths)
    # the reference tuple is feasible at the same optimum
    assert sum(PAPER_TUPLE) == 23
    assert recheck_constraints(TOY, PAPER_TUPLE)


def test_toy_design_ell_one():
    inst = NetworkInstance(h=4, lengths=(1, 3, 2, 3), access=TOY.access,
                           t=2, rho=2, ell=1)
    lengths, n = design_lengths(inst)
    assert n == 15
    assert recheck_constraints(inst, lengths)


def test_single_source_no_adversary():
    inst = NetworkInstance(h=3, lengths=(2, 1, 4), access=({1, 2, 3},),
                           t=0, rho=0, ell=1)
    lengths, n = design_lengths(inst)
    assert n == 7 == sum(inst.lengths)
    assert lengths == (7,)


def test_design_optimality_against_exhaustion():
    rng = random.Random(0)
    done = 0
    while done < 15:
        h = rng.randrange(1, 4)
        s = rng.randrange(1, 4)
        access = []
        for _ in range(s):
            size = rng.randrange(1, h + 1)
            access.append(frozenset(rng.sample(range(1, h + 1), size)))
        if any(not any(g in a for a in access) for g in range(1, h + 1)):
            continue
        inst = NetworkInstance(h=h, lengths=tuple(rng.randrange(1, 4) for _ in range(h)),
                               access=tuple(access), t=rng.randrange(0, 2),
                               rho=rng.randrange(0, 2), ell=rng.randrange(1, 3))
        done += 1
        lengths, n = design_lengths(inst)
        assert recheck_constraints(inst, lengths)
        cap = inst.k + 2 * inst.ell * inst.t + inst.rho
        brute = min(
            (sum(cand) for cand in itertools.product(range(cap + 1), repeat=s)
             if recheck_constraints(inst, cand)),
            default=None)
        assert brute == n


def compositions(total, parts):
    """Tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def test_design_lex_tie_break():
    lengths, n = design_lengths(TOY)
    feasible = [cand for cand in compositions(n, 4)
                if recheck_constraints(TOY, cand)]
    assert lengths == min(feasible)


def random_design_instance(rng, most=6):
    """A seeded instance with h, s <= most, t, rho in {0, 1, 2} and ell in
    1..4; access sets may be empty, and an unseen message joins a random
    source."""
    h, s = rng.randint(1, most), rng.randint(1, most)
    access = [frozenset(rng.sample(range(1, h + 1), rng.randint(0, h))) for _ in range(s)]
    for g in range(1, h + 1):
        if not any(g in a for a in access):
            j = rng.randrange(s)
            access[j] = access[j] | {g}
    return NetworkInstance(h=h, lengths=tuple(rng.randint(1, 3) for _ in range(h)),
                           access=tuple(access), t=rng.randint(0, 2), rho=rng.randint(0, 2),
                           ell=rng.randint(1, 4))


# SHA-256 over the instance JSON and `design_lengths` answer of 300 seeded
# random instances (h, s <= 6), recorded on the branch-and-bound that
# re-summed every subset row per candidate length.
DESIGN_GOLDEN_SHA256 = "bc08c82bdbb6ba0a85fd1c9503f86d9dd147af0efd4ecd63b7855ab505cfc2ec"


def test_design_lengths_golden():
    rng = random.Random(2014)
    digest = hashlib.sha256()
    for _ in range(300):
        inst = random_design_instance(rng)
        lengths, n = design_lengths(inst)
        digest.update(f"{inst.to_json()} {lengths} {n}\n".encode())
    assert digest.hexdigest() == DESIGN_GOLDEN_SHA256


def sparse_design_instance(seed, h, s):
    """Sparse instance: each source sees two or three messages, t = rho = 1,
    ell = 2."""
    rng = random.Random(seed)
    r = [rng.randint(1, 3) for _ in range(h)]
    S = [sorted(rng.sample(range(1, h + 1), rng.randint(2, 3))) for _ in range(s)]
    for g in range(1, h + 1):
        if not any(g in a for a in S):
            S[rng.randrange(s)].append(g)
    return NetworkInstance(h=h, lengths=tuple(r), access=tuple(S), t=1, rho=1, ell=2)


@pytest.mark.parametrize("seed, expected", [
    (0, ((6, 7, 0, 0, 0, 2, 5, 7), 27)),
    (1, ((2, 0, 1, 8, 5, 0, 7, 6), 29)),
    (2, ((0, 2, 3, 6, 3, 3, 1, 3), 21)),
])
def test_design_lengths_sparse_eight_by_eight(seed, expected):
    inst = sparse_design_instance(seed, 8, 8)
    assert design_lengths(inst) == expected
    assert recheck_constraints(inst, expected[0])


def test_design_lengths_first_feasible_composition():
    # oracle: the first composition, in lexicographic order, of the least
    # total that `recheck_constraints` accepts; the total starts at the
    # all-message demand k + 2*ell*t + rho (or ell, one symbol per block)
    rng = random.Random(12)
    for _ in range(200):
        inst = random_design_instance(rng, most=4)
        n = max(inst.k + 2 * inst.ell * inst.t + inst.rho, inst.ell)
        while True:
            first = next((cand for cand in compositions(n, inst.s)
                          if recheck_constraints(inst, cand)), None)
            if first is not None:
                break
            n += 1
        assert design_lengths(inst) == (first, n)


def test_designed_lengths_meet_every_capacity():
    lengths, n = design_lengths(TOY)
    assert recheck_constraints(TOY, lengths)
    res = build_distributed_code(TOY, build_code=False)
    assert res.distance <= res.n - res.cover_dim + 1


def test_cover_dimension_from_design_matches_row_level():
    for lengths in (PAPER_TUPLE, design_lengths(TOY)[0]):
        sc = derive_zero_sets(TOY.access, TOY.lengths, lengths)
        assert cover_dimension_from_design(TOY, lengths) == cover_dimension(sc)
    assert cover_dimension_from_design(TOY, PAPER_TUPLE) == 9


def test_built_cover_dimension_matches_subset_oracle():
    rng = random.Random(5)
    empty_access = zero_length = False
    for _ in range(600):
        h, s = rng.randrange(1, 7), rng.randrange(1, 7)
        access = [frozenset(rng.sample(range(1, h + 1), rng.randrange(0, h + 1)))
                  for _ in range(s)]
        for g in range(1, h + 1):
            if not any(g in a for a in access):
                j = rng.randrange(s)
                access[j] = access[j] | {g}
        r = tuple(rng.randrange(1, 4) for _ in range(h))
        # n >= k, so ell <= k leaves every block a symbol
        inst = NetworkInstance(h=h, lengths=r, access=tuple(access), t=rng.randrange(0, 2),
                               rho=rng.randrange(0, 2), ell=rng.randrange(1, min(2, sum(r)) + 1))
        res = build_distributed_code(inst, build_code=False)
        assert res.cover_dim == cover_dimension_from_design(inst, res.lengths)
        # the optimal lengths meet the decoding-capability bound
        assert res.distance <= res.n - res.cover_dim + 1
        empty_access |= frozenset() in inst.access
        zero_length |= 0 in res.lengths
    assert empty_access and zero_length


def test_even_partition_boundaries():
    assert even_partition(23, 3).parts == (8, 7, 8)
    assert even_partition(19, 2).parts == (10, 9)
    assert even_partition(15, 1).parts == (15,)
    assert even_partition(27, 4).parts == (7, 7, 6, 7)
    assert even_partition(6, 2).parts == (3, 3)
    with pytest.raises(ValueError):
        even_partition(2, 3)


def test_extended_sweep_rows():
    # growing the block count raises the required correction capability and
    # with it the total length and covering dimension
    expected = {
        5: (33, 11, 23, 7),
        6: (38, 12, 27, 7),
        7: (43, 13, 31, 8),
    }
    for ell, (n_exp, ktil_exp, d_exp, q_exp) in expected.items():
        inst = NetworkInstance(h=4, lengths=(1, 3, 2, 3), access=TOY.access,
                               t=2, rho=2, ell=ell)
        res = build_distributed_code(inst, build_code=False)
        assert (res.n, res.cover_dim, res.distance, res.q) == (
            n_exp, ktil_exp, d_exp, q_exp)
        assert recheck_constraints(inst, res.lengths)


def test_singleton_scenario_design_numbers():
    inst = NetworkInstance(h=4, lengths=(1, 3, 2, 3),
                           access=({1}, {2}, {3}, {4}), t=2, rho=2, ell=1)
    res = build_distributed_code(inst, build_code=False)
    assert res.n == 33
    assert res.cover_dim == 27
    assert res.distance == 7
    assert (res.q, res.m) == (2, 33)
    assert res.lengths == (7, 9, 8, 9)


def test_reference_tuples_feasible_at_optimum():
    # published per-source length choices for both access structures re-check
    # feasible at the optimum our solver proves
    toy_rows = {1: (6, 1, 0, 8), 2: (6, 5, 0, 8), 3: (6, 7, 2, 8),
                4: (6, 7, 6, 8), 5: (8, 9, 6, 10), 6: (9, 10, 8, 11),
                7: (10, 11, 10, 12)}
    for ell, tup in toy_rows.items():
        inst = NetworkInstance(h=4, lengths=(1, 3, 2, 3), access=TOY.access,
                               t=2, rho=2, ell=ell)
        _, n = design_lengths(inst)
        assert sum(tup) == n
        assert recheck_constraints(inst, tup)
    paired_rows = {1: (6, 1, 3, 7), 2: (10, 1, 3, 11), 3: (14, 1, 3, 15)}
    for ell, tup in paired_rows.items():
        inst = NetworkInstance(h=4, lengths=(1, 3, 2, 3),
                               access=({1, 2}, {1, 3}, {2, 4}, {3, 4}),
                               t=2, rho=2, ell=ell)
        _, n = design_lengths(inst)
        assert sum(tup) == n
        assert recheck_constraints(inst, tup)


def test_paired_access_scenario_design_numbers():
    # each source holds two messages; the crossing pair constraints force
    # n = 17 at ell = 1 ((x1+x3) + (x2+x4) >= 9 + 8)
    expected = {1: (17, 11, 7, 2), 2: (25, 15, 11, 3), 3: (33, 19, 15, 4)}
    for ell, (n_exp, ktil_exp, d_exp, q_exp) in expected.items():
        inst = NetworkInstance(h=4, lengths=(1, 3, 2, 3),
                               access=({1, 2}, {1, 3}, {2, 4}, {3, 4}),
                               t=2, rho=2, ell=ell)
        res = build_distributed_code(inst, build_code=False)
        assert (res.n, res.cover_dim, res.distance, res.q) == (
            n_exp, ktil_exp, d_exp, q_exp)
        assert recheck_constraints(inst, res.lengths)


def test_unreachable_message_rejected():
    with pytest.raises(ValueError, match="message 3"):
        NetworkInstance(h=3, lengths=(1, 1, 1), access=({1}, {2}), t=0, rho=0, ell=1)


def test_build_toy_distributed_code():
    res = build_distributed_code(TOY, seed=0)
    assert res.n == 23 and res.k == 9 and res.cover_dim == 9
    assert res.distance == 15
    assert res.parts == (8, 7, 8)
    assert (res.q, res.m) == (4, 10)
    cc = res.code
    tower = cc.code.tower
    assert (tower.q, tower.m) == (4, 10)
    assert verify_support(cc.matrix, cc.sc) == []
    for z_orig, z_full in zip(res.constraint.zero_sets, cc.sc.zero_sets):
        assert z_orig <= z_full
    assert mat_rank(tower, [list(r) for r in cc.matrix]) == 9
    # the emitted rows really are T * G_lrs
    from lrsnet.lrs import generator_matrix
    assert [list(r) for r in cc.matrix] == mat_mul(
        tower, [list(r) for r in cc.transform], generator_matrix(cc.code))


def test_design_result_json_roundtrip():
    res = build_distributed_code(TOY, seed=0)
    text = res.to_json()
    again = DesignResult.from_json(text)
    assert again.lengths == res.lengths
    assert again.parts == res.parts
    assert again.code.matrix == res.code.matrix
    assert again.to_json() == text
    lean = build_distributed_code(TOY, build_code=False)
    assert DesignResult.from_json(lean.to_json()).code is None


def test_sample_channel_no_adversary():
    ch = sample_channel(n=6, N=6, M=8, t=0, rho=0, q=3, seed=5)
    tower = make_field(3)
    assert tower.base_matrix_rank(ch.A) == 6
    assert not ch.E.any()
    X = np.arange(48).reshape(6, 8) % 3
    assert np.array_equal(tower.base_mat_mul(ch.A, X), (ch.A @ X) % 3)


def test_sample_channel_rank_bounds():
    tower = make_field(3)
    for seed in range(200):
        ch = sample_channel(n=6, N=6, M=8, t=2, rho=1, q=3, seed=seed)
        assert 6 - tower.base_matrix_rank(ch.A) <= 1
        assert tower.base_matrix_rank(ch.E) <= 2
    # deterministic per seed
    a = sample_channel(6, 6, 8, 2, 1, 3, seed=7)
    b = sample_channel(6, 6, 8, 2, 1, 3, seed=7)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.E, b.E)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_sample_channel_reports_verified_rank(q):
    # rank_A is the rank the sampler checked; the list elimination agrees.
    # The erasure half of the audit holds by construction: the sampler
    # forces rank A = n - rho_eff >= n - rho, and the block ranks sum to at
    # least the rank.
    tower = make_field(*prime_power(q))
    for seed in range(60):
        ch = sample_channel(n=9, N=10, M=12, t=2, rho=2, q=q, seed=seed)
        assert ch.tower == tower
        rows = [list(map(int, r)) for r in ch.A]
        oracle = len(_eliminate(rows, 9, tower.base_inv, tower.base_mul, tower.base_sub)[0])
        assert ch.rank_A == oracle
        rep = audit_weights(ch, OrderedPartition((5, 5)), OrderedPartition((5, 4)))
        assert rep["rank_A"] == oracle
        assert 9 - 2 <= rep["rank_A"] <= rep["wtsr_A"] <= 9
        assert rep["erasure_ok"]


@pytest.mark.parametrize("q", [6, 1, 0])
def test_sample_channel_rejects_non_prime_power(q):
    with pytest.raises(ValueError, match=f"q = {q} is not a prime power"):
        sample_channel(4, 4, 6, 1, 0, q)
    with pytest.raises(ValueError, match="not a prime power"):
        weight_statistics(q=q, ell=2, t=1, row_parts=(2, 2), M=6, trials=1)


def test_sample_channel_requires_enough_packets():
    with pytest.raises(ValueError, match="at least"):
        sample_channel(n=6, N=3, M=8, t=0, rho=1, q=3)


@pytest.mark.parametrize("t,rho", [(-1, 0), (0, -1), (-2, -1)])
def test_sample_channel_rejects_negative_t_and_rho(t, rho):
    # a negative t drew from an empty range (a ZeroDivisionError in the word
    # stream), and a negative rho reached randint's "empty range"
    with pytest.raises(ValueError, match=f"got t = {t}, rho = {rho}"):
        sample_channel(4, 6, 6, t, rho, 4)
    with pytest.raises(ValueError, match=f"got t = {t}, rho = {rho}"):
        weight_statistics(4, 1, t, (4,), 6, 2, rho=rho)


@pytest.mark.parametrize("t,rho,trials", [(-1, 0, 0), (0, -1, 0), (1, 0, -3)])
def test_weight_statistics_rejects_an_impossible_adversary_before_any_draw(t, rho, trials):
    # checked before any draw: with trials = 0, sample_channel never sees t and rho
    with pytest.raises(ValueError, match=f"got t = {t}, rho = {rho}, trials = {trials}"):
        weight_statistics(4, 1, t, (4,), 6, trials, rho=rho)


@pytest.mark.parametrize("q", [4, 9])
def test_transmit_over_extension_matches_entrywise_oracle(q):
    # q = 4 = 2^2 and q = 9 = 3^2: F_q addition is not addition mod q.  The
    # channel output Y = A X + E is the one `base_mat_mul` [A | I] [X; E].
    Fq = make_field(*prime_power(q))
    ch = sample_channel(5, 6, 7, 2, 1, q, seed=1)
    assert ch.E.any()
    rng = random.Random(4)
    X = np.array([[rng.randrange(q) for _ in range(7)] for _ in range(5)], dtype=np.int64)
    want = np.zeros((6, 7), dtype=np.int64)
    for i in range(6):
        for j in range(7):
            acc = int(ch.E[i, j])
            for t in range(5):
                acc = Fq.base_add(acc, Fq.base_mul(int(ch.A[i, t]), int(X[t, j])))
            want[i, j] = acc
    AI = np.hstack([ch.A, np.eye(6, dtype=np.int64)])
    assert np.array_equal(Fq.base_mat_mul(AI, np.vstack([X, ch.E])), want)
    assert np.array_equal(Fq.base_mat_mul(np.eye(5, dtype=np.int64), X), X)


def test_audit_weights_reports():
    ch = sample_channel(n=8, N=8, M=8, t=1, rho=0, q=3, seed=3)
    rep = audit_weights(ch, OrderedPartition((4, 4)), OrderedPartition((4, 4)))
    assert rep["erasure_ok"] and rep["error_ok"]
    zero = ChannelRealization(A=np.eye(8, dtype=np.int64),
                              E=np.zeros((8, 8), dtype=np.int64),
                              tower=make_field(3), t=0, rho=0, rank_A=8)
    rep0 = audit_weights(zero, OrderedPartition((4, 4)), OrderedPartition((4, 4)))
    assert rep0["wtsr_E"] == 0 and rep0["rank_A"] == 8


def test_weight_statistics_lower_bound():
    stats = weight_statistics(q=3, ell=2, t=1, row_parts=(4, 4), M=8,
                              trials=300, seed=1)
    assert stats["bounds_ok"]
    assert stats["full_rank_draws"] > 0
    assert stats["tight_given_full_rank"] > 0.25


def test_puncture_and_exact_weight_errors():
    part = OrderedPartition((2, 2))
    sub, keep = puncture(part, {1})
    assert sub.parts == (1, 2) and keep == [2, 3, 4]
    sub2, keep2 = puncture(part, {1, 2})
    assert sub2.parts == (2,) and keep2 == [3, 4]
    F9 = make_field(3, 1, 2)
    rng = random.Random(2)
    from lrsnet.sumrank import sum_rank_weight
    for w in (0, 1, 2, 3):
        for _ in range(10):
            err = random_error_of_weight(F9, part, w, rng)
            assert sum_rank_weight(F9, err, part) == w


BELOW_N = st.sampled_from([1, 2, 3, 4, 5, 9, 81, 511, 2**31 - 1, 2**32 - 1])


@settings(max_examples=80, deadline=None)
@given(calls=st.lists(st.tuples(BELOW_N, st.integers(0, 2000)), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_word_stream_matches_randrange(calls, seed):
    bulk, scalar = random.Random(seed), random.Random(seed)
    start = bulk.getstate()
    words = _WordStream(bulk)
    for n, count in calls:
        got = words.below(n, count)
        assert got.dtype == np.int64
        assert got.tolist() == [scalar.randrange(n) for _ in range(count)]
    words.sync(start)
    assert bulk.random() == scalar.random()


def test_word_stream_rewinds_from_a_later_saved_state():
    # each call draws past _SNAPSHOT_WORDS words, so sync restores a state
    # saved after the first draw and replays only the words read since
    bulk, scalar = random.Random(3), random.Random(3)
    start = bulk.getstate()
    words = _WordStream(bulk)
    for n in (5, 81, 5):
        count = netsim._SNAPSHOT_WORDS
        assert words.below(n, count).tolist() == [scalar.randrange(n) for _ in range(count)]
    words.peek(81, 1000)
    assert words._saved[0][0] > 0
    words.sync(start)
    assert bulk.random() == scalar.random()


def _scalar_sample_channel(n, N, M, t, rho, q, seed):
    """Oracle of `sample_channel`: one `randrange` call per entry, the rank
    by the list elimination and the error product by scalar loops."""
    tower = make_field(*prime_power(q))
    rng = random.Random(seed)
    rho_eff = rng.randint(max(0, n - N), rho)
    deleted = rng.sample(range(n), rho_eff)
    while True:
        A = [[rng.randrange(q) for _ in range(n)] for _ in range(N)]
        for row in A:
            for j in deleted:
                row[j] = 0
        rows = [list(r) for r in A]
        rank_A = len(_eliminate(rows, n, tower.base_inv, tower.base_mul, tower.base_sub)[0])
        if rank_A == n - rho_eff:
            break
    t_eff = rng.randint(0, t)
    U = [[rng.randrange(q) for _ in range(t_eff)] for _ in range(N)]
    V = [[rng.randrange(q) for _ in range(M)] for _ in range(t_eff)]
    E = [[0] * M for _ in range(N)]
    for i in range(N):
        for j in range(M):
            for u, v in zip(U[i], (V[r][j] for r in range(t_eff))):
                E[i][j] = tower.base_add(E[i][j], tower.base_mul(u, v))
    return A, E, rank_A


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5, 9, 2**31 - 1]), n=st.integers(1, 6),
       extra=st.integers(0, 3), M=st.integers(1, 6), t=st.integers(0, 3),
       rho=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_sample_channel_matches_scalar_draws(q, n, extra, M, t, rho, seed):
    rho = min(rho, n)
    N = max(n - rho, 1) + extra
    ch = sample_channel(n, N, M, t, rho, q, seed=seed)
    A, E, rank_A = _scalar_sample_channel(n, N, M, t, rho, q, seed)
    assert ch.A.tolist() == A
    assert ch.E.tolist() == E
    assert ch.rank_A == rank_A


def _scalar_error_of_weight(tower, part, weight, rng):
    """Oracle: one candidate block at a time, ranked by the list
    elimination."""
    capacities = [min(nl, tower.m) for nl in part.parts]
    target = [0] * part.ell
    left = weight
    while left:
        l = rng.randrange(part.ell)
        if target[l] < capacities[l]:
            target[l] += 1
            left -= 1
    err = [0] * part.n
    for l, (a, b) in enumerate(part.slices()):
        while target[l]:
            blk = [tower.random_element(rng) for _ in range(b - a)]
            if tower.rank_over_base(blk) == target[l]:
                err[a:b] = blk
                break
    return err


@pytest.mark.parametrize("pem", [(3, 1, 2), (2, 2, 2), (3, 1, 4), (2, 1, 5)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_error_of_weight_matches_scalar_draws(pem, data):
    tower = make_field(*pem)
    parts = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    part = OrderedPartition(parts)
    weight = data.draw(st.integers(0, sum(min(nl, tower.m) for nl in parts)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    bulk, scalar = random.Random(seed), random.Random(seed)
    assert (random_error_of_weight(tower, part, weight, bulk)
            == _scalar_error_of_weight(tower, part, weight, scalar))
    assert bulk.random() == scalar.random()


def test_random_error_of_weight_rejects_towers_past_the_tables():
    tower = make_field(2, 1, 10)  # order 1024
    with pytest.raises(ValueError, match=f"q\\^m <= {gf._NUMPY_TABLE_MAX}"):
        random_error_of_weight(tower, OrderedPartition((2, 2)), 1, random.Random(0))


@pytest.mark.parametrize("q", [2**32, 2**61 - 1])
def test_sample_channel_rejects_q_past_one_word(q):
    # randrange(q) reads two 32-bit words per try from q = 2^32 on
    with pytest.raises(ValueError, match="q < 2\\^32"):
        sample_channel(4, 4, 6, 1, 0, q)


def test_end_to_end_micro_with_erasure():
    from lrsnet.construct import synthesize
    from lrsnet.constraints import SupportConstraint

    F9 = make_field(3, 1, 2)
    cc = synthesize(F9, OrderedPartition((2, 2)), 2,
                    SupportConstraint(4, 2, ({2}, {1})), seed=0)
    rng = random.Random(3)
    # d = 3: one error and no erasure, or one erasure and no error
    for _ in range(20):
        assert end_to_end_trial(cc, 3, error_weight=1, erasures=0, rng=rng)
        assert end_to_end_trial(cc, 3, error_weight=0, erasures=1, rng=rng)


def _bruteforce_trial(cc, distance, error_weight, erasures, rng):
    """`end_to_end_trial` with nearest-codeword decoding of the punctured
    subcode by brute force, the oracle of its algebraic decoding."""
    tower, part, k = cc.code.tower, cc.code.part, cc.sc.k
    G = [list(r) for r in cc.matrix]
    msg = tuple(tower.random_element(rng) for _ in range(k))
    cw = vec_mat(tower, list(msg), G)
    err = random_error_of_weight(tower, part, error_weight, rng)
    y = [tower.add(c, e) for c, e in zip(cw, err)]
    erased = rng.sample(range(1, part.n + 1), erasures)
    sub_part, keep = puncture(part, erased)
    res = bruteforce_decode(tower, [[row[j - 1] for j in keep] for row in G], sub_part,
                            [y[j - 1] for j in keep], code_distance=distance - erasures)
    return res.ok and res.message == msg


# micro shapes over partition (3, 3): (field, k, zero sets); the second,
# fourth and fifth violate the condition, so their covering code is larger
_TRIAL_CODES = [
    ((3, 1, 3), 2, ({1}, {4})),
    ((3, 1, 3), 2, ({1}, {1})),
    ((3, 1, 3), 3, ({1, 4}, {2}, set())),
    ((3, 1, 4), 2, ({2}, {2})),
    ((3, 1, 4), 2, ({1, 2}, {1, 2})),
]


def test_end_to_end_trial_matches_bruteforce_trial():
    from lrsnet.construct import subcode_generator
    from lrsnet.constraints import SupportConstraint

    part = OrderedPartition((3, 3))
    outcomes, cover_dims = [], []
    for spec, k, zs in _TRIAL_CODES:
        sc = SupportConstraint(6, k, tuple(frozenset(z) for z in zs))
        cc = subcode_generator(make_field(*spec), part, k, sc, seed=0)
        cover_dims.append(cc.cover_dim)
        full = 6 - cc.cover_dim + 1
        # the designed distance, and one below it: a radius short of tau
        for distance in (full, full - 1):
            for erasures in range(3):
                radius = (distance - erasures - 1) // 2
                for weight in {max(radius, 0), radius + 1}:
                    for seed in range(3):
                        rng, ref = random.Random(seed), random.Random(seed)
                        got = end_to_end_trial(cc, distance, weight, erasures, rng)
                        assert got == _bruteforce_trial(cc, distance, weight, erasures, ref)
                        assert rng.getstate() == ref.getstate()
                        outcomes.append(got)
    assert cover_dims == [2, 3, 3, 3, 4]
    assert (len(outcomes), sum(outcomes)) == (177, 88)


def test_end_to_end_trial_refuses_a_codeword_outside_the_subcode(monkeypatch):
    # a k = 2 subcode of a cover_dim = 3 code: an error that puts the word
    # within radius 1 of c + d, d = (0, 0, 1) T G_LRS, decodes to the
    # covering message (msg, 1), which the trial must count as a failure
    from lrsnet.constraints import SupportConstraint
    from lrsnet.construct import subcode_generator
    from lrsnet.lrs import decode, generator_matrix

    F27 = make_field(3, 1, 3)
    sc = SupportConstraint(6, 2, (frozenset({1}), frozenset({1})))
    cc = subcode_generator(F27, OrderedPartition((3, 3)), 2, sc, seed=0)
    assert cc.cover_dim == 3
    d = vec_mat(F27, [0, 0, 1], mat_mul(F27, [list(r) for r in cc.transform],
                                        generator_matrix(cc.code)))
    j = next(j for j, v in enumerate(d) if v)
    err = [0 if i == j else v for i, v in enumerate(d)]  # weight >= 4 - 1
    monkeypatch.setattr(netsim, "random_error_of_weight", lambda *args: list(err))
    assert not end_to_end_trial(cc, 4, 1, 0, random.Random(0))
    rng = random.Random(0)
    msg = [F27.random_element(rng) for _ in range(2)]
    y = [F27.add(c, e) for c, e in zip(vec_mat(F27, msg, [list(r) for r in cc.matrix]), err)]
    f = decode(cc.code, y, radius=1)
    assert vec_mat(F27, list(f), cc.inverse_transform) == msg + [1]


def test_designed_code_survives_frozen_node():
    # rho = 1 design: the decoder must tolerate one erased coordinate
    inst = NetworkInstance(h=2, lengths=(1, 1), access=({1, 2}, {1, 2}),
                           t=0, rho=1, ell=1)
    res = build_distributed_code(inst, seed=0)
    assert res.distance == 2
    rng = random.Random(4)
    for _ in range(20):
        assert end_to_end_trial(res.code, res.distance, error_weight=0,
                                erasures=1, rng=rng)


# Pinned seeded streams of the two samplers, recorded with the scalar
# `randrange` draws: every error vector `random_error_of_weight` returns, up
# to each partition's capacity, with the next `rng.random()` after it (so the
# state it leaves is pinned too), and every channel `sample_channel` returns.
ERROR_STREAM_SHA256 = {
    ((3, 1, 2), (3, 3)):
        "5183bd82fa75feaf135643bf57334b0a0cae4e239e935693b66f8c22c9e5c72f",
    ((3, 1, 2), (2, 3, 1)):
        "55765f262d1a56d3338aa2112938ff89029822ee64fe9959f73c3d7966eb73cb",
    ((3, 1, 3), (3, 3)):
        "13fd0430d733f429b7a76b4eaff595a2b6adfe7286ff61f3ced507efd2aff753",
    ((3, 1, 3), (2, 3, 1)):
        "556bbc59d1e280c03d8da1d478a04ab1151ad8fcf23cea31063bea9a4342f5a1",
    ((3, 1, 4), (3, 3)):
        "390367d5a68ca8a7e7c784a17521284156f7ec00de4c22df78ee6c4ab6fe224a",
    ((3, 1, 4), (2, 3, 1)):
        "4ceb5c2769f2f366647ee106fa71c3c55aee2292f3b71809da47cf0b069e5418",
    ((2, 2, 2), (3, 3)):
        "1166130aa1d2a97978dfc58ee7759b911a812a63b4efccf9f646a7a59cb768ea",
    ((2, 2, 2), (2, 3, 1)):
        "85d763c81044cf95f211fbcaba4252b999b3f9a6a1ba0fd00c9112c0db5afe55",
}


@pytest.mark.parametrize("pem,parts", sorted(ERROR_STREAM_SHA256))
def test_random_error_stream_golden(pem, parts):
    tower = make_field(*pem)
    part = OrderedPartition(parts)
    digest = hashlib.sha256()
    for weight in range(sum(min(nl, tower.m) for nl in parts) + 1):
        for seed in range(30):
            rng = random.Random(seed)
            err = random_error_of_weight(tower, part, weight, rng)
            digest.update(repr((weight, seed, err, rng.random())).encode())
    assert digest.hexdigest() == ERROR_STREAM_SHA256[pem, parts]


# (n, N, M, t, rho) shapes, each drawn at seeds 0-19: the toy audit's shape,
# a channel with more received than sent packets, and a small one
CHANNEL_STREAM_SHAPES = [(23, 23, 33, 2, 2), (7, 9, 10, 3, 2), (4, 3, 5, 1, 1)]
CHANNEL_STREAM_SHA256 = {
    2: "8c9b9c9fcdc5d1d1a3a9fb4e8fc9e600c29953626d1847d1497cde4f84f3ee51",
    3: "61723f902eff1998d03646b44ab99e96281f99383eebb8107f3257e43786b013",
    5: "618384a7490b8d3f7c6b5f5a9c610c36f511a8dc75db85d26b209a9347a9b516",
    9: "49a3f1a89fae2fa6a12434a00eba42d086f1b36a9f6074f6463666c909c619dc",
}


@pytest.mark.parametrize("q", sorted(CHANNEL_STREAM_SHA256))
def test_sample_channel_stream_golden(q):
    digest = hashlib.sha256()
    for shape in CHANNEL_STREAM_SHAPES:
        for seed in range(20):
            ch = sample_channel(*shape, q=q, seed=seed)
            digest.update(repr((shape, seed, ch.A.tolist(), ch.E.tolist(),
                                ch.rank_A)).encode())
    assert digest.hexdigest() == CHANNEL_STREAM_SHA256[q]


# (n, M, q, ell) with n = N, t = 2 and rho = 2, each drawn at seeds 0-199:
# the toy audit's shape over F_4 (the packed rank route) and an ell = 4
# shape over F_5 (the numpy route); the audit reports were recorded on the
# numpy elimination of every base field
AUDIT_SHA256 = {
    (23, 33, 4, 3): "e5509ed20452829b0828f3e3eddf5317f8fac67009cfddf9f2a934878cfd584c",
    (27, 37, 5, 4): "454510debf974c8e17e3d82d0593db345603fa1ec97bc383fdc8a42984f8ef36",
}


@pytest.mark.parametrize("shape", sorted(AUDIT_SHA256))
def test_audit_weights_golden(shape):
    n, M, q, ell = shape
    part = even_partition(n, ell)
    digest = hashlib.sha256()
    for seed in range(200):
        ch = sample_channel(n, n, M, 2, 2, q, seed=seed)
        rep = audit_weights(ch, part, part)
        digest.update(repr((seed, sorted(rep.items()))).encode())
    assert digest.hexdigest() == AUDIT_SHA256[shape]
