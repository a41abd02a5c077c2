"""Zero-pattern condition checks, completion, derivation, field suggestions."""

import itertools
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lrsnet import constraints
from lrsnet.constraints import (
    ConditionReport,
    SupportConstraint,
    check_condition,
    complete_zero_sets,
    cover_dimension,
    derive_zero_sets,
    format_pattern,
    parse_pattern,
    suggest_field_params,
    sufficient_extension_degrees,
)

TOY_ACCESS = [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}]
TOY_LENGTHS = (1, 3, 2, 3)
TOY_SOURCES = (6, 7, 2, 8)


def brute_condition(sc):
    """Oracle: direct scan over all nonempty subsets with set operations."""
    best = 0
    violations = []
    equality = True
    for size in range(1, sc.k + 1):
        for comb in itertools.combinations(range(sc.k), size):
            sets = [set(sc.zero_sets[i]) for i in comb]
            inter = set.intersection(*sets)
            value = len(inter) + size
            best = max(best, value)
            if value != sc.k:
                equality = False
            if value > sc.k:
                violations.append(tuple(i + 1 for i in comb))
    witness = min(violations) if violations else None
    return best, witness, equality


def test_two_swapped_singletons_hold_with_equality():
    sc = SupportConstraint(2, 2, ({2}, {1}))
    rep = check_condition(sc)
    assert rep == ConditionReport(True, None, True, 2)


def test_repeated_singleton_violates():
    sc = SupportConstraint(2, 2, ({1}, {1}))
    rep = check_condition(sc)
    assert not rep.holds
    assert rep.witness == (1, 2)
    assert not rep.equality_system


def test_empty_sets_hold():
    sc = SupportConstraint(5, 3, (frozenset(), frozenset(), frozenset()))
    rep = check_condition(sc)
    assert rep.holds
    assert not rep.equality_system  # values fall below k for small subsets


def test_condition_against_bruteforce_oracle():
    rng = random.Random(0)
    for _ in range(200):
        k = rng.randrange(1, 6)
        n = rng.randrange(k, 9)
        zs = tuple(frozenset(rng.sample(range(1, n + 1), rng.randrange(0, n + 1)))
                   for _ in range(k))
        sc = SupportConstraint(n, k, zs)
        best, witness, equality = brute_condition(sc)
        rep = check_condition(sc)
        assert rep.holds == (best <= k)
        assert cover_dimension(sc) == max(best, k)
        if not rep.holds:
            assert rep.witness == witness
        else:
            assert rep.equality_system == equality


def test_condition_monotone_under_removal():
    rng = random.Random(1)
    for _ in range(100):
        k, n = 4, 7
        zs = [set(rng.sample(range(1, n + 1), rng.randrange(0, n))) for _ in range(k)]
        sc = SupportConstraint(n, k, tuple(zs))
        if not check_condition(sc).holds:
            continue
        i = rng.randrange(k)
        if zs[i]:
            zs[i].discard(next(iter(zs[i])))
        sc2 = SupportConstraint(n, k, tuple(zs))
        assert check_condition(sc2).holds


def test_cover_dimension_examples():
    assert cover_dimension(SupportConstraint(2, 2, ({1}, {1}))) == 3
    assert cover_dimension(SupportConstraint(4, 2, (frozenset(), frozenset()))) == 2
    toy = derive_zero_sets(TOY_ACCESS, TOY_LENGTHS, TOY_SOURCES)
    assert cover_dimension(toy) == 9 == toy.k


def test_cover_dimension_linear_in_columns():
    # masks and matchings each take one pass over the columns; peeling bits
    # off an n-bit int per column took ~7 s at this size
    n = 200_000
    sc = SupportConstraint(n, 2, (range(2, n + 1), ()))
    assert sc.masks() == [(1 << n) - 2, 0]
    start = time.perf_counter()
    assert cover_dimension(sc) == n
    assert time.perf_counter() - start < 3.0


def test_support_graph_guard():
    # n k = 2^23 bits is the largest graph built; one row more is refused
    # before the graph is allocated, by every routine that builds it
    assert constraints._SUPPORT_GRAPH_MAX_BITS == 1 << 23
    at = SupportConstraint(1 << 12, 1 << 11, (frozenset(),) * (1 << 11))
    assert check_condition(at) == ConditionReport(True, None, False, 1 << 11)
    past = SupportConstraint(1 << 12, (1 << 11) + 1, (frozenset(),) * ((1 << 11) + 1))
    for call in (check_condition, cover_dimension, complete_zero_sets, constraints._support):
        with pytest.raises(ValueError, match="past the guard of 2\\^23"):
            call(past)
    # the toy access structure with r_4 = 10^6 needs ~10^12 bits
    huge = derive_zero_sets(TOY_ACCESS, (1, 3, 2, 10**6), (0, 0, 15, 10**6 + 5))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="past the guard"):
        cover_dimension(huge)
    assert time.perf_counter() - start < 1.0


def test_completion_greedy_trace():
    sc = SupportConstraint(2, 2, (frozenset(), frozenset()))
    done = complete_zero_sets(sc)
    # greedy tries {1} for row 1 (kept), then {1} for row 2 (rejected), {2} kept
    assert done.zero_sets == (frozenset({1}), frozenset({2}))


def test_completion_idempotent_on_complete_input():
    sc = SupportConstraint(2, 2, ({2}, {1}))
    assert complete_zero_sets(sc).zero_sets == sc.zero_sets


def test_completion_properties_random():
    rng = random.Random(2)
    done_count = 0
    while done_count < 100:
        k = rng.randrange(2, 6)
        n = rng.randrange(k + 1, k + 6)
        zs = tuple(frozenset(rng.sample(range(1, n + 1), rng.randrange(0, k)))
                   for _ in range(k))
        sc = SupportConstraint(n, k, zs)
        if not check_condition(sc).holds:
            continue
        done_count += 1
        full = complete_zero_sets(sc)
        assert check_condition(full).holds
        for before, after in zip(sc.zero_sets, full.zero_sets):
            assert before <= after
            assert len(after) == k - 1


def test_completion_requires_condition():
    with pytest.raises(ValueError, match="condition violated"):
        complete_zero_sets(SupportConstraint(2, 2, ({1}, {1})))


def test_completion_requires_enough_columns():
    # no pattern with fewer columns than rows is constructed, so neither the
    # condition (which would hold vacuously here) nor the completion sees one
    with pytest.raises(ValueError, match="a full-rank 3 x 2 generator needs n >= k columns"):
        SupportConstraint(2, 3, ((), (), ()))
    with pytest.raises(ValueError, match="columns"):
        SupportConstraint(2, 4, (frozenset(),) * 4)
    # k = 3 rows fit their k - 1 = 2 zeros into n = 2 columns and would hold
    # the condition, but no full-rank 3 x 2 generator exists
    with pytest.raises(ValueError, match="n >= k"):
        SupportConstraint(2, 3, (frozenset(), {1}, {2}))
    # every shape the completion property test drew with n < k
    for k in range(1, 8):
        for n in range(k):
            for zs in ((frozenset(),) * k, (frozenset(range(1, min(n, k - 1) + 1)),) * k):
                with pytest.raises(ValueError, match="n >= k"):
                    SupportConstraint(n, k, zs)
    # the shape is checked before any zero set is scanned
    with pytest.raises(ValueError, match="n >= k"):
        SupportConstraint(23, 10**6, (frozenset(range(1, 24)),) * 10**6)


def test_derive_toy_pattern():
    sc = derive_zero_sets(TOY_ACCESS, TOY_LENGTHS, TOY_SOURCES)
    assert sc.n == 23 and sc.k == 9
    # message 1 row vanishes on the fourth source's columns
    assert sc.zero_sets[0] == frozenset(range(16, 24))
    # message 2 rows vanish on the third source's columns
    for i in (1, 2, 3):
        assert sc.zero_sets[i] == frozenset({14, 15})
    # message 3 rows vanish on the second source's columns
    for i in (4, 5):
        assert sc.zero_sets[i] == frozenset(range(7, 14))
    # message 4 rows vanish on the first source's columns
    for i in (6, 7, 8):
        assert sc.zero_sets[i] == frozenset(range(1, 7))


def test_derive_no_constraint_when_every_source_has_message():
    sc = derive_zero_sets([{1, 2}, {1, 2}], (1, 1), (2, 2))
    assert sc.zero_sets == (frozenset(), frozenset())


def test_derive_unreachable_message():
    with pytest.raises(ValueError, match="message 2"):
        derive_zero_sets([{1}, {1}], (1, 1), (2, 2))


def test_field_suggestions_table_rows():
    fp1 = suggest_field_params(9, 1, (15,))
    assert (fp1.q, fp1.m) == (2, 15)
    fp2 = suggest_field_params(9, 2, (10, 9))
    assert (fp2.q, fp2.m) == (3, 10)
    fp3 = suggest_field_params(9, 3, (8, 7, 8))
    assert (fp3.q, fp3.m) == (4, 10)  # ceiling of 8 + log_4(9)
    fp4 = suggest_field_params(9, 4, (7, 7, 7, 6))
    assert (fp4.q, fp4.m) == (5, 10)


def test_field_suggestion_sharp_threshold():
    fp = suggest_field_params(9, 2, (10, 9))
    # exact threshold: 3^m > 8*2*3^7 + 3^9 = 34992 + 19683 = 54675
    assert fp.m_sharp == 10
    fp2 = suggest_field_params(2, 2, (3, 3))
    # 3^m > 1*2*3^0 + 3^2 = 11  ->  m_sharp = 3
    assert fp2.m_sharp == 3


def test_sharp_degree_is_least_power_beyond_the_bound():
    # m_sharp is the least m >= 1 with q^m > max (k-1)(q-1)q^(k-2) + q^(n_l-1),
    # also for blocks far longer than any field the package can build
    rng = random.Random(7)
    cases = [(2, 1, [1]), (3, 2, [1, 1]), (2, 2, [10**6]), (5, 3, [3 * 10**5])]
    for _ in range(2000):
        cases.append((rng.choice([2, 3, 4, 5, 7, 8, 9, 16, 27, 125]), rng.randrange(1, 40),
                      [rng.randrange(1, 80) for _ in range(rng.randrange(1, 5))]))
    for q, k, parts in cases:
        bound = max((k - 1) * (q - 1) * q ** max(k - 2, 0) + q ** (nl - 1) for nl in parts)
        m_sharp = sufficient_extension_degrees(q, k, parts)[1]
        assert q ** m_sharp > bound
        assert m_sharp == 1 or q ** (m_sharp - 1) <= bound


def test_field_suggestion_prime_power_steps():
    assert suggest_field_params(3, 5, (2,) * 5).q == 7  # smallest prime power >= 6 is 7
    assert suggest_field_params(3, 7, (2,) * 7).q == 8


def test_pattern_roundtrip():
    sc = derive_zero_sets(TOY_ACCESS, TOY_LENGTHS, TOY_SOURCES)
    text = format_pattern(sc)
    again = parse_pattern(text, sc.n)
    assert again == sc
    assert "-" in format_pattern(SupportConstraint(3, 1, (frozenset(),)))


def test_pattern_parse_errors():
    with pytest.raises(ValueError, match="line 2"):
        parse_pattern("1 2\nx y\n", 4)
    with pytest.raises(ValueError, match="line 1"):
        parse_pattern("9\n", 4)


@pytest.mark.parametrize("col", [0, 5])
def test_zero_set_past_the_column_range(col):
    with pytest.raises(ValueError, match=r"zero set 2 leaves the column range \[1, 4\]"):
        SupportConstraint(4, 2, ({2}, {1, col}))


def test_all_empty_k25_holds():
    sc = SupportConstraint(30, 25, (frozenset(),) * 25)
    assert check_condition(sc) == ConditionReport(True, None, False, 25)
    assert cover_dimension(sc) == 25


def test_planted_patterns_at_large_k():
    k, n = 64, 80
    rng = random.Random(64)
    universe = rng.sample(range(1, n + 1), k)
    missing = rng.sample(universe, k)
    eq = SupportConstraint(n, k, tuple(frozenset(universe) - {c} for c in missing))
    assert check_condition(eq) == ConditionReport(True, None, True, k)
    assert cover_dimension(eq) == k
    assert complete_zero_sets(eq) == eq
    # rows 5, 17, 40 share k - 2 zero columns, every other row has at most 3
    # zeros off them: the triple reaches k + 1, every other subset stays <= k
    common = rng.sample(range(1, n + 1), k - 2)
    rest = sorted(set(range(1, n + 1)) - set(common))
    zs = [frozenset(rng.sample(rest, rng.randrange(4))) for _ in range(k)]
    for row in (5, 17, 40):
        zs[row - 1] = frozenset(common)
    bad = SupportConstraint(n, k, tuple(zs))
    assert check_condition(bad) == ConditionReport(False, (5, 17, 40), False, k + 1)
    assert cover_dimension(bad) == k + 1
    with pytest.raises(ValueError, match=r"\(5, 17, 40\)"):
        complete_zero_sets(bad)


def test_matching_skips_columns_whose_neighbours_failed(monkeypatch):
    # the toy access structure at ~2 * 10^5 columns: all but 17 columns share
    # their neighbours, so each matching needs few augmenting searches
    sc = derive_zero_sets(TOY_ACCESS, TOY_LENGTHS, (200000, 7, 2, 8))
    adj = constraints._support(sc)
    calls = []
    real = constraints._augment

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(constraints, "_augment", counted)
    for mask in sc.masks():
        calls.clear()
        constraints._matching(adj, mask, 0)
        distinct = {adj[c] for c, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"}
        assert len(calls) <= len(distinct) + sc.k
    # a row of message 4 vanishes on source 1's columns, which match only
    # into the 6 rows of messages 1-3
    assert cover_dimension(sc) == sc.k + 200000 - 6


def test_matching_skips_failed_neighbours_before_rows_saturate(monkeypatch):
    # rows 0-2: column 0 takes row 0 and column 51 row 1, so the 50 columns
    # joined to row 0 alone and column 52 (row 1) search for paths while row
    # 2 is free; the first of the 50 fails, the other 49 share its neighbours
    adj = [0b001] * 51 + [0b110, 0b010]
    calls = []
    real = constraints._augment

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(constraints, "_augment", counted)
    row_of, _ = constraints._matching(adj, (1 << len(adj)) - 1, 0)
    assert len(row_of) == 3
    assert len(calls) <= len(set(adj)) + 3


def test_augment_steps_to_a_free_row_first():
    # column 0 is joined to rows 0 and 2; row 0 holds column 1, which could
    # move on to row 1, but the free row 2 ends the path at once
    adj = [0b101, 0b011]
    row_of, col_of = {1: 0}, {0: 1}
    assert constraints._augment(adj, row_of, col_of, 0, 0, 0b001) == 0b100
    assert row_of == {0: 2, 1: 0} and col_of == {2: 0, 0: 1}
    # with no row known to be matched it takes the lowest row, row 0
    row_of, col_of = {1: 0}, {0: 1}
    assert constraints._augment(adj, row_of, col_of, 0, 0) == 0b010
    assert row_of == {0: 0, 1: 1} and col_of == {0: 0, 1: 1}


def _full_scan_matching(adj, cols, barred):
    row_of, col_of = {}, {}
    for c in range(len(adj)):
        if cols >> c & 1:
            constraints._augment(adj, row_of, col_of, c, barred)
    return row_of, col_of


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_matching_is_maximum(data):
    # few distinct neighbour sets over many columns, so skips are common; or
    # columns each missing at most one row, which saturate the rows early
    k = data.draw(st.integers(1, 6))
    full = (1 << k) - 1
    if data.draw(st.booleans()):
        kinds = data.draw(st.lists(st.integers(0, full), min_size=1, max_size=4))
    else:
        kinds = [full & ~(1 << r) for r in range(k + 1)]
    adj = data.draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=30))
    cols = data.draw(st.integers(0, (1 << len(adj)) - 1))
    barred = data.draw(st.integers(0, full))
    row_of, col_of = constraints._matching(adj, cols, barred)
    for c, r in row_of.items():
        assert cols >> c & 1 and adj[c] >> r & 1 and not barred >> r & 1
    assert {r: c for c, r in row_of.items()} == col_of
    # any maximum matching will do: only its size reaches an output
    assert len(row_of) == len(_full_scan_matching(adj, cols, barred)[0])


def test_cover_dimension_matches_each_distinct_zero_set_once(monkeypatch):
    # the toy access structure with r_4 = 2000: its 2006 rows have 4
    # distinct zero sets, and each poses one matching problem
    sc = derive_zero_sets(TOY_ACCESS, (1, 3, 2, 2000), (50, 7, 2, 2000))
    calls = []
    real = constraints._matching

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(constraints, "_matching", counted)
    # a row of message 4 vanishes on source 1's 50 columns, which match only
    # into the 6 rows of messages 1-3
    assert cover_dimension(sc) == sc.k + 50 - 6
    assert len(calls) <= len(set(sc.zero_sets)) == 4


def test_completion_of_empty_square_pattern_is_equality_system():
    # k zero sets of size k - 1 inside k columns that hold the condition are
    # pairwise distinct, so they form an equality system
    k = 64
    done = complete_zero_sets(SupportConstraint(k, k, (frozenset(),) * k))
    assert all(len(z) == k - 1 for z in done.zero_sets)
    assert check_condition(done) == ConditionReport(True, None, True, k)


# ----------------------------------------------------------------------
# property tests against the subset-scan oracle, k <= 7 and n <= 10


@st.composite
def random_patterns(draw, below_k=False):
    """Any zero sets over n >= k columns, empty ones and ones of size >= k
    included; with below_k, every zero set has fewer than k columns."""
    k = draw(st.integers(1, 7))
    n = draw(st.integers(k, 10))
    size = k - 1 if below_k else n
    zs = draw(st.lists(st.frozensets(st.integers(1, n), max_size=size),
                       min_size=k, max_size=k))
    return SupportConstraint(n, k, tuple(zs))


@st.composite
def equality_systems(draw):
    """Z_i = U - {c_i} for a k-set U and a permutation c of U."""
    k = draw(st.integers(1, 7))
    n = draw(st.integers(k, 10))
    universe = draw(st.permutations(range(1, n + 1)))[:k]
    missing = draw(st.permutations(universe))
    return SupportConstraint(n, k, tuple(frozenset(universe) - {c} for c in missing))


@st.composite
def perturbed_equality_systems(draw):
    """An equality system with one column added or removed in one row, or
    with both done in one or two rows, which can keep every size at k - 1."""
    sc = draw(equality_systems())
    zs = list(sc.zero_sets)
    for _ in range(draw(st.integers(1, 2))):
        row = draw(st.integers(0, sc.k - 1))
        col = draw(st.integers(1, sc.n))
        zs[row] = zs[row] ^ {col}
    return SupportConstraint(sc.n, sc.k, tuple(zs))


def assert_matches_oracle(sc):
    best, witness, equality = brute_condition(sc)
    rep = check_condition(sc)
    assert rep.holds == (best <= sc.k)
    assert rep.witness == witness
    assert rep.equality_system == equality
    assert rep.cover_dim == best
    assert cover_dimension(sc) == best


_property_settings = settings(max_examples=300, deadline=None)


@_property_settings
@given(random_patterns())
def test_condition_matches_oracle_on_random_patterns(sc):
    assert_matches_oracle(sc)


@_property_settings
@given(equality_systems())
def test_condition_matches_oracle_on_equality_systems(sc):
    assert_matches_oracle(sc)
    assert check_condition(sc).equality_system


@_property_settings
@given(perturbed_equality_systems())
def test_condition_matches_oracle_on_perturbed_equality_systems(sc):
    assert_matches_oracle(sc)


def brute_greedy_completion(sc):
    """The completion's greedy order, each candidate decided by the oracle;
    None where a row cannot be filled."""
    zs = [set(z) for z in sc.zero_sets]
    for i in range(sc.k):
        for j in range(1, sc.n + 1):
            if len(zs[i]) == sc.k - 1:
                break
            if j in zs[i]:
                continue
            zs[i].add(j)
            if brute_condition(SupportConstraint(sc.n, sc.k, tuple(zs)))[0] > sc.k:
                zs[i].remove(j)
        if len(zs[i]) < sc.k - 1:
            return None
    return SupportConstraint(sc.n, sc.k, tuple(zs))


@_property_settings
@given(st.one_of(random_patterns(below_k=True), equality_systems(),
                 perturbed_equality_systems()))
def test_completion_matches_brute_greedy(sc):
    assume(brute_condition(sc)[0] <= sc.k)
    expected = brute_greedy_completion(sc)
    assert expected is not None  # with n >= k the greedy never gets stuck
    assert format_pattern(complete_zero_sets(sc)) == format_pattern(expected)


# ----------------------------------------------------------------------
# the completion against one that holds full-scan matchings, k <= 10, n <= 14


@st.composite
def thinned_equality_systems(draw):
    """Subsets of the zero sets of an equality system: each holds the
    condition, which is monotone under removal."""
    k = draw(st.integers(1, 10))
    n = draw(st.integers(k, 14))
    universe = draw(st.permutations(range(1, n + 1)))[:k]
    missing = draw(st.permutations(universe))
    zs = [frozenset(draw(st.lists(st.sampled_from(sorted(set(universe) - {c})), unique=True))
                    if k > 1 else ()) for c in missing]
    return SupportConstraint(n, k, tuple(zs))


def full_scan_completion(sc):
    """The completion's greedy order on full-scan matchings, a rejected
    candidate undone by restoring copies of the matchings it touched; None
    where the condition fails."""
    adj = constraints._support(sc)
    matchings = [_full_scan_matching(adj, mask, 0) for mask in sc.masks()]
    if any(len(row_of) < len(z) for (row_of, _), z in zip(matchings, sc.zero_sets)):
        return None
    zs = [set(z) for z in sc.zero_sets]
    for i in range(sc.k):
        for j in range(1, sc.n + 1):
            if len(zs[i]) == sc.k - 1:
                break
            if j in zs[i]:
                continue
            c = j - 1
            adj[c] &= ~(1 << i)
            touched = [r for r, (row_of, _) in enumerate(matchings) if row_of.get(c) == i]
            saved = [(r, dict(matchings[r][0]), dict(matchings[r][1])) for r in touched + [i]]
            for r in touched:
                row_of, col_of = matchings[r]
                del row_of[c], col_of[i]
            if all(constraints._augment(adj, *matchings[r], c, 0) for r in touched + [i]):
                zs[i].add(j)
                continue
            adj[c] |= 1 << i
            for r, row_of, col_of in saved:
                matchings[r] = (row_of, col_of)
    return SupportConstraint(sc.n, sc.k, tuple(zs))


@_property_settings
@given(st.one_of(thinned_equality_systems(), random_patterns(below_k=True)))
def test_completion_matches_full_scan_completion(sc):
    # each candidate asks only whether complete matchings still exist, which
    # by Berge's lemma does not depend on the maximum matchings held
    expected = full_scan_completion(sc)
    assume(expected is not None)
    assert format_pattern(complete_zero_sets(sc)) == format_pattern(expected)
