"""The benchmark's three workloads: seeded inputs, ops, oracles, digests.

Each workload prepares one *pass*: a fixed, seeded list of ops that the
timed loop repeats.  Every pass does identical work, so per-pass counts
repeat exactly and the digest of the first pass identifies the outputs.

The strata inside a pass (field size, message length k, ...) have fixed
counts on every seed, and the counts are chosen so that the p50 and p90 of
each op kind fall inside one stratum rather than on a boundary between two,
which keeps the percentiles steady from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracles


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]            # the timed lrsnet call(s)
    check: Callable[[object], bool]      # independent oracle on the output
    canon: Callable[[object], bytes]     # canonical bytes for the digest


def _dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _run_cli(argv):
    """In-process CLI call with its stdout captured: (exit code, stdout)."""
    from lrsnet import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _quick_prefix(ops, per_kind):
    """The first `per_kind` ops of each kind, in pass order (self-test size)."""
    seen = {}
    out = []
    for op in ops:
        seen[op.kind] = seen.get(op.kind, 0) + 1
        if seen[op.kind] <= per_kind:
            out.append(op)
    return out


# ----------------------------------------------------------------------
# toy-network: the paper's headline instance, built and audited

TOY_ACCESS = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
TOY_LENGTHS = (1, 3, 2, 3)
TOY_T, TOY_RHO = 2, 2
# the paper's design table for the toy instance at ell blocks
TOY_DESIGN = {
    3: {"n": 23, "cover_dim": 9, "distance": 15, "q": 4, "m": 10},
    4: {"n": 27, "cover_dim": 9, "distance": 19, "q": 5, "m": 10},
}
# (p, e, m) of the code field per ell, and the audit's base field F_4
_TOY_TOWERS = ((2, 2, 10), (5, 1, 10), (2, 2, 1))
# per pass: ell of each build (L=3 twice as often, so p50 sits in the L=3
# stratum and p90 in the L=4 one) and audits after each build
_TOY_BUILDS = (3, 4, 3, 3, 4, 3)
_TOY_AUDITS_PER_BUILD = 48


def _derive(access, r, sources):
    """Rows of message g vanish on the columns of every source that cannot
    read g; sources own consecutive column ranges of the given lengths."""
    starts = [1]
    for ln in sources:
        starts.append(starts[-1] + ln)
    zero_sets = []
    for g, rg in enumerate(r, start=1):
        cols = frozenset(j for s, acc in enumerate(access) if g not in acc
                         for j in range(starts[s], starts[s + 1]))
        zero_sets.extend([cols] * rg)
    return zero_sets


def _check_build(ell, result):
    rc, stdout, text = result
    if rc != 0 or stdout.strip() != text.strip():
        return False
    doc = json.loads(text)
    want = TOY_DESIGN[ell]
    if any(doc[key] != value for key, value in want.items()) or doc["code"] is None:
        return False
    n, k = want["n"], sum(TOY_LENGTHS)
    if sum(doc["lengths"]) != n or doc["k"] != k:
        return False
    code = doc["code"]
    zero_sets = [frozenset(z) for z in code["zero_sets"]]
    derived = _derive(TOY_ACCESS, TOY_LENGTHS, doc["lengths"])
    if oracles.cover_dimension(k, derived) != want["cover_dim"]:
        return False
    if any(not d <= z or len(z) != k - 1 for d, z in zip(derived, zero_sets)):
        return False
    matrix = [[int(x) for x in line.split(",")]
              for line in code["matrix_csv"].split("\n") if line]
    return oracles.support_matches(matrix, zero_sets, n)


def _check_audit(n, ell, result):
    r = result
    erasure_ok = n - TOY_RHO <= r["rank_A"] <= r["wtsr_A"] <= n
    error_ok = r["rank_E"] <= min(TOY_T, r["wtsr_E"]) and r["wtsr_E"] <= ell * TOY_T
    return (erasure_ok and error_ok and r["erasure_ok"] is True
            and r["error_ok"] is True)


def toy_network_warm():
    from lrsnet import gf

    for p, e, m in _TOY_TOWERS:
        tower = gf.make_field(p, e, m)
    tower.base_mat_mul([[0]], [[0]])  # builds the F_4 numpy tables


def toy_network(seed: int, workdir: str, quick: bool):
    from lrsnet import netsim

    instance = os.path.join(workdir, "toy.json")
    with open(instance, "w", encoding="utf-8") as fh:
        json.dump({"h": 4, "r": list(TOY_LENGTHS), "S": [list(a) for a in TOY_ACCESS],
                   "t": TOY_T, "rho": TOY_RHO, "ell": 3}, fh)

    def build_op(j, ell):
        out = os.path.join(workdir, f"design-{j}.json")
        argv = ["design", instance, "--build", "--ell", str(ell),
                "--seed", str(seed + j), "--out", out]

        def run():
            rc, stdout = _run_cli(argv)
            with open(out, "r", encoding="utf-8") as fh:
                return rc, stdout, fh.read()

        return Op("build", run, lambda res: _check_build(ell, res),
                  lambda res: _dump([res[0], res[2]]))

    # the channel shape `simulate` audits for the ell=3 design: n = N = 23
    # packets, M = n + m = 33 symbols, F_4, per-draw seeds as in
    # weight_statistics
    d3 = TOY_DESIGN[3]
    n, ell = d3["n"], 3
    rows = netsim.even_partition(n, ell)
    cols = netsim.even_partition(n, ell)

    def audit_op(i):
        draw_seed = (seed << 20) ^ i

        def run():
            ch = netsim.sample_channel(n, rows.n, n + d3["m"], TOY_T, TOY_RHO,
                                       d3["q"], seed=draw_seed)
            return netsim.audit_weights(ch, rows, cols)

        return Op("audit", run, lambda res: _check_audit(n, ell, res),
                  lambda res: _dump(res))

    ops = []
    draws = 0
    for j, b_ell in enumerate(_TOY_BUILDS):
        ops.append(build_op(j, b_ell))
        for _ in range(_TOY_AUDITS_PER_BUILD):
            ops.append(audit_op(draws))
            draws += 1
    return _quick_prefix(ops, 2) if quick else ops


# ----------------------------------------------------------------------
# micro-codes: brute-force sum-rank enumeration on small fields

_MICRO_PARTS = (3, 3)
_MICRO_FIELDS = {27: (3, 1, 3), 81: (3, 1, 4)}
_BRUTE_FORCE_GUARD = 1 << 22
# decode trials per code: the random error of exact sum-rank weight is drawn
# by rejection, so one trial's cost varies several-fold with its seed; codes
# with at most _DECODE_LIGHT messages get _DECODE_TRIALS trials, the F_81
# k=3 codes (~0.7 s per trial) one
_DECODE_LIGHT = 27 ** 3
_DECODE_TRIALS = 8
# per pass, in order: (field order, k, pattern holds).  Costs per op: F_27
# k=2 ~1 ms, F_81 k=2 ~10 ms, F_27 k=3 ~40 ms, F_81 k=3 ~1 s; ten of the
# sixteen are F_81 k=2 so p50 sits there, two are F_81 k=3 so p90 sits there.
_MICRO_SHAPES = (
    (81, 2, True), (27, 2, True), (81, 2, False), (27, 3, True),
    (81, 3, True), (81, 2, True), (81, 2, False), (27, 2, False),
    (81, 2, True), (81, 2, False), (27, 3, True), (81, 2, True),
    (81, 3, False), (81, 2, True), (81, 2, False), (81, 2, True),
)


def _ceil_log(q, k):
    c, v = 0, 1
    while v < k:
        v *= q
        c += 1
    return c


def _degree_needed(q, k, parts):
    """Smallest extension degree the synthesis guarantee covers at dimension
    k: min(closed-form bound, exact polynomial-degree threshold)."""
    m_bound = max(k - 1 + _ceil_log(q, k), max(parts))
    threshold = max((k - 1) * (q - 1) * q ** max(k - 2, 0) + q ** (nl - 1) for nl in parts)
    m_sharp = 1
    while q ** m_sharp <= threshold:
        m_sharp += 1
    return min(m_bound, m_sharp)


def _micro_pattern(rng, order, k, holds):
    """Random zero pattern of the wanted kind whose covering code is small
    enough for the field and for brute-force enumeration."""
    p, e, m = _MICRO_FIELDS[order]
    n = sum(_MICRO_PARTS)
    while True:
        if holds:
            zs = [frozenset(rng.sample(range(1, n + 1), rng.randrange(0, k))) for _ in range(k)]
        else:
            zs = [frozenset(rng.sample(range(1, n + 1), k - 1)) for _ in range(k)]
        ktil = oracles.cover_dimension(k, zs)
        if (ktil == k) != holds or ktil > n:
            continue
        if _degree_needed(p ** e, ktil, _MICRO_PARTS) > m:
            continue
        if order ** k > _BRUTE_FORCE_GUARD:
            continue
        return zs, ktil


def _check_code(cc, k, zs, ktil, n):
    zero_sets = cc.sc.zero_sets
    return (cc.cover_dim == ktil and len(cc.matrix) == k
            and all(z0 <= z for z0, z in zip(zs, zero_sets))
            and oracles.support_matches(cc.matrix, zero_sets, n))


def micro_codes_warm():
    from lrsnet import gf

    for p, e, m in _MICRO_FIELDS.values():
        gf.make_field(p, e, m).numpy_tables()


def micro_codes(seed: int, workdir: str, quick: bool):
    from lrsnet import construct, gf, netsim, sumrank
    from lrsnet.constraints import SupportConstraint
    from lrsnet.sumrank import OrderedPartition

    towers = {order: gf.make_field(*spec) for order, spec in _MICRO_FIELDS.items()}
    part = OrderedPartition(_MICRO_PARTS)
    n = part.n
    rng = random.Random(seed)

    def mindist_op(j, tower, k, zs, ktil):
        sc = SupportConstraint(n, k, zs)

        # names are looked up at call time, so a tracer's patches apply
        def run():
            make = construct.synthesize if ktil == k else construct.subcode_generator
            cc = make(tower, part, k, sc, seed=seed + j)
            return cc, sumrank.min_distance_bruteforce(tower, [list(r) for r in cc.matrix], part)

        def check(res):
            cc, d = res
            return d == n - ktil + 1 and _check_code(cc, k, zs, ktil, n)

        def canon(res):
            cc, d = res
            return _dump([d, cc.attempts, cc.cover_dim, cc.matrix,
                          [sorted(z) for z in cc.sc.zero_sets]])

        return Op("mindist", run, check, canon)

    def decode_ops(j, tower, k, zs, ktil):
        # the code is an input here; its synthesis is timed by mindist
        cc = construct.subcode_generator(tower, part, k, SupportConstraint(n, k, zs),
                                         seed=seed + j)
        if not _check_code(cc, k, zs, ktil, n):
            raise RuntimeError("synthesized input code fails its oracle")
        distance = n - ktil + 1
        erasures = 1 if (distance - 2) // 2 >= 1 else 0
        weight = (distance - 1 - erasures) // 2
        trials = 1 if tower.order ** k > _DECODE_LIGHT else _DECODE_TRIALS

        def decode_op(trial_seed):
            def run():
                return netsim.end_to_end_trial(cc, distance, weight, erasures,
                                               random.Random(trial_seed))

            return Op("decode", run, lambda ok: ok is True, lambda ok: _dump(ok))

        return [decode_op(seed * 10**6 + j * 1000 + t) for t in range(trials)]

    ops = []
    for j, (order, k, holds) in enumerate(_MICRO_SHAPES):
        zs, ktil = _micro_pattern(rng, order, k, holds)
        ops.append(mindist_op(j, towers[order], k, zs, ktil))
        ops.extend(decode_ops(j, towers[order], k, zs, ktil))
    return _quick_prefix(ops, 2) if quick else ops


# ----------------------------------------------------------------------
# zero-patterns: the support condition and its greedy completion

# per pass: how many completions at each message length k.  Cost per call
# is ~10 ms at k=12 doubling per step of k; k=20 (~25 s per call) stays out
# of the timed ops.  Many distinct inputs per pass keep the seed-to-seed
# spread of the percentiles small.
_COMPLETE_MIX = {12: 48, 13: 42, 14: 24, 15: 4, 16: 2}
# per pass: condition checks per (k, holds), k in 16..22
_CHECKS_PER_SHAPE = 20
_CHECK_SPARE_COLUMNS = 8


def _toy_pattern(rng, k):
    """Access structure, message lengths and source lengths for a toy-shaped
    instance at total message length k, and its zero pattern.

    The message lengths are the toy's (1, 3, 2, 3) scaled to sum k, the
    remainder spread over random messages, and the messages are relabelled
    at random.  Source s cannot read exactly one message g, whose rows then
    vanish on its whole column range, so the condition needs
    len_s + r_g <= k; the source lengths meet that bound with equality, as a
    tight design does.
    """
    lengths = [k * r // 9 for r in TOY_LENGTHS]
    for g in rng.sample(range(4), k - sum(lengths)):
        lengths[g] += 1
    perm = rng.sample(range(1, 5), 4)
    access = [sorted(perm[g - 1] for g in acc) for acc in TOY_ACCESS]
    r = [0] * 4
    for g, ln in enumerate(lengths, start=1):
        r[perm[g - 1] - 1] = ln
    sources = [k - r[({1, 2, 3, 4} - set(acc)).pop() - 1] for acc in access]
    zero_sets = _derive(access, r, sources)
    if oracles.cover_dimension(k, zero_sets) != k:
        raise RuntimeError(f"generated completion input violates the condition at k={k}")
    return access, r, sources, zero_sets


def _check_pattern(rng, k, holds):
    """Random pattern on n = k + 8 columns with the wanted outcome; zero sets
    cover half to three quarters of k, and a violation is planted by giving
    a few rows k - |rows| + 1 common zero columns."""
    n = k + _CHECK_SPARE_COLUMNS
    while True:
        zs = [set(rng.sample(range(1, n + 1), rng.randint(k // 2, 3 * k // 4)))
              for _ in range(k)]
        if not holds:
            a = rng.randint(2, 4)
            common = rng.sample(range(1, n + 1), k - a + 1)
            for row in rng.sample(range(k), a):
                zs[row].update(common)
        zs = [frozenset(z) for z in zs]
        if (oracles.cover_dimension(k, zs) == k) == holds:
            return n, zs


def _check_check(n, k, zs, result):
    rc, stdout = result
    doc = json.loads(stdout)
    cover = oracles.cover_dimension(k, zs)
    if doc["n"] != n or doc["k"] != k or doc["cover_dim"] != cover:
        return False
    holds = doc["holds"]
    if holds != (doc["cover_dim"] == k) or rc != (0 if holds else 1):
        return False
    if holds:
        return doc["witness"] is None
    return oracles.subset_value(zs, doc["witness"]) > k


def zero_patterns(seed: int, workdir: str, quick: bool):
    from lrsnet import constraints

    rng = random.Random(seed)

    def complete_op(k):
        access, r, sources, derived = _toy_pattern(rng, k)

        def run():
            sc = constraints.derive_zero_sets(access, r, sources)
            return constraints.complete_zero_sets(sc)

        def check(sc):
            return (sc.k == k and sc.n == sum(sources)
                    and all(len(z) == k - 1 and d <= z for d, z in zip(derived, sc.zero_sets))
                    and oracles.cover_dimension(k, sc.zero_sets) == k)

        return Op("complete", run, check,
                  lambda sc: _dump([sorted(z) for z in sc.zero_sets]))

    def check_op(j, k, holds):
        n, zs = _check_pattern(rng, k, holds)
        path = os.path.join(workdir, f"check-{j}.pattern")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join((" ".join(map(str, sorted(z))) or "-") + "\n" for z in zs))
        argv = ["check", path, "--n", str(n)]
        return Op("check", lambda: _run_cli(argv),
                  lambda res: _check_check(n, k, zs, res), lambda res: _dump(list(res)))

    ks = [k for k, count in _COMPLETE_MIX.items() for _ in range(count)]
    rng.shuffle(ks)
    completes = [complete_op(k) for k in ks]
    shapes = [(k, holds) for k in range(16, 23) for holds in (True, False)
              for _ in range(_CHECKS_PER_SHAPE)]
    rng.shuffle(shapes)
    checks = [check_op(j, k, holds) for j, (k, holds) in enumerate(shapes)]
    # interleave: the checks spread evenly between the completions
    ops = []
    per = len(checks) / len(completes)
    for i, op in enumerate(completes):
        ops.append(op)
        ops.extend(checks[round(i * per):round((i + 1) * per)])
    return _quick_prefix(ops, 2) if quick else ops


def zero_patterns_warm():
    """The constraints layer keeps no tables: importing lrsnet is all."""


# name -> (op kinds in report order, warm() building the field towers and
# tables the ops use, prepare(seed, workdir, quick) -> one pass of ops)
WORKLOADS = {
    "toy-network": (("build", "audit"), toy_network_warm, toy_network),
    "micro-codes": (("mindist", "decode"), micro_codes_warm, micro_codes),
    "zero-patterns": (("complete", "check"), zero_patterns_warm, zero_patterns),
}
