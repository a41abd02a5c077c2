"""Command-line surface: condition checks, code synthesis, network design,
channel simulation and table sweeps.

Exit codes: 0 on success (condition holds / build succeeded), 1 when a
condition check fails or synthesis gives up, 2 on usage or parse errors; a
reader that closes the output early (``| head``) ends the run quietly with 0.
Every run is reproducible from its arguments and --seed; the JSON reports of
construct and simulate embed the seed (tables takes no seed).

Each command imports the layers it uses when it runs, so `check`, which
decides the condition by matching in pure Python, loads no numpy.  Before any
command runs, `main` sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 where the user left them unset and numpy is not loaded
yet: the commands multiply many small matrices, where a second BLAS thread
only costs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import replace
from functools import lru_cache

from .constraints import ConditionViolation

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        # random.Random(-s) seeds exactly like random.Random(s)
        raise argparse.ArgumentTypeError(f"{seed} is negative; seeds are nonnegative")
    return seed


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _write(path: str, text: str):
    """The one writer of --out files: text plus a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _emit(text: str, out_path: str | None):
    """Print a report, and write the same text to --out when given."""
    if out_path:
        _write(out_path, text)
    print(text)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_check(args) -> int:
    from .constraints import check_condition, parse_pattern

    sc = parse_pattern(_read(args.pattern), args.n)
    report = check_condition(sc)
    doc = {
        "n": sc.n,
        "k": sc.k,
        "holds": report.holds,
        "witness": list(report.witness) if report.witness else None,
        "equality_system": report.equality_system,
        "cover_dim": report.cover_dim,
    }
    _emit(_json(doc), args.out)
    return 0 if report.holds else 1


def cmd_construct(args) -> int:
    from . import construct
    from .constraints import check_condition, parse_pattern, suggest_field_params
    from .gf import make_field, prime_power
    from .netsim import even_partition
    from .sumrank import OrderedPartition, enumerable, min_distance_bruteforce

    if (args.q is None) != (args.m is None):
        raise ValueError("--q and --m must be given together")
    sc = parse_pattern(_read(args.pattern), args.n)
    if args.parts:
        part = OrderedPartition(tuple(int(x) for x in args.parts.split(",")))
        if part.n != sc.n:
            raise ValueError("--parts must sum to the pattern length")
        if args.ell not in (None, part.ell):
            raise ValueError(f"--ell {args.ell} does not match the {part.ell} blocks of --parts")
    else:
        part = even_partition(sc.n, 1 if args.ell is None else args.ell)
    report = check_condition(sc)
    if not report.holds and not args.subcode:
        print(json.dumps({"holds": False,
                          "witness": list(report.witness)}, sort_keys=True))
        print("condition violated; rerun with --subcode for the covering-code rows",
              file=sys.stderr)
        return 1
    if args.q is not None:
        q, m = args.q, args.m
    else:
        params = suggest_field_params(report.cover_dim, part.ell, part.parts)
        q, m = params.q, params.m
    pe = prime_power(q)
    if pe is None:
        raise ValueError(f"--q {q} is not a prime power")
    tower = make_field(*pe, m)
    cc = construct.subcode_generator(tower, part, sc.k, sc, seed=args.seed)
    mismatches = construct.verify_support(cc.matrix, cc.sc)
    doc = {
        "q": q, "m": m, "n": sc.n, "k": sc.k, "cover_dim": cc.cover_dim,
        "parts": list(part.parts), "attempts": cc.attempts, "seed": args.seed,
        "support_ok": not mismatches,
    }
    if enumerable(tower, sc.k):
        d = min_distance_bruteforce(tower, [list(r) for r in cc.matrix], part)
        doc["distance"] = d
        doc["distance_optimal"] = d == sc.n - cc.cover_dim + 1
    if args.out:
        _write(args.out, construct.to_json(cc))
        doc["code_file"] = args.out
    print(_json(doc))
    return 0


def cmd_design(args) -> int:
    from .netsim import NetworkInstance, build_distributed_code

    if args.seed is not None and not args.build:
        raise ValueError("--seed only seeds the synthesis of --build")
    inst = NetworkInstance.from_json(_read(args.instance))
    if args.ell is not None:
        inst = replace(inst, ell=args.ell)
    res = build_distributed_code(inst, seed=args.seed or 0, build_code=args.build)
    _emit(res.to_json(), args.out)
    return 0


def cmd_tables(args) -> int:
    from .netsim import NetworkInstance, build_distributed_code

    if args.lmax < 1:
        raise ValueError("--lmax must be at least 1")
    inst = NetworkInstance.from_json(_read(args.instance))
    rows = []
    for ell in range(1, args.lmax + 1):
        res = build_distributed_code(replace(inst, ell=ell), build_code=False)
        rows.append({
            "ell": ell, "q": res.q, "m": res.m,
            "n": res.n, "cover_dim": res.cover_dim, "distance": res.distance,
            "parts": list(res.parts), "lengths": list(res.lengths),
        })
    header = f"{'ell':>3} {'q':>3} {'m':>3} {'[n,k~,d]':>14}  {'parts':<18} lengths"
    print(header)
    for r in rows:
        dims = f"[{r['n']},{r['cover_dim']},{r['distance']}]"
        print(f"{r['ell']:>3} {r['q']:>3} {r['m']:>3} {dims:>14}  "
              f"{','.join(map(str, r['parts'])):<18} {','.join(map(str, r['lengths']))}")
    if args.out:
        _write(args.out, _json(rows))
    return 0


def cmd_simulate(args) -> int:
    from .netsim import DesignResult, end_to_end_trial, weight_statistics
    from .sumrank import enumerable

    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    res = DesignResult.from_json(_read(args.design))
    inst = res.instance
    n = res.n
    stats = weight_statistics(
        q=res.q, ell=inst.ell, t=inst.t, row_parts=res.parts,
        M=n + res.m, trials=args.trials, seed=args.seed, rho=inst.rho)
    doc = {
        "design": {"n": n, "k": res.k, "cover_dim": res.cover_dim,
                   "distance": res.distance, "q": res.q, "m": res.m},
        "seed": args.seed,
        "trials": args.trials,
        "channel": stats,
    }
    if res.code is not None:
        tower = res.code.code.tower
        if enumerable(tower, res.k):
            rng = random.Random(args.seed)
            wt = max(0, (res.distance - 1 - inst.rho) // 2)
            decode_trials = min(args.trials, 50)
            good = sum(
                end_to_end_trial(res.code, res.distance, wt, inst.rho, rng)
                for _ in range(decode_trials))
            doc["decode"] = {"trials": decode_trials, "successes": good,
                             "error_weight": wt, "erasures": inst.rho}
    _emit(_json(doc), args.out)
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state
    in it, so `main` need not rebuild its five subcommands on every call."""
    parser = argparse.ArgumentParser(
        prog="lrsnet",
        description="support-constrained LRS codes and distributed network design")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate the zero-pattern condition")
    p_check.add_argument("pattern", help="pattern file, one row per line")
    p_check.add_argument("--n", type=int, required=True, help="code length")
    p_check.add_argument("--out")
    p_check.set_defaults(func=cmd_check)

    p_con = sub.add_parser("construct", help="synthesize a constrained generator")
    p_con.add_argument("pattern")
    p_con.add_argument("--n", type=int, required=True)
    p_con.add_argument("--ell", type=int, help="number of blocks (default 1, or those of --parts)")
    p_con.add_argument("--parts", help="explicit comma-separated block lengths")
    p_con.add_argument("--q", type=int, help="field base size (with --m)")
    p_con.add_argument("--m", type=int, help="extension degree (with --q)")
    p_con.add_argument("--subcode", action="store_true",
                       help="emit covering-code rows when the condition fails")
    p_con.add_argument("--seed", type=_seed, default=0)
    p_con.add_argument("--out", help="write the code serialization here")
    p_con.set_defaults(func=cmd_construct)

    p_des = sub.add_parser("design", help="size and build a distributed code")
    p_des.add_argument("instance", help="network instance JSON")
    p_des.add_argument("--ell", type=int, help="override the block count")
    p_des.add_argument("--build", action="store_true",
                       help="also synthesize the constrained code")
    p_des.add_argument("--seed", type=_seed, help="synthesis seed for --build (default 0)")
    p_des.add_argument("--out")
    p_des.set_defaults(func=cmd_design)

    p_tab = sub.add_parser("tables", help="reproduce the design table sweep")
    p_tab.add_argument("instance")
    p_tab.add_argument("--lmax", type=int, default=4)
    p_tab.add_argument("--out")
    p_tab.set_defaults(func=cmd_tables)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo channel audit")
    p_sim.add_argument("design", help="design result JSON")
    p_sim.add_argument("--trials", type=int, default=200)
    p_sim.add_argument("--seed", type=_seed, default=0)
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def _one_blas_thread():
    """Default each BLAS thread variable to 1 where the user left it unset.
    BLAS reads them when numpy loads, so once numpy is in (an in-process
    caller) this changes nothing."""
    if "numpy" not in sys.modules:
        for var in _BLAS_THREAD_VARS:
            os.environ.setdefault(var, "1")


def _failures() -> tuple:
    """Exceptions that exit 1: a violated condition, and a synthesis that
    gave up.  Only `construct` raises the latter, so it is caught only once a
    command has loaded that module, and `check` never loads it."""
    construct = sys.modules.get(f"{__package__}.construct")
    return (ConditionViolation,) + ((construct.SynthesisError,) if construct else ())


def main(argv=None) -> int:
    _one_blas_thread()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return rc
    except BrokenPipeError:  # the reader left; the exit flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except _failures() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
