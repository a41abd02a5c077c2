"""lrsnet benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload toy-network --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each measurement runs in a fresh interpreter
(worker.py) so one workload's cached field towers and numpy tables cannot
hide another's set-up.  Load shape: closed loop, one client, ops back to
back.  The last stdout line is a JSON object with the keys correct,
attempted, failed and metrics: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced run.  Lines before it
give the same numbers by their per-op names, the sample counts behind each
p90 and the SHA-256 digest of the first pass's outputs.

Exit codes: 0 with a result line printed, 2 when the program cannot be run
(no lrsnet sources under src/, a worker crashed or timed out).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7          # set-ups per run; setup_s is their median
REFERENCE_NOMINAL_S = 0.003  # times are scaled to a host where reference_work() takes this
WORKER_GRACE_S = 120    # a worker still running this long past the deadline is killed

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"),
              ("op1.p50_ms", "ms"), ("op1.p90_ms", "ms"),
              ("op2.p50_ms", "ms"), ("op2.p90_ms", "ms"))


class WorkerError(RuntimeError):
    pass


def _worker(args, workdir, timeout):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workdir", workdir, *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker timed out: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def _quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  Over inputs of mixed cost it moves smoothly where a
    single order statistic would jump between cost modes."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 200001)[1:-1]
    log_pdf = ((a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
               + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf)) * (grid[1] - grid[0]), [1.0]))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.concatenate(([0.0], grid, [1.0])), cdf)
    return float(np.dot(np.diff(edges), x))


def _percentiles(samples):
    """(p50, p90, count beyond p90), times in ms."""
    ms = [x * 1e3 for x in samples]
    p90 = _quantile(ms, 0.9)
    return _quantile(ms, 0.5), p90, sum(1 for x in ms if x > p90)


def measure(name, seed, seconds, trace, quick):
    """Run one workload; returns (result dict, report lines)."""
    kinds = workloads.WORKLOADS[name][0]
    start_all = time.perf_counter()
    common = ["--workload", name, "--seed", str(seed)] + (["--quick"] if quick else [])
    timeout = seconds + WORKER_GRACE_S
    # set-ups before and after the measured run, so setup_s samples the
    # host's speed over the whole run, not one moment of it
    probes = 1 if quick else SETUP_RUNS // 2
    setups = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        def set_up():
            start = time.perf_counter()
            setups.append(_worker(common + ["--setup-only"], workdir, timeout)["ready"] - start)

        for _ in range(probes):
            set_up()
        # leave room for the set-ups still to come
        deadline = start_all + seconds - (time.perf_counter() - start_all)
        run_args = common + ["--deadline", repr(deadline), "--trace", str(trace)]
        spans = ROOT / ".perfbench-out" / f"spans-{name}-seed{seed}.npz"
        if trace:
            run_args += ["--spans-out", str(spans)]
        start = time.perf_counter()
        rep = _worker(run_args, workdir, timeout)
        setups.append(rep["ready"] - start)
        for _ in range(probes):
            set_up()

    lines = [f"workload {name} seed={seed}: {rep['passes']} passes of "
             f"{rep['ops_per_pass']} ops, attempted {rep['attempted']}, failed {rep['failed']}, "
             f"inputs generated in {rep['inputs_s']:.2f} s",
             f"digest {name} seed={seed} sha256={rep['digest']}"]
    lines += [f"failure {json.dumps(f)}" for f in rep["failures"]]
    correct = rep["failed"] == 0
    metrics = {}
    if trace:
        correct = correct and rep["consistent"]
        lines.append(f"per-pass counts repeat in every pass: {rep['consistent']}; "
                     f"{rep['spans']} spans written to {spans.relative_to(ROOT)}")
        values = tracer.layer_metrics(rep["per_pass"], rep["traced_wall_s"],
                                      rep["untraced_wall_s"])
        for key, (value, unit) in values.items():
            metrics[key] = {"value": value, "unit": unit}
        lines.append(f"  trace.overhead_frac {values['trace.overhead_frac'][0]:.4f}  "
                     f"trace.coverage {values['trace.coverage'][0]:.4f}")
    else:
        # Host speed swings by a third within seconds and drifts over
        # minutes (see README.md).  Each input's time is its median over the
        # run's passes, and every time is scaled to a host on which the
        # benchmark's fixed reference loop, timed every 0.25 s during the
        # same run, takes REFERENCE_NOMINAL_S (median).
        scale = REFERENCE_NOMINAL_S / statistics.median(rep["reference"])
        per_input = [statistics.median(times) * scale for times in rep["samples"]]
        n_samples = sum(len(times) for times in rep["samples"])
        timed = sum(sum(times) for times in rep["samples"])
        values = {"setup_s": statistics.median(setups) * scale,
                  "ops_per_s": len(per_input) / sum(per_input),
                  "peak_rss_mb": rep["peak_rss_kb"] / 1024}
        notes = {"setup_s": f"median of {len(setups)} set-ups; "
                            f"wall clock: {statistics.median(setups):.4f}",
                 "ops_per_s": f"{len(per_input)} ops per pass over the sum of their times; "
                              f"wall clock over all {n_samples} ops: {n_samples / timed:.4f}",
                 "peak_rss_mb": "worker process"}
        for slot, kind in zip(("op1", "op2"), kinds):
            mine = [t for t, k in zip(per_input, rep["kinds"]) if k == kind]
            raw = [x for times, k in zip(rep["samples"], rep["kinds"]) if k == kind for x in times]
            p50, p90, beyond = _percentiles(mine)
            values[f"{slot}.p50_ms"], values[f"{slot}.p90_ms"] = p50, p90
            raw50, raw90, _ = _percentiles(raw)
            notes[f"{slot}.p50_ms"] = (f"{kind}.p50_ms over {len(mine)} inputs; "
                                       f"wall clock over all {len(raw)} samples: {raw50:.4f}")
            notes[f"{slot}.p90_ms"] = (f"{kind}.p90_ms, {beyond} inputs beyond"
                                       + ("" if beyond >= 10 else ", too few to count")
                                       + f"; wall clock over all samples: {raw90:.4f}")
        lines.append(f"  host speed: reference loop median {statistics.median(rep['reference']) * 1e3:.4f} ms "
                     f"over {len(rep['reference'])} calls; times scaled by {scale:.4f}")
        lines.append(f"  {'failed_frac':<16} {rep['failed'] / rep['attempted']:>12.4f} "
                     f"ratio (failed / attempted)")
        for key, unit in END_TO_END:
            metrics[key] = {"value": values[key], "unit": unit}
            shown = key.replace("op1", kinds[0]).replace("op2", kinds[1])
            lines.append(f"  {shown:<16} {values[key]:>12.4f} {unit:<3} ({key}; {notes[key]})")
    result = {"correct": correct, "attempted": rep["attempted"], "failed": rep["failed"],
              "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="two ops per kind and one set-up (self-test size)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "lrsnet" / "__init__.py").is_file():
        print(f"error: no lrsnet sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    # on SIGTERM unwind normally: subprocess.run kills and reaps the worker
    # and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, lines = measure(name, args.seed, args.seconds, args.trace, args.quick)
            print("\n".join(lines), flush=True)
            results[name] = result
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    # one line for all workloads: shared metric names prefixed by workload
    merged = {"correct": all(r["correct"] for r in results.values()),
              "attempted": sum(r["attempted"] for r in results.values()),
              "failed": sum(r["failed"] for r in results.values()), "metrics": {}}
    for name, r in results.items():
        for key, value in r["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
