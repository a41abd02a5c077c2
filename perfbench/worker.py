"""One fresh interpreter per measurement: set up one workload, run its ops.

Started by run.py, never imported.  It prints one JSON report as the last
line of its stdout; the in-process CLI's own output is captured by the ops.

    worker.py --workload NAME --seed N --workdir DIR --setup-only
    worker.py --workload NAME --seed N --workdir DIR --deadline T --trace 0|1 [--quick]

`--deadline` is an absolute time.perf_counter() value (CLOCK_MONOTONIC, which
all processes on the host share).  The loop repeats whole passes of the
workload's ops; it starts another pass only if half the last pass still
fits before the deadline, and always finishes at least one.  The untraced
loop also times reference_work() every REFERENCE_EVERY_S, which run.py uses
to scale the op times to a nominal host speed.
"""

import os

# before numpy is imported, directly or through lrsnet
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program():
    """Import lrsnet from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lrsnet
    import lrsnet.cli  # noqa: F401  (the package itself does not import it)

    if Path(lrsnet.__file__).resolve().parent != src / "lrsnet":
        raise SystemExit(f"lrsnet imported from {lrsnet.__file__}, not from {src}")


def _run_op(op):
    """(seconds, output, ok, canonical bytes) of one call of one op."""
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        elapsed = time.perf_counter() - start
        return elapsed, None, False, f"raised {type(exc).__name__}: {exc}".encode()
    elapsed = time.perf_counter() - start
    try:
        ok = bool(op.check(out))
        canon = op.canon(out)
    except Exception as exc:  # malformed output fails its oracle
        return elapsed, out, False, f"unreadable output {type(exc).__name__}".encode()
    return elapsed, out, ok, canon


class _Pass:
    """Bookkeeping shared by the untraced and traced loops."""

    def __init__(self, ops):
        self.ops = ops
        self.first = None          # canonical outputs of the first pass
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, i, ok, canon, canon_pass):
        self.attempted += 1
        if ok and self.first is not None and canon != self.first[i]:
            ok = False  # same input, different output: not deterministic
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append({"op": i, "kind": self.ops[i].kind,
                                      "output": canon[:300].decode(errors="replace")})
        canon_pass.append(canon)

    def digest(self) -> str:
        h = hashlib.sha256()
        for canon in self.first:
            h.update(len(canon).to_bytes(8, "little"))
            h.update(canon)
        return h.hexdigest()


REFERENCE_EVERY_S = 0.25


def reference_work():
    """Fixed pure-Python integer, list and dict work (~3 ms) that calls
    nothing in lrsnet: it measures how fast the host runs right now."""
    acc = 0
    seen = {}
    row = list(range(64))
    for i in range(8000):
        x = (i * 40503 + acc) % 65521
        row[i & 63] = x
        seen[x & 1023] = i
        acc = (acc + x * row[(i * 7) & 63]) % 1000003
    return acc


def _keep_going(pass_start, deadline) -> bool:
    now = time.perf_counter()
    return now + (now - pass_start) / 2 <= deadline


def run_untraced(ops, deadline):
    book = _Pass(ops)
    samples = [[] for _ in ops]    # seconds per op of the pass, one per pass
    reference = []                 # seconds per reference_work() call
    last_reference = float("-inf")
    passes = 0
    while True:
        pass_start = time.perf_counter()
        canon_pass = []
        for i, op in enumerate(ops):
            if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                start = time.perf_counter()
                reference_work()
                last_reference = time.perf_counter()
                reference.append(last_reference - start)
            elapsed, _, ok, canon = _run_op(op)
            samples[i].append(elapsed)
            book.record(i, ok, canon, canon_pass)
        if book.first is None:
            book.first = canon_pass
        passes += 1
        if not _keep_going(pass_start, deadline):
            break
    return {"passes": passes, "kinds": [op.kind for op in ops], "samples": samples,
            "reference": reference,
            "attempted": book.attempted,
            "failed": book.failed, "failures": book.failures, "digest": book.digest()}


def run_traced(ops, deadline, spans_path):
    """Each op runs untraced and traced back to back, so host-speed drift
    hits both sides of the overhead ratio alike."""
    import tracer as tracing

    tracer = tracing.Tracer()
    book = _Pass(ops)
    snapshots = [tracer.snapshot()]
    wall = {"untraced": 0.0, "traced": 0.0}
    outputs = {}
    op_kinds = []
    while True:
        pass_start = time.perf_counter()
        canon_pass = []
        for i, op in enumerate(ops):
            tracer.op_id = len(op_kinds)
            op_kinds.append(op.kind)
            # alternate which side runs first, so neither always gets the
            # warmer caches
            first_traced = (i + len(snapshots)) % 2 == 1
            for traced in (first_traced, not first_traced):
                if traced:
                    tracer.install()
                try:
                    elapsed, _, ok, canon = _run_op(op)
                finally:
                    if traced:
                        tracer.uninstall()
                wall["traced" if traced else "untraced"] += elapsed
                outputs[traced] = (ok, canon)
            (ok, plain), (ok_t, canon) = outputs[False], outputs[True]
            book.record(i, ok, plain, [])
            book.record(i, ok_t and canon == plain, canon, canon_pass)
        if book.first is None:
            book.first = canon_pass
        snapshots.append(tracer.snapshot())
        if not _keep_going(pass_start, deadline):
            break
    passes = len(snapshots) - 1
    per_pass = [_diff(s0, s1) for s0, s1 in zip(snapshots, snapshots[1:])]
    last = snapshots[-1]
    mean = dict(per_pass[0], self_ns=[x / passes for x in last["self_ns"]],
                maxima=last["maxima"])
    _write_spans(spans_path, tracer.spans(), op_kinds)
    return {
        "passes": passes, "attempted": book.attempted, "failed": book.failed,
        "failures": book.failures, "digest": book.digest(),
        "per_pass": mean, "consistent": all(p == per_pass[0] for p in per_pass),
        "traced_wall_s": wall["traced"] / passes,
        "untraced_wall_s": wall["untraced"] / passes,
        "spans": len(tracer.span_fid),
    }


def _diff(s0, s1):
    """Work counts done between two tracer snapshots."""
    return {
        "calls": [b - a for a, b in zip(s0["calls"], s1["calls"])],
        "raised": [b - a for a, b in zip(s0["raised"], s1["raised"])],
        "counters": {k: s1["counters"][k] - v for k, v in s0["counters"].items()},
    }


def _write_spans(path, spans, op_kinds):
    import numpy as np

    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path, functions=np.array(spans["functions"]), op_kind=np.array(op_kinds),
        **{key: np.frombuffer(spans[key], dtype=np.int64)
           for key in ("fid", "start_ns", "end_ns", "parent", "op")})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--deadline", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    _, warm, prepare = workloads.WORKLOADS[args.workload]
    warm()
    report = {"ready": time.perf_counter()}
    if not args.setup_only:
        start = time.perf_counter()
        ops = prepare(args.seed, args.workdir, args.quick)
        report["inputs_s"] = time.perf_counter() - start
        report["ops_per_pass"] = len(ops)
        if args.trace:
            report.update(run_traced(ops, args.deadline, Path(args.spans_out)))
        else:
            report.update(run_untraced(ops, args.deadline))
            report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))


if __name__ == "__main__":
    main()
