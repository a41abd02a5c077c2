"""Run the benchmark over several seeds and write one results file.

    python3 perfbench/record.py --label baseline --seeds 1-10 --seconds 40

Run from the repository root.  For every workload it makes one untraced run
per seed and two traced runs on the first seed, then writes
perfbench/results/BENCH_<label>.json with each run's metrics and digest, and
per end-to-end metric the median, the quartiles and the run-to-run spread
(interquartile range over median, as statistics.quantiles(n=4) gives them).
Two such files, made with the same settings on two commits, are what a
performance claim compares.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    digest = next(ln.rsplit("=", 1)[1] for ln in lines if ln.startswith("digest "))
    result = json.loads(lines[-1])
    return {"seed": seed, "trace": trace, "wall_s": time.perf_counter() - start,
            "digest": digest, **result}


def _is_count(name):
    """Per-layer metrics that count work and must repeat exactly."""
    return name.endswith((".calls", ".raised")) or name in (
        "construct.attempts", "netsim.channel_redraws", "constraints.completion_candidates")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=40)
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)

    import numpy

    doc = {
        "label": args.label,
        "seconds": args.seconds,
        "seeds": seeds,
        "host": {"cpu": _cpu_model(), "python": platform.python_version(),
                 "numpy": numpy.__version__, "machine": platform.machine()},
        "workloads": {},
    }
    for name in workloads.WORKLOADS:
        runs = []
        for seed in seeds:
            run = _run(name, seed, args.seconds, 0)
            runs.append(run)
            print(f"{name} seed={seed} correct={run['correct']} wall={run['wall_s']:.1f}s",
                  flush=True)
        summary = {}
        for key in runs[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            summary[key] = {"unit": runs[0]["metrics"][key]["unit"], "median": median,
                            "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
            print(f"  {key:<12} median {median:12.4f}  spread {(q3 - q1) / median:.4f}",
                  flush=True)
        traced = [_run(name, seeds[0], args.seconds, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in t["metrics"].items() if _is_count(k)}
                  for t in traced]
        print(f"  traced: counts repeat {counts[0] == counts[1]}, coverage "
              f"{traced[0]['metrics']['trace.coverage']['value']:.4f}", flush=True)
        doc["workloads"][name] = {
            "op1": workloads.WORKLOADS[name][0][0],
            "op2": workloads.WORKLOADS[name][0][1],
            "end_to_end": summary, "runs": runs,
            "traced": traced, "traced_counts_repeat": counts[0] == counts[1]}
    out = HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
