"""Self-test of the benchmark itself, at two ops per kind (~30 s).

    python3 perfbench/selftest.py

Run from the repository root.  Checks, for every workload, that:
- an untraced run is correct and emits exactly BENCHMARK.json's end-to-end
  metrics, with their units and nonzero values;
- a traced run emits exactly the per-layer metrics, with their units, and
  trace.coverage >= 0.95;
- two same-seed runs give the same digest and the same per-layer counts,
  and another seed gives another digest;
and that run.py fails without a result line where no lrsnet sources exist.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import record  # noqa: E402
import workloads  # noqa: E402


def _run(cwd, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def _result(workload, seed, trace):
    rc, lines = _run(ROOT, workload, seed, trace)
    assert rc == 0, f"{workload}: exit code {rc}"
    digest = next(ln.rsplit("=", 1)[1] for ln in lines if ln.startswith("digest "))
    return digest, json.loads(lines[-1])


def _check_metrics(label, result, spec):
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, label
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in spec}
    assert emitted == wanted, f"{label}: metric names or units differ from BENCHMARK.json"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in workloads.WORKLOADS:
        digest, result = _result(name, 1, 0)
        _check_metrics(f"{name} untraced", result, bench["end_to_end"])
        assert all(v["value"] > 0 for v in result["metrics"].values()), name
        again, _ = _result(name, 1, 0)
        assert again == digest, f"{name}: same seed, different digest"
        other, _ = _result(name, 2, 0)
        assert other != digest, f"{name}: another seed, same digest"

        traced = [_result(name, 1, 1) for _ in range(2)]
        assert traced[0][0] == digest, f"{name}: traced outputs differ from untraced"
        _check_metrics(f"{name} traced", traced[0][1], bench["per_layer"])
        counts = [{k: v["value"] for k, v in t["metrics"].items() if record._is_count(k)}
                  for _, t in traced]
        assert counts[0] == counts[1], f"{name}: per-layer counts differ between runs"
        coverage = traced[0][1]["metrics"]["trace.coverage"]["value"]
        assert coverage >= 0.95, f"{name}: trace coverage {coverage:.3f}"
        print(f"ok {name}: digest {digest[:16]}, coverage {coverage:.3f}", flush=True)

    # only BENCHMARK.json and the benchmark's files: must fail, print no result
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = _run(bare, "toy-network", 1, 0)
        assert rc != 0 and not any(ln.startswith("{") for ln in lines), "bare copy ran"
    print("ok bare copy: exits without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
