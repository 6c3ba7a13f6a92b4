"""Repeat the benchmark over seeds 1 to 10 and summarise the spread.

    python3 perfbench/collect.py [--out FILE]

Run from the root of a checkout.  For every workload in BENCHMARK.json it
runs perfbench/run.py untraced once per seed, and reports for each
end-to-end metric the median, the quartiles (statistics.quantiles, n=4)
and the spread: the distance between the quartiles as a share of the
median, compared with a third of the metric's bound.  It then makes one
traced run per workload, on seed 1, and records the per-layer figures,
trace_overhead among them.  The summary, with the machine's provenance,
is printed and, with --out, written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's result, with its summary line (passes, scaling) as "note"."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["note"] = next(line for line in lines if line.startswith("workload "))
    return out


def provenance() -> dict:
    from run import HASH_SEED

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": HASH_SEED,
        "conditions": (
            "every run starts a fresh child process, so the package's caches start "
            "cold; wall-clock and process CPU time on a shared 2-vCPU virtual machine with no "
            "kernel counters, cache drops or CPU pinning; times scaled to the box's "
            "usual speed by the child's reference job"
        ),
    }


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"provenance": provenance(), "run_seconds": spec["run_seconds"], "workloads": {}}
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "steady": spread < bound / 3, "values": values,
            }
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{workload:14s} {name:12s} median {med:12.6g}  spread {spread:7.4f}"
                  f"  bound/3 {bound / 3:.4f}  {'ok' if spread < bound / 3 else 'WIDE'}")
        entry = {
            "seeds": list(SEEDS),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": rows,
            "notes": [r["note"] for r in runs],
        }
        traced = run(workload, SEEDS[0], spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_failed"] = traced["failed"]
        print(f"{workload:14s} trace_overhead {entry['per_layer']['trace_overhead']:.3f}")
        summary["workloads"][workload] = entry
    print(f"largest end-to-end spread as a share of its bound (setup_s aside): {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
