"""The profspan benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The parent generates the seeded inputs
into a scratch directory, starts fresh child processes for the measurement
(so the package's caches start cold), checks every op against an
independent answer, and prints one JSON object as its last line.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 it runs a
traced child, then an untraced child on the same first passes, checks
that both reached the same verdicts, and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 8
TRACE_COMPARE = 2
CHILD_TIMEOUT_S = 150
HASH_SEED = "0"
# The child's reference job takes this long at the box's usual speed
# (2-vCPU Xeon virtual machine, Python 3.11); see child.reference_ms.
REF_MS = 0.8
# ops in the window whose median reference time scales an op's time
WINDOW = 11

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def child(workdir: Path, src: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(workdir), *args],
        env=env,
        cwd=workdir,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark child {args[0]} exited with {proc.returncode}")
    return proc


def measure(workdir: Path, src: Path, mode: str, passes: int) -> dict:
    child(workdir, src, mode, str(passes))
    return json.loads((workdir / f"result-{mode}.json").read_text())


def probe(workdir: Path, src: Path) -> float:
    """One set-up time, scaled to the box's usual speed."""
    out = json.loads(child(workdir, src, "probe").stdout)
    return out["setup_s"] * REF_MS / out["ref_ms"]


def check(result: dict, checks: dict) -> list[str]:
    """One entry per failed op: wrong exit code, wrong verdict, oracle
    mismatch, exception, or an output that differs from the same op's
    earlier output in this run."""
    failures, first = [], {}
    for rec in result["records"]:
        key = rec["key"]
        if rec["rc"] is None:
            failures.append(f"{key}: {rec.get('err')}")
            continue
        if key not in first:
            first[key] = rec["digest"]
            reason = checks[key](rec["value"], rec["rc"])
        else:
            reason = None if rec["digest"] == first[key] else "output changed between repeats"
        if reason:
            failures.append(f"{key}: {reason} {rec.get('err', '')}".rstrip())
    return failures


def local_speeds(records: list[dict]) -> list[float]:
    """For each op, REF_MS over the median reference time of the WINDOW ops
    around it: the box's speed, relative to its usual speed, while the op
    ran.  The box's speed drifts by tens of percent for seconds at a time."""
    refs = [r["ref_ms"] for r in records]
    half = WINDOW // 2
    return [REF_MS / statistics.median(refs[max(0, i - half):i + half + 1])
            for i in range(len(refs))]


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) mass of each one's
    slot.  Op times come in clusters, one per kind of op; a single order
    statistic jumps when the quantile falls between two clusters, this
    moves smoothly.  The weights are integrated by the midpoint rule."""
    xs = sorted(values)
    n, steps = len(xs), 16
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    h = 1.0 / (n * steps)
    weights = [
        sum(math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u) - log_beta)
            for u in ((i * steps + j + 0.5) * h for j in range(steps)))
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def work(records: list[dict]) -> float:
    """Summed op time in units of the reference job's median time."""
    return sum(r["ms"] for r in records) / statistics.median(r["ref_ms"] for r in records)


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, str]:
    """Run totals per pass, scaled to the box's usual speed by REF_MS over
    the run's median reference time; per-op quantiles over every op of the
    run, each op scaled by the box's speed while it ran."""
    records, passes = result["records"], result["passes"]
    speed = REF_MS / statistics.median(r["ref_ms"] for r in records)
    ms = [r["ms"] * s for r, s in zip(records, local_speeds(records))]
    n = len(ms)
    wall_s = speed * sum(r["ms"] for r in records) / passes / 1e3
    if n > 10:
        pct = (n - 10) / n
        tail_ms = hd_quantile(ms, pct)
    else:
        pct, tail_ms = 1.0, max(ms)
    values = {
        "setup_s": statistics.median(setups + [result["setup_s"] * speed]),
        "wall_s": wall_s,
        "cpu_s": speed * sum(r["cpu_ms"] for r in records) / passes / 1e3,
        "ops_per_s": n / passes / wall_s,
        "op_p50_ms": hd_quantile(ms, 0.5),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    last = max(r["pass"] for r in records)
    ref_first, ref_last = (
        statistics.median(r["ref_ms"] for r in records if r["pass"] == k) for k in (0, last)
    )
    note = (
        f"{passes} passes of {n // passes} ops; op_tail_ms is p{100 * pct:.1f} of {n} ops; "
        f"totals scaled by {speed:.4f} (unscaled wall_s {wall_s / speed:.4f} s); "
        f"reference job {ref_first:.4f} ms in the first pass, {ref_last:.4f} ms in the last"
    )
    return values, note


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = Path.cwd()
    src = root / "src"
    if not (src / "profspan" / "__init__.py").is_file():
        print(f"error: no profspan package under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        passes = workloads.passes_for(args.workload, args.seconds)
        plan, checks = workloads.generate(args.workload, args.seed, passes, workdir)
        if args.trace:
            traced = measure(workdir, src, "trace", passes)
            base = measure(workdir, src, "run", min(TRACE_COMPARE, passes))
            failures = check(traced, checks) + check(base, checks)
            for a, b in zip(base["records"], traced["records"]):
                if (a["rc"], a["digest"]) != (b["rc"], b["digest"]):
                    failures.append(f"{a['key']}: traced run disagrees with untraced run")
            compared = len(base["records"])
            overhead = work(traced["records"][:compared]) / work(base["records"])
            values = tracer.per_layer(workdir / "trace", traced["passes"], overhead)
            units = dict(tracer.METRICS)
            attempted = len(traced["records"]) + compared
            note = f"per-layer figures are per pass over {traced['passes']} traced passes"
        else:
            # set-up probes before and after the measured child, so that
            # their median spans the run's drift in machine speed
            setups = [probe(workdir, src) for _ in range(SETUP_PROBES // 2)]
            base = measure(workdir, src, "run", passes)
            setups += [probe(workdir, src) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
            failures = check(base, checks)
            values, note = end_to_end(base, setups)
            units = dict(END_TO_END)
            attempted = len(base["records"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for line in failures[:20]:
        print(f"FAILED {line}")
    print(f"workload {args.workload}, seed {args.seed}, {attempted} ops; {note}")
    print(f"fail_ratio = {len(failures) / attempted:.6f} ({len(failures)} of {attempted})")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
