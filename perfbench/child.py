"""The measured process.  Usage: child.py WORKDIR MODE [PASSES]

MODE is `probe` (set up, print the set-up time and exit), `run`
(untraced) or `trace`.  The child reads WORKDIR/ops.json, runs the first
PASSES passes of the plan back to back (closed loop, one thread) and
writes WORKDIR/result-MODE.json.  Every op is an in-process call, so a run
pays the interpreter start and the package import once, in set-up, as a
real session would.
"""

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import tracer


def reference_ms() -> float:
    """Time a fixed pure-Python job of tuple, dict and integer work, the
    kind profspan does.  Timed before every op, it tracks the box's speed,
    which drifts by tens of percent over seconds.  The job runs twice and
    the second run is timed, so that the time does not depend on what the
    op before it left in the CPU's caches.  The collector is off while it
    runs, so the time does not depend on the heap the ops built either; it
    frees all it allocates, so it leaves the collector's counts as it found
    them."""
    gc.disable()
    try:
        for _ in range(2):
            t = time.perf_counter()
            table, x = {}, 0
            for i in range(3000):
                table[(i, i % 7)] = x
                x = (x + i * i) % 1000003
            for v in table.values():
                x ^= v
            elapsed = time.perf_counter() - t
        return elapsed * 1e3
    finally:
        gc.enable()


def main(workdir: Path, mode: str, passes: int) -> None:
    t_start = time.perf_counter()
    from profspan import cli, groups, mackey, spans

    plan = json.loads((workdir / "ops.json").read_text())["plan"]
    setup_s = time.perf_counter() - t_start

    if mode == "probe":
        refs = sorted(reference_ms() for _ in range(5))
        print(json.dumps({"setup_s": setup_s, "ref_ms": refs[2]}))
        return

    def run_cli(op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op["argv"])
        return rc, out.getvalue(), err.getvalue()

    def run_mackey(op):
        G = groups.make_group(op["table"])
        M = mackey.burnside_mackey(G)
        verdict = mackey.check_mackey(M)
        T = spans.burnside_tables(G)
        return 0, (M, verdict, T), ""

    trace = tracer.Tracer() if mode == "trace" else None
    if trace:
        trace.install()
    clock, cpu = time.perf_counter, time.process_time
    records, seen = [], set()
    for n_pass, ops in enumerate(plan[:passes]):
        for op in ops:
            runner = run_cli if op["kind"] == "cli" else run_mackey
            # no forced collection: each op pays for the collections it
            # triggers, the full ones that come as the caches grow included
            ref_ms = reference_ms()
            if trace:
                trace.begin_op(len(records))
            s, cs = clock(), cpu()
            try:
                rc, value, err = runner(op)
            except Exception as exc:  # any crash is a failed op, the run goes on
                rc, value, err = None, None, f"{type(exc).__name__}: {exc}"
            e, ce = clock(), cpu()
            if trace:
                trace.end_op()
            if op["kind"] == "mackey" and value is not None:
                value = summarize_mackey(*value)
            rec = {
                "key": op["key"], "pass": n_pass, "rc": rc,
                "digest": hashlib.sha1(json.dumps(value).encode()).hexdigest(),
                "ms": (e - s) * 1e3, "cpu_ms": (ce - cs) * 1e3, "ref_ms": ref_ms,
            }
            if op["key"] not in seen:
                seen.add(op["key"])
                rec["value"] = value
            if err:
                rec["err"] = err
            records.append(rec)
    if trace:
        trace.dump(workdir / "trace")
    result = {
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "records": records,
    }
    (workdir / f"result-{mode}.json").write_text(json.dumps(result))


def summarize_mackey(M, verdict, T) -> dict:
    """What the parent checks of one corpus op; the functor itself is
    dropped at once so that it does not inflate the child's memory."""
    return {
        "ok": bool(verdict),
        "ranks": [lv.rank for lv in M.levels],
        "torsion": any(lv.invariant_factors for lv in M.levels),
        "gens": len(M.gen_action),
        "class_orders": list(T.class_orders),
        "marks": T.marks,
        "ring": T.ring,
    }


if __name__ == "__main__":
    main(Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]) if len(sys.argv) > 3 else 0)
