#!/usr/bin/env python3
"""Benchmark of qpqsim on the paper's T4 operating points.

    python3 perfbench/run.py --workload t4_inproc --seed 1 --seconds 34 --trace 0

Workloads (see workloads.py): t4_inproc, t4_wire, analysis.

One single-process closed-loop client drives the public API of qpqsim:
worker processes (worker.py) run one at a time, each a fresh interpreter
that sets up and then makes passes over the workload's fixed operation
list, so each operation starts when the previous one has finished.
Two workers run per invocation, together making passes for about
--seconds (at least one pass each), so every run can compare two
processes' passes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced workers with traced ones, whose wrappers time every
public function of each layer (tracing.py), and reports the per-layer
metrics; trace.overhead_frac compares the two kinds of pass.

Every operation's output is checked (workloads.py). Failures are counted
with their cause, never skipped. Every pass of a run must give the same
final-key digests and exact counters, since they depend only on the
seeds. Output: every metric by name with its unit, then, as the last
line, one JSON object with the keys correct, attempted, failed and
metrics. The full record of the run (environment, each operation and
its failure cause, each pass) is written to perfbench/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("t4_inproc", "t4_wire", "analysis")  # as in workloads.py, which imports qpqsim
SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170.0
# One BLAS thread: the client then runs no more threads than nproc (the
# wire's two endpoint threads on this two-core reference machine), and
# small eigensolves do not pay the thread pool's wake-up jitter.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, timeout, budget=0.0, traced=False, setup_only=False, crosscheck=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--budget", repr(budget)]
    cmd += ["--traced"] * traced + ["--setup-only"] * setup_only + ["--crosscheck"] * crosscheck
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              env={**os.environ, **WORKER_ENV}, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker for {workload} ran past {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(
            f"worker for {workload} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def measure(args):
    """Run two workers one after the other, together measuring for
    --seconds in whole passes: the first for about half of it, the second
    for what the first left. Two untraced ones, or with --trace one
    untraced and one traced. Untraced runs then take set-up samples from
    fresh interpreters up to SETUP_SAMPLES."""
    start = time.perf_counter()

    def remaining():
        return RUN_DEADLINE_S - (time.perf_counter() - start)

    kinds = ("plain", "traced") if args.trace else ("plain", "plain")
    docs = {"plain": [], "traced": []}
    measured = 0.0
    for i, kind in enumerate(kinds):
        doc = spawn(
            args.workload, args.seed, remaining(),
            budget=args.seconds * (i + 1) / len(kinds) - measured,
            traced=kind == "traced", crosscheck=args.workload == "t4_inproc" and i == 0,
        )
        measured += doc["measured_s"]
        docs[kind].append(doc)
    setups = [doc["setup_s"] for doc in docs["plain"]]
    while len(setups) < SETUP_SAMPLES and not args.trace:
        setups.append(spawn(args.workload, args.seed, remaining(), setup_only=True)["setup_s"])
    docs["setup_samples"] = setups
    return docs


def signature(pass_, traced):
    """What must repeat exactly from pass to pass: each operation's outcome,
    final-key digest and counters, and in traced passes the layer counters."""
    return tuple(
        (r["op"], r["ok"], r["error"], r["digest"], json.dumps(r["counters"], sort_keys=True))
        + ((json.dumps(r["trace_counters"], sort_keys=True),) if traced else ())
        for r in pass_["ops"]
    )


def check(docs):
    """Output problems across the run: wrong outputs, passes that differ,
    and in-process/wire disagreements."""
    problems = []
    passes = [p for kind in ("plain", "traced") for doc in docs[kind] for p in doc["passes"]]
    for p in passes:
        problems += [f"{r['op']}: {r['detail']}" for r in p["ops"] if r["error"] == "WrongOutput"]
    if len({signature(p, False) for p in passes}) > 1:
        problems.append("passes differ in final-key digests or counters")
    if len({signature(p, True) for doc in docs["traced"] for p in doc["passes"]}) > 1:
        problems.append("traced passes differ in layer counters")
    for doc in docs["plain"]:
        if "crosscheck" in doc:
            problems += doc["crosscheck"]["mismatches"]
    return sorted(set(problems))


def percentile_line(times):
    """The highest of p90/p99 with at least ten samples beyond it."""
    ordered = sorted(times)
    for q in (99, 90):
        if len(ordered) * (100 - q) / 100 >= 10:
            return f"p{q} {ordered[int(len(ordered) * q / 100)]:.6g} s"
    return "no percentile above p50 has ten samples beyond it"


def end_to_end(docs):
    passes = [p for doc in docs["plain"] for p in doc["passes"]]
    ops = [r for p in passes for r in p["ops"]]
    op_times = [r["wall_s"] for r in ops]
    failed = sum(not r["ok"] for r in ops)
    metrics = {
        "setup_s": statistics.median(docs["setup_samples"]),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_s": statistics.median(op_times),
        "raw_bits_per_s": statistics.median(
            sum(r["raw_bits"] for r in p["ops"]) / p["wall_s"] for p in passes
        ),
        "peak_rss_mb": statistics.median(doc["peak_rss_mb"] for doc in docs["plain"]),
        "ok_frac": 1.0 - failed / len(ops),
    }
    notes = {
        "setup_s": f"median of {len(docs['setup_samples'])} fresh interpreters",
        "wall_s": f"median of {len(passes)} passes in {len(docs['plain'])} processes",
        "op_p50_s": f"n={len(op_times)}; {percentile_line(op_times)}",
        "peak_rss_mb": "ru_maxrss of the pass process, median over processes",
        "ok_frac": f"fail_frac {failed / len(ops):.6g} = {failed}/{len(ops)}",
    }
    return metrics, notes


def per_layer(docs, names):
    traced = [p for doc in docs["traced"] for p in doc["passes"]]
    plain_wall = statistics.median(p["wall_s"] for doc in docs["plain"] for p in doc["passes"])
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics = {}
    for name in names:
        values = [p["layer"].get(name, 0) for p in traced]
        metrics[name] = statistics.median(values)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    notes = {"trace.overhead_frac": f"traced {traced_wall:.6g} s / untraced {plain_wall:.6g} s - 1"}
    return metrics, notes


def failure_causes(docs):
    """(operation, error class) -> [count, first detail] over every pass."""
    causes = {}
    for kind in ("plain", "traced"):
        for doc in docs[kind]:
            for p in doc["passes"]:
                for r in p["ops"]:
                    if not r["ok"]:
                        causes.setdefault(f"{r['op']}: {r['error']}", [0, r["detail"]])[0] += 1
    return causes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    try:
        docs = measure(args)
    except WorkerError as exc:
        sys.exit(f"benchmark failed: {exc}")

    if args.trace:
        metrics, notes = per_layer(docs, units)
    else:
        metrics, notes = end_to_end(docs)
    problems = check(docs)
    ops = [r for kind in ("plain", "traced") for doc in docs[kind]
           for p in doc["passes"] for r in p["ops"]]
    attempted = len(ops)
    failed = sum(not r["ok"] for r in ops)

    env = docs["plain"][0]["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print("client: one process; wire sessions use two endpoint threads")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<32} {metrics[name]:>14.6g} {unit}{note}")
    for cause, (count, detail) in sorted(failure_causes(docs).items()):
        print(f"failure x{count}: {cause} ({detail})")
    for doc in docs["plain"]:
        if "crosscheck" in doc:
            print(f"cross-mode check: {doc['crosscheck']['compared']} (row, seed) pairs "
                  f"compared with the wire, {len(doc['crosscheck']['mismatches'])} mismatches")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    record = {"args": vars(args), "metrics": metrics, "problems": problems, "workers": docs}
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(f"full record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
