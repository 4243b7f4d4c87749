#!/usr/bin/env python3
"""One measuring process of the benchmark.

A fresh interpreter that caps its own address space, imports qpqsim from
the checkout's src/ (and no other copy), builds the workload's inputs,
runs passes over the operation list until its time budget is spent, and
prints one JSON document on its last line of standard output. run.py
starts these one at a time.

    python3 perfbench/worker.py --workload t4_wire --seed 1 --budget 5
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Without a cap the default-batch N = 10^6 row asks for 4.3 GiB and can
# push a swapless machine into the OOM killer; with it the row fails with
# MemoryError and is counted.
ADDRESS_SPACE_CAP = 3 << 30


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(qpqsim):
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    backend = getattr(qpqsim, "active_backend", None)
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": backend() if backend is not None else "numpy",
        "blas_threads": blas_threads(),
        "address_space_cap_bytes": ADDRESS_SPACE_CAP,
    }


def run_pass(workload, ops, tracer=None, setup_stats=None):
    import tracing
    import workloads

    runner = workloads.RUNNERS[workload]
    records = []
    if tracer is not None:
        tracer.reset()
    start = time.perf_counter()
    for op in ops:
        before = tracer.counts() if tracer is not None else None
        rec = runner(op)
        if tracer is not None:
            after = tracer.counts()
            rec["trace_counters"] = {
                k: after[k] - before.get(k, 0) for k in sorted(after) if after[k] != before.get(k, 0)
            }
        records.append(rec)
    workloads.check_pass(workload, records)
    wall_s = time.perf_counter() - start
    result = {"wall_s": wall_s, "ops": records}
    if tracer is not None:
        stats, main_self = tracer.stats()
        layer = tracing.layer_metrics(stats, tracer.counts(), setup_stats)
        layer["protocol.restarts"] = sum(r["counters"].get("restarted", 0) for r in records)
        layer["wire.aborts"] = sum(
            r["error"] == "ProtocolAbort" for r in records if workload == "t4_wire"
        )
        layer["trace.coverage"] = main_self / wall_s
        result["layer"] = layer
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds of passes to run, rounded to whole passes; "
                             "at least one pass runs")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--crosscheck", action="store_true",
                        help="afterwards, rerun the in-process sessions over the wire")
    args = parser.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    sys.path.insert(0, str(SRC))
    import qpqsim

    if Path(qpqsim.__file__).resolve().parent != SRC / "qpqsim":
        sys.exit(f"qpqsim imported from {qpqsim.__file__}, not from {SRC}")
    import tracing
    import workloads

    t_import = time.perf_counter()
    tracer = None
    if args.traced:
        tracer = tracing.Tracer().install()
    ops = workloads.build_inputs(args.workload, args.seed)
    t_setup = time.perf_counter()
    doc = {
        "setup_s": t_setup - T_START,
        "import_s": t_import - T_START,
        "inputs_s": t_setup - t_import,
        "traced": args.traced,
    }
    if args.setup_only:
        print(json.dumps(doc))
        return
    setup_stats = tracer.stats()[0] if tracer is not None else None
    doc["env"] = environment(qpqsim)
    doc["passes"] = []
    while True:
        doc["passes"].append(run_pass(args.workload, ops, tracer, setup_stats))
        elapsed = time.perf_counter() - t_setup
        if elapsed + 0.5 * elapsed / len(doc["passes"]) > args.budget:
            break  # another pass would likely end more than half a pass past the budget
    doc["measured_s"] = time.perf_counter() - t_setup
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        doc["unwrapped"] = tracer.unwrapped
    if args.crosscheck:
        compared, mismatches = workloads.crosscheck_modes(ops, doc["passes"][-1]["ops"])
        doc["crosscheck"] = {"compared": compared, "mismatches": mismatches}
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
