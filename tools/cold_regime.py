"""Cold and warm processes, side by side: time and minor page faults of
in-process sessions at the largest T4 row (N = 10^6, k = 4).

A cold process reads its database from a hex file with load_database, so
it frees no large block before its first session; a warm one draws it
with random_database. Each regime runs PROCESSES fresh interpreters,
alternating, and each interpreter runs SESSIONS sessions, reading its
minor faults with resource.getrusage around each one. The script prints,
per regime and session, the median time and the median and largest fault
count, then the median over all sessions of each regime and their ratio.

Run from the repository root, with only the standard library and numpy:

    python3 tools/cold_regime.py
"""

import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from qpqsim import planner, protocol  # noqa: E402

N_ITEMS, TARGET, DB_SEED = 10 ** 6, 123457, 1
PROCESSES, SESSIONS = 5, 3


def child(regime, path):
    """One process: SESSIONS sessions, one JSON list of (ms, faults) out."""
    theta = planner.plan_min_k(N_ITEMS, 3.0, 0.2).theta
    if regime == "cold":
        database = protocol.load_database(path, N_ITEMS)
    else:
        database = protocol.random_database(N_ITEMS, DB_SEED)
    runs = []
    for seed in range(SESSIONS):
        config = protocol.SessionConfig(
            n_items=N_ITEMS, substrings=4, theta=theta,
            source_seed=3 * seed + 1, channel_seed=3 * seed + 2, measure_seed=3 * seed + 3,
        )
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        report, _, _ = protocol.run_session(config, database, TARGET)
        elapsed = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        assert report.success and report.query.retrieved_bit == database[TARGET]
        runs.append((1e3 * elapsed, faults))
    print(json.dumps(runs))


def main():
    results = {"cold": [], "warm": []}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "database.hex"
        path.write_text(protocol.random_database(N_ITEMS, DB_SEED).body.tobytes().hex())
        for index in range(PROCESSES):
            for regime in ("cold", "warm") if index % 2 == 0 else ("warm", "cold"):
                out = subprocess.run(
                    [sys.executable, __file__, "--child", regime, str(path)],
                    capture_output=True, text=True, check=True,
                ).stdout
                results[regime].append(json.loads(out))
    print(f"{PROCESSES} processes per regime, {SESSIONS} sessions each, N = {N_ITEMS}, k = 4")
    print("regime  session  median ms  median faults  max faults")
    for regime, runs in results.items():
        for session in range(SESSIONS):
            ms = [run[session][0] for run in runs]
            faults = [run[session][1] for run in runs]
            print(f"{regime:6}  {session + 1:7}  {statistics.median(ms):9.1f}  "
                  f"{statistics.median(faults):13.0f}  {max(faults):10}")
    medians = {regime: statistics.median(ms for run in runs for ms, _ in run)
               for regime, runs in results.items()}
    print(f"median of sessions 1-{SESSIONS}: cold {medians['cold']:.1f} ms, "
          f"warm {medians['warm']:.1f} ms, cold/warm {medians['cold'] / medians['warm']:.3f}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(*sys.argv[2:4])
    else:
        main()
