"""The benchmark's trace hooks keep working on the package.

perfbench/tracing.py counts retained photons by calling len() on the raw
key that protocol.xor_compress folds, and every traced session passes
through that hook. The benchmark's own tests compare two traced passes
with each other, so a hook that fails the same way in both goes unseen
there; this test requires traced sessions to succeed.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("runner", [workloads.run_inproc, workloads.run_wire])
def test_traced_smallest_t4_session_succeeds_and_counts_retained_photons(runner):
    op = min(workloads.build_inputs("t4_inproc", 1), key=lambda op: op.config.n_items)
    tracer = tracing.Tracer().install()
    try:
        rec = runner(op)
        counts = tracer.counts()
    finally:
        tracer.uninstall()
    assert rec["ok"], rec
    attempts = rec["counters"]["restarted"] + 1
    assert counts["protocol.retained"] == attempts * op.config.raw_length
