"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qpqsim import _kernels, attacks, protocol, wire  # noqa: E402

SMALL_ROWS = 5 * 10 ** 4  # in-process rows above this need a gigabyte or more


def small_inproc_ops(seed=1):
    return [op for op in workloads.build_inputs("t4_inproc", seed)
            if op.config.n_items <= SMALL_ROWS]


@pytest.fixture
def tracer():
    tr = tracing.Tracer().install()
    try:
        yield tr
    finally:
        tr.uninstall()


@pytest.mark.parametrize("workload", ["t4_wire", "t4_inproc"])
def test_key_digests_and_counters_repeat_across_passes(tracer, workload):
    ops = (workloads.build_inputs(workload, 7) if workload == "t4_wire"
           else small_inproc_ops(7))
    first = worker.run_pass(workload, ops, tracer, {})
    second = worker.run_pass(workload, ops, tracer, {})

    def sig(p):
        return [(r["op"], r["ok"], r["error"], r["digest"], r["counters"], r["trace_counters"])
                for r in p["ops"]]

    assert sig(first) == sig(second)
    assert first["layer"]["protocol.batches"] > 0
    assert first["layer"]["protocol.photons_simulated"] > 0


def test_known_failures_are_recorded_with_their_cause(monkeypatch):
    ops = [op for op in workloads.build_inputs("t4_wire", 1) if op.label == "N=100000 seed=1"]
    (rec,) = worker.run_pass("t4_wire", ops)["ops"]
    assert not rec["ok"] and rec["error"] == "ProtocolAbort"
    assert "restart" in rec["detail"]

    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 4.30 GiB")

    monkeypatch.setattr(protocol, "run_session", out_of_memory)
    rec = workloads.run_inproc(small_inproc_ops()[0])
    assert (rec["ok"], rec["error"], rec["raw_bits"]) == (False, "MemoryError", 0)


def test_wrong_retrieval_counts_as_failure(monkeypatch):
    op = small_inproc_ops()[0]
    assert workloads.run_inproc(op)["ok"]
    assert workloads.run_wire(op)["ok"]
    run_session, run_local_session = protocol.run_session, wire.run_local_session

    def flipped_session(*args):
        report, raw, final = run_session(*args)
        report.query.retrieved_bit ^= 1
        return report, raw, final

    def flipped_wire(*args):
        bob, alice = run_local_session(*args)
        alice.retrieved_bit ^= 1
        return bob, alice

    monkeypatch.setattr(protocol, "run_session", flipped_session)
    monkeypatch.setattr(wire, "run_local_session", flipped_wire)
    for rec in (workloads.run_inproc(op), workloads.run_wire(op)):
        assert (rec["ok"], rec["error"], rec["raw_bits"]) == (False, "WrongOutput", 0)


def test_rising_bound_is_flagged():
    records = [
        {"op": "joint_usd k=1", "ok": True, "value": 0.04},
        {"op": "joint_usd k=2", "ok": True, "value": 0.05},
    ]
    workloads.check_pass("analysis", records)
    assert records[0]["ok"]
    assert not records[1]["ok"] and records[1]["error"] == "WrongOutput"


def test_wrappers_replace_every_imported_name(tracer):
    assert protocol.simulate_transmission is _kernels.simulate_transmission
    assert protocol.simulate_transmission.__wrapped__.__name__ == "_simulate_transmission_np"
    assert wire.simulate_batch is protocol.simulate_batch
    assert hasattr(wire.draw_bases, "__wrapped__")
    assert hasattr(attacks.usd_trials, "__wrapped__")
    assert hasattr(attacks.fidelity, "__wrapped__")
    assert hasattr(wire.Shift.decode_payload, "__wrapped__")
    assert tracer.unwrapped == []


def test_uninstall_restores_the_originals():
    tr = tracing.Tracer().install()
    tr.uninstall()
    assert protocol.simulate_transmission is _kernels._simulate_transmission_np
    assert not hasattr(protocol.simulate_transmission, "__wrapped__")
    assert not hasattr(wire.simulate_batch, "__wrapped__")
    assert not hasattr(wire.FrameStream.recv, "__wrapped__")


def test_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "t4_wire", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analysis", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
