"""The benchmark's workloads: their inputs, their operations, and the
checks on every operation's output.

t4_inproc  protocol.run_session with the default photon_batch (what
           `qpqsim run` uses) on the six T4 rows plan_min_k(N, 3, 0.2).
           Large-array RNG draws and the transmission kernel do the work;
           this is where the 2kN/p batch over-allocation shows.
t4_wire    wire.run_local_session on the same rows and session seeds: two
           endpoint threads over a socketpair, so frame codec, socket wait
           and the per-4096-photon round dominate.
analysis   the no-photon path: joint USD bounds for k = 1..10, the Helstrom
           identity for k <= 8, the Monte Carlo attacks (each with MC_SEEDS
           generator seeds) and the reference tables. Dense linear algebra
           dominates; no session code runs.

Session seeds come from a fixed per-row list expanded with cli.derive_seeds,
so the set of sessions that restart (in-process) or abort (wire) is the
same in every run. The benchmark seed picks the database contents, the
target indices and the Monte Carlo generators.
"""

import hashlib
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from qpqsim import attacks, cli, planner, protocol, qubits, wire

SESSION_WORKLOADS = ("t4_inproc", "t4_wire")
WORKLOADS = SESSION_WORKLOADS + ("analysis",)

T4_TARGET = 3.0
T4_THETA_MIN = 0.2
# The T4 rows, each with the number of session seeds it runs per pass.
# Small rows get more seeds, so the median operation is an ordinary one
# rather than whichever large row sits in the middle of the pass; the
# N = 10^5 and 10^6 rows dominate the pass and run once.
T4_ROWS = {
    10 ** 3: 8,
    5 * 10 ** 3: 8,
    10 ** 4: 4,
    5 * 10 ** 4: 2,
    10 ** 5: 1,
    10 ** 6: 1,
}

THETA = 0.284                    # the worked example's angle
JOINT_KS = range(1, 11)
HELSTROM_KS = range(1, 9)
USD_ITEMS, USD_K, USD_TRIALS = 50000, 3, 334000
BOB_THETA = math.pi / 4
BOB_TRIALS = attacks.DEFAULT_TRIALS
# Each Monte Carlo attack runs with this many generator seeds per pass, as
# the small T4 rows run with several session seeds: the calls of about
# 40 ms then outnumber the bounds of a few ms, so the median operation is an
# ordinary Monte Carlo call rather than whichever bound sits in the middle
# of the list, and op_p50_s pools many samples of it.
MC_SEEDS = 6
K1_TOL = 1e-9                    # joint_usd_bound(theta, 1) against 1 - cos(theta)
HELSTROM_TOL = 1e-9              # helstrom_guess against 1/2 + D/2
MONOTONE_TOL = 1e-12             # slack on "the bound does not increase with k"
MC_SIGMAS = 5.0

# SessionReport fields that depend on the photon batch: the in-process
# default batch and the wire's 4096-photon rounds report different values
# for the same keys, so the cross-mode check leaves them out.
BATCH_DEPENDENT = ("photons_sent", "photons_received")


@dataclass(frozen=True)
class SessionOp:
    label: str
    config: protocol.SessionConfig
    database: np.ndarray
    target: int


@dataclass(frozen=True)
class AnalysisOp:
    label: str
    kind: str
    arg: object
    mc_seed: int


def _sub_seed(bench_seed, *parts):
    return int(np.random.SeedSequence([int(bench_seed), *parts]).generate_state(1)[0])


def build_inputs(workload, bench_seed):
    """The workload's operation list; the same seed gives the same list."""
    if workload in SESSION_WORKLOADS:
        ops = []
        for n_items, seed_count in T4_ROWS.items():
            plan = planner.plan_min_k(n_items, T4_TARGET, T4_THETA_MIN)
            for seed in range(1, seed_count + 1):
                position = (seed - 0.5) / seed_count
                source, channel, measure = cli.derive_seeds(seed)
                config = protocol.SessionConfig(
                    n_items=n_items,
                    substrings=plan.substrings,
                    theta=plan.theta,
                    source_seed=source,
                    channel_seed=channel,
                    measure_seed=measure,
                )
                db_seed = _sub_seed(bench_seed, n_items, seed)
                database = protocol.random_database(n_items, db_seed)
                target = int(np.random.default_rng(db_seed).integers(n_items))
                ops.append((position, n_items, SessionOp(
                    f"N={n_items} seed={seed}", config, database, target)))
        # Each row's sessions are spread evenly through the pass, so the
        # small sessions that set op_p50_s run both before and after the
        # large rows instead of in one stretch of a few hundred ms.
        return [op for _, _, op in sorted(ops, key=lambda t: t[:2])]
    if workload == "analysis":
        joint = [AnalysisOp(f"joint_usd k={k}", "joint", k, 0) for k in JOINT_KS]
        mc = []
        for r in range(1, MC_SEEDS + 1):
            mc.append(AnalysisOp(f"individual_usd mc={r}", "usd", None,
                                 _sub_seed(bench_seed, 1, r)))
            for i, want in enumerate((True, False)):
                mc.append(AnalysisOp(f"bob want={want} mc={r}", "bob", want,
                                     _sub_seed(bench_seed, 2, i, r)))
        # Half the Monte Carlo calls run before the k = 10 bound, which takes
        # most of the pass, and half after it: each pass samples them at two
        # moments, not one.
        half = len(mc) // 2
        ops = joint[:-1] + mc[:half] + joint[-1:] + mc[half:]
        ops += [AnalysisOp(f"helstrom k={k}", "helstrom", k, 0) for k in HELSTROM_KS]
        ops.append(AnalysisOp("check_tables", "tables", None, 0))
        return ops
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def short_hash(data):
    return hashlib.sha256(data).hexdigest()[:16]


def key_digest(bits):
    return short_hash(np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes())


def public_digest(report):
    """Digest of the report fields both modes must agree on."""
    fields = wire.public_report_fields(report)
    for name in BATCH_DEPENDENT:
        fields.pop(name)
    return short_hash(json.dumps(fields, sort_keys=True).encode())


def _report_counters(report):
    return {
        "photons_sent": report.photons_sent,
        "photons_received": report.photons_received,
        "conclusive_count": report.conclusive_count,
        "known_final_count": report.known_final_count,
        "restarted": report.restarted,
    }


def _record(op, wall_s, error=None, detail=None, raw_bits=0, digest=None, counters=None):
    return {
        "op": op.label,
        "ok": error is None,
        "error": error,
        "detail": detail,
        "wall_s": wall_s,
        "raw_bits": raw_bits,
        "digest": digest,
        "counters": counters or {},
    }


def _failure(op, wall_s, exc):
    detail = str(exc)[:200]
    code = getattr(exc, "code", None)
    if code is not None:
        detail = f"code {code}: {detail}"
    return _record(op, wall_s, error=type(exc).__name__, detail=detail)


def run_inproc(op):
    start = time.perf_counter()
    try:
        report, _, final = protocol.run_session(op.config, op.database, op.target)
    except Exception as exc:  # recorded with its class; the pass goes on
        return _failure(op, time.perf_counter() - start, exc)
    wall_s = time.perf_counter() - start
    counters = _report_counters(report)
    if not report.success:
        return _record(op, wall_s, "SessionFailed", "no known bit after every restart",
                       counters=counters)
    rec = _record(op, wall_s, digest=key_digest(final.bits), counters=counters)
    rec["public"] = public_digest(report)
    if report.query.retrieved_bit != op.database[op.target]:
        rec.update(ok=False, error="WrongOutput", detail="retrieved bit != database bit")
    else:
        rec["raw_bits"] = op.config.raw_length
    return rec


def run_wire(op):
    start = time.perf_counter()
    try:
        bob, alice = wire.run_local_session(op.config, op.database, op.target)
    except Exception as exc:  # recorded with its class; the pass goes on
        return _failure(op, time.perf_counter() - start, exc)
    wall_s = time.perf_counter() - start
    rec = _record(op, wall_s, digest=key_digest(bob.final_bits),
                  counters=_report_counters(alice.report))
    rec["public"] = public_digest(alice.report)
    if alice.retrieved_bit != op.database[op.target]:
        rec.update(ok=False, error="WrongOutput", detail="retrieved bit != database bit")
    elif wire.public_report_fields(bob.report) != wire.public_report_fields(alice.report):
        rec.update(ok=False, error="WrongOutput", detail="endpoint reports disagree")
    else:
        rec["raw_bits"] = op.config.raw_length
    return rec


def _analysis_value(op):
    """Run one analysis operation; returns (value, raw bits simulated, problem)."""
    if op.kind == "joint":
        value = attacks.joint_usd_bound(THETA, op.arg)
        if op.arg == 1 and abs(value - (1.0 - math.cos(THETA))) > K1_TOL:
            return value, 0, f"k=1 bound {value!r} != 1 - cos(theta)"
        return value, 0, None
    if op.kind == "helstrom":
        pair = attacks.parity_mixtures(THETA, op.arg)
        distance = qubits.trace_distance(pair.rho_even, pair.rho_odd)
        value = attacks.helstrom_guess(THETA, op.arg)
        if abs(value - (0.5 + 0.5 * distance)) > HELSTROM_TOL:
            return value, 0, f"helstrom {value!r} != 1/2 + D/2 with D = {distance!r}"
        return value, 0, None
    if op.kind in ("usd", "bob"):
        rng = np.random.default_rng(op.mc_seed)
        if op.kind == "usd":
            rep = attacks.alice_individual_usd(USD_ITEMS, THETA, USD_K, trials=USD_TRIALS, rng=rng)
            raw_bits = USD_TRIALS * USD_K
            if rep.extra["wrong_identifications"]:
                return rep.estimate, 0, "unambiguous discrimination misidentified a bit"
        else:
            rep = attacks.bob_conclusiveness_attack(BOB_THETA, op.arg, trials=BOB_TRIALS, rng=rng)
            raw_bits = BOB_TRIALS
        if abs(rep.estimate - rep.analytic) > MC_SIGMAS * rep.sigma:
            return rep.estimate, 0, (
                f"estimate {rep.estimate!r} is more than {MC_SIGMAS} sigma "
                f"({rep.sigma!r}) from {rep.analytic!r}"
            )
        return rep.estimate, raw_bits, None
    if op.kind == "tables":
        mismatches = planner.check_tables()
        return len(mismatches), 0, "; ".join(mismatches) or None
    raise ValueError(f"unknown analysis operation {op.kind!r}")


def run_analysis(op):
    start = time.perf_counter()
    try:
        value, raw_bits, problem = _analysis_value(op)
    except Exception as exc:  # recorded with its class; the pass goes on
        return _failure(op, time.perf_counter() - start, exc)
    wall_s = time.perf_counter() - start
    rec = _record(op, wall_s, raw_bits=raw_bits, digest=short_hash(repr(value).encode()))
    rec["value"] = value
    if problem is not None:
        rec.update(ok=False, error="WrongOutput", detail=problem, raw_bits=0)
    return rec


RUNNERS = {"t4_inproc": run_inproc, "t4_wire": run_wire, "analysis": run_analysis}


def check_pass(workload, records):
    """Checks across the operations of one pass; marks offenders as wrong."""
    if workload != "analysis":
        return
    previous = None
    for rec in records:
        if not rec["op"].startswith("joint_usd") or not rec["ok"]:
            continue
        if previous is not None and rec["value"] > previous + MONOTONE_TOL:
            rec.update(ok=False, error="WrongOutput", raw_bits=0,
                       detail=f"bound rose with k: {rec['value']!r} > {previous!r}")
        previous = rec["value"]


def crosscheck_modes(ops, inproc_records):
    """Run each in-process session again over the wire and compare.

    For every (row, seed) that succeeds in both modes the final keys and
    the public report fields, less the batch-dependent photon counters,
    must agree. Returns (pairs compared, list of mismatches).
    """
    compared, mismatches = 0, []
    for op, rec in zip(ops, inproc_records):
        other = run_wire(op)
        if not (rec["ok"] and other["ok"]):
            continue
        compared += 1
        for field in ("digest", "public"):
            if rec[field] != other[field]:
                mismatches.append(f"{op.label}: {field} {rec[field]} != wire {other[field]}")
    return compared, mismatches
