"""Acceptance suite: one test per acceptance criterion, each printing a
pass line with the measured numbers (run with `pytest -v -s` to see them).

Criterion 1 has a documented defect in its strict reading: the exact
restart probability at N=1e6, k=6, p=0.15 is 1.1300e-5, while the source
prints 1e-5 with a single significant digit, so no correct implementation
can land within +/-10% of the printed value for that one cell. The main
test checks that cell at its printed precision (one unit in the last
printed digit); test_c1_strict_ten_percent_reading keeps the literal
reading as a strict expected failure.
"""

import math
import time

import numpy as np
import pytest
from oracles import known_count_distribution, sift
from scipy import stats

from qpqsim import attacks, planner, wire
from qpqsim.protocol import SessionConfig, random_database, run_key_distribution, run_session
from qpqsim.qubits import Basis, CarrierLabel, born_outcome0_tables, trace_distance


def _pass(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


T1_PRINTED_NBAR = (3.38, 2.53, 5.06, 3.79, 7.59, 11.39)
T1_PRINTED_P0 = (0.034, 0.080, 0.006, 0.022, 5e-4, 1e-5)


# --- criterion 1: Table 1 -----------------------------------------------------


def test_c1_table1_reproduction():
    start = time.perf_counter()
    table = planner.table_generator("T1")
    elapsed = time.perf_counter() - start
    for got, want in zip(table.rows["n_bar"], T1_PRINTED_NBAR):
        assert abs(got - want) <= 0.01
    # five cells carry >= 2 printed significant digits: +/-10% as stated
    for got, want in zip(table.rows["P0"][:5], T1_PRINTED_P0[:5]):
        assert abs(got - want) <= 0.10 * want
    # the 1e-5 cell prints one significant digit; exact value is 1.1300e-5
    last = table.rows["P0"][5]
    assert last == pytest.approx(1.1300e-5, rel=1e-3)
    assert abs(last - 1e-5) <= 1e-5  # within one unit of the printed digit
    assert elapsed < 1.0
    _pass(1, f"n_bar within 0.01, P0 cells reproduced, runtime {elapsed * 1e3:.1f} ms")


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: exact P0(N=1e6) = 1.1300e-5 is 13% above the "
    "1-significant-digit printed value 1e-5; +/-10% cannot hold there",
)
def test_c1_strict_ten_percent_reading():
    table = planner.table_generator("T1")
    for got, want in zip(table.rows["P0"], T1_PRINTED_P0):
        assert abs(got - want) <= 0.10 * want


# --- criterion 2: Tables 2 and 3 ------------------------------------------------


def test_c2_tables_2_and_3_reproduction():
    t2 = planner.table_generator("T2")
    t2_theta = (0.785, 0.354, 0.247, 0.174, 0.110, 0.078, 0.035)
    t2_p0 = (0.032, 0.045, 0.048, 0.049, 0.049, 0.050, 0.050)
    for got, want in zip(t2.rows["theta"], t2_theta):
        assert abs(got - want) <= 1e-3
    for got, want in zip(t2.rows["P0"], t2_p0):
        assert abs(got - want) <= 1e-3
    t3 = planner.table_generator("T3")
    t3_theta = (0.785, 0.464, 0.322, 0.226, 0.142, 0.100, 0.045)
    t3_p0 = (0.003, 0.005, 0.005, 0.006, 0.006, 0.006, 0.006)
    for got, want in zip(t3.rows["theta"], t3_theta):
        assert abs(got - want) <= 1e-3
    for got, want in zip(t3.rows["P0"], t3_p0):
        assert abs(got - want) <= 1e-3
    # the named spot checks
    assert planner.solve_theta(100, 1, 3) == pytest.approx(0.247, abs=1e-3)
    assert planner.failure_probability(100, 0.03, 1) == pytest.approx(0.048, abs=1e-3)
    assert planner.solve_theta(1000, 1, 5) == pytest.approx(0.100, abs=1e-3)
    assert planner.failure_probability(1000, 0.005, 1) == pytest.approx(0.006, abs=1e-3)
    _pass(2, "all 28 printed cells within one unit of the last printed digit")


# --- criterion 3: Table 4 ---------------------------------------------------------


def test_c3_table4_reproduction():
    sizes = (10 ** 3, 5 * 10 ** 3, 10 ** 4, 5 * 10 ** 4, 10 ** 5, 10 ** 6)
    want_k = (2, 2, 3, 3, 3, 4)
    want_theta = (0.337, 0.223, 0.375, 0.284, 0.252, 0.293)
    for n, wk, wt in zip(sizes, want_k, want_theta):
        plan = planner.plan_min_k(n, 3, 0.2)
        assert plan.substrings == wk
        assert abs(plan.theta - wt) <= 1e-3
    _pass(3, f"k={list(want_k)} and all theta within 1e-3")


# --- criterion 4: individual USD worked example -------------------------------------


def test_c4_individual_usd_worked_example():
    n_items, theta, k = 50000, 0.284, 3
    analytic = n_items * (1 - math.cos(theta)) ** k
    honest = planner.expected_known_bits(
        n_items, planner.conclusive_probability(theta), k
    )
    assert analytic == pytest.approx(3.21, abs=0.01)
    assert honest == pytest.approx(3.02, abs=0.01)
    trials = 334000  # 3 photons per final bit: 1.002e6 raw bits
    report = attacks.alice_individual_usd(
        n_items, theta, k, trials=trials, rng=np.random.default_rng(2024)
    )
    assert trials * k >= 10 ** 6
    assert abs(report.estimate - analytic) <= 4 * report.sigma
    assert report.extra["wrong_identifications"] == 0
    _pass(
        4,
        f"analytic {analytic:.4f} / honest {honest:.4f}; MC over {trials * k} raw "
        f"bits gave {report.estimate:.3f} (sigma {report.sigma:.3f})",
    )


# --- criterion 5: sift soundness -----------------------------------------------------


def test_c5_sift_soundness_exhaustive():
    checked = wrong = 0
    for theta in np.linspace(0.01, math.pi / 2 - 0.01, 50):
        p0 = born_outcome0_tables(theta)
        for label in CarrierLabel:
            declaration = label.declaration_letter
            for basis in Basis:
                for outcome in (0, 1):
                    prob = p0[label, basis] if outcome == 0 else 1.0 - p0[label, basis]
                    verdict = sift(basis, outcome, declaration)
                    checked += 1
                    if verdict is not None and verdict != label.coded_bit and prob > 1e-12:
                        wrong += 1
    assert wrong == 0
    _pass(5, f"{checked} (label,basis,outcome) cases over 50 theta values, 0 wrong")


# --- criterion 6: conclusive rate and loss tolerance ----------------------------------


def test_c6_conclusive_rate_and_loss_tolerance():
    theta = 0.5
    p = math.sin(theta) ** 2 / 2
    retained = 10 ** 5
    fractions = {}
    for i, eta in enumerate((0.0, 0.3, 0.6, 0.9)):
        cfg = SessionConfig(
            n_items=retained,
            substrings=1,
            theta=theta,
            loss_rate=eta,
            source_seed=61 + i,
            channel_seed=62 + i,
            measure_seed=63 + i,
        )
        _, _, report = run_key_distribution(cfg)
        fractions[eta] = report.conclusive_count / retained
    sigma = math.sqrt(p * (1 - p) / retained)
    assert abs(fractions[0.0] - 0.11494) <= 4 * sigma
    x = np.array(list(fractions))
    y = np.array([fractions[e] for e in fractions])
    w = 1.0 / (p * (1 - p) / retained)
    xbar = float(np.mean(x))
    sxx = float(np.sum(w * (x - xbar) ** 2))
    slope = float(np.sum(w * (x - xbar) * y) / sxx)
    slope_sigma = math.sqrt(1.0 / sxx)
    assert abs(slope) <= 4 * slope_sigma
    _pass(
        6,
        f"fraction(eta=0) = {fractions[0.0]:.5f} vs 0.11494 "
        f"(4 sigma = {4 * sigma:.5f}); slope {slope:.2e} "
        f"(4 sigma = {4 * slope_sigma:.2e})",
    )


# --- criterion 7: known-count law ------------------------------------------------------


@pytest.fixture(scope="module")
def known_counts():
    theta = math.asin(math.sqrt(0.3))  # p = sin^2/2 = 0.15 exactly
    counts = np.empty(10 ** 4, dtype=np.int64)
    for i in range(10 ** 4):
        cfg = SessionConfig(
            n_items=1000,
            substrings=3,
            theta=theta,
            source_seed=70000 + i,
            channel_seed=80000 + i,
            measure_seed=90000 + i,
            max_restarts=0,
        )
        _, final, _ = run_key_distribution(cfg)
        counts[i] = final.known_count
    return counts


def test_c7_known_count_binomial_fit(known_counts):
    n_sessions = known_counts.size
    q = 0.15 ** 3
    dist = known_count_distribution(1000, 0.15, 3)
    # pool bins so every expected count is >= 5
    edges = []
    acc = 0.0
    start = 0
    for n in range(dist.counts.size):
        acc += dist.binomial[n] * n_sessions
        if acc >= 5.0:
            edges.append((start, n))
            start = n + 1
            acc = 0.0
    lo, hi = edges[-1]
    edges[-1] = (lo, 10 ** 9)  # absorb the tail
    observed = []
    expected = []
    for lo, hi in edges:
        observed.append(np.count_nonzero((known_counts >= lo) & (known_counts <= hi)))
        mask = (dist.counts >= lo) & (dist.counts <= hi)
        prob = float(np.sum(dist.binomial[mask]))
        if hi == 10 ** 9:
            prob = 1.0 - float(np.sum(dist.binomial[dist.counts < lo]))
        expected.append(prob * n_sessions)
    observed = np.array(observed, dtype=float)
    expected = np.array(expected)
    chi2_stat = float(np.sum((observed - expected) ** 2 / expected))
    dof = len(edges) - 1
    critical = stats.chi2.ppf(1 - 0.001, dof)
    assert chi2_stat < critical
    _pass(
        7,
        f"chi-square {chi2_stat:.2f} < {critical:.2f} (dof {dof}, alpha 0.001) "
        f"over {n_sessions} sessions",
    )


def test_c7_restart_probability(known_counts):
    p0 = planner.failure_probability(1000, 0.15, 3)
    freq = float(np.count_nonzero(known_counts == 0) / known_counts.size)
    sigma = math.sqrt(p0 * (1 - p0) / known_counts.size)
    assert abs(freq - p0) <= 4 * sigma
    assert p0 == pytest.approx(0.034, abs=5e-4)
    _pass(7, f"P(n=0) = {freq:.4f} vs {p0:.4f} (4 sigma = {4 * sigma:.4f})")


def test_c7_poisson_approximation(known_counts):
    # in the sparse regime (p^k = 3.375e-3, N p^k = 3.375) the empirical
    # known-bit law sits within total variation 0.02 of Poisson(N p^k)
    mean = 1000 * 0.15 ** 3
    hi = int(known_counts.max()) + 1
    empirical = np.bincount(known_counts, minlength=hi) / known_counts.size
    poisson = stats.poisson.pmf(np.arange(hi), mean)
    tv = 0.5 * (float(np.sum(np.abs(empirical - poisson))) + (1.0 - float(poisson.sum())))
    assert tv <= 0.02
    _pass(7, f"empirical vs Poisson({mean:.3f}) total variation {tv:.4f} <= 0.02")


# --- criterion 8: Helstrom identity and joint USD shape ---------------------------------


def test_c8_helstrom_identity_and_joint_usd_shape():
    worst = 0.0
    for k in range(1, 9):
        for theta in np.linspace(0.05, math.pi / 2 - 0.05, 20):
            pair = attacks.parity_mixtures(theta, k)
            d = trace_distance(pair.rho_even, pair.rho_odd)
            worst = max(worst, abs(d - math.sin(theta) ** k))
    assert worst < 1e-9
    for theta in np.linspace(0.1, 1.4, 14):
        assert abs(attacks.joint_usd_bound(theta, 1) - (1 - math.cos(theta))) < 1e-9
    # declining shape over k (exact equality holds inside (2m-1, 2m) pairs,
    # so strictness is asserted across two-step windows; see ledger)
    for theta in (0.2, math.pi / 4):
        bounds = [attacks.joint_usd_bound(theta, k) for k in range(1, 9)]
        for a, b in zip(bounds, bounds[1:]):
            assert b <= a + 1e-8
        for a, b in zip(bounds, bounds[2:]):
            assert b < a * (1 - 1e-6)
    _pass(8, f"max |D - sin^k(theta)| = {worst:.2e}; joint bound declines with k")


# --- criterion 9: sender conclusiveness attack --------------------------------------------


def test_c9_bob_attack_rates_and_bit_ignorance():
    theta = math.pi / 4
    trials = 10 ** 6
    conclusive = attacks.bob_conclusiveness_attack(
        theta, True, trials=trials, rng=np.random.default_rng(90001)
    )
    assert conclusive.analytic == pytest.approx(0.8536, abs=1e-4)
    assert abs(conclusive.estimate - conclusive.analytic) <= 4 * conclusive.sigma
    inconclusive = attacks.bob_conclusiveness_attack(
        theta, False, trials=trials, rng=np.random.default_rng(90002)
    )
    assert inconclusive.analytic == pytest.approx(0.1464, abs=1e-4)
    assert abs(inconclusive.estimate - inconclusive.analytic) <= 4 * inconclusive.sigma
    # conditional inferred bit is uniform: two-sided z test at alpha 0.001
    hits = conclusive.extra["conclusive_count"]
    ones = conclusive.extra["inferred_ones"]
    z = abs(ones / hits - 0.5) / math.sqrt(0.25 / hits)
    z_critical = stats.norm.ppf(1 - 0.001 / 2)
    assert z <= z_critical
    _pass(
        9,
        f"rates {conclusive.estimate:.4f}/{inconclusive.estimate:.4f} vs "
        f"0.8536/0.1464; conditional bit z = {z:.2f} <= {z_critical:.2f}",
    )


# --- criterion 10: end-to-end retrieval ------------------------------------------------


def test_c10_end_to_end_retrieval_and_restart_rate():
    plans = [
        (12, 1, math.pi / 4),
        (50, 1, 0.354),
        (100, 1, 0.247),
        (1000, 2, 0.337),
    ]
    sessions_per_plan = 250
    first_attempt_failures = 0
    expected_p0 = []
    ran = 0
    for plan_idx, (n_items, k, theta) in enumerate(plans):
        p = planner.conclusive_probability(theta)
        p0 = planner.failure_probability(n_items, p, k)
        for s in range(sessions_per_plan):
            seed = plan_idx * 10 ** 5 + s
            cfg = SessionConfig(
                n_items=n_items,
                substrings=k,
                theta=theta,
                source_seed=seed,
                channel_seed=seed + 1,
                measure_seed=seed + 2,
            )
            database = random_database(n_items, seed)
            item = seed % n_items
            report, _, _ = run_session(cfg, database, item)
            ran += 1
            expected_p0.append(p0)
            if report.restarted > 0 or not report.success:
                first_attempt_failures += 1
            if report.success:
                assert report.query.retrieved_bit == database[item]
    mean = float(np.sum(expected_p0))
    sigma = math.sqrt(float(np.sum([q * (1 - q) for q in expected_p0])))
    assert abs(first_attempt_failures - mean) <= 4 * sigma
    _pass(
        10,
        f"{ran} sessions, every successful retrieval exact; "
        f"{first_attempt_failures} first-pass restarts vs expected {mean:.1f} "
        f"(4 sigma = {4 * sigma:.1f})",
    )


# --- criterion 11: wire equivalence -----------------------------------------------------


def test_c11_wire_equivalence_fifty_seeds():
    mismatches = 0
    for s in range(50):
        cfg = SessionConfig(
            n_items=64,
            substrings=2,
            theta=1.0,
            source_seed=1000 + s,
            channel_seed=2000 + s,
            measure_seed=3000 + s,
            max_restarts=0,
        )
        database = random_database(64, s)
        item = (7 * s) % 64
        report, raw, final = run_session(cfg, database, item)
        assert report.success
        bob_res, alice_res = wire.run_local_session(cfg, database, item)
        assert np.array_equal(bob_res.raw_bits, raw.bits)
        assert np.array_equal(bob_res.final_bits, final.bits)
        assert np.array_equal(alice_res.final.alice_mask, final.alice_mask)
        assert alice_res.retrieved_bit == report.query.retrieved_bit == database[item]
    _pass(11, "50 seeds: wire and in-process sessions agree bit for bit")


def test_parameter_figures_hit_targets_exactly():
    # the flexibility figures are checked as emitted series: every point
    # satisfies N * p(theta)^k = target to 1e-9, not as pixel comparisons
    flex = planner.flexibility_series(target_known=3.0)
    points = 0
    for series in flex["series"]:
        k = int(series["label"].split("=")[1])
        for n, theta in zip(series["x"], series["y"]):
            p = planner.conclusive_probability(float(theta))
            assert abs(n * p ** k - 3.0) <= 1e-9
            points += 1
    trade = planner.tradeoff_series(n_items=10 ** 4)
    for series in trade["series"]:
        k = int(series["label"].split("=")[1])
        for target, theta in zip(series["x"], series["y"]):
            p = planner.conclusive_probability(float(theta))
            assert abs(10 ** 4 * p ** k - float(target)) <= 1e-9
            points += 1
    _pass("F1/F2", f"{points} series points satisfy the target identity to 1e-9")


def test_c11_frame_round_trip_hundred_thousand():
    rng = np.random.default_rng(77)
    total = 10 ** 5
    # pre-draw everything; the loop only builds/encodes/decodes/compares
    kinds = rng.integers(0, 9, total)
    values = rng.integers(0, 2 ** 32, total, dtype=np.uint64)
    lengths = rng.integers(1, 65, total)
    bit_pool = (rng.random(80) >= 0.5).astype(np.uint8)
    checked = 0
    for i in range(total):
        kind = kinds[i]
        value = int(values[i])
        bits = bit_pool[: lengths[i]]
        if kind == 0:
            msg = wire.Hello(
                theta=value / 2 ** 32 * 1.5 + 0.01,
                n_items=value % 2 ** 31,
                substrings=(value % 60) + 1,
                loss_rate=(value % 97) / 100.0,
            )
        elif kind == 1:
            msg = wire.PhotonBatchReq(count=value % 2 ** 32)
        elif kind == 2:
            msg = wire.MeasureSubmit(bases=bits)
        elif kind == 3:
            msg = wire.OutcomeBatch(received=bits.astype(bool), outcomes=bits[::-1].copy())
        elif kind == 4:
            msg = wire.Declaration(letters=bits)
        elif kind == 5:
            msg = wire.SiftAck(conclusive_count=value % 2 ** 32)
        elif kind == 6:
            msg = wire.Shift(shift=value % 2 ** 32)
        elif kind == 7:
            msg = wire.Ciphertext(bits=bits)
        else:
            msg = wire.Error(code=value % 256, message="m" * int(lengths[i]))
        assert wire.decode_frame(wire.encode_frame(msg)) == msg
        checked += 1
    assert checked == total
    _pass(11, f"{checked} randomized frames round-tripped bit exactly")
