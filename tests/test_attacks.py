import json
import math
import tracemalloc
from functools import reduce
from itertools import product

import mpmath
import numpy as np
import pytest
from oracles import basis_states, conclusive_branch_weights, overlap, projector, sift, usd_povm

from qpqsim import attacks, planner, protocol
from qpqsim.attacks import (
    AttackReport,
    alice_individual_usd,
    bob_conclusiveness_attack,
    fig_data,
    helstrom_guess,
    joint_usd_bound,
    parity_mixtures,
)
from qpqsim.errors import CapacityError, DomainError
from qpqsim.qubits import (
    AttackLabel,
    CarrierLabel,
    attack_state,
    carrier_state,
    fidelity,
    trace_distance,
)

THETAS = np.linspace(0.05, math.pi / 2 - 0.05, 20)


# --- USD POVM (the dense reference in oracles) -----------------------------------


def test_usd_povm_completeness_and_unambiguity():
    for theta in (0.1, 0.284, 0.7, 1.3):
        povm = usd_povm(theta)
        total = povm.e0 + povm.e1 + povm.e_fail
        assert np.max(np.abs(total - np.eye(2))) < 1e-10
        zero = carrier_state(CarrierLabel.K0, theta)
        primed = carrier_state(CarrierLabel.K0P, theta)
        p_e0_z, p_e1_z, p_fail_z = povm.outcome_probabilities(zero)
        p_e0_p, p_e1_p, p_fail_p = povm.outcome_probabilities(primed)
        assert abs(p_e1_z) < 1e-10  # never names |0'> on input |0>
        assert abs(p_e0_p) < 1e-10
        assert p_e0_z == pytest.approx(1 - math.cos(theta), abs=1e-10)
        assert p_e1_p == pytest.approx(1 - math.cos(theta), abs=1e-10)
        assert p_fail_z == pytest.approx(math.cos(theta), abs=1e-10)
        assert p_fail_p == pytest.approx(math.cos(theta), abs=1e-10)


def test_usd_povm_success_probability_values():
    assert usd_povm(0.284).success_probability == pytest.approx(0.04005, abs=5e-5)
    assert usd_povm(math.pi / 2 - 1e-6).success_probability == pytest.approx(1.0, abs=1e-5)
    for theta in (0.284, 0.7, 1.2):
        report = alice_individual_usd(10, theta, 1, trials=1)
        assert report.extra["per_photon_success"] == usd_povm(theta).success_probability


def test_usd_povm_elements_are_psd():
    for theta in (0.1, 0.5, 1.2):
        povm = usd_povm(theta)
        for element in (povm.e0, povm.e1, povm.e_fail):
            assert np.linalg.eigvalsh(element).min() >= -1e-10


# --- individual USD attack -------------------------------------------------------


def test_individual_usd_worked_example():
    report = alice_individual_usd(
        50000, 0.284, 3, trials=334000, rng=np.random.default_rng(1)
    )
    assert report.analytic == pytest.approx(3.21, abs=0.01)
    assert abs(report.estimate - report.analytic) <= 4 * report.sigma
    assert report.extra["wrong_identifications"] == 0
    # honest projective strategy lands lower
    honest = planner.expected_known_bits(
        50000, planner.conclusive_probability(0.284), 3
    )
    assert honest == pytest.approx(3.02, abs=0.01)
    assert report.analytic > honest


def test_individual_usd_limit_reads_everything():
    theta = math.pi / 2 - 1e-4
    report = alice_individual_usd(1000, theta, 1, trials=20000, rng=np.random.default_rng(2))
    assert report.analytic == pytest.approx(1000, rel=1e-3)
    assert report.estimate == pytest.approx(1000, rel=0.01)


def test_individual_usd_unambiguity_is_exact():
    report = alice_individual_usd(100, 0.9, 2, trials=10 ** 6, rng=np.random.default_rng(3))
    assert report.extra["wrong_identifications"] == 0


@pytest.mark.parametrize("n_items, substrings, trials", [(0, 2, 10), (10, 0, 10), (10, 2, 0)])
def test_individual_usd_rejects_counts_below_one(n_items, substrings, trials):
    with pytest.raises(DomainError, match="n_items, substrings and trials must all be >= 1"):
        alice_individual_usd(n_items, 0.5, substrings, trials=trials)


def test_bob_attack_rejects_fewer_than_one_trial():
    with pytest.raises(DomainError, match="trials must be >= 1"):
        bob_conclusiveness_attack(0.5, True, trials=0)


# --- rounds ------------------------------------------------------------------------


def _round_runs(monkeypatch, attack):
    """attack(rng) -> report at each round size: one photon, 7, 4096, and
    more than any call draws; also the generator's next draws after it."""
    runs = {}
    for size in (1, 7, 4096, 10 ** 6):
        monkeypatch.setattr(protocol, "ROUND", size)
        rng = np.random.default_rng(17)
        runs[size] = (attack(rng).to_json(), rng.random(3).tobytes())
    return runs


@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_individual_usd_does_not_depend_on_the_round(monkeypatch, k):
    # 5003 trials fill no round exactly; at 7 photons a round of k = 8 is
    # one trial, longer than the round
    runs = _round_runs(
        monkeypatch, lambda rng: alice_individual_usd(500, 1.2, k, trials=5003, rng=rng)
    )
    assert len(set(runs.values())) == 1
    doc = json.loads(runs[1][0])
    assert 0 < doc["estimate"] < 500  # some trials are fully known, some not


@pytest.mark.parametrize("want", [True, False])
def test_bob_attack_does_not_depend_on_the_round(monkeypatch, want):
    runs = _round_runs(
        monkeypatch, lambda rng: bob_conclusiveness_attack(0.7, want, trials=5003, rng=rng)
    )
    assert len(set(runs.values())) == 1
    doc = json.loads(runs[1][0])
    assert 0 < doc["inferred_ones"] < doc["conclusive_count"] < 5003


# --- per-trial reference loops ---------------------------------------------------


def _twin_coins(twin, count):
    """The coins _coins reads, as a list: one read of ceil(count / 8) bytes,
    coin i at bit 7 - i % 8 of byte i // 8."""
    raw = twin.bytes(-(-count // 8))
    return [(raw[i // 8] >> (7 - i % 8)) & 1 for i in range(count)]


@pytest.mark.parametrize("k", [1, 3])
def test_individual_usd_matches_a_per_trial_loop(k):
    # 5003 trials, not a multiple of 8: _fold ANDs unpacked substrings
    theta, trials = 1.2, 5003
    report = alice_individual_usd(500, theta, k, trials=trials, rng=np.random.default_rng(23))
    povm = usd_povm(theta)
    p_e0 = [povm.outcome_probabilities(carrier_state(c, theta))[0]
            for c in (CarrierLabel.K0, CarrierLabel.K0P)]
    p_e1 = [povm.outcome_probabilities(carrier_state(c, theta))[1]
            for c in (CarrierLabel.K0, CarrierLabel.K0P)]
    twin = np.random.default_rng(23)
    truth = _twin_coins(twin, trials * k)
    known = wrong = 0
    for trial in range(trials):
        all_right = True
        for photon in range(trial * k, (trial + 1) * k):
            bit, u = truth[photon], twin.random()
            # the element naming the other member fires first, then the right one
            p_wrong, p_right = (p_e1[0], p_e0[0]) if bit == 0 else (p_e0[1], p_e1[1])
            wrong += u < p_wrong
            all_right = all_right and p_wrong <= u < p_wrong + p_right
        known += all_right
    assert report.estimate == 500 * (known / trials)
    assert report.extra["wrong_identifications"] == wrong == 0
    assert 0 < known < trials


@pytest.mark.parametrize("want", [True, False])
def test_bob_attack_matches_a_per_trial_loop(want):
    theta, trials = 0.7, 5003
    report = bob_conclusiveness_attack(theta, want, trials=trials, rng=np.random.default_rng(29))
    twin = np.random.default_rng(29)
    coins = _twin_coins(twin, 2 * trials)
    hits = ones = 0
    for trial in range(trials):
        attack, basis = coins[trial], coins[trials + trial]
        outcome0 = basis_states(basis, theta)[0]
        p0 = abs(overlap(outcome0, attack_state(AttackLabel(attack), theta))) ** 2
        outcome = 1 if twin.random() >= p0 else 0
        bit = sift(basis, outcome, attack ^ want)
        hits += bit is not None
        ones += bit == 1
    assert report.extra["conclusive_count"] == hits
    assert report.extra["inferred_ones"] == ones
    assert 0 < ones < hits < trials


# --- fair coins --------------------------------------------------------------------

BIT_GENERATORS = [np.random.PCG64, np.random.MT19937]


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 31, 33, 61, 64, 1001])
def test_coins_read_ceil_count_over_8_bytes_in_unpackbits_order(bit_generator, count):
    rng = np.random.Generator(bit_generator(5))
    twin = np.random.Generator(bit_generator(5))
    coins = attacks._coins(rng, count)
    raw = twin.bytes(-(-count // 8))
    assert len(coins) == count and coins.body.dtype == np.uint8 and coins.body.tobytes() == raw
    # nothing more was read: next bytes (a buffered half-word shows) and floats
    assert rng.bytes(8) == twin.bytes(8)
    assert rng.random(2).tolist() == twin.random(2).tolist()
    # coin i is bit 7 - i % 8 of byte i // 8, for any start and stop
    want = [bool((raw[i // 8] >> (7 - i % 8)) & 1) for i in range(count)]
    for start in range(min(count, 9) + 1):
        for stop in {start, start + 1, count // 2, count - 1, count}:
            if start <= stop <= count:
                got = coins.unpack(start, stop)
                assert got.dtype == np.bool_
                assert got.tolist() == want[start:stop]
    # and indexing reads the same bit at every position, and none past count
    assert [coins[i] for i in range(count)] == coins.unpack().tolist() == want
    with pytest.raises(IndexError):
        coins[count]


def test_attacks_land_on_their_rates_with_mt19937():
    # MT19937's raw words are 32 bits wide: coins cut from the top of a
    # 64-bit raw word would all be 0, and every inferred bit 1
    rng = np.random.Generator(np.random.MT19937(11))
    usd = alice_individual_usd(500, 1.2, 2, trials=20000, rng=rng)
    assert abs(usd.estimate - usd.analytic) <= 5 * usd.sigma
    assert usd.extra["wrong_identifications"] == 0
    for want in (True, False):
        bob = bob_conclusiveness_attack(0.7, want, trials=20000, rng=rng)
        assert abs(bob.estimate - bob.analytic) <= 5 * bob.sigma
        # the inferred bit of a conclusive trial is a fair coin
        hits = bob.extra["conclusive_count"]
        assert abs(bob.extra["inferred_ones"] - hits / 2) <= 5 * math.sqrt(hits) / 2


# --- parity mixtures and joint bounds ----------------------------------------------


def test_parity_mixtures_single_qubit_classes():
    pair = parity_mixtures(0.61, 1)
    even = projector(carrier_state(CarrierLabel.K0, 0.61))
    odd = projector(carrier_state(CarrierLabel.K0P, 0.61))
    assert np.allclose(pair.rho_even.entries, even, atol=1e-12)
    assert np.allclose(pair.rho_odd.entries, odd, atol=1e-12)


def test_parity_mixtures_structure():
    pair = parity_mixtures(math.pi / 4, 2)
    for rho in (pair.rho_even, pair.rho_odd):
        assert rho.dim == 4
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)
        ev = np.linalg.eigvalsh(rho.entries)
        assert np.count_nonzero(ev > 1e-9) == 2  # two pure components


def test_parity_mixtures_match_sum_of_product_projectors():
    # reference: the uniform mixture of each parity class's k-fold products
    for theta in (0.2, math.pi / 4, 1.2):
        zero = carrier_state(CarrierLabel.K0, theta)
        one = carrier_state(CarrierLabel.K0P, theta)
        for k in range(1, 6):
            sums = np.zeros((2, 2 ** k, 2 ** k), dtype=complex)
            for bits in product((0, 1), repeat=k):
                amps = reduce(np.kron, [one if b else zero for b in bits])
                sums[sum(bits) % 2] += np.outer(amps, amps.conj())
            pair = parity_mixtures(theta, k)
            tol = 2 ** k * np.finfo(float).eps
            assert np.max(np.abs(pair.rho_even.entries - sums[0] / 2 ** (k - 1))) < tol
            assert np.max(np.abs(pair.rho_odd.entries - sums[1] / 2 ** (k - 1))) < tol


def test_parity_mixtures_are_real():
    for k in (1, 4, 8):
        pair = parity_mixtures(0.284, k)
        assert pair.rho_even.entries.dtype == pair.rho_odd.entries.dtype == np.float64


def test_parity_mixtures_trace_at_most_three_and_a_half_mib():
    # built as complex, with the sum and the difference formed beside both
    # Kronecker products, the k = 8 pair traced 6.5 MiB
    tracemalloc.start()
    try:
        parity_mixtures(0.284, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MiB"


def test_parity_mixtures_capacity():
    with pytest.raises(CapacityError):
        parity_mixtures(0.5, 11)
    with pytest.raises(CapacityError):
        parity_mixtures(0.5, 0)


def test_trace_distance_of_parity_pair_matches_power_law():
    pair = parity_mixtures(math.pi / 4, 3)
    d = trace_distance(pair.rho_even, pair.rho_odd)
    assert d == pytest.approx(math.sin(math.pi / 4) ** 3, abs=1e-9)
    assert d == pytest.approx(0.35355, abs=5e-5)


def test_helstrom_guess_values_and_limits():
    assert helstrom_guess(math.pi / 4, 1) == pytest.approx(0.85355, abs=5e-5)
    assert helstrom_guess(0.05, 12) == pytest.approx(0.5, abs=1e-9)
    assert helstrom_guess(math.pi / 2 - 1e-9, 1) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(DomainError, match="substring count must be >= 1"):
        helstrom_guess(0.5, 0)


def test_helstrom_cross_check_against_trace_distance():
    for k in range(1, 9):
        for theta in THETAS:
            pair = parity_mixtures(theta, k)
            viaD = 0.5 + 0.5 * trace_distance(pair.rho_even, pair.rho_odd)
            assert abs(helstrom_guess(theta, k) - viaD) < 1e-9


def test_joint_usd_bound_reduces_to_single_photon():
    for theta in THETAS:
        assert abs(joint_usd_bound(theta, 1) - (1 - math.cos(theta))) < 1e-9


def test_joint_usd_bound_shape_over_k():
    # The bound is non-increasing in k, strictly decreasing from k to k+2,
    # and exactly equal for the (2m-1, 2m) pairs, so adjacent steps are
    # not strict; the equal pairs are pinned in test_joint_usd_bound_pairs_are_equal.
    for theta in (0.2, math.pi / 4):
        bounds = [joint_usd_bound(theta, k) for k in range(1, 9)]
        for a, b in zip(bounds, bounds[1:]):
            assert b <= a + 1e-8
        for a, b in zip(bounds, bounds[2:]):
            assert b < a - 1e-6 * a  # genuine decline every two steps


def _mp_sqrt_psd(matrix):
    # eigen-based square root: mp.sqrtm fails on these singular matrices
    values, vectors = mpmath.eigsy(matrix)
    roots = mpmath.diag([mpmath.sqrt(max(v, 0)) for v in values])
    return vectors * roots * vectors.T


def _mp_parity_fidelity(theta, k):
    """F(rho_even, rho_odd) from dense real matrices at 40 digits."""
    c, s = mpmath.cos(theta), mpmath.sin(theta)
    dim = 2 ** k
    mixtures = [mpmath.zeros(dim, dim), mpmath.zeros(dim, dim)]
    for word in range(dim):
        amps = mpmath.matrix([1])
        for i in range(k):
            qubit = mpmath.matrix([c, s] if word >> i & 1 else [1, 0])
            amps = mpmath.matrix([a * q for a in amps for q in qubit])
        parity = bin(word).count("1") % 2
        mixtures[parity] = mixtures[parity] + amps * amps.T / 2 ** (k - 1)
    even, odd = mixtures
    root = _mp_sqrt_psd(even)
    values, _ = mpmath.eigsy(root * odd * root)
    return sum(mpmath.sqrt(max(v, 0)) for v in values)


def _mp_joint_sum(theta, k):
    c = mpmath.cos(theta)
    return sum(
        mpmath.binomial(k, w) * (1 + c) ** min(w, k - w) * (1 - c) ** max(w, k - w)
        for w in range(k + 1)
    ) / mpmath.mpf(2) ** k


def test_joint_usd_bound_matches_high_precision_dense_fidelity():
    with mpmath.workdps(40):
        for theta in (0.284, math.pi / 4, 1.2):
            for k in range(1, 4):
                reference = 1 - _mp_parity_fidelity(mpmath.mpf(theta), k)
                assert abs(joint_usd_bound(theta, k) - float(reference)) < 1e-15


def test_joint_usd_bound_matches_high_precision_sum_for_every_plannable_k():
    with mpmath.workdps(40):
        for theta in (0.05, 0.284, math.pi / 4, 1.2, 1.5):
            for k in range(1, planner.MAX_SUBSTRINGS + 1):
                reference = float(_mp_joint_sum(mpmath.mpf(theta), k))
                assert joint_usd_bound(theta, k) == pytest.approx(reference, rel=1e-12, abs=0)


def test_joint_usd_bound_matches_dense_fidelity():
    for theta in (0.2, 0.284, math.pi / 4, 1.2):
        for k in range(1, 9):
            pair = parity_mixtures(theta, k)
            dense = 1.0 - fidelity(pair.rho_even, pair.rho_odd)
            assert abs(joint_usd_bound(theta, k) - dense) < 1e-11


def test_joint_usd_bound_pairs_are_equal():
    for theta in (0.05, 0.284, math.pi / 4, 1.5):
        for m in range(1, planner.MAX_SUBSTRINGS // 2 + 1):
            odd_k, even_k = joint_usd_bound(theta, 2 * m - 1), joint_usd_bound(theta, 2 * m)
            assert even_k == pytest.approx(odd_k, rel=1e-15, abs=0)


def test_joint_usd_bound_capacity():
    assert joint_usd_bound(0.5, planner.MAX_SUBSTRINGS) > 0.0
    for k in (0, planner.MAX_SUBSTRINGS + 1):
        with pytest.raises(CapacityError):
            joint_usd_bound(0.5, k)
    with pytest.raises(DomainError):
        joint_usd_bound(0.0, 3)


def test_joint_usd_bound_dominates_independent_attacks():
    for theta in (0.2, 0.5, math.pi / 4, 1.1):
        for k in range(1, 7):
            assert joint_usd_bound(theta, k) >= (1 - math.cos(theta)) ** k - 1e-9


def test_attack_metrics_nondecreasing_in_theta():
    grid = np.linspace(0.1, math.pi / 2 - 0.1, 12)
    for k in (1, 2, 3):
        helstrom = [helstrom_guess(t, k) for t in grid]
        assert all(b >= a for a, b in zip(helstrom, helstrom[1:]))
        joint = [joint_usd_bound(t, k) for t in grid]
        assert all(b >= a - 1e-9 for a, b in zip(joint, joint[1:]))
    individual = [1 - math.cos(t) for t in grid]
    assert all(b >= a for a, b in zip(individual, individual[1:]))


# --- sender-side conclusiveness attack ----------------------------------------------


def test_bob_attack_conclusive_rate():
    report = bob_conclusiveness_attack(
        math.pi / 4, True, trials=10 ** 5, rng=np.random.default_rng(4)
    )
    assert report.analytic == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-12)
    assert abs(report.estimate - report.analytic) <= 4 * report.sigma


def test_bob_attack_inconclusive_rate():
    report = bob_conclusiveness_attack(
        math.pi / 4, False, trials=10 ** 5, rng=np.random.default_rng(5)
    )
    assert report.analytic == pytest.approx(math.sin(math.pi / 8) ** 2, abs=1e-12)
    assert abs(report.estimate - report.analytic) <= 4 * report.sigma


def test_bob_attack_learns_nothing_about_bit_value():
    # analytic: both conclusive branches carry equal Born weight
    for theta in (0.3, math.pi / 4, 1.2):
        weights = conclusive_branch_weights(theta, want_conclusive=True)
        assert weights[0] == pytest.approx(weights[1], abs=1e-12)
        assert weights[0] + weights[1] == pytest.approx(
            math.cos(theta / 2) ** 2, abs=1e-12
        )
    # statistical: inferred bit is uniform given conclusive
    report = bob_conclusiveness_attack(
        math.pi / 4, True, trials=2 * 10 ** 5, rng=np.random.default_rng(6)
    )
    hits = report.extra["conclusive_count"]
    ones = report.extra["inferred_ones"]
    sigma = math.sqrt(0.25 / hits)
    assert abs(ones / hits - 0.5) <= 4 * sigma


def test_bob_attack_steers_more_than_honest_rate():
    # conclusiveness steering beats the honest p = sin^2/2 for small theta
    for theta in (0.3, 0.6):
        p_honest = planner.conclusive_probability(theta)
        assert math.cos(theta / 2) ** 2 > p_honest


# --- figure data ----------------------------------------------------------------------


def test_fig3_series_values_and_ordering():
    doc = fig_data("F3")
    by_label = {s["label"]: s for s in doc["series"]}
    usd = by_label["usd"]
    projective = by_label["projective"]
    grid = usd["x"]
    assert np.array_equal(projective["x"], grid)
    np.testing.assert_allclose(usd["y"], 1.0 - np.cos(grid), rtol=0, atol=1e-12)
    np.testing.assert_allclose(projective["y"], np.sin(grid) ** 2 / 2.0, rtol=0, atol=1e-12)
    # pi/4 lies between grid points 0.78 and 0.79
    assert np.interp(math.pi / 4, grid, usd["y"]) == pytest.approx(0.2929, abs=5e-5)
    assert np.interp(math.pi / 4, grid, projective["y"]) == pytest.approx(0.25, abs=1e-7)
    assert np.all(usd["y"] >= projective["y"] - 1e-12)


def test_fig4_series_shapes():
    doc = fig_data("F4", n_items=50000)
    labels = [s["label"] for s in doc["series"]]
    assert any("theta=0.785" in lab for lab in labels)
    assert any(lab.startswith("expected_bits") for lab in labels)
    for series in doc["series"]:
        if series["label"].startswith("theta="):
            y = series["y"]
            assert all(b <= a + 1e-8 for a, b in zip(y, y[1:]))


def test_fig5_reference_value():
    doc = fig_data("F5")
    ref = [s for s in doc["series"] if s["label"] == "reference_pi_over_4"][0]
    assert ref["y"][0] == pytest.approx(0.85355, abs=5e-5)


def test_fig_data_rejects_unknown():
    with pytest.raises(DomainError):
        fig_data("F9")


# --- report serialization ---------------------------------------------------------------


def test_attack_report_serialization():
    report = AttackReport(
        kind="demo",
        analytic=0.5,
        estimate=0.49,
        sigma=0.01,
        trials=100,
        params={"theta": 0.3},
        extra={"note": 1},
    )
    doc = json.loads(report.to_json())
    assert doc["kind"] == "demo"
    assert doc["params"]["theta"] == 0.3
    csv = report.to_csv()
    assert csv.splitlines()[0] == "field,value"
    assert "params.theta,0.3" in csv
    assert "note,1" in csv
