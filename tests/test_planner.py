import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpqsim
from qpqsim import planner
from qpqsim.errors import DomainError, InfeasibleError


def test_conclusive_probability_values():
    assert planner.conclusive_probability(math.pi / 4) == pytest.approx(0.25, abs=1e-12)
    assert planner.conclusive_probability(0.354) == pytest.approx(0.06, abs=5e-4)
    assert planner.conclusive_probability(1e-6) == pytest.approx(0.0, abs=1e-9)
    for bad in (0.0, math.pi / 2, -1.0):
        with pytest.raises(DomainError):
            planner.conclusive_probability(bad)


def test_expected_known_bits_reference_cells():
    assert planner.expected_known_bits(10 ** 3, 0.15, 3) == pytest.approx(3.38, abs=0.01)
    assert planner.expected_known_bits(5 * 10 ** 4, 0.15, 5) == pytest.approx(3.79, abs=0.01)
    assert planner.expected_known_bits(123, 0.2, 1) == pytest.approx(123 * 0.2, abs=1e-12)


def test_failure_probability_reference_cells():
    assert planner.failure_probability(10 ** 3, 0.15, 3) == pytest.approx(0.034, abs=5e-4)
    assert planner.failure_probability(10 ** 6, 0.15, 6) == pytest.approx(1.13e-5, rel=1e-3)
    assert planner.failure_probability(100, 0.05, 1) == pytest.approx(0.00592, abs=5e-5)


def test_solve_theta_reference_cells():
    assert planner.solve_theta(100, 1, 3) == pytest.approx(0.247, abs=5e-4)
    assert planner.solve_theta(1000, 1, 5) == pytest.approx(0.100, abs=5e-4)
    assert planner.solve_theta(12, 1, 3) == pytest.approx(math.pi / 4, abs=1e-12)


def test_solve_theta_infeasible_target():
    with pytest.raises(InfeasibleError, match="p <= 1/2"):
        planner.solve_theta(10, 1, 9)


@settings(max_examples=200, deadline=None)
@given(
    n_items=st.integers(min_value=2, max_value=10 ** 6),
    substrings=st.integers(min_value=1, max_value=8),
    frac=st.floats(min_value=1e-6, max_value=0.9),
)
def test_round_trip_theta_solution(n_items, substrings, frac):
    target = frac * n_items * 0.5 ** substrings  # always feasible
    theta = planner.solve_theta(n_items, substrings, target)
    p = planner.conclusive_probability(theta)
    assert planner.expected_known_bits(n_items, p, substrings) == pytest.approx(
        target, rel=1e-9
    )


def test_monotonicity_in_theta_and_k():
    thetas = np.linspace(0.05, math.pi / 4, 40)
    values = [
        planner.expected_known_bits(1000, planner.conclusive_probability(t), 2)
        for t in thetas
    ]
    assert all(b > a for a, b in zip(values, values[1:]))
    failures = [
        planner.failure_probability(1000, planner.conclusive_probability(t), 2)
        for t in thetas
    ]
    assert all(b < a for a, b in zip(failures, failures[1:]))
    by_k = [
        planner.expected_known_bits(1000, 0.2, k) for k in range(1, 9)
    ]
    assert all(b < a for a, b in zip(by_k, by_k[1:]))


def test_plan_min_k_reference_cases():
    plan = planner.plan_min_k(10 ** 4, 3, 0.2)
    assert plan.substrings == 3
    assert plan.theta == pytest.approx(0.375, abs=5e-4)
    plan = planner.plan_min_k(10 ** 6, 3, 0.2)
    assert plan.substrings == 4
    assert plan.theta == pytest.approx(0.293, abs=5e-4)
    plan = planner.plan_min_k(12, 3, 0.2)
    assert plan.substrings == 1
    assert plan.theta == pytest.approx(math.pi / 4, abs=1e-9)


def test_plan_min_k_is_minimal_and_windowed():
    for n_items in (10 ** 3, 10 ** 4, 10 ** 5):
        plan = planner.plan_min_k(n_items, 3, 0.2)
        assert 0.2 - 1e-9 <= plan.theta <= math.pi / 4 + 1e-9
        for smaller in range(1, plan.substrings):
            try:
                theta = planner.solve_theta(n_items, smaller, 3)
            except InfeasibleError:
                continue
            assert not (0.2 - 1e-9 <= theta <= math.pi / 4 + 1e-9)


def test_plan_min_k_errors():
    with pytest.raises(DomainError):
        planner.plan_min_k(1000, 3, 0.0)
    with pytest.raises(InfeasibleError):
        # even k=64 cannot push theta above the floor for a tiny target
        planner.plan_min_k(2, 1.999999, 0.78, theta_max=math.pi / 4)


def test_plan_min_k_lifted_cap_enters_large_theta_regime():
    # a large known-bit target needs theta > pi/4, reachable only when the
    # security cap is lifted (lower sender-guessing-probability regime)
    with pytest.raises(InfeasibleError):
        planner.plan_min_k(100, 40, 0.2)
    plan = planner.plan_min_k(100, 40, 0.2, theta_max=math.pi / 2 - 1e-9)
    assert plan.substrings == 1
    assert plan.theta == pytest.approx(math.asin(math.sqrt(0.8)), abs=1e-12)
    assert plan.theta > math.pi / 4


def test_plan_result_internal_consistency():
    plan = planner.plan_min_k(5 * 10 ** 4, 3, 0.2)
    assert plan.conclusive_p == pytest.approx(
        planner.conclusive_probability(plan.theta), abs=1e-12
    )
    assert plan.expected_known == pytest.approx(
        planner.expected_known_bits(plan.n_items, plan.conclusive_p, plan.substrings),
        abs=1e-12,
    )
    assert plan.restart_probability == pytest.approx(
        planner.failure_probability(plan.n_items, plan.conclusive_p, plan.substrings),
        abs=1e-12,
    )


def test_package_import_leaves_scipy_stats_unloaded():
    # scipy.stats is slow to import and only known_count_distribution uses it
    src = os.path.dirname(os.path.dirname(qpqsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, qpqsim, qpqsim.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "False"


def test_known_count_distribution_identities():
    dist = planner.known_count_distribution(1000, 0.15, 3)
    assert dist.binomial[0] == pytest.approx(
        planner.failure_probability(1000, 0.15, 3), abs=1e-12
    )
    assert dist.binomial.sum() >= 1 - 1e-12
    assert dist.total_variation() < 0.01
    bern = planner.known_count_distribution(1, 0.3, 2)
    assert bern.binomial[0] == pytest.approx(1 - 0.09, abs=1e-12)
    assert bern.binomial[1] == pytest.approx(0.09, abs=1e-12)


def test_table_t1_values():
    table = planner.table_generator("T1")
    assert table.rows["k"] == (3, 4, 4, 5, 5, 6)
    for got, want in zip(table.rows["n_bar"], (3.38, 2.53, 5.06, 3.79, 7.59, 11.39)):
        assert got == pytest.approx(want, abs=0.01)


def test_table_t2_t3_values():
    t2 = planner.table_generator("T2")
    for got, want in zip(
        t2.rows["theta"], (0.785, 0.354, 0.247, 0.174, 0.110, 0.078, 0.035)
    ):
        assert got == pytest.approx(want, abs=5e-4)
    t3 = planner.table_generator("T3")
    for got, want in zip(
        t3.rows["theta"], (0.785, 0.464, 0.322, 0.226, 0.142, 0.100, 0.045)
    ):
        assert got == pytest.approx(want, abs=5e-4)
    for got, want in zip(
        t3.rows["P0"], (0.003, 0.005, 0.005, 0.006, 0.006, 0.006, 0.006)
    ):
        assert got == pytest.approx(want, abs=1e-3)


def test_table_t4_values():
    t4 = planner.table_generator("T4")
    assert t4.rows["k"] == (2, 2, 3, 3, 3, 4)
    for got, want in zip(t4.rows["theta"], (0.337, 0.223, 0.375, 0.284, 0.252, 0.293)):
        assert got == pytest.approx(want, abs=5e-4)


def test_check_tables_is_clean():
    assert planner.check_tables() == []


def test_table_serialization_shapes():
    table = planner.table_generator("T1")
    csv = table.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0].startswith("N,1000,5000")
    assert len(lines) == 1 + len(table.rows)
    doc = table.to_json()
    assert '"table": "T1"' in doc


def test_unknown_table_rejected():
    with pytest.raises(DomainError):
        planner.table_generator("T9")


def test_flexibility_series_hits_target_exactly():
    doc = planner.flexibility_series(target_known=3.0)
    assert doc["series"], "expected at least one curve"
    for series in doc["series"]:
        k = int(series["label"].split("=")[1])
        for n, theta in zip(series["x"], series["y"]):
            p = planner.conclusive_probability(float(theta))
            assert n * p ** k == pytest.approx(3.0, abs=1e-9)


def test_tradeoff_series_hits_targets_exactly():
    doc = planner.tradeoff_series(n_items=10 ** 4)
    for series in doc["series"]:
        k = int(series["label"].split("=")[1])
        for target, theta in zip(series["x"], series["y"]):
            p = planner.conclusive_probability(float(theta))
            assert 10 ** 4 * p ** k == pytest.approx(float(target), abs=1e-9)
