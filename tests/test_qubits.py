import math

import numpy as np
import pytest

from qpqsim import planner
from qpqsim.errors import CapacityError, DomainError
from qpqsim.qubits import (
    AttackLabel,
    Basis,
    CarrierLabel,
    DensityMatrix,
    StateVector,
    attack_state,
    basis_states,
    born_outcome0_tables,
    carrier_state,
    fidelity,
    trace_distance,
)

THETA_GRID = np.linspace(0.001, math.pi / 2 - 0.001, 100)


def state(*amps):
    return StateVector(np.array(amps, dtype=complex))


def test_carrier_state_symmetric_case_is_plus():
    psi = carrier_state(CarrierLabel.K0P, math.pi / 4)
    assert psi.amps == pytest.approx(np.array([1, 1]) / math.sqrt(2))


def test_carrier_state_k0_independent_of_theta():
    for theta in (0.1, 0.7, 1.5):
        assert carrier_state(CarrierLabel.K0, theta).amps == pytest.approx([1.0, 0.0])


def test_carrier_state_k1p_components():
    psi = carrier_state(CarrierLabel.K1P, 0.354)
    assert psi.amps[0].real == pytest.approx(math.sin(0.354), abs=1e-12)
    assert psi.amps[1].real == pytest.approx(-math.cos(0.354), abs=1e-12)
    assert psi.amps[0].real == pytest.approx(0.3466, abs=1e-4)
    assert psi.amps[1].real == pytest.approx(-0.9380, abs=1e-4)


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, -0.3, 3.0])
def test_carrier_state_rejects_theta_outside_open_interval(theta):
    with pytest.raises(DomainError):
        carrier_state(CarrierLabel.K0P, theta)
    with pytest.raises(DomainError):
        attack_state(AttackLabel.A0PP, theta)


def test_attack_state_values():
    # just inside the open interval: amplitudes approach (cos, sin)(pi/4)
    psi = attack_state(AttackLabel.A0PP, math.pi / 2 - 1e-12)
    assert psi.amps == pytest.approx(
        [math.cos(math.pi / 4), math.sin(math.pi / 4)], abs=1e-9
    )
    psi2 = attack_state(AttackLabel.A0PP, math.pi / 4)
    assert psi2.amps[0].real == pytest.approx(math.cos(math.pi / 8), abs=1e-12)
    assert psi2.amps[1].real == pytest.approx(math.sin(math.pi / 8), abs=1e-12)
    psi3 = attack_state(AttackLabel.A1PP, math.pi / 4)
    assert psi3.amps[0].real == pytest.approx(math.sin(math.pi / 8), abs=1e-12)
    assert psi3.amps[1].real == pytest.approx(-math.cos(math.pi / 8), abs=1e-12)


def test_label_coding_and_declaration_letters():
    assert [lab.coded_bit for lab in CarrierLabel] == [0, 0, 1, 1]
    assert [lab.declaration_letter for lab in CarrierLabel] == [0, 1, 0, 1]


def test_normalization_and_orthogonality_across_theta_grid():
    for theta in THETA_GRID:
        for label in CarrierLabel:
            norm = np.sum(np.abs(carrier_state(label, theta).amps) ** 2)
            assert abs(norm - 1.0) <= 1e-12
        primed0 = carrier_state(CarrierLabel.K0P, theta)
        primed1 = carrier_state(CarrierLabel.K1P, theta)
        assert abs(primed0.overlap(primed1)) <= 1e-12
        a0 = attack_state(AttackLabel.A0PP, theta)
        a1 = attack_state(AttackLabel.A1PP, theta)
        assert abs(a0.overlap(a1)) <= 1e-12


def test_statevector_validation():
    with pytest.raises(DomainError):
        state(1.0, 1.0)  # not normalized
    with pytest.raises(DomainError):
        StateVector(np.array([1.0, 0.0, 0.0], dtype=complex))  # dim 3


def test_born_statistics_all_label_basis_pairs():
    # empirical outcome-0 frequency within 4 sigma for each pair
    theta = 0.73
    p0 = born_outcome0_tables(theta)
    rng = np.random.default_rng(77)
    n = 10 ** 5
    for label in CarrierLabel:
        psi = carrier_state(label, theta)
        for basis in Basis:
            u = rng.random(n)
            freq = np.count_nonzero(u < p0[label, basis]) / n
            p = p0[label, basis]
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(freq - p) <= 4 * sigma
            b0, _ = basis_states(basis, theta)
            assert p == pytest.approx(abs(b0.overlap(psi)) ** 2, abs=1e-12)


def per_state_born_table(theta):
    """The Born table built from one validated StateVector per carrier and
    per outcome-0 basis state, as the package built it before."""
    c, s = np.cos(theta), np.sin(theta)
    carriers = (state(1.0, 0.0), state(0.0, 1.0), state(c, s), state(s, -c))
    outcome0 = (state(1.0, 0.0), state(c, s))
    table = np.empty((4, 2))
    for label, psi in enumerate(carriers):
        for basis, b0 in enumerate(outcome0):
            table[label, basis] = abs(np.vdot(b0.amps, psi.amps)) ** 2
    return table


def test_born_table_equals_per_state_construction():
    # bit for bit, so no session key changes: the T4 angles and a fine grid
    t4 = [planner.plan_min_k(n, planner.T4_TARGET, planner.T4_THETA_MIN).theta
          for n in planner.T4_SIZES]
    for theta in [*t4, *np.linspace(1e-6, math.pi / 2 - 1e-6, 2001)]:
        got = born_outcome0_tables(theta)
        assert got.tobytes() == per_state_born_table(theta).tobytes(), theta


def test_density_matrix_validation():
    with pytest.raises(DomainError):
        DensityMatrix(np.array([[0.5, 0.4], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(DomainError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(CapacityError):
        DensityMatrix(np.eye(2 ** 13) / 2 ** 13)


def test_fidelity_pure_state_overlap():
    theta = 0.284
    rho = carrier_state(CarrierLabel.K0, theta).density()
    sigma = carrier_state(CarrierLabel.K0P, theta).density()
    assert fidelity(rho, sigma) == pytest.approx(math.cos(theta), abs=1e-12)
    assert fidelity(rho, sigma) == pytest.approx(0.95995, abs=5e-5)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)
    one = carrier_state(CarrierLabel.K1, theta).density()
    assert fidelity(rho, one) == pytest.approx(0.0, abs=1e-7)


def test_trace_distance_pure_qubit_pair():
    for theta in (0.1, 0.5, 1.2):
        rho = carrier_state(CarrierLabel.K0, theta).density()
        sigma = carrier_state(CarrierLabel.K0P, theta).density()
        assert trace_distance(rho, sigma) == pytest.approx(math.sin(theta), abs=1e-12)
        assert trace_distance(rho, rho) == 0.0
    rho = carrier_state(CarrierLabel.K0, 0.3).density()
    one = carrier_state(CarrierLabel.K1, 0.3).density()
    assert trace_distance(rho, one) == pytest.approx(1.0, abs=1e-12)


def test_metric_dimension_mismatch():
    rho = carrier_state(CarrierLabel.K0, 0.3).density()
    big = DensityMatrix(np.eye(4) / 4)
    with pytest.raises(DomainError):
        fidelity(rho, big)
    with pytest.raises(DomainError):
        trace_distance(rho, big)


def _random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def test_fuchs_van_de_graaf_bounds():
    rng = np.random.default_rng(42)
    for dim in (2, 4, 8, 16):
        for _ in range(20):
            rho = _random_density(rng, dim)
            sigma = _random_density(rng, dim)
            f = fidelity(rho, sigma)
            d = trace_distance(rho, sigma)
            assert 1 - f <= d + 1e-9
            assert d <= math.sqrt(max(1 - f * f, 0.0)) + 1e-9


def test_pre_declaration_indistinguishability():
    # both letter mixtures equal the maximally mixed state, so loss
    # announcements before the declaration leak nothing
    for theta in THETA_GRID[::9]:
        unprimed = 0.5 * (
            carrier_state(CarrierLabel.K0, theta).density().entries
            + carrier_state(CarrierLabel.K1, theta).density().entries
        )
        primed = 0.5 * (
            carrier_state(CarrierLabel.K0P, theta).density().entries
            + carrier_state(CarrierLabel.K1P, theta).density().entries
        )
        eye = np.eye(2) / 2
        assert np.max(np.abs(unprimed - eye)) < 1e-12
        assert np.max(np.abs(primed - eye)) < 1e-12
