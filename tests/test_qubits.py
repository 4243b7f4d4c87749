import math
import tracemalloc

import numpy as np
import pytest
from oracles import basis_states, overlap, projector

from qpqsim import planner
from qpqsim.errors import CapacityError, DomainError
from qpqsim.qubits import (
    MAX_DENSITY_DIM,
    AttackLabel,
    Basis,
    CarrierLabel,
    DensityMatrix,
    attack_state,
    born_outcome0_tables,
    carrier_state,
    fidelity,
    trace_distance,
)

THETA_GRID = np.linspace(0.001, math.pi / 2 - 0.001, 100)


def state(*amps):
    return np.array(amps, dtype=complex)


def density(label, theta):
    return DensityMatrix(projector(carrier_state(label, theta)))


def test_carrier_state_symmetric_case_is_plus():
    psi = carrier_state(CarrierLabel.K0P, math.pi / 4)
    assert psi == pytest.approx(np.array([1, 1]) / math.sqrt(2))


def test_carrier_state_k0_independent_of_theta():
    for theta in (0.1, 0.7, 1.5):
        assert carrier_state(CarrierLabel.K0, theta) == pytest.approx([1.0, 0.0])


def test_carrier_state_k1p_components():
    psi = carrier_state(CarrierLabel.K1P, 0.354)
    assert psi[0].real == pytest.approx(math.sin(0.354), abs=1e-12)
    assert psi[1].real == pytest.approx(-math.cos(0.354), abs=1e-12)
    assert psi[0].real == pytest.approx(0.3466, abs=1e-4)
    assert psi[1].real == pytest.approx(-0.9380, abs=1e-4)


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, -0.3, 3.0])
def test_carrier_state_rejects_theta_outside_open_interval(theta):
    with pytest.raises(DomainError):
        carrier_state(CarrierLabel.K0P, theta)
    with pytest.raises(DomainError):
        attack_state(AttackLabel.A0PP, theta)


def test_attack_state_values():
    # just inside the open interval: amplitudes approach (cos, sin)(pi/4)
    psi = attack_state(AttackLabel.A0PP, math.pi / 2 - 1e-12)
    assert psi == pytest.approx(
        [math.cos(math.pi / 4), math.sin(math.pi / 4)], abs=1e-9
    )
    psi2 = attack_state(AttackLabel.A0PP, math.pi / 4)
    assert psi2[0].real == pytest.approx(math.cos(math.pi / 8), abs=1e-12)
    assert psi2[1].real == pytest.approx(math.sin(math.pi / 8), abs=1e-12)
    psi3 = attack_state(AttackLabel.A1PP, math.pi / 4)
    assert psi3[0].real == pytest.approx(math.sin(math.pi / 8), abs=1e-12)
    assert psi3[1].real == pytest.approx(-math.cos(math.pi / 8), abs=1e-12)


def test_label_coding_and_declaration_letters():
    assert [lab.coded_bit for lab in CarrierLabel] == [0, 0, 1, 1]
    assert [lab.declaration_letter for lab in CarrierLabel] == [0, 1, 0, 1]


def test_normalization_and_orthogonality_across_theta_grid():
    for theta in THETA_GRID:
        for label in CarrierLabel:
            norm = np.sum(np.abs(carrier_state(label, theta)) ** 2)
            assert abs(norm - 1.0) <= 1e-12
        primed0 = carrier_state(CarrierLabel.K0P, theta)
        primed1 = carrier_state(CarrierLabel.K1P, theta)
        assert abs(overlap(primed0, primed1)) <= 1e-12
        a0 = attack_state(AttackLabel.A0PP, theta)
        a1 = attack_state(AttackLabel.A1PP, theta)
        assert abs(overlap(a0, a1)) <= 1e-12


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
            assert p == pytest.approx(abs(overlap(b0, psi)) ** 2, abs=1e-12)


def per_state_born_table(theta):
    """The Born table built from one amplitude row per carrier and per
    outcome-0 basis state, one inner product at a time."""
    c, s = np.cos(theta), np.sin(theta)
    carriers = (state(1.0, 0.0), state(0.0, 1.0), state(c, s), state(s, -c))
    outcome0 = (state(1.0, 0.0), state(c, s))
    table = np.empty((4, 2))
    for label, psi in enumerate(carriers):
        for basis, b0 in enumerate(outcome0):
            table[label, basis] = abs(np.vdot(b0, psi)) ** 2
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
    for entries in (np.full((2, 3), 1 / 3), np.array([0.5, 0.5])):
        with pytest.raises(DomainError, match="density matrix must be square"):
            DensityMatrix(entries)
    with pytest.raises(DomainError, match="density matrix has a negative eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]))  # Hermitian, unit trace


def test_over_cap_density_matrix_is_rejected_before_any_copy():
    # a zero-copy float view: a complex copy taken before the cap check
    # would hold 16 bytes per entry, 268 MB at this dimension
    dim = MAX_DENSITY_DIM + 1
    entries = np.broadcast_to(1.0 / dim, (dim, dim))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"capped at dim {MAX_DENSITY_DIM}, got {dim}"):
            DensityMatrix(entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_density_matrix_keeps_the_dtype_of_its_input():
    # real entries stay float64, so the metrics run real eigensolvers on
    # them; complex entries stay complex128, whatever their values
    assert DensityMatrix(np.eye(2) / 2).entries.dtype == np.float64
    assert DensityMatrix(np.eye(2, dtype=np.float32) / 2).entries.dtype == np.float64
    assert DensityMatrix(np.eye(2, dtype=complex) / 2).entries.dtype == np.complex128
    entries = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    rho = DensityMatrix(entries)
    assert rho.entries.dtype == np.complex128
    assert rho.entries.tobytes() == entries.tobytes()


@pytest.mark.parametrize(
    "entries",
    [
        np.array([[0.5, np.nan], [np.nan, 0.5]]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[np.inf, 0.0], [0.0, 0.5]]),  # inf - inf is NaN, with no warning
        np.array([[0.5, 0.25 + 2e-12], [0.25, 0.5]]),  # real, past HERMITIAN_TOL
        np.array([[0.5, 0.4j], [0.4j, 0.5]]),  # symmetric, not Hermitian
    ],
)
def test_density_matrix_rejects_nan_and_non_hermitian_entries(entries):
    with pytest.raises(DomainError, match="density matrix is not Hermitian"):
        DensityMatrix(entries)


def test_hermitian_check_passes_within_its_tolerance():
    entries = np.array([[0.5, 0.25 + 5e-13], [0.25, 0.5]])
    assert DensityMatrix(entries).entries is entries


def test_real_density_matrix_traces_at_most_two_and_a_half_times_its_input():
    # a complex copy and np.allclose's full-size temporaries traced 7 times
    # this 8 MiB input
    dim = 1024
    entries = np.eye(dim) / dim
    tracemalloc.start()
    try:
        DensityMatrix(entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * entries.nbytes, f"traced peak {peak / entries.nbytes:.2f} x the input"


def test_fidelity_pure_state_overlap():
    theta = 0.284
    rho = density(CarrierLabel.K0, theta)
    sigma = density(CarrierLabel.K0P, theta)
    assert fidelity(rho, sigma) == pytest.approx(math.cos(theta), abs=1e-12)
    assert fidelity(rho, sigma) == pytest.approx(0.95995, abs=5e-5)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)
    one = density(CarrierLabel.K1, theta)
    assert fidelity(rho, one) == pytest.approx(0.0, abs=1e-7)


def test_trace_distance_pure_qubit_pair():
    for theta in (0.1, 0.5, 1.2):
        rho = density(CarrierLabel.K0, theta)
        sigma = density(CarrierLabel.K0P, theta)
        assert trace_distance(rho, sigma) == pytest.approx(math.sin(theta), abs=1e-12)
        assert trace_distance(rho, rho) == 0.0
    rho = density(CarrierLabel.K0, 0.3)
    one = density(CarrierLabel.K1, 0.3)
    assert trace_distance(rho, one) == pytest.approx(1.0, abs=1e-12)


def test_metric_dimension_mismatch():
    rho = density(CarrierLabel.K0, 0.3)
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
            projector(carrier_state(CarrierLabel.K0, theta))
            + projector(carrier_state(CarrierLabel.K1, theta))
        )
        primed = 0.5 * (
            projector(carrier_state(CarrierLabel.K0P, theta))
            + projector(carrier_state(CarrierLabel.K1P, theta))
        )
        eye = np.eye(2) / 2
        assert np.max(np.abs(unprimed - eye)) < 1e-12
        assert np.max(np.abs(primed - eye)) < 1e-12
