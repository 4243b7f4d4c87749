"""Exact finite-dimensional quantum state kernel.

Carrier and attack state construction, Born-rule outcome tables, and
the fidelity / trace-distance metrics used by the attack bounds. All
amplitudes are complex double precision; the states handled here happen
to be real-valued.
"""

from enum import IntEnum

import numpy as np

from .errors import CapacityError, DomainError

NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_FLOOR = -1e-10
MAX_DENSITY_DIM = 2 ** 12


class CarrierLabel(IntEnum):
    """The four carrier states. Unprimed labels code bit 0, primed code
    bit 1; the declaration letter says which of the two letter pairs the
    state belongs to."""

    K0 = 0   # |0>
    K1 = 1   # |1>
    K0P = 2  # |0'>
    K1P = 3  # |1'>

    @property
    def coded_bit(self):
        return self.value >> 1

    @property
    def declaration_letter(self):
        return self.value & 1


class AttackLabel(IntEnum):
    """The half-angle states a dishonest sender substitutes for carriers."""

    A0PP = 0  # |0''>
    A1PP = 1  # |1''>


class Basis(IntEnum):
    B = 0   # {|0>, |1>}
    BP = 1  # {|0'>, |1'>}


def _check_theta(theta):
    if not 0.0 < theta < np.pi / 2:
        raise DomainError(f"theta must lie in (0, pi/2), got {theta}")


class StateVector:
    """Normalized complex amplitude vector over a 2^m dimensional space."""

    __slots__ = ("amps",)

    def __init__(self, amps):
        amps = np.asarray(amps, dtype=complex)
        if amps.ndim != 1:
            raise DomainError("state amplitudes must be a flat vector")
        dim = amps.shape[0]
        if dim < 2 or dim & (dim - 1):
            raise DomainError(f"dimension must be a power of 2 >= 2, got {dim}")
        norm = np.sum(np.abs(amps) ** 2)
        if abs(norm - 1.0) > NORM_TOL:
            raise DomainError(f"state is not normalized: sum |a|^2 = {norm!r}")
        self.amps = amps

    @property
    def dim(self):
        return self.amps.shape[0]

    def overlap(self, other):
        """Inner product <self|other>."""
        return complex(np.vdot(self.amps, other.amps))

    def density(self):
        """Projector |psi><psi| as a DensityMatrix."""
        return DensityMatrix(np.outer(self.amps, self.amps.conj()))

    def __repr__(self):
        return f"StateVector({np.round(self.amps, 6)!r})"


class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite operator."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DomainError("density matrix must be square")
        dim = entries.shape[0]
        if dim > MAX_DENSITY_DIM:
            raise CapacityError(
                f"density operators are capped at dim {MAX_DENSITY_DIM}, got {dim}"
            )
        if not np.allclose(entries, entries.conj().T, rtol=0.0, atol=HERMITIAN_TOL):
            raise DomainError("density matrix is not Hermitian")
        trace = np.trace(entries).real
        if abs(trace - 1.0) > TRACE_TOL:
            raise DomainError(f"density matrix trace must be 1, got {trace!r}")
        if np.linalg.eigvalsh(entries).min() < PSD_FLOOR:
            raise DomainError("density matrix has a negative eigenvalue")
        self.entries = entries

    @property
    def dim(self):
        return self.entries.shape[0]

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def _carrier_amps(theta):
    """Rows K0, K1, K0', K1': the four carrier amplitude vectors."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([(1.0, 0.0), (0.0, 1.0), (c, s), (s, -c)], dtype=complex)


def carrier_state(label, theta):
    """Two-dimensional state vector for one of the four carriers.

    The primed pair is rotated by theta against the computational pair and
    stays orthonormal for every theta.
    """
    _check_theta(theta)
    return StateVector(_carrier_amps(theta)[CarrierLabel(label)])


def attack_state(which, theta):
    """Half-angle state used by the sender-side conclusiveness attack."""
    _check_theta(theta)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    if AttackLabel(which) is AttackLabel.A0PP:
        return StateVector(np.array([c, s], dtype=complex))
    return StateVector(np.array([s, -c], dtype=complex))


def basis_states(basis, theta):
    """The two orthonormal outcome states of a measurement basis."""
    if Basis(basis) is Basis.B:
        return (
            StateVector(np.array([1.0, 0.0], dtype=complex)),
            StateVector(np.array([0.0, 1.0], dtype=complex)),
        )
    return (
        carrier_state(CarrierLabel.K0P, theta),
        carrier_state(CarrierLabel.K1P, theta),
    )


def fidelity(rho, sigma):
    """Square-root fidelity F = tr sqrt(sqrt(rho) sigma sqrt(rho)).

    The non-squared convention: for pure states F equals |<psi|phi>|.
    Both eigensolves zero the eigenvalues below dim * eps * lambda_max, the
    rounding noise of rank-deficient inputs, before taking square roots.
    """
    if rho.dim != sigma.dim:
        raise DomainError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    w, v = np.linalg.eigh(rho.entries)
    sqrt_rho = (v * np.sqrt(_drop_noise(w))) @ v.conj().T
    ev = _drop_noise(np.linalg.eigvalsh(sqrt_rho @ sigma.entries @ sqrt_rho))
    return float(min(np.sum(np.sqrt(ev)), 1.0))


def _drop_noise(w):
    return np.where(w < w.size * np.finfo(float).eps * max(w.max(), 0.0), 0.0, w)


def trace_distance(rho, sigma):
    """Trace distance D = (1/2) sum |eigenvalues of rho - sigma|."""
    if rho.dim != sigma.dim:
        raise DomainError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    ev = np.linalg.eigvalsh(rho.entries - sigma.entries)
    return float(0.5 * np.sum(np.abs(ev)))


def born_outcome0_tables(theta):
    """Probability of outcome 0 for every (carrier label, basis) pair.

    Returns a C-contiguous (4, 2) float array, the table behind the
    vectorized transmission kernel.
    """
    _check_theta(theta)
    carriers = _carrier_amps(theta)
    table = np.empty((4, 2), dtype=np.float64)
    for label in CarrierLabel:
        for basis in Basis:
            # the outcome-0 states of B and B' are the K0 and K0' carriers
            b0 = carriers[2 * basis]
            table[label, basis] = abs(np.vdot(b0, carriers[label])) ** 2
    return table
