"""Exact finite-dimensional quantum state kernel.

Carrier and attack states as real (float64) amplitude rows, the one
helper that computes Born weights, the outcome tables built on it, and
the fidelity / trace-distance metrics used by the attack bounds. A
DensityMatrix keeps float64 for real entries and complex128 for complex
ones.
"""

from enum import IntEnum

import numpy as np

from .errors import CapacityError, DomainError

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


class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite operator."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = np.asarray(entries)  # the shape is checked before any copy
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DomainError("density matrix must be square")
        dim = entries.shape[0]
        if dim > MAX_DENSITY_DIM:
            raise CapacityError(
                f"density operators are capped at dim {MAX_DENSITY_DIM}, got {dim}"
            )
        entries = entries.astype(complex if np.iscomplexobj(entries) else float, copy=False)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, and NaN fails the check
            if not (abs(entries - entries.T.conj()) <= HERMITIAN_TOL).all():
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


def _carrier_amps(theta):
    """Rows K0, K1, K0', K1': the four carrier amplitude vectors."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([(1.0, 0.0), (0.0, 1.0), (c, s), (s, -c)])


def _attack_amps(theta):
    """Rows A0'', A1'': the two half-angle attack amplitude vectors."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([(c, s), (s, -c)])


def carrier_state(label, theta):
    """Amplitude row of one of the four carriers.

    The primed pair is rotated by theta against the computational pair and
    stays orthonormal for every theta.
    """
    _check_theta(theta)
    return _carrier_amps(theta)[CarrierLabel(label)]


def attack_state(which, theta):
    """Amplitude row of a half-angle state of the sender-side
    conclusiveness attack."""
    _check_theta(theta)
    return _attack_amps(theta)[AttackLabel(which)]


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


def _born_weights(states, vectors):
    """|<v|psi>|^2 for each state row psi (axis 0) and each outcome vector v
    (axis 1), as a C-contiguous float array: every Born weight of the
    package is computed here."""
    return np.array([[abs(np.vdot(v, psi)) ** 2 for v in vectors] for psi in states])


def _outcome0_vectors(theta):
    """The outcome-0 states of B and B', the K0 and K0' carriers."""
    return _carrier_amps(theta)[0::2]


def born_outcome0_tables(theta):
    """Probability of outcome 0 for every (carrier label, basis) pair.

    Returns a C-contiguous (4, 2) float array, the table behind the
    vectorized transmission kernel.
    """
    _check_theta(theta)
    return _born_weights(_carrier_amps(theta), _outcome0_vectors(theta))
