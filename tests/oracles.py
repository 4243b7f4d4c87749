"""Reference implementations the tests check the package against.

Nothing in qpqsim calls these: the scalar sift is the per-photon verdict
that sift_batch vectorizes, the retention rule in index form is what the
parties' loss-flag masks select, the per-position fold is what
xor_compress computes from whole bytes, the known-count law is the exact
distribution the session statistics are tested against, and the branch
weights, basis states and overlaps spell out by hand what the package
computes from tables.
scipy is imported only inside known_count_distribution, so importing this
module loads no scipy.stats.
"""

import math
from dataclasses import dataclass

import numpy as np

from qpqsim.planner import _check_args
from qpqsim.qubits import (
    AttackLabel,
    Basis,
    CarrierLabel,
    StateVector,
    _check_theta,
    attack_state,
    carrier_state,
)


def sift(basis, outcome, declaration):
    """Interpret one measurement against the announced letter.

    The announcement narrows the carrier to two candidates: the unprimed
    letter state (coded bit 0) and its primed partner (coded bit 1). The
    observed eigenstate is orthogonal to exactly one candidate when the
    outcome index differs from the announced letter; the surviving
    candidate's coded bit is then certain. Returns that bit, or None when
    both candidates remain consistent. The scalar reference for sift_batch.
    """
    if outcome == declaration:
        return None
    return 1 if Basis(basis) is Basis.B else 0


def retain_indices(received, missing):
    """The retention rule in index form: the indices in the round of the
    first received photons, at most missing of them, and how many of the
    round's photons count as sent: up to the last retained one when the
    key completes in this round, else all of them."""
    idx = np.flatnonzero(received)[:missing]
    used = idx[-1] + 1 if idx.size == missing else len(received)
    return idx, int(used)


def xor_fold(truth, mask, alice, substrings, n_items):
    """The final key position by position: bit i is the XOR of raw bits
    i, N + i, ..., (k - 1)N + i, known when all k are conclusive, and the
    receiver's value is the XOR of hers there, 0 where unknown. Returns
    the three as lists of ints."""
    final = ([], [], [])
    for i in range(n_items):
        column = range(i, substrings * n_items, n_items)
        known = int(all(mask[j] for j in column))
        bit = value = 0
        for j in column:
            bit ^= int(truth[j])
            value ^= int(alice[j])
        for out, item in zip(final, (bit, known, value & known)):
            out.append(item)
    return final


@dataclass(frozen=True)
class KnownCountDistribution:
    """Exact Binomial(N, p^k) law of the known-bit count, with its Poisson
    companion, truncated once the binomial mass reaches 1 - 1e-12."""

    counts: np.ndarray
    binomial: np.ndarray
    poisson: np.ndarray

    def total_variation(self):
        return float(0.5 * np.sum(np.abs(self.binomial - self.poisson)))


def known_count_distribution(n_items, p, substrings):
    from scipy import stats  # slow to import, and only needed here
    _check_args(n_items, p, substrings)
    q = p ** substrings
    mean = n_items * q
    hi = int(min(n_items, max(10, math.ceil(mean + 12 * math.sqrt(mean + 1)))))
    counts = np.arange(hi + 1)
    binom = stats.binom.pmf(counts, n_items, q)
    while binom.sum() < 1.0 - 1e-12 and hi < n_items:
        hi = min(n_items, hi * 2)
        counts = np.arange(hi + 1)
        binom = stats.binom.pmf(counts, n_items, q)
    cut = int(np.searchsorted(np.cumsum(binom), 1.0 - 1e-12)) + 1
    cut = min(cut, counts.size)
    counts = counts[:cut]
    return KnownCountDistribution(
        counts=counts,
        binomial=binom[:cut],
        poisson=stats.poisson.pmf(counts, mean),
    )


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


def conclusive_branch_weights(theta, want_conclusive=True):
    """Born weights of the two conclusive branches under the sender attack;
    equal weights mean the inferred bit carries no information."""
    _check_theta(theta)
    psi = attack_state(AttackLabel.A0PP, theta)
    announce = 1 if want_conclusive else 0
    weights = {}
    for basis in Basis:
        states = basis_states(basis, theta)
        for outcome in (0, 1):
            if outcome == announce:
                continue  # inconclusive branch
            bit = 1 if basis is Basis.B else 0
            weights[bit] = 0.5 * abs(overlap(states[outcome], psi)) ** 2
    return weights


def overlap(left, right):
    """Inner product <left|right> of two StateVectors."""
    return complex(np.vdot(left.amps, right.amps))
