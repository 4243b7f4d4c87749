"""Dishonest-party models: receiver-side attacks on database secrecy and
the sender-side conclusiveness attack on user privacy.

A dishonest receiver can store photons and measure after the letter
announcement: unambiguous discrimination of the announced pair succeeds
with probability 1 - cos(theta) per photon, and joint strategies on the k
photons behind one final-key bit are bounded by the Helstrom guessing
probability 1/2 + sin^k(theta)/2 or the parity-pair USD bound 1 - F =
2^-k sum_w C(k,w) (1+c)^min(w,k-w) (1-c)^max(w,k-w) with c = cos(theta). A
dishonest sender substitutes half-angle states to bias the receiver's
conclusiveness, at the price of losing the bit value entirely. Both Monte
Carlo attacks sift and fold with the session's sift_batch and _fold.
"""

import io
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import protocol
from ._kernels import conclusiveness_trials, usd_trials
from .errors import CapacityError, DomainError
from .planner import MAX_SUBSTRINGS
from .qubits import (
    CarrierLabel,
    DensityMatrix,
    _attack_amps,
    _born_weights,
    _carrier_amps,
    _check_theta,
    _outcome0_vectors,
    fidelity,  # re-exported: perfbench/test_bench.py checks attacks.fidelity
)

MAX_JOINT_QUBITS = 10
DEFAULT_TRIALS = 10 ** 6


def _check_k(substrings, cap=MAX_JOINT_QUBITS):
    if not 1 <= substrings <= cap:
        raise CapacityError(f"substring count must lie in [1, {cap}], got {substrings}")


@dataclass(frozen=True)
class ParityPair:
    """Uniform mixtures over the even- and odd-parity k-fold products of
    the announced letter pair (unprimed for bit 0, primed for bit 1)."""

    rho_even: DensityMatrix
    rho_odd: DensityMatrix


def parity_mixtures(theta, substrings):
    """Dense pair (A^(x)k +- D^(x)k) / 2^k, A = P0 + P0', D = P0 - P0': D^(x)k
    sums every k-fold product projector with the sign of its parity. Both
    are float64: the carriers K0 and K0' are real."""
    _check_theta(theta)
    _check_k(substrings)
    zero, primed = _outcome0_vectors(theta)  # (1, 0) and (cos, sin)
    p0, p1 = np.outer(zero, zero), np.outer(primed, primed)
    total = diff = np.ones((1, 1))
    for _ in range(substrings):  # halving is exact, so this is A^(x)k / 2^k to the bit
        total, diff = np.kron(total, (p0 + p1) / 2), np.kron(diff, (p0 - p1) / 2)
    odd = total - diff
    total += diff
    del diff  # so at most three 2^k x 2^k arrays are alive while both are checked
    return ParityPair(rho_even=DensityMatrix(total), rho_odd=DensityMatrix(odd))


def helstrom_guess(theta, substrings):
    """Best minimum-error guess of one final-key bit from its k photons:
    1/2 + sin^k(theta)/2, i.e. 1/2 + (trace distance of the parity pair)/2."""
    _check_theta(theta)
    if substrings < 1:
        raise DomainError("substring count must be >= 1")
    return 0.5 + 0.5 * math.sin(theta) ** substrings


def joint_usd_bound(theta, substrings):
    """Upper bound on unambiguously reading one final-key bit from its k
    photons, 1 - F(rho_even, rho_odd), for 1 <= k <= MAX_SUBSTRINGS:

        1 - F = 2^-k sum_{w=0..k} C(k,w) (1+c)^min(w,k-w) (1-c)^max(w,k-w)

    with c = cos(theta). Derivation: rho_even = X X^+ and rho_odd = Y Y^+,
    where the columns of X and Y are the even- and odd-parity product
    states scaled by 2^-(k-1)/2, so F = ||X^+ Y||_1 (Uhlmann). X^+ Y is the
    even-odd block of G / 2^(k-1), G = c^|s xor t|; the Walsh-Hadamard
    characters u diagonalise G with eigenvalues (1+c)^(k-|u|) (1-c)^|u|,
    and pairing u with its complement gives the block's singular values,
    |lambda_u - lambda_ubar| / 2^k. All terms of 1 - F are positive, so
    nothing cancels; it is summed with (1 +- c)/2 = cos^2, sin^2(theta/2).
    """
    _check_theta(theta)
    _check_k(substrings, MAX_SUBSTRINGS)
    near, far = math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2
    k = substrings
    return math.fsum(
        math.comb(k, w) * near ** min(w, k - w) * far ** max(w, k - w)
        for w in range(k + 1)
    )


# --- Monte Carlo realizations -------------------------------------------------


@dataclass
class AttackReport:
    kind: str
    analytic: float
    estimate: float
    sigma: float
    trials: int
    params: dict
    extra: dict = field(default_factory=dict)

    def to_dict(self):
        doc = asdict(self)
        doc.update(doc.pop("extra"))
        return doc

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_csv(self):
        return dict_to_csv(self.to_dict())


def _rounds(trials, per_trial):
    """Slices of the raw photons, one per round a Monte Carlo attack
    draws and counts: whole trials of per_trial photons, at most
    protocol.ROUND photons unless one trial alone is longer. The
    generator reads the same stream for any round size."""
    total = trials * per_trial
    step = max(1, protocol.ROUND // per_trial) * per_trial
    for start in range(0, total, step):
        yield slice(start, min(start + step, total))


def _coins(rng, count):
    """count fair coins as the Bits whose body is one read of
    ceil(count / 8) bytes. Generator.bytes serves any bit generator, where
    raw words need not fill 64 bits (MT19937's are 32)."""
    size = protocol.Bits.body_size(count)
    return protocol.Bits(count, np.frombuffer(rng.bytes(size), dtype=np.uint8))


def alice_individual_usd(n_items, theta, substrings, trials=DEFAULT_TRIALS, rng=None):
    """Store-and-discriminate attack, one photon at a time.

    Analytic expectation of known final bits: N (1 - cos theta)^k. The
    Monte Carlo draws the true letter-pair member per raw bit as a fair
    coin, all of them first and kept packed, one bit per raw photon. Then,
    one round at a time, it samples the discriminator's three outcomes at
    their Born weights from one uniform per photon, and counts final
    positions whose k contributors all succeeded, with protocol._fold.
    Wrong identifications are tallied; unambiguity demands exactly zero.
    """
    if n_items < 1 or substrings < 1 or trials < 1:
        raise DomainError("n_items, substrings and trials must all be >= 1")
    _check_theta(theta)
    rng = rng if rng is not None else np.random.default_rng(0)
    cos = math.cos(theta)

    # The optimal equal-prior discriminator of {|0>, |0'>}: the element
    # naming |0> projects on |1'>, orthogonal to |0'>, and the one naming
    # |0'> on |1>, both scaled so either input succeeds with 1 - cos(theta).
    # Rows are the true bit (0 -> |0>, 1 -> |0'>), columns the named bit.
    carriers = _carrier_amps(theta)
    truths = carriers[[CarrierLabel.K0, CarrierLabel.K0P]]
    elements = carriers[[CarrierLabel.K1P, CarrierLabel.K1]]
    weights = 1.0 / (1.0 + cos) * _born_weights(truths, elements)
    p_right, p_wrong = weights.diagonal(), weights[[0, 1], [1, 0]]

    # every truth bit is drawn before the first discrimination uniform
    truth = _coins(rng, trials * substrings)
    wrong = known = 0
    for part in _rounds(trials, substrings):
        u = rng.random(part.stop - part.start)
        codes = usd_trials(u, truth.unpack(part.start, part.stop), p_wrong, p_right)
        wrong += int(np.count_nonzero(codes == 2))
        # substring-major like a raw key, so _fold ANDs each trial's k photons
        success = protocol.Bits.of((codes == 1).reshape(-1, substrings).T)
        all_known = protocol._fold(success, substrings, len(codes) // substrings, np.bitwise_and)
        known += int(np.bitwise_count(all_known.body).sum())
    q_hat = known / trials
    sigma_q = math.sqrt(max(q_hat * (1.0 - q_hat), 1e-300) / trials)

    analytic = n_items * (1.0 - cos) ** substrings
    return AttackReport(
        kind="individual_usd",
        analytic=analytic,
        estimate=n_items * q_hat,
        sigma=n_items * sigma_q,
        trials=trials,
        params={"theta": theta, "substrings": substrings, "n_items": n_items},
        extra={
            "per_photon_success": 1.0 - cos,
            "wrong_identifications": wrong,
        },
    )


def bob_conclusiveness_attack(theta, want_conclusive, trials=DEFAULT_TRIALS, rng=None):
    """Sender-side attack steering the receiver's conclusiveness.

    The sender transmits a half-angle state and announces the letter that
    makes a conclusive result as likely as possible (probability
    cos^2(theta/2)) or as unlikely as possible (sin^2(theta/2)). The
    receiver's honest measurement and protocol.sift_batch are simulated;
    the conditional distribution of her inferred bit is reported, and is
    uniform: the attack trades all bit-value knowledge for conclusiveness.

    Per trial the attack label and the receiver's basis are fair coins,
    all 2 * trials of them drawn first in one read (the labels, then the
    bases); the outcome takes one uniform per trial, drawn one round at
    a time.
    """
    _check_theta(theta)
    if trials < 1:
        raise DomainError("trials must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)

    # P(outcome 0 | attack state, basis): both half-angle states are
    # symmetric between the two conclusive branches.
    p0_attack = _born_weights(_attack_amps(theta), _outcome0_vectors(theta))

    coins = _coins(rng, 2 * trials)
    # kept round by round, as Receiver.absorb keeps them
    bases, outcomes = protocol.Bits(trials), protocol.Bits(trials)
    for part in _rounds(trials, 1):
        basis = coins.unpack(trials + part.start, trials + part.stop)
        bases.put(part.start, basis)
        outcomes.put(part.start, conclusiveness_trials(
            coins.unpack(part.start, part.stop), basis, rng.random(part.stop - part.start), p0_attack,
        ))
    # the letters are the labels, flipped to seek a conclusive result; their
    # pad bits, the first bases, count for nothing in sift_batch
    flip = 0xFF if want_conclusive else 0
    letters = protocol.Bits(trials, coins.body[:protocol.Bits.body_size(trials)] ^ flip)
    mask, bits = protocol.sift_batch(bases, outcomes, letters)
    hits = int(np.bitwise_count(mask.body).sum())
    ones = int(np.bitwise_count(bits.body).sum())
    rate = hits / trials
    sigma = math.sqrt(max(rate * (1.0 - rate), 1e-300) / trials)

    half = theta / 2.0
    analytic = math.cos(half) ** 2 if want_conclusive else math.sin(half) ** 2
    return AttackReport(
        kind="conclusiveness",
        analytic=analytic,
        estimate=rate,
        sigma=sigma,
        trials=trials,
        params={"theta": theta, "want_conclusive": bool(want_conclusive)},
        extra={
            "conclusive_count": hits,
            "inferred_ones": ones,
            "inferred_one_fraction": ones / hits if hits else None,
        },
    )


# --- figure series -------------------------------------------------------------


def fig_data(which, n_items=None):
    """Plot-ready series for the security figures.

    F3: per-photon success of unambiguous discrimination (1 - cos theta)
    against the honest projective rate (sin^2 theta / 2).
    F4: joint parity-USD bound versus substring count for several theta,
    plus the expected known-final-bit count when n_items is given.
    F5: the steered conclusiveness probability cos^2(theta/2) with the
    symmetric-case (theta = pi/4) reference value.
    """
    grid = np.linspace(0.01, 1.56, 156)
    if which == "F3":
        return {
            "figure": "F3",
            "x_name": "theta",
            "series": [
                {"label": "usd", "x": grid, "y": 1.0 - np.cos(grid)},
                {"label": "projective", "x": grid, "y": np.sin(grid) ** 2 / 2.0},
            ],
        }
    if which == "F4":
        ks = np.arange(1, 9)
        series = []
        for theta in (0.2, 0.25, 0.3, math.pi / 4):
            bounds = np.array([joint_usd_bound(theta, int(k)) for k in ks])
            series.append({"label": f"theta={theta:.3f}", "x": ks, "y": bounds})
            if n_items is not None:
                label = f"expected_bits theta={theta:.3f} N={n_items}"
                series.append({"label": label, "x": ks, "y": n_items * bounds})
        return {"figure": "F4", "x_name": "substrings", "series": series}
    if which == "F5":
        return {
            "figure": "F5",
            "x_name": "theta",
            "series": [
                {"label": "p_conclusive", "x": grid, "y": np.cos(grid / 2.0) ** 2},
                {
                    "label": "reference_pi_over_4",
                    "x": np.array([math.pi / 4]),
                    "y": np.array([math.cos(math.pi / 8) ** 2]),
                },
            ],
        }
    raise DomainError(f"unknown figure {which!r}; expected F3, F4 or F5")


def _csv_num(value):
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def dict_to_csv(doc):
    """Flatten a report document into field,value rows; nested dicts
    become key.sub fields."""
    buf = io.StringIO()
    buf.write("field,value\n")
    for key, value in sorted(doc.items()):
        if isinstance(value, dict):
            for sub, v in sorted(value.items()):
                buf.write(f"{key}.{sub},{v}\n")
        else:
            buf.write(f"{key},{value}\n")
    return buf.getvalue()


def series_to_csv(doc):
    """Flatten a figure document into x,y[,label] CSV rows."""
    buf = io.StringIO()
    buf.write("label,x,y\n")
    for series in doc["series"]:
        for x, y in zip(series["x"], series["y"]):
            buf.write(f"{series['label']},{_csv_num(x)},{_csv_num(y)}\n")
    return buf.getvalue()


def series_to_json(doc):
    out = {
        "figure": doc["figure"],
        "x_name": doc.get("x_name"),
        "series": [
            {
                "label": s["label"],
                "x": [float(v) for v in s["x"]],
                "y": [float(v) for v in s["y"]],
            }
            for s in doc["series"]
        ],
    }
    return json.dumps(out, sort_keys=True)
