"""Honest two-party key distribution and the shifted one-time-pad query.

The sender (Bob) holds the database and prepares carrier photons; the
receiver (Alice) measures in a random basis, and the sender's public
letter announcement lets her decode a fraction p = sin^2(theta)/2 of the
retained photons with certainty. The retained coded bits form a raw key
of length k*N which is cut into k substrings and XOR-folded into the
N-bit final key; a single announced shift then aligns one of her known
bits with the database item she wants.

Randomness is split across three seeded streams (photon source, channel,
receiver measurement) plus a derived query stream, with a fixed number of
draws per photon, so results are independent of batch sizes and identical
between the in-process and wire engines.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import simulate_transmission
from .errors import (
    DomainError,
    EmptyKeyMaskError,
    InsufficientKeyError,
    ResourceError,
)
from .qubits import Basis, CarrierLabel, _check_theta, born_outcome0_tables

PHOTON_CAP = 10 ** 9  # safety cap per session attempt


@dataclass(frozen=True)
class SessionConfig:
    """Parameters fully determining one session."""

    n_items: int
    substrings: int
    theta: float
    loss_rate: float = 0.0
    # Bit-flip probability on the quantum channel. No error correction
    # exists for this kind of sparsely-known key, so noisy runs only feed
    # the public error-rate estimate.
    noise_rate: float = 0.0
    photon_batch: int | None = None
    source_seed: int = 1
    channel_seed: int = 2
    measure_seed: int = 3
    max_restarts: int = 20
    # Abort threshold for the estimated key error rate. Not part of the
    # protocol definition; exposed as a knob with a conventional default.
    error_threshold: float = 0.15

    def __post_init__(self):
        if self.n_items < 1:
            raise DomainError(f"database size must be >= 1, got {self.n_items}")
        if self.substrings < 1:
            raise DomainError(f"substring count must be >= 1, got {self.substrings}")
        _check_theta(self.theta)
        if not 0.0 <= self.loss_rate < 1.0:
            raise DomainError(f"loss rate must lie in [0, 1), got {self.loss_rate}")
        if not 0.0 <= self.noise_rate < 1.0:
            raise DomainError(f"noise rate must lie in [0, 1), got {self.noise_rate}")
        if self.max_restarts < 0:
            raise DomainError("max_restarts must be >= 0")
        if self.photon_batch is not None and self.photon_batch < 1:
            raise DomainError("photon_batch must be >= 1")

    @property
    def raw_length(self):
        return self.substrings * self.n_items

    def effective_batch(self):
        if self.photon_batch is not None:
            return self.photon_batch
        p = math.sin(self.theta) ** 2 / 2.0
        return int(math.ceil(2.0 * self.raw_length / p))

    def to_dict(self):
        return {
            "n_items": self.n_items,
            "substrings": self.substrings,
            "theta": self.theta,
            "loss_rate": self.loss_rate,
            "noise_rate": self.noise_rate,
            "photon_batch": self.photon_batch,
            "source_seed": self.source_seed,
            "channel_seed": self.channel_seed,
            "measure_seed": self.measure_seed,
            "max_restarts": self.max_restarts,
            "error_threshold": self.error_threshold,
        }


def stream(seed, attempt=0, tag=0):
    """Derived generator for one (seed, restart attempt, purpose) triple."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), attempt, tag]))


def query_stream(config, attempt=0):
    """Receiver-side stream for query-stage choices (known-index pick,
    error-rate sampling), independent of how many photons were measured."""
    return stream(config.measure_seed, attempt, tag=1)


# --- single-photon operations ------------------------------------------------


def bob_prepare(count, theta, rng):
    """Draw carrier labels i.i.d. uniform over the four states."""
    if count < 1:
        raise DomainError("count must be >= 1")
    _check_theta(theta)
    labels = (rng.random(count) * 4.0).astype(np.uint8)
    return [CarrierLabel(int(v)) for v in labels]


def channel_transmit(labels, loss_rate, rng):
    """Independent photon loss: each photon survives with probability 1 - loss."""
    if not 0.0 <= loss_rate < 1.0:
        raise DomainError(f"loss rate must lie in [0, 1), got {loss_rate}")
    return rng.random(len(labels)) >= loss_rate


def sift(basis, outcome, declaration):
    """Interpret one measurement against the announced letter.

    The announcement narrows the carrier to two candidates: the unprimed
    letter state (coded bit 0) and its primed partner (coded bit 1). The
    observed eigenstate is orthogonal to exactly one candidate when the
    outcome index differs from the announced letter; the surviving
    candidate's coded bit is then certain. Returns that bit, or None when
    both candidates remain consistent.
    """
    if outcome == declaration:
        return None
    return 1 if Basis(basis) is Basis.B else 0


@dataclass(frozen=True)
class PhotonRecord:
    """Ground truth plus both parties' views of a single photon."""

    index: int
    label: CarrierLabel
    received: bool
    basis: Basis
    outcome: int
    declaration: int
    sift: int | None


def photon_records(labels, received, bases, outcomes):
    """Materialize per-photon records from batch arrays (small runs only)."""
    records = []
    for i, lab in enumerate(labels):
        label = CarrierLabel(int(lab))
        rec = bool(received[i])
        decl = label.declaration_letter
        records.append(
            PhotonRecord(
                index=i,
                label=label,
                received=rec,
                basis=Basis(int(bases[i])),
                outcome=int(outcomes[i]),
                declaration=decl,
                sift=sift(int(bases[i]), int(outcomes[i]), decl) if rec else None,
            )
        )
    return records


# --- keys --------------------------------------------------------------------


@dataclass
class RawKey:
    """k*N retained coded bits; the sender view is ground truth, the
    receiver holds a conclusiveness mask and her decoded values."""

    bits: np.ndarray        # uint8, sender truth
    alice_mask: np.ndarray  # bool, conclusive positions
    alice_bits: np.ndarray  # uint8, receiver values (zero where unknown)

    def __len__(self):
        return self.bits.size


@dataclass
class FinalKey:
    """N-bit XOR-folded key with the receiver's knowledge of it."""

    bits: np.ndarray
    alice_mask: np.ndarray
    alice_bits: np.ndarray

    @property
    def known_count(self):
        return int(np.count_nonzero(self.alice_mask))

    def known_positions(self):
        return np.flatnonzero(self.alice_mask)


def xor_compress(raw, substrings, n_items):
    """Cut the raw key into k substrings of length N and add them bitwise.

    Final bit i is the XOR of raw bits i, N+i, ..., (k-1)N+i; the receiver
    knows it only when all k contributors were conclusive.
    """
    if len(raw) != substrings * n_items:
        raise DomainError(
            f"raw key length {len(raw)} != substrings*n_items = {substrings * n_items}"
        )
    bits = np.bitwise_xor.reduce(raw.bits.reshape(substrings, n_items), axis=0)
    mask = np.logical_and.reduce(raw.alice_mask.reshape(substrings, n_items), axis=0)
    alice = np.bitwise_xor.reduce(raw.alice_bits.reshape(substrings, n_items), axis=0)
    alice = np.where(mask, alice, 0).astype(np.uint8)
    return FinalKey(bits=bits.astype(np.uint8), alice_mask=mask, alice_bits=alice)


# --- session engine ----------------------------------------------------------


@dataclass
class QueryExchange:
    """One shifted one-time-pad exchange. target_index, known_index and
    retrieved_bit are receiver-private; shift and ciphertext are public."""

    target_index: int
    known_index: int
    shift: int
    ciphertext: np.ndarray
    retrieved_bit: int

    def to_dict(self):
        return {
            "target_index": self.target_index,
            "known_index": self.known_index,
            "shift": self.shift,
            "ciphertext": bits_to_hex(self.ciphertext),
            "retrieved_bit": self.retrieved_bit,
        }

    def to_public_dict(self):
        return {
            "shift": self.shift,
            "ciphertext": bits_to_hex(self.ciphertext),
        }


@dataclass
class SessionReport:
    """Transcript summary of one session."""

    config: SessionConfig
    photons_sent: int = 0
    photons_received: int = 0
    conclusive_count: int = 0
    known_final_count: int = 0
    restarted: int = 0
    query: QueryExchange | None = None
    success: bool = False

    def to_dict(self, public_only=False):
        doc = {
            "config": self.config.to_dict(),
            "photons_sent": self.photons_sent,
            "photons_received": self.photons_received,
            "conclusive_count": self.conclusive_count,
            "known_final_count": self.known_final_count,
            "restarted": self.restarted,
            "query": None,
            "success": self.success,
        }
        if self.query is not None:
            doc["query"] = (
                self.query.to_public_dict() if public_only else self.query.to_dict()
            )
        return doc

    def to_json(self, public_only=False):
        return json.dumps(self.to_dict(public_only=public_only), sort_keys=True)


@dataclass
class _PassResult:
    raw: RawKey
    final: FinalKey
    photons_sent: int
    photons_received: int
    conclusive_count: int


def simulate_batch(source_rng, channel_rng, bases, config):
    """One transmission round: sender draws labels, the channel draws
    loss/flip/outcome uniforms, and the Born-rule kernel resolves the
    receiver's outcomes for her submitted basis choices."""
    count = bases.shape[0]
    p0, p0_flip = born_outcome0_tables(config.theta)
    u_label = source_rng.random(count)
    u_chan = channel_rng.random((count, 3))
    return simulate_transmission(
        u_label, bases, u_chan, p0, p0_flip, config.loss_rate, config.noise_rate
    )


def draw_bases(measure_rng, count):
    """Receiver's uniform basis choices: 0 -> computational, 1 -> rotated."""
    return (measure_rng.random(count) >= 0.5).astype(np.uint8)


def _single_pass(config, attempt):
    source = stream(config.source_seed, attempt)
    channel = stream(config.channel_seed, attempt)
    measure_rng = stream(config.measure_seed, attempt)

    need = config.raw_length
    batch = config.effective_batch()
    kept_labels, kept_bases, kept_outcomes = [], [], []
    sent = received_total = retained = 0
    while retained < need:
        if sent + batch > PHOTON_CAP:
            raise ResourceError(
                f"photon budget exhausted: cap {PHOTON_CAP}, "
                f"retained {retained}/{need}"
            )
        bases = draw_bases(measure_rng, batch)
        labels, received, outcomes = simulate_batch(source, channel, bases, config)
        sent += batch
        received_total += int(np.count_nonzero(received))
        take = min(need - retained, int(np.count_nonzero(received)))
        idx = np.flatnonzero(received)[:take]
        kept_labels.append(labels[idx])
        kept_bases.append(bases[idx])
        kept_outcomes.append(outcomes[idx])
        retained += take

    labels = np.concatenate(kept_labels)
    bases = np.concatenate(kept_bases)
    outcomes = np.concatenate(kept_outcomes)

    bits = (labels >> 1).astype(np.uint8)
    declarations = (labels & 1).astype(np.uint8)
    mask, alice_bits = sift_batch(bases, outcomes, declarations)

    raw = RawKey(bits=bits, alice_mask=mask, alice_bits=alice_bits)
    final = xor_compress(raw, config.substrings, config.n_items)
    return _PassResult(
        raw=raw,
        final=final,
        photons_sent=sent,
        photons_received=received_total,
        conclusive_count=int(np.count_nonzero(mask)),
    )


def sift_batch(bases, outcomes, declarations):
    """Vectorized sift: conclusive exactly when outcome != declaration;
    the inferred bit is 1 in the computational basis, 0 in the rotated one."""
    mask = outcomes != declarations
    alice_bits = np.where(mask, (1 - bases), 0).astype(np.uint8)
    return mask, alice_bits


def run_key_distribution(config):
    """Run the key-distribution phase, restarting on an empty mask.

    Returns (raw key, final key, report). A session whose every restart
    leaves the receiver with zero known bits is reported with
    success=False rather than raising.
    """
    last = None
    for attempt in range(config.max_restarts + 1):
        last = _single_pass(config, attempt)
        if last.final.known_count > 0:
            report = SessionReport(
                config=config,
                photons_sent=last.photons_sent,
                photons_received=last.photons_received,
                conclusive_count=last.conclusive_count,
                known_final_count=last.final.known_count,
                restarted=attempt,
                success=True,
            )
            return last.raw, last.final, report
    report = SessionReport(
        config=config,
        photons_sent=last.photons_sent,
        photons_received=last.photons_received,
        conclusive_count=last.conclusive_count,
        known_final_count=0,
        restarted=config.max_restarts,
        success=False,
    )
    return last.raw, last.final, report


def oblivious_query(final, database, target_index, rng):
    """Shift-aligned one-time-pad retrieval of one database bit.

    The receiver picks one known final-key position j uniformly, announces
    s = (j - i) mod N, and the sender encrypts with the key rotated by s so
    that position i is covered by key bit j.
    """
    database = np.asarray(database, dtype=np.uint8)
    n = final.bits.size
    if database.size != n:
        raise DomainError(f"database has {database.size} bits, key has {n}")
    if not 0 <= target_index < n:
        raise DomainError(f"target index {target_index} out of range [0, {n})")
    known = final.known_positions()
    if known.size == 0:
        raise EmptyKeyMaskError("receiver knows no final-key bit; restart the session")
    j = int(known[int(rng.random() * known.size)])
    s = (j - target_index) % n
    shifted = np.roll(final.bits, -s)  # shifted[m] = bits[(m + s) mod N]
    ciphertext = (database ^ shifted).astype(np.uint8)
    retrieved = int(ciphertext[target_index] ^ final.alice_bits[j])
    return QueryExchange(
        target_index=target_index,
        known_index=j,
        shift=s,
        ciphertext=ciphertext,
        retrieved_bit=retrieved,
    )


def estimate_error_rate(alice_final, bob_final, sample_fraction, rng):
    """Publicly compare a sample of the receiver's known bits.

    Revealed positions are consumed: their mask bits are cleared so later
    queries cannot spend them, and at least one known bit is always held
    back. Returns (rate, consumed positions); the rate is None when the
    fraction rounds down to an empty sample.
    """
    if not 0.0 < sample_fraction <= 1.0:
        raise DomainError(f"sample fraction must lie in (0, 1], got {sample_fraction}")
    known = alice_final.known_positions()
    if known.size <= 1:
        raise InsufficientKeyError(
            "insufficient key: need more than one known bit to spend any on checks"
        )
    count = min(int(sample_fraction * known.size), known.size - 1)
    if count == 0:
        return None, []
    consumed = np.sort(rng.choice(known, size=count, replace=False))
    mismatches = alice_final.alice_bits[consumed] != bob_final.bits[consumed]
    alice_final.alice_mask[consumed] = False
    return float(np.count_nonzero(mismatches) / count), [int(i) for i in consumed]


def run_session(config, database, target_index):
    """Key distribution followed by one oblivious query.

    Returns (report, raw key, final key). The report carries the query
    when the session succeeded.
    """
    raw, final, report = run_key_distribution(config)
    if not report.success:
        return report, raw, final
    qrng = query_stream(config, attempt=report.restarted)
    query = oblivious_query(final, database, target_index, qrng)
    report.query = query
    return report, raw, final


# --- database files ----------------------------------------------------------


def bits_to_hex(bits):
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()


def hex_to_bits(text, n_bits):
    try:
        raw = bytes.fromhex(text)
    except ValueError:
        raise DomainError("malformed hex database payload")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    if bits.size < n_bits:
        raise DomainError(f"hex payload holds {bits.size} bits, need {n_bits}")
    return bits[:n_bits].astype(np.uint8)


def load_database(path, n_bits):
    """Read an N-bit database from a plain hex text file or a raw binary
    file (most significant bit first)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        text = blob.decode("ascii").strip()
        if text and all(c in "0123456789abcdefABCDEF" for c in text):
            return hex_to_bits(text, n_bits)
    except UnicodeDecodeError:
        pass
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8))
    if bits.size < n_bits:
        raise DomainError(f"file {path} holds {bits.size} bits, need {n_bits}")
    return bits[:n_bits].astype(np.uint8)


def save_database_hex(path, bits):
    with open(path, "w") as fh:
        fh.write(bits_to_hex(bits))


def random_database(n_bits, seed):
    """Deterministic throwaway database derived from a seed."""
    rng = stream(seed, tag=2)
    return (rng.random(n_bits) >= 0.5).astype(np.uint8)
