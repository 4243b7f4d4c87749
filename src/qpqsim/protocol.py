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
draws per photon, so results are independent of round sizes. The two
parties are sans-I/O objects, Sender and Receiver, that exchange plain
arrays: the in-process engine pumps them directly and the wire endpoints
pump them over frames, so both modes run the same session code, the
query phase included (Receiver.query, Sender.answer, Receiver.retrieve).
Both modes check the database size and target index before the first
photon.
"""

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from ._kernels import simulate_transmission
from .errors import DomainError, EmptyKeyMaskError, ResourceError
from .qubits import Basis, _check_theta, born_outcome0_tables

PHOTON_CAP = 10 ** 9  # safety cap per session attempt
ROUND = 65536  # most photons per transmission round, in-process and on the wire


@dataclass(frozen=True)
class SessionConfig:
    """Parameters fully determining one session."""

    n_items: int
    substrings: int
    theta: float
    loss_rate: float = 0.0
    source_seed: int = 1
    channel_seed: int = 2
    measure_seed: int = 3
    max_restarts: int = 20

    def __post_init__(self):
        if self.n_items < 1:
            raise DomainError(f"database size must be >= 1, got {self.n_items}")
        if self.substrings < 1:
            raise DomainError(f"substring count must be >= 1, got {self.substrings}")
        _check_theta(self.theta)
        if not 0.0 <= self.loss_rate < 1.0:
            raise DomainError(f"loss rate must lie in [0, 1), got {self.loss_rate}")
        if self.max_restarts < 0:
            raise DomainError("max_restarts must be >= 0")

    @property
    def raw_length(self):
        return self.substrings * self.n_items

    def to_dict(self):
        return asdict(self)


def stream(seed, attempt=0, tag=0):
    """Derived generator for one (seed, restart attempt, purpose) triple."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), attempt, tag]))


def query_stream(config, attempt=0):
    """Receiver-side stream for the query-stage known-index pick,
    independent of how many photons were measured."""
    return stream(config.measure_seed, attempt, tag=1)


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


# --- keys --------------------------------------------------------------------


@dataclass
class RawKey:
    """k*N retained coded bits; the sender view is ground truth, the
    receiver holds a conclusiveness mask and her decoded values."""

    bits: np.ndarray | None  # uint8, sender truth; None in the receiver's view
    alice_mask: np.ndarray   # bool, conclusive positions
    alice_bits: np.ndarray   # uint8, receiver values (zero where unknown)

    def __len__(self):
        return self.alice_mask.size


@dataclass
class FinalKey:
    """N-bit XOR-folded key with the receiver's knowledge of it."""

    bits: np.ndarray | None
    alice_mask: np.ndarray
    alice_bits: np.ndarray

    @property
    def known_count(self):
        return int(np.count_nonzero(self.alice_mask))


def _fold(bits, substrings):
    """XOR of the k equal substrings of a raw bit array."""
    return np.bitwise_xor.reduce(bits.reshape(substrings, -1), axis=0).astype(np.uint8)


def xor_compress(raw, substrings, n_items):
    """Cut the raw key into k substrings of length N and add them bitwise.

    Final bit i is the XOR of raw bits i, N+i, ..., (k-1)N+i; the receiver
    knows it only when all k contributors were conclusive.
    """
    if len(raw) != substrings * n_items:
        raise DomainError(
            f"raw key length {len(raw)} != substrings*n_items = {substrings * n_items}"
        )
    mask = np.logical_and.reduce(raw.alice_mask.reshape(substrings, n_items), axis=0)
    alice = np.where(mask, _fold(raw.alice_bits, substrings), 0).astype(np.uint8)
    bits = None if raw.bits is None else _fold(raw.bits, substrings)
    return FinalKey(bits=bits, alice_mask=mask, alice_bits=alice)


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


def simulate_batch(source_rng, channel_rng, bases, config, p0):
    """One transmission round: sender draws labels, the channel draws
    loss/outcome uniforms, and the Born-rule kernel resolves the
    receiver's outcomes for her submitted basis choices. p0 is the
    born_outcome0_tables of config.theta."""
    count = bases.shape[0]
    u_label = source_rng.random(count)
    u_chan = channel_rng.random((count, 3))
    return simulate_transmission(u_label, bases, u_chan, p0, config.loss_rate)


def draw_bases(measure_rng, count):
    """Receiver's uniform basis choices: 0 -> computational, 1 -> rotated."""
    return (measure_rng.random(count) >= 0.5).astype(np.uint8)


def sift_batch(bases, outcomes, declarations):
    """Vectorized sift: conclusive exactly when outcome != declaration;
    the inferred bit is 1 in the computational basis, 0 in the rotated one."""
    mask = outcomes != declarations
    alice_bits = 1 - bases
    alice_bits *= mask  # zero where inconclusive
    return mask, alice_bits


class _Party:
    """State both parties keep alike: the retention rule and the photon
    counters. Each side applies the rule to the same loss flags, so both
    retain the first received photons until k*N are kept."""

    def __init__(self, config, attempt):
        self.config = config
        self.attempt = attempt
        self.sent = self.received = self.retained = 0

    @property
    def done(self):
        return self.retained >= self.config.raw_length

    def next_round(self):
        """Photons to request next: enough to complete the key in
        expectation, at most ROUND. Raises ResourceError when they would
        take the attempt past PHOTON_CAP."""
        missing = self.config.raw_length - self.retained
        count = min(ROUND, math.ceil(missing / (1.0 - self.config.loss_rate)))
        if self.sent + count > PHOTON_CAP:
            raise ResourceError(
                f"photon budget exhausted: cap {PHOTON_CAP}, "
                f"retained {self.retained}/{self.config.raw_length}"
            )
        return count

    def _retain(self, received):
        """The slice of the k*N buffers this round fills, and the indices
        of its photons that fill it; the counters stop at the last retained
        photon, so no round size moves them."""
        idx = np.flatnonzero(received)[: self.config.raw_length - self.retained]
        dest = slice(self.retained, self.retained + idx.size)
        self.retained += idx.size
        used = idx[-1] + 1 if self.done else received.size
        self.sent += int(used)
        self.received += int(np.count_nonzero(received[:used]))
        return dest, idx

    def _report(self, **fields):
        return SessionReport(
            config=self.config,
            photons_sent=self.sent,
            photons_received=self.received,
            restarted=self.attempt,
            **fields,
        )


class Sender(_Party):
    """Bob, the database holder: prepares carriers, which cross the
    simulated channel, declares one letter per retained photon, and
    answers the shifted query. Performs no I/O."""

    def __init__(self, config, attempt=0):
        super().__init__(config, attempt)
        self._source = stream(config.source_seed, attempt)
        self._channel = stream(config.channel_seed, attempt)
        self._p0 = born_outcome0_tables(config.theta)
        self._labels = np.empty(config.raw_length, dtype=np.uint8)
        self.raw_bits = self.final_bits = self.exchange = None
        self.conclusive_count = 0  # the receiver's, as she acknowledges it

    def transmit(self, bases):
        """Send one round measured in the receiver's bases; returns the
        loss flags and outcomes she observes."""
        labels, received, outcomes = simulate_batch(
            self._source, self._channel, bases, self.config, self._p0
        )
        dest, idx = self._retain(received)
        self._labels[dest] = labels[idx]
        return received, outcomes

    def declaration(self):
        """The letters of the retained carriers; fixes the truth bits."""
        labels, self._labels = self._labels, None
        self.raw_bits = labels >> 1
        self.final_bits = _fold(self.raw_bits, self.config.substrings)
        labels &= 1  # the letters, in the buffer the labels leave
        return labels

    def answer(self, database, shift):
        """Ciphertext for an announced shift s: item m is padded with key
        bit m + s."""
        s = shift % self.config.n_items
        ciphertext = (database ^ np.roll(self.final_bits, -s)).astype(np.uint8)
        self.exchange = QueryExchange(
            target_index=-1, known_index=-1, shift=s, ciphertext=ciphertext, retrieved_bit=-1
        )
        return ciphertext

    @property
    def report(self):
        # the known-bit count is receiver-private, unknown on this side
        return self._report(
            conclusive_count=self.conclusive_count,
            known_final_count=0,
            query=self.exchange,
            success=True,
        )


class Receiver(_Party):
    """Alice, the querying party: measures in random bases, sifts against
    the declaration, folds her view of the key, and queries one item.
    Performs no I/O; her raw and final keys hold no truth bits."""

    def __init__(self, config, attempt=0):
        super().__init__(config, attempt)
        self._measure = stream(config.measure_seed, attempt)
        self._bases = self._pending = None
        self._kept_bases = np.empty(config.raw_length, dtype=np.uint8)
        self._kept_outcomes = np.empty(config.raw_length, dtype=np.uint8)
        self.raw = self.final = self.exchange = self.retrieved_bit = None

    def bases(self, count):
        """Basis choices for the next round of count photons."""
        self._bases = draw_bases(self._measure, count)
        return self._bases

    def absorb(self, received, outcomes):
        """Loss flags and outcomes of the round measured in bases()."""
        dest, idx = self._retain(received)
        self._kept_bases[dest] = self._bases[idx]
        self._kept_outcomes[dest] = outcomes[idx]

    def sift(self, letters):
        """Sift against the declared letters and fold; returns the
        conclusive count."""
        mask, alice_bits = sift_batch(self._kept_bases, self._kept_outcomes, letters)
        self._bases = self._kept_bases = self._kept_outcomes = None
        self.raw = RawKey(bits=None, alice_mask=mask, alice_bits=alice_bits)
        self.final = xor_compress(self.raw, self.config.substrings, self.config.n_items)
        return int(np.count_nonzero(mask))

    def query(self, target_index):
        """Pick a known final-key position j uniformly; returns the shift
        s = (j - i) mod N that aligns it with item i = target_index."""
        known = np.flatnonzero(self.final.alice_mask)
        if known.size == 0:
            raise EmptyKeyMaskError("receiver knows no final-key bit; restart the session")
        j = int(known[int(query_stream(self.config, self.attempt).random() * known.size)])
        shift = (j - target_index) % self.config.n_items
        self._pending = (target_index, j, shift)
        return shift

    def retrieve(self, ciphertext):
        """Decrypt the queried item from the sender's ciphertext with
        known key bit j."""
        target, j, shift = self._pending
        self.retrieved_bit = int(ciphertext[target] ^ self.final.alice_bits[j])
        self.exchange = QueryExchange(target, j, shift, ciphertext, self.retrieved_bit)
        return self.retrieved_bit

    @property
    def report(self):
        known = self.final.known_count
        return self._report(
            conclusive_count=int(np.count_nonzero(self.raw.alice_mask)),
            known_final_count=known,
            query=self.exchange,
            success=known > 0,
        )


def _single_pass(config, attempt):
    """One key-distribution attempt, pumping both parties in-process."""
    sender, receiver = Sender(config, attempt), Receiver(config, attempt)
    while not receiver.done:
        count = receiver.next_round()
        receiver.absorb(*sender.transmit(receiver.bases(count)))
    sender.conclusive_count = receiver.sift(sender.declaration())
    return sender, receiver


def _distribute(config):
    """Attempts until the receiver knows a final-key bit or the restarts
    run out. Returns the last attempt's parties and its raw and final
    keys: the receiver's view with the sender's truth bits."""
    for attempt in range(config.max_restarts + 1):
        sender, receiver = _single_pass(config, attempt)
        if receiver.final.known_count:
            break
    raw = replace(receiver.raw, bits=sender.raw_bits)
    final = replace(receiver.final, bits=sender.final_bits)
    return sender, receiver, raw, final


def run_key_distribution(config):
    """Run the key-distribution phase, restarting on an empty mask.

    Returns (raw key, final key, report). A session whose every restart
    leaves the receiver with zero known bits is reported with
    success=False rather than raising.
    """
    _, receiver, raw, final = _distribute(config)
    return raw, final, receiver.report


def check_target(config, target_index):
    """The receiver's target must index the N-item database; every mode
    checks it before the first photon."""
    if not 0 <= target_index < config.n_items:
        raise DomainError(f"target index {target_index} out of range [0, {config.n_items})")


def run_session(config, database, target_index):
    """Key distribution followed by one oblivious query, run through the
    same party calls as the wire endpoints. The database size and target
    index are checked before the first photon. Returns (report, raw key,
    final key); the report carries the query when the session succeeded.
    """
    database = np.asarray(database, dtype=np.uint8)
    n = config.n_items
    if database.size != n:
        raise DomainError(f"database has {database.size} bits, key has {n}")
    check_target(config, target_index)
    sender, receiver, raw, final = _distribute(config)
    if receiver.final.known_count:
        receiver.retrieve(sender.answer(database, receiver.query(target_index)))
    return receiver.report, raw, final


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
