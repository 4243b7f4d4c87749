"""Honest two-party key distribution and the shifted one-time-pad query.

The sender (Bob) holds the database and prepares carrier photons; the
receiver (Alice) measures in a random basis, and the sender's public
letter announcement lets her decode a fraction p = sin^2(theta)/2 of the
retained photons with certainty. The retained coded bits form a raw key
of length k*N which is cut into k substrings and XOR-folded into the
N-bit final key; a single announced shift then aligns one of her known
bits with the database item she wants.

Every k*N array of a session (the sender's truth bits and letters, the
receiver's kept bases and outcomes, her mask and decoded bits) is a Bits,
one bit per retained photon: each round packs its retained photons into
place, the sift works byte-wise, and the fold reads whole substrings.
The N-bit final keys, database and ciphertext are Bits too (raw and final
keys are both a Key), so the query phase unpacks no N bits to read one.

Randomness is split across three seeded streams (photon source, channel,
receiver measurement) plus a derived query stream, with a fixed number of
draws per photon, so results are independent of round sizes. The two
parties are sans-I/O objects, Sender and Receiver, that exchange plain
arrays: the in-process engine pumps them directly and the wire endpoints
pump them over frames, so both modes run the same session code, the
query phase included (Receiver.query, Sender.answer, Receiver.retrieve).
Both modes check the database size and target index before the first
photon or frame, with the same DomainError.
"""

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from ._kernels import simulate_transmission
from .errors import DomainError, EmptyKeyMaskError, ResourceError
from .qubits import _check_theta, born_outcome0_tables

PHOTON_CAP = 10 ** 9  # safety cap per session attempt
ROUND = 65536  # most photons per transmission round, in-process and on the wire
PUBLIC_CONFIG = ("n_items", "substrings", "theta", "loss_rate")  # what HELLO carries


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
        return {f.name: getattr(self, f.name) for f in fields(self)}


def stream(seed, attempt=0, tag=0):
    """Derived generator for one (seed, restart attempt, purpose) triple."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), attempt, tag]))


def query_stream(config, attempt=0):
    """Receiver-side stream for the query-stage known-index pick,
    independent of how many photons were measured."""
    return stream(config.measure_seed, attempt, tag=1)


# --- packed bit arrays ---------------------------------------------------------


class Bits:
    """count bits and their body, packed eight to a byte in np.packbits
    order: bit i is bit 7 - i % 8 of byte i // 8. The pad bits of the last
    byte are zero in every Bits the package packs; a body taken as it is,
    from a frame or a generator, may carry any, and unpack, indexing and ==
    ignore them. Bits(count) is all zeros."""

    __slots__ = ("count", "body")

    def __init__(self, count, body=None):
        self.count = count
        self.body = np.zeros(Bits.body_size(count), dtype=np.uint8) if body is None else body

    @staticmethod
    def body_size(count):
        return -(-count // 8)

    @classmethod
    def of(cls, values):
        """The 0/1 values, packed."""
        values = np.asarray(values, dtype=np.uint8)
        return cls(values.size, np.packbits(values))

    def __len__(self):
        return self.count

    def __getitem__(self, i):
        """Bit i, as an int."""
        if not 0 <= i < self.count:
            raise IndexError(f"bit {i} out of range [0, {self.count})")
        return int(self.body[i // 8]) >> (7 - i % 8) & 1

    def __eq__(self, other):
        return isinstance(other, Bits) and np.array_equal(self.unpack(), other.unpack())

    def __array__(self, dtype=None, copy=None):
        """The bits unpacked, as uint8; numpy casts them to a dtype asked for."""
        if copy is False:
            raise ValueError("Bits unpack into a new array")
        return self.unpack().view(np.uint8)

    def flatnonzero(self):
        """The set bits' positions, ascending; unpacks only nonzero bytes."""
        nonzero = np.flatnonzero(self.body)
        hits = np.flatnonzero(np.unpackbits(self.body[nonzero]))
        positions = 8 * nonzero[hits >> 3] + (hits & 7)
        return positions[positions < self.count]

    def unpack(self, start=0, stop=None):
        """Bits start to stop (exclusive, default count), as a bool array."""
        stop = self.count if stop is None else stop
        first = start // 8
        bits = np.unpackbits(self.body[first:Bits.body_size(stop)])
        return bits[start - 8 * first:stop - 8 * first].view(np.bool_)

    def put(self, start, bits):
        """Write 0/1 bits to bits [start, start + len(bits)), which must be
        zero from start on. The bits of a partly written byte are packed
        again with the new ones, so any split of a bit run into calls
        writes the same bytes."""
        first, lead = divmod(start, 8)
        if lead:
            bits = np.concatenate((np.unpackbits(self.body[first:first + 1], count=lead), bits))
        chunk = np.packbits(bits)
        self.body[first:first + chunk.size] = chunk


# --- keys --------------------------------------------------------------------


@dataclass
class Key:
    """A raw key of k*N retained coded bits, one per photon, or the N-bit
    final key folded from it. The sender's truth bits are ground truth;
    the receiver holds a conclusiveness mask and her decoded values (zero
    where unknown). bits, alice_mask and alice_bits unpack on access."""

    truth: Bits | None  # None in the receiver's view
    mask: Bits
    alice: Bits

    def __len__(self):
        return len(self.mask)

    @property
    def bits(self):
        """uint8 sender truth, or None in the receiver's view."""
        return None if self.truth is None else self.truth.unpack().view(np.uint8)

    @property
    def alice_mask(self):
        """bool, conclusive positions."""
        return self.mask.unpack()

    @property
    def alice_bits(self):
        """uint8, the receiver's values, zero where unknown."""
        return self.alice.unpack().view(np.uint8)

    @property
    def known_count(self):
        """Conclusive positions, counted on the packed mask."""
        return int(np.bitwise_count(self.mask.body).sum())


def _fold(raw, substrings, n_items, op=np.bitwise_xor):
    """op (XOR or AND) of the k substrings of N bits of the raw Bits, as N
    Bits. With N % 8 == 0 the substrings are whole rows of bytes;
    otherwise they are unpacked one at a time."""
    if n_items % 8 == 0:
        return Bits(n_items, op.reduce(raw.body.reshape(substrings, -1), axis=0))
    out = raw.unpack(0, n_items)
    for index in range(1, substrings):
        op(out, raw.unpack(index * n_items, (index + 1) * n_items), out=out)
    return Bits.of(out)


def xor_compress(raw, substrings, n_items):
    """Cut the raw key into k substrings of length N and add them bitwise.

    Final bit i is the XOR of raw bits i, N+i, ..., (k-1)N+i; the receiver
    knows it only when all k contributors were conclusive.
    """
    if len(raw) != substrings * n_items:
        raise DomainError(
            f"raw key length {len(raw)} != substrings*n_items = {substrings * n_items}"
        )
    mask = _fold(raw.mask, substrings, n_items, np.bitwise_and)
    alice = _fold(raw.alice, substrings, n_items)
    alice.body &= mask.body
    truth = None if raw.truth is None else _fold(raw.truth, substrings, n_items)
    return Key(truth, mask, alice)


# --- session engine ----------------------------------------------------------


@dataclass
class QueryExchange:
    """One shifted one-time-pad exchange. target_index, known_index and
    retrieved_bit are receiver-private; shift and ciphertext are public."""

    target_index: int
    known_index: int
    shift: int
    ciphertext: Bits
    retrieved_bit: int

    def to_dict(self, public_only=False):
        """Every field, the ciphertext as the hex of its body; with
        public_only the shift and the ciphertext only."""
        doc = {"shift": self.shift, "ciphertext": self.ciphertext.body.tobytes().hex()}
        if not public_only:
            doc.update(target_index=self.target_index, known_index=self.known_index,
                       retrieved_bit=self.retrieved_bit)
        return doc


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
        """The whole report, or with public_only only what both endpoints
        know and must agree on: the HELLO-negotiated PUBLIC_CONFIG, every
        counter but the receiver's known-bit count, and the query's
        public half."""
        doc = {
            "config": self.config.to_dict(),
            "photons_sent": self.photons_sent,
            "photons_received": self.photons_received,
            "conclusive_count": self.conclusive_count,
            "known_final_count": self.known_final_count,
            "restarted": self.restarted,
            "query": None if self.query is None else self.query.to_dict(public_only),
            "success": self.success,
        }
        if public_only:
            del doc["known_final_count"]
            doc["config"] = {key: doc["config"][key] for key in PUBLIC_CONFIG}
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
    return (measure_rng.random(count) >= 0.5).view(np.uint8)


def sift_batch(bases, outcomes, letters):
    """Vectorized sift of the photons of three Bits of one length,
    byte-wise: conclusive exactly when outcome != letter; the inferred bit
    is 1 in the computational basis, 0 in the rotated one, and zero where
    inconclusive. The pad bits of the letters count for nothing: both
    results keep theirs zero. Returns the mask and bits as Bits."""
    count = len(bases)
    mask = outcomes.body ^ letters.body
    mask[-1] &= 0xFF << (-count % 8) & 0xFF
    alice_bits = ~bases.body
    alice_bits &= mask
    return Bits(count, mask), Bits(count, alice_bits)


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

    def _retain(self, received, *rounds):
        """The offset in the k*N arrays where this round's retained photons
        go, and each round array cut to them: its photons up to the last
        retained one, selected through the loss flags. The counters stop
        at that photon, so no round size moves them."""
        received = np.asarray(received, dtype=bool)
        missing = self.config.raw_length - self.retained
        count, used = int(np.count_nonzero(received)), received.size
        if count == missing:  # the key completes at the round's last received photon
            used = received.size - int(np.argmax(received[::-1]))
        elif count > missing:  # ... at its missing-th one, which only an index finds
            count, used = missing, int(np.flatnonzero(received)[missing - 1]) + 1
        start = self.retained
        self.retained += count
        self.sent += used
        self.received += count
        keep = received[:used] if count < used else slice(None)  # lossless: a view
        return start, *(arr[:used][keep] for arr in rounds)

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
        # a carrier label holds its coded bit (label >> 1) and letter (label & 1)
        self.truth = Bits(config.raw_length)
        self._letters = Bits(config.raw_length)
        self.final = self.exchange = None  # final: the Bits folded from truth
        self.conclusive_count = 0  # the receiver's, as she acknowledges it

    @property
    def raw_bits(self):
        """The truth bits, unpacked to uint8."""
        return self.truth.unpack().view(np.uint8)

    @property
    def final_bits(self):
        """The final key bits, unpacked to uint8."""
        return self.final.unpack().view(np.uint8)

    def transmit(self, bases):
        """Send one round measured in the receiver's bases; returns the
        loss flags and outcomes she observes."""
        labels, received, outcomes = simulate_batch(
            self._source, self._channel, bases, self.config, self._p0
        )
        start, kept = self._retain(received, labels)
        self.truth.put(start, kept >> 1)
        self._letters.put(start, kept & 1)
        return received, outcomes

    def declaration(self):
        """The Bits of the retained carriers' letters; fixes the final
        key."""
        cfg = self.config
        self.final = _fold(self.truth, cfg.substrings, cfg.n_items)
        letters, self._letters = self._letters, None
        return letters

    def answer(self, database, shift):
        """Ciphertext Bits for an announced shift s: item m of the database
        Bits is padded with key bit m + s, the final key rotated by s bits."""
        n, s = self.config.n_items, shift % self.config.n_items
        ciphertext = Bits(n)
        ciphertext.put(0, self.final.unpack(s))
        ciphertext.put(n - s, self.final.unpack(0, s))
        ciphertext.body ^= database.body
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
        self._kept_bases = Bits(config.raw_length)
        self._kept_outcomes = Bits(config.raw_length)
        self.raw = self.final = self.exchange = self.retrieved_bit = None
        self.conclusive_count = 0

    def bases(self, count):
        """Basis choices for the next round of count photons."""
        self._bases = draw_bases(self._measure, count)
        return self._bases

    def absorb(self, received, outcomes):
        """Loss flags and outcomes of the round measured in bases()."""
        start, bases, outcomes = self._retain(received, self._bases, outcomes)
        self._kept_bases.put(start, bases)
        self._kept_outcomes.put(start, outcomes)

    def sift(self, letters):
        """Sift against the Bits of the declared letters, whose pad bits
        count for nothing, and fold; returns the conclusive count."""
        cfg = self.config
        mask, alice_bits = sift_batch(self._kept_bases, self._kept_outcomes, letters)
        self._bases = self._kept_bases = self._kept_outcomes = None
        self.raw = Key(None, mask, alice_bits)
        self.final = xor_compress(self.raw, cfg.substrings, cfg.n_items)
        self.conclusive_count = self.raw.known_count
        return self.conclusive_count

    def query(self, target_index):
        """Pick a known final-key position j uniformly; returns the shift
        s = (j - i) mod N that aligns it with item i = target_index."""
        known = self.final.mask.flatnonzero()
        if known.size == 0:
            raise EmptyKeyMaskError("receiver knows no final-key bit; restart the session")
        j = int(known[int(query_stream(self.config, self.attempt).random() * known.size)])
        shift = (j - target_index) % self.config.n_items
        self._pending = (target_index, j, shift)
        return shift

    def retrieve(self, ciphertext):
        """Decrypt the queried item, bit target_index of the sender's
        ciphertext Bits, with known key bit j."""
        target, j, shift = self._pending
        self.retrieved_bit = ciphertext[target] ^ self.final.alice[j]
        self.exchange = QueryExchange(target, j, shift, ciphertext, self.retrieved_bit)
        return self.retrieved_bit

    @property
    def report(self):
        known = self.final.known_count
        return self._report(
            conclusive_count=self.conclusive_count,
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
    raw = replace(receiver.raw, truth=sender.truth)
    final = replace(receiver.final, truth=sender.final)
    return sender, receiver, raw, final


def run_key_distribution(config):
    """Run the key-distribution phase, restarting on an empty mask.

    Returns (raw key, final key, report). A session whose every restart
    leaves the receiver with zero known bits is reported with
    success=False rather than raising.
    """
    _, receiver, raw, final = _distribute(config)
    return raw, final, receiver.report


def check_database(config, database):
    """The database as Bits: Bits, or values each 0 or 1, which must
    number N. Every mode checks it before the first photon or frame."""
    if not isinstance(database, Bits):
        if not np.isin(database, (0, 1)).all():
            raise DomainError("database values must be 0 or 1")
        database = Bits.of(database)
    if len(database) != config.n_items:
        raise DomainError(f"database has {len(database)} bits, key has {config.n_items}")
    return database


def check_target(config, target_index):
    """The receiver's target must index the N-item database; every mode
    checks it before the first photon or frame."""
    if not 0 <= target_index < config.n_items:
        raise DomainError(f"target index {target_index} out of range [0, {config.n_items})")


def run_session(config, database, target_index):
    """Key distribution followed by one oblivious query, run through the
    same party calls as the wire endpoints. The database size and target
    index are checked before the first photon. Returns (report, raw key,
    final key); the report carries the query when the session succeeded.
    """
    database = check_database(config, database)
    check_target(config, target_index)
    sender, receiver, raw, final = _distribute(config)
    if receiver.final.known_count:
        receiver.retrieve(sender.answer(database, receiver.query(target_index)))
    return receiver.report, raw, final


# --- database files ----------------------------------------------------------


def load_database(path, n_bits):
    """Read an N-bit database from a plain hex text file or a raw binary
    file (most significant bit first), as Bits whose pad bits are zero."""
    with open(path, "rb") as fh:
        blob = fh.read()
    text = blob.decode("ascii", "replace").strip()
    if text and all(c in "0123456789abcdefABCDEF" for c in text):
        try:
            blob = bytes.fromhex(text)
        except ValueError:
            raise DomainError("malformed hex database payload") from None
    if 8 * len(blob) < n_bits:
        raise DomainError(f"file {path} holds {8 * len(blob)} bits, need {n_bits}")
    body = np.frombuffer(blob, dtype=np.uint8, count=Bits.body_size(n_bits)).copy()
    body[-1] &= 0xFF << (-n_bits % 8) & 0xFF
    return Bits(n_bits, body)


def random_database(n_bits, seed):
    """Deterministic throwaway database Bits derived from a seed."""
    return Bits.of(stream(seed, tag=2).random(n_bits) >= 0.5)
