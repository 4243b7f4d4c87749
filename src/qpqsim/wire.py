"""Framed byte-stream transport running the protocol as two endpoints.

Frame layout: a 32-bit big-endian length (tag byte + payload), one tag
byte, then the payload. Integers are big-endian; bit arrays are packed
most significant bit first. The quantum channel is simulated on the
sender side: the receiver submits basis choices and gets loss flags and
outcomes back, which preserves every protocol statistic but makes this a
protocol-flow and interoperability vehicle, not a security boundary.

Message flow: HELLO, then rounds of PHOTON_BATCH_REQ / MEASURE_SUBMIT /
OUTCOME_BATCH until k*N photons are retained, then DECLARATION, SIFT_ACK,
SHIFT and CIPHERTEXT. Any out-of-order or malformed frame aborts the
session with an ERROR frame.
"""

import os
import socket
import struct
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from enum import IntEnum

import numpy as np

from .errors import CapacityError, ProtocolAbort, QpqError
from .protocol import PHOTON_CAP, ROUND, Receiver, Sender, check_target

# re-exported, unused here: perfbench/test_bench.py checks both names
from .protocol import draw_bases, simulate_batch  # noqa: F401

MAX_FRAME_LENGTH = 1 << 24  # tag byte + payload

ERR_ORDER = 1
ERR_BAD_PARAMS = 2
ERR_DECODE = 3
ERR_SESSION_FAILED = 4
# local only: the session outlasted its socket's timeout. Above the one-byte
# codes of ERROR frames, so no peer can claim it.
ERR_TIMEOUT = 0x100

SOCKET_TIMEOUT = 60.0  # seconds every served or querying session may take, plus
PHOTON_SECONDS = 1e-5  # this for each photon it expects to send (session_budget)
SERVER_WORKERS = 8  # sessions a WireServer runs at once; later ones queue

# WireServer's tally of a session that ended in a ProtocolAbort, by its code
ABORT_OUTCOMES = {
    None: "disconnected",
    ERR_ORDER: "order",
    ERR_BAD_PARAMS: "bad_params",
    ERR_DECODE: "decode",
    ERR_SESSION_FAILED: "session_failed",
    ERR_TIMEOUT: "timeout",
}

_HEADER = struct.Struct(">IB")
_U32 = struct.Struct(">I")


class FrameDecodeError(QpqError, ValueError):
    """A frame or payload could not be parsed."""


class MsgType(IntEnum):
    HELLO = 0x01
    PHOTON_BATCH_REQ = 0x02
    MEASURE_SUBMIT = 0x03
    OUTCOME_BATCH = 0x04
    DECLARATION = 0x05
    SIFT_ACK = 0x06
    SHIFT = 0x07
    CIPHERTEXT = 0x08
    ERROR = 0x7F


def _pack_bits(bits):
    bits = np.asarray(bits, dtype=np.uint8)
    return _U32.pack(bits.size) + np.packbits(bits).tobytes()


def _unpack_bits(payload, offset):
    if len(payload) < offset + 4:
        raise FrameDecodeError("truncated bit array header")
    (count,) = _U32.unpack_from(payload, offset)
    nbytes = (count + 7) // 8
    start = offset + 4
    if len(payload) < start + nbytes:
        raise FrameDecodeError("truncated bit array body")
    packed = np.frombuffer(payload[start:start + nbytes], dtype=np.uint8)
    bits = np.unpackbits(packed)[:count].astype(np.uint8)
    return bits, start + nbytes


class _Message:
    """Payload codec and equality derived from a message's dataclass
    fields, in declaration order: a STRUCT packs them as one fixed-width
    record; without one, each field is a length-prefixed bit array and
    all arrays of a message have one length."""

    STRUCT = None

    def _values(self):
        return [getattr(self, f.name) for f in fields(self)]

    def encode_payload(self):
        if self.STRUCT is not None:
            return self.STRUCT.pack(*self._values())
        return b"".join(_pack_bits(v) for v in self._values())

    @classmethod
    def decode_payload(cls, payload):
        name = cls.TAG.name
        if cls.STRUCT is not None:
            if len(payload) != cls.STRUCT.size:
                raise FrameDecodeError(f"{name} payload must be {cls.STRUCT.size} bytes")
            return cls(*cls.STRUCT.unpack(payload))
        values, offset = [], 0
        for _ in fields(cls):
            bits, offset = _unpack_bits(payload, offset)
            values.append(bits)
        if offset != len(payload):
            raise FrameDecodeError(f"trailing bytes after {name}")
        if len({v.size for v in values}) > 1:
            raise FrameDecodeError(f"{name} bit arrays differ in length")
        return cls(*values)

    def __eq__(self, other):
        return type(other) is type(self) and all(
            np.array_equal(a, b) for a, b in zip(self._values(), other._values())
        )


@dataclass(eq=False)
class Hello(_Message):
    TAG = MsgType.HELLO
    STRUCT = struct.Struct(">dIHd")
    theta: float
    n_items: int
    substrings: int
    loss_rate: float


@dataclass(eq=False)
class PhotonBatchReq(_Message):
    TAG = MsgType.PHOTON_BATCH_REQ
    STRUCT = _U32
    count: int


@dataclass(eq=False)
class MeasureSubmit(_Message):
    TAG = MsgType.MEASURE_SUBMIT
    bases: np.ndarray


@dataclass(eq=False)
class OutcomeBatch(_Message):
    TAG = MsgType.OUTCOME_BATCH
    received: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self):
        self.received = np.asarray(self.received, dtype=bool)


@dataclass(eq=False)
class Declaration(_Message):
    TAG = MsgType.DECLARATION
    letters: np.ndarray


@dataclass(eq=False)
class SiftAck(_Message):
    TAG = MsgType.SIFT_ACK
    STRUCT = _U32
    conclusive_count: int


@dataclass(eq=False)
class Shift(_Message):
    TAG = MsgType.SHIFT
    STRUCT = _U32
    shift: int


@dataclass(eq=False)
class Ciphertext(_Message):
    TAG = MsgType.CIPHERTEXT
    bits: np.ndarray


@dataclass(eq=False)
class Error(_Message):
    TAG = MsgType.ERROR
    code: int
    message: str

    # a code byte, then the UTF-8 message filling the rest of the frame
    def encode_payload(self):
        return bytes([self.code]) + self.message.encode("utf-8")

    @classmethod
    def decode_payload(cls, payload):
        if len(payload) < 1:
            raise FrameDecodeError("ERROR payload must carry a code byte")
        return cls(code=payload[0], message=payload[1:].decode("utf-8", "replace"))


MESSAGE_TYPES = {cls.TAG: cls for cls in _Message.__subclasses__()}


def encode_frame(msg):
    payload = msg.encode_payload()
    length = 1 + len(payload)
    if length > MAX_FRAME_LENGTH:
        raise CapacityError(f"frame length {length} exceeds the {MAX_FRAME_LENGTH} cap")
    return _HEADER.pack(length, int(msg.TAG)) + payload


def decode_frame(data):
    if len(data) < _HEADER.size:
        raise FrameDecodeError("truncated frame header")
    length, tag = _HEADER.unpack_from(data, 0)
    if length > MAX_FRAME_LENGTH:
        raise CapacityError(f"frame length {length} exceeds the {MAX_FRAME_LENGTH} cap")
    if len(data) != 4 + length:
        raise FrameDecodeError(f"frame body holds {len(data) - 5} bytes, header says {length - 1}")
    cls = MESSAGE_TYPES.get(tag)
    if cls is None:
        raise FrameDecodeError(f"unknown message type 0x{tag:02x}")
    return cls.decode_payload(data[5:])


class FrameStream:
    """Blocking framed message transport over a connected byte stream.

    A timeout on the socket is the budget of the whole session, not of
    each call: every send and read waits only for what is left of it. The
    optional audit hook is called as audit(direction, msg) with direction
    "send" or "recv" for every frame this endpoint handles.
    """

    def __init__(self, conn, audit=None):
        self._conn = conn
        self._audit = audit
        self._budget = conn.gettimeout()
        self._deadline = None if self._budget is None else time.monotonic() + self._budget

    def _timed_out(self):
        return ProtocolAbort(f"session exceeded its {self._budget:.1f} s budget", code=ERR_TIMEOUT)

    def _arm(self):
        if self._deadline is not None:
            left = self._deadline - time.monotonic()
            if left <= 0:
                raise self._timed_out()
            self._conn.settimeout(left)

    def send(self, msg):
        if self._audit is not None:
            self._audit("send", msg)
        self._arm()
        try:
            self._conn.sendall(encode_frame(msg))
        except TimeoutError:
            raise self._timed_out()
        except OSError as exc:
            raise self._disconnected(exc)

    def _disconnected(self, exc):
        # a closing peer usually left an ERROR frame in the buffer; surface
        # it so the caller sees the real cause instead of a broken pipe
        try:
            err = self._read_frame()
        except QpqError:
            err = None
        if isinstance(err, Error):
            return ProtocolAbort(f"peer error {err.code}: {err.message}", code=err.code)
        return ProtocolAbort(f"peer disconnected: {exc}")

    def _read_exact(self, count):
        chunks = []
        got = 0
        while got < count:
            self._arm()
            try:
                chunk = self._conn.recv(count - got)
            except TimeoutError:
                raise self._timed_out()
            except OSError as exc:
                raise ProtocolAbort(f"connection lost mid-frame: {exc}")
            if not chunk:
                raise ProtocolAbort("peer disconnected mid-frame")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def _read_frame(self):
        header = self._read_exact(_HEADER.size)
        (length,) = _U32.unpack_from(header)
        # checked before the body is read, so no peer sets what this end allocates
        if length > MAX_FRAME_LENGTH:
            raise ProtocolAbort(f"oversize frame announced ({length} bytes)", code=ERR_DECODE)
        return decode_frame(header + self._read_exact(length - 1))

    def recv(self):
        try:
            msg = self._read_frame()
        except FrameDecodeError as exc:
            self.send(Error(code=ERR_DECODE, message=str(exc)))
            raise ProtocolAbort(f"frame decode failed: {exc}", code=ERR_DECODE)
        if self._audit is not None:
            self._audit("recv", msg)
        return msg

    def expect(self, cls):
        msg = self.recv()
        if isinstance(msg, Error):
            raise ProtocolAbort(f"peer error {msg.code}: {msg.message}", code=msg.code)
        if not isinstance(msg, cls):
            violation = f"expected {cls.__name__}, got {type(msg).__name__}"
            self.send(Error(code=ERR_ORDER, message=violation))
            raise ProtocolAbort(f"phase violation: {violation}", code=ERR_ORDER)
        return msg

    def fail(self, code, message):
        self.send(Error(code=code, message=message))
        raise ProtocolAbort(message, code=code)


def _hello(config):
    return Hello(
        theta=config.theta,
        n_items=config.n_items,
        substrings=config.substrings,
        loss_rate=config.loss_rate,
    )


def check_config(config):
    """The session parameters must fit HELLO's fields; a query checks this
    before its first frame and a server before it listens."""
    try:
        _hello(config).encode_payload()
    except struct.error as exc:
        raise CapacityError(f"session parameters do not fit a HELLO frame: {exc}") from None


def session_budget(config):
    """Seconds a served or querying session may take: both ends know it
    before the first frame, and a server takes it from its own config."""
    photons = min(PHOTON_CAP, config.raw_length / (1.0 - config.loss_rate))
    return SOCKET_TIMEOUT + PHOTON_SECONDS * photons


def run_bob_endpoint(config, database, conn, audit=None):
    """Database-holder side of one wire session (single pass, no restart);
    returns the Sender."""
    fs = FrameStream(conn, audit)
    database = np.asarray(database, dtype=np.uint8)
    # his own config is validated, so this rejects every invalid HELLO too
    if fs.expect(Hello) != _hello(config):
        fs.fail(ERR_BAD_PARAMS, "session parameters do not match this endpoint")
    if database.size != config.n_items:
        fs.fail(ERR_BAD_PARAMS, "database size does not match session parameters")

    bob = Sender(config)
    while not bob.done:
        req = fs.expect(PhotonBatchReq)
        if not 1 <= req.count <= ROUND:
            fs.fail(ERR_BAD_PARAMS, f"batch size {req.count} outside [1, {ROUND}]")
        sub = fs.expect(MeasureSubmit)
        if sub.bases.size != req.count:
            fs.fail(ERR_BAD_PARAMS, "basis array does not match requested batch size")
        received, outcomes = bob.transmit(sub.bases)
        fs.send(OutcomeBatch(received=received, outcomes=outcomes))

    fs.send(Declaration(letters=bob.declaration()))
    bob.conclusive_count = fs.expect(SiftAck).conclusive_count
    ciphertext = bob.answer(database, fs.expect(Shift).shift)
    fs.send(Ciphertext(bits=ciphertext))
    return bob


def run_alice_endpoint(config, target_index, conn, audit=None):
    """Querying side of one wire session (single pass, no restart);
    returns the Receiver."""
    check_target(config, target_index)
    check_config(config)
    fs = FrameStream(conn, audit)
    fs.send(_hello(config))
    alice = Receiver(config)
    while not alice.done:
        count = alice.next_round()
        fs.send(PhotonBatchReq(count=count))
        fs.send(MeasureSubmit(bases=alice.bases(count)))
        batch = fs.expect(OutcomeBatch)
        if batch.received.size != count:
            fs.fail(ERR_BAD_PARAMS, "outcome batch does not match requested size")
        alice.absorb(batch.received, batch.outcomes)

    decl = fs.expect(Declaration)
    if decl.letters.size != config.raw_length:
        fs.fail(ERR_BAD_PARAMS, "declaration length does not match raw key length")
    fs.send(SiftAck(conclusive_count=alice.sift(decl.letters)))
    if alice.final.known_count == 0:
        fs.fail(ERR_SESSION_FAILED, "no known final-key bits; session must restart")

    fs.send(Shift(shift=alice.query(target_index)))
    ct = fs.expect(Ciphertext)
    if ct.bits.size != config.n_items:
        fs.fail(ERR_BAD_PARAMS, "ciphertext length does not match database size")
    alice.retrieve(ct.bits)
    return alice


def public_report_fields(report):
    """The report fields both endpoints can know and must agree on.

    Only the HELLO-negotiated parameters survive from the config echo;
    seeds and endpoint-local knobs stay private to each side.
    """
    doc = report.to_dict(public_only=True)
    doc.pop("known_final_count")
    doc["config"] = {
        key: doc["config"][key]
        for key in ("n_items", "substrings", "theta", "loss_rate")
    }
    return doc


def _start_local_worker():
    global _local_worker
    _local_worker = ThreadPoolExecutor(1, thread_name_prefix="wire-local-bob")


# Bob of every run_local_session runs on this one long-lived thread. A
# forked child inherits the executor but not its thread, so it starts its own.
_start_local_worker()
os.register_at_fork(after_in_child=_start_local_worker)


def _local_bob(config, database, conn, audit):
    with conn:  # closed when he ends, so an Alice still reading sees it
        return run_bob_endpoint(config, database, conn, audit=audit)


def run_local_session(config, database, target_index, audit_bob=None, audit_alice=None):
    """Run both endpoints over an in-memory socket pair, Bob on the local
    worker thread; returns their (Sender, Receiver)."""
    left, right = socket.socketpair()
    pending = _local_worker.submit(_local_bob, config, database, left, audit_bob)
    errors = {}
    with right:  # closed before Bob's result is read, so he cannot wait on her
        try:
            alice = run_alice_endpoint(config, target_index, right, audit=audit_alice)
        except QpqError as exc:
            errors["alice"] = exc
    try:
        bob = pending.result()
    except QpqError as exc:
        errors["bob"] = exc
    if errors:  # sorted, so Alice's error leads whichever side failed first
        raise ProtocolAbort(f"local session failed: {dict(sorted(errors.items()))}")
    return bob, alice


class WireServer:
    """TCP listener hosting independent sessions on SERVER_WORKERS threads.

    Each connection gets its own key (see session_config) and its
    session_budget, counted from accept. Once serve returns, outcomes
    counts every accepted session: "ok", or the ABORT_OUTCOMES name of the
    abort, or the class of any other exception. The bound port is available
    immediately after construction, so port 0 (OS-assigned) works for
    tests and scripted runs.
    """

    def __init__(self, host, port, config, database, sessions=None):
        check_config(config)  # no client could match a config HELLO cannot carry
        self._srv = socket.create_server((host, port))
        self._config = config
        self._database = np.asarray(database, dtype=np.uint8)
        self._sessions = sessions
        self.outcomes = Counter()
        self.host = host
        self.port = self._srv.getsockname()[1]

    def session_config(self, index):
        """Sender config of the index-th connection (from 0): fresh source and
        channel seeds, so known bits cannot be pooled across connections."""
        base = self._config
        seq = np.random.SeedSequence([base.source_seed, base.channel_seed, index])
        source, channel = (int(v) for v in seq.generate_state(2, dtype=np.uint64))
        return replace(base, source_seed=source, channel_seed=channel)

    def _handle(self, conn, config, deadline):
        with conn:
            try:
                left = deadline - time.monotonic()
                if left <= 0:
                    return "timeout"  # spent waiting for a worker
                conn.settimeout(left)
                run_bob_endpoint(config, self._database, conn)
                return "ok"
            except ProtocolAbort as exc:
                return ABORT_OUTCOMES.get(exc.code, f"peer_code_{exc.code}")
            except Exception as exc:  # counted too: the pool would only keep it in a future
                return type(exc).__name__

    def serve(self):
        """Accept and handle connections; returns the number accepted once
        the session limit is reached and every accepted session has an
        outcome."""
        sessions = []
        pool = ThreadPoolExecutor(SERVER_WORKERS, thread_name_prefix="wire-server")
        # the listener closes first, so no peer waits in its backlog while the pool drains
        with pool, self._srv:
            while self._sessions is None or len(sessions) < self._sessions:
                try:
                    conn, _ = self._srv.accept()
                except OSError:
                    break  # listener closed
                config = self.session_config(len(sessions))
                # from accept, as the peer's from its connect: the pool drains in one budget
                deadline = time.monotonic() + session_budget(config)
                sessions.append(pool.submit(self._handle, conn, config, deadline))
        self.outcomes.update(future.result() for future in sessions)
        return len(sessions)

    def close(self):
        self._srv.close()
