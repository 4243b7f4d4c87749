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

import contextlib
import os
import socket
import struct
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from enum import IntEnum

import numpy as np

from .errors import CapacityError, DomainError, ProtocolAbort, QpqError
from .protocol import (
    PHOTON_CAP, PUBLIC_CONFIG, ROUND, Bits, Receiver, Sender, check_database, check_target,
)

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


def _read_bits(payload, offset):
    """The Bits at offset, whose body is a view of the payload, and the
    offset after them."""
    if len(payload) < offset + 4:
        raise FrameDecodeError("truncated bit array header")
    (count,) = _U32.unpack_from(payload, offset)
    nbytes = Bits.body_size(count)
    start = offset + 4
    if len(payload) < start + nbytes:
        raise FrameDecodeError("truncated bit array body")
    body = np.frombuffer(payload, dtype=np.uint8, count=nbytes, offset=start)
    return Bits(count, body), start + nbytes


class _Message:
    """Payload codec derived from a message's dataclass fields, in
    declaration order: a STRUCT packs them as one fixed-width record;
    without one, each field is a Bits, sent as its 32-bit count and its
    body, and all Bits of a message have one length. A Bits field given
    0/1 values packs them."""

    STRUCT = None

    def __post_init__(self):
        for f in fields(self):
            if f.type is Bits and not isinstance(getattr(self, f.name), Bits):
                setattr(self, f.name, Bits.of(getattr(self, f.name)))

    def encode_payload(self):
        values = [getattr(self, f.name) for f in fields(self)]
        if self.STRUCT is not None:
            return self.STRUCT.pack(*values)
        return b"".join(_U32.pack(v.count) + v.body.tobytes() for v in values)

    @classmethod
    def decode_payload(cls, payload):
        name = cls.TAG.name
        if cls.STRUCT is not None:
            if len(payload) != cls.STRUCT.size:
                raise FrameDecodeError(f"{name} payload must be {cls.STRUCT.size} bytes")
            return cls(*cls.STRUCT.unpack(payload))
        values, offset = [], 0
        for _ in fields(cls):
            bits, offset = _read_bits(payload, offset)
            values.append(bits)
        if offset != len(payload):
            raise FrameDecodeError(f"trailing bytes after {name}")
        if len({len(v) for v in values}) > 1:
            raise FrameDecodeError(f"{name} bit arrays differ in length")
        return cls(*values)


@dataclass
class Hello(_Message):
    TAG = MsgType.HELLO
    STRUCT = struct.Struct(">dIHd")
    theta: float
    n_items: int
    substrings: int
    loss_rate: float


@dataclass
class PhotonBatchReq(_Message):
    TAG = MsgType.PHOTON_BATCH_REQ
    STRUCT = _U32
    count: int


@dataclass
class MeasureSubmit(_Message):
    TAG = MsgType.MEASURE_SUBMIT
    bases: Bits


@dataclass
class OutcomeBatch(_Message):
    TAG = MsgType.OUTCOME_BATCH
    received: Bits
    outcomes: Bits


@dataclass
class Declaration(_Message):
    TAG = MsgType.DECLARATION
    letters: Bits


@dataclass
class SiftAck(_Message):
    TAG = MsgType.SIFT_ACK
    STRUCT = _U32
    conclusive_count: int


@dataclass
class Shift(_Message):
    TAG = MsgType.SHIFT
    STRUCT = _U32
    shift: int


@dataclass
class Ciphertext(_Message):
    TAG = MsgType.CIPHERTEXT
    bits: Bits


@dataclass
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
        return cls(code=payload[0], message=str(payload[1:], "utf-8", "replace"))


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
    return _decode_payload(tag, memoryview(data)[5:])


def _decode_payload(tag, payload):
    """The message of a frame's tag and payload; the one parser of both
    decode_frame and FrameStream."""
    cls = MESSAGE_TYPES.get(tag)
    if cls is None:
        raise FrameDecodeError(f"unknown message type 0x{tag:02x}")
    return cls.decode_payload(payload)


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
        """count bytes, received into one buffer."""
        buffer = bytearray(count)
        view = memoryview(buffer)
        got = 0
        while got < count:
            self._arm()
            try:
                size = self._conn.recv_into(view[got:])
            except TimeoutError:
                raise self._timed_out()
            except OSError as exc:
                raise ProtocolAbort(f"connection lost mid-frame: {exc}")
            if not size:
                raise ProtocolAbort("peer disconnected mid-frame")
            got += size
        return buffer

    def _read_frame(self):
        length, tag = _HEADER.unpack(self._read_exact(_HEADER.size))
        # checked before the body is read, so no peer sets what this end allocates
        if length > MAX_FRAME_LENGTH:
            raise ProtocolAbort(f"oversize frame announced ({length} bytes)", code=ERR_DECODE)
        if length == 0:
            raise FrameDecodeError("frame length 0 leaves no room for its tag")
        return _decode_payload(tag, self._read_exact(length - 1))

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
    return Hello(**{key: getattr(config, key) for key in PUBLIC_CONFIG})


def check_config(config):
    """The session parameters must fit HELLO's fields, and the k*N letters
    one DECLARATION frame; a query checks this before its first frame and
    a server before it draws its database."""
    try:
        _hello(config).encode_payload()
    except struct.error as exc:
        raise CapacityError(f"session parameters do not fit a HELLO frame: {exc}") from None
    length = 1 + _U32.size + Bits.body_size(config.raw_length)
    if length > MAX_FRAME_LENGTH:
        raise CapacityError(f"k*N = {config.raw_length} letters take a {length}-byte "
                            f"DECLARATION frame, over the {MAX_FRAME_LENGTH} cap")


def check_sessions(sessions):
    """A server hosts at least one session, or runs until stopped (None);
    serve checks this before it draws its database."""
    if sessions is not None and sessions < 1:
        raise DomainError(f"session count must be >= 1, got {sessions}")


def session_budget(config):
    """Seconds a served or querying session may take: both ends know it
    before the first frame, and a server takes it from its own config."""
    photons = min(PHOTON_CAP, config.raw_length / (1.0 - config.loss_rate))
    return SOCKET_TIMEOUT + PHOTON_SECONDS * photons


def run_bob_endpoint(config, database, conn, audit=None):
    """Database-holder side of one wire session (single pass, no restart);
    returns the Sender."""
    database = check_database(config, database)
    fs = FrameStream(conn, audit)
    # his own config is validated, so this rejects every invalid HELLO too
    if fs.expect(Hello) != _hello(config):
        fs.fail(ERR_BAD_PARAMS, "session parameters do not match this endpoint")

    bob = Sender(config)
    while not bob.done:
        req = fs.expect(PhotonBatchReq)
        if not 1 <= req.count <= ROUND:
            fs.fail(ERR_BAD_PARAMS, f"batch size {req.count} outside [1, {ROUND}]")
        sub = fs.expect(MeasureSubmit)
        if len(sub.bases) != req.count:
            fs.fail(ERR_BAD_PARAMS, "basis array does not match requested batch size")
        received, outcomes = bob.transmit(sub.bases.unpack())
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
        if len(batch.received) != count:
            fs.fail(ERR_BAD_PARAMS, "outcome batch does not match requested size")
        alice.absorb(batch.received.unpack(), batch.outcomes.unpack())

    letters = fs.expect(Declaration).letters
    if len(letters) != config.raw_length:
        fs.fail(ERR_BAD_PARAMS, "declaration length does not match raw key length")
    fs.send(SiftAck(conclusive_count=alice.sift(letters)))
    if alice.final.known_count == 0:
        fs.fail(ERR_SESSION_FAILED, "no known final-key bits; session must restart")

    fs.send(Shift(shift=alice.query(target_index)))
    ciphertext = fs.expect(Ciphertext).bits
    if len(ciphertext) != config.n_items:
        fs.fail(ERR_BAD_PARAMS, "ciphertext length does not match database size")
    alice.retrieve(ciphertext)
    return alice


def public_report_fields(report):
    """The report fields both endpoints can know and must agree on: its
    public view."""
    return report.to_dict(public_only=True)


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
    worker thread; returns their (Sender, Receiver). The database size and
    target index are checked before the first frame, as in run_session."""
    database = check_database(config, database)
    check_target(config, target_index)
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
        self._database = check_database(config, database)
        check_sessions(sessions)
        self._srv = socket.create_server((host, port))
        self._config = config
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
                # small frames leave at once, not after the peer's delayed ACK
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
        with contextlib.suppress(OSError):  # closed already: serve has returned
            self._srv.shutdown(socket.SHUT_RDWR)  # wakes serve's accept; on Linux close does not
        self._srv.close()
