import os
import signal
import socket
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpqsim import protocol, wire
from qpqsim.errors import CapacityError, DomainError, ProtocolAbort
from qpqsim.protocol import SessionConfig, random_database, run_session
from qpqsim.wire import (
    Ciphertext,
    Declaration,
    Error,
    FrameDecodeError,
    Hello,
    MeasureSubmit,
    MsgType,
    OutcomeBatch,
    PhotonBatchReq,
    Shift,
    SiftAck,
    decode_frame,
    encode_frame,
    run_alice_endpoint,
    run_bob_endpoint,
    run_local_session,
    public_report_fields,
)


def make_config(**kw):
    # theta large enough that a first-pass empty mask is a ~2e-3 event;
    # every seed combo used below was checked to succeed on attempt 0
    base = dict(
        n_items=64,
        substrings=2,
        theta=0.9,
        source_seed=11,
        channel_seed=22,
        measure_seed=33,
    )
    base.update(kw)
    return SessionConfig(**base)


# --- codec ------------------------------------------------------------------------


def test_shift_frame_layout_matches_reference_bytes():
    frame = encode_frame(Shift(shift=2))
    assert frame == bytes.fromhex("00000005" "07" "00000002")


def test_declaration_bit_packing_msb_first():
    frame = encode_frame(Declaration(letters=np.array([1, 0, 1, 1], dtype=np.uint8)))
    # length 10: tag + count u32 + one packed byte; bits 1011 -> 0xB0
    assert frame[4] == MsgType.DECLARATION
    assert frame[5:9] == (4).to_bytes(4, "big")
    assert frame[9] == 0xB0


def test_frame_round_trip_all_message_types():
    rng = np.random.default_rng(0)
    messages = [
        Hello(theta=0.5, n_items=100, substrings=3, loss_rate=0.25),
        PhotonBatchReq(count=4096),
        MeasureSubmit(bases=(rng.random(37) >= 0.5).astype(np.uint8)),
        OutcomeBatch(
            received=rng.random(21) >= 0.3,
            outcomes=(rng.random(21) >= 0.5).astype(np.uint8),
        ),
        Declaration(letters=(rng.random(64) >= 0.5).astype(np.uint8)),
        SiftAck(conclusive_count=17),
        Shift(shift=123456),
        Ciphertext(bits=(rng.random(100) >= 0.5).astype(np.uint8)),
        Error(code=2, message="bad params"),
    ]
    for msg in messages:
        assert decode_frame(encode_frame(msg)) == msg


@settings(max_examples=200, deadline=None)
@given(
    tag=st.sampled_from([MsgType.PHOTON_BATCH_REQ, MsgType.SIFT_ACK, MsgType.SHIFT]),
    value=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_u32_message_round_trip_property(tag, value):
    cls = {
        MsgType.PHOTON_BATCH_REQ: PhotonBatchReq,
        MsgType.SIFT_ACK: SiftAck,
        MsgType.SHIFT: Shift,
    }[tag]
    msg = cls(value)
    assert decode_frame(encode_frame(msg)) == msg


def test_decode_rejects_truncated_and_unknown():
    frame = encode_frame(Shift(shift=9))
    with pytest.raises(FrameDecodeError):
        decode_frame(frame[:-1])
    with pytest.raises(FrameDecodeError):
        decode_frame(frame[:3])
    bad_tag = frame[:4] + bytes([0x55]) + frame[5:]
    with pytest.raises(FrameDecodeError):
        decode_frame(bad_tag)
    with pytest.raises(FrameDecodeError):
        decode_frame(encode_frame(SiftAck(3))[:-2] + b"xx" + b"y")


def test_oversize_frame_rejected():
    big = Ciphertext(bits=np.ones(wire.MAX_FRAME_LENGTH * 8 + 64, dtype=np.uint8))
    with pytest.raises(CapacityError):
        encode_frame(big)
    # at the cap exactly: an ERROR frame's length is its tag byte, its code
    # byte and the message
    fill = "x" * (wire.MAX_FRAME_LENGTH - 2)
    assert len(encode_frame(Error(code=1, message=fill))) == 4 + wire.MAX_FRAME_LENGTH
    with pytest.raises(CapacityError):
        encode_frame(Error(code=1, message=fill + "x"))


def test_length_over_the_cap_aborts_before_the_body_is_read():
    header = (wire.MAX_FRAME_LENGTH + 1).to_bytes(4, "big") + bytes([MsgType.CIPHERTEXT])
    conn = ChunkedConn(header + b"\x00" * 64, 4096)
    with pytest.raises(ProtocolAbort) as exc:
        wire.FrameStream(conn).recv()
    assert exc.value.code == wire.ERR_DECODE
    assert conn.data == b"\x00" * 64


def _frame(tag, payload):
    return (1 + len(payload)).to_bytes(4, "big") + bytes([tag]) + payload


@pytest.mark.parametrize("cls", [MeasureSubmit, OutcomeBatch, Declaration, Ciphertext])
def test_bit_array_whose_body_is_one_byte_short_is_rejected(cls):
    # a count of 17 bits needs three body bytes; the frame carries two
    payload = (17).to_bytes(4, "big") + b"\xff\xff"
    with pytest.raises(FrameDecodeError, match="truncated bit array body"):
        decode_frame(_frame(cls.TAG, payload))


@pytest.mark.parametrize("cls", [MeasureSubmit, OutcomeBatch, Declaration, Ciphertext])
def test_bit_array_shorter_than_its_count_header_is_rejected(cls):
    # three bytes, where the bit count alone takes four
    with pytest.raises(FrameDecodeError, match="truncated bit array header"):
        decode_frame(_frame(cls.TAG, b"\x00\x00\x01"))


def test_error_frame_without_its_code_byte_is_rejected():
    with pytest.raises(FrameDecodeError, match="ERROR payload must carry a code byte"):
        decode_frame(_frame(MsgType.ERROR, b""))


def test_outcome_batch_whose_arrays_differ_in_length_is_rejected():
    nine, eight = np.ones(9, dtype=np.uint8), np.ones(8, dtype=np.uint8)
    payload = b"".join(encode_frame(MeasureSubmit(bases=b))[5:] for b in (nine, eight))
    with pytest.raises(FrameDecodeError, match="differ in length"):
        decode_frame(_frame(MsgType.OUTCOME_BATCH, payload))


def test_decoding_a_bit_array_allocates_it_once():
    # one byte per bit, besides the frame's packed payload
    frame = encode_frame(MeasureSubmit(bases=np.ones(wire.ROUND, dtype=np.uint8)))
    tracemalloc.start()
    try:
        msg = decode_frame(frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert msg.bases.unpack().tolist() == [1] * wire.ROUND
    assert peak < wire.ROUND + 2 * len(frame)


def test_declaration_of_packed_letters_encodes_as_of_letters():
    letters = (np.random.default_rng(3).random(37) >= 0.5).astype(np.uint8)
    packed = Declaration(letters=protocol.Bits(37, np.packbits(letters)))
    assert encode_frame(packed) == encode_frame(Declaration(letters=letters))
    assert packed.letters.unpack().tolist() == letters.tolist()
    assert decode_frame(encode_frame(packed)) == packed
    # one byte more than 37 bits take
    with pytest.raises(FrameDecodeError, match="trailing bytes"):
        decode_frame(_frame(MsgType.DECLARATION, encode_frame(packed)[5:] + b"\x00"))


def test_declaration_pad_bits_are_ignored():
    letters = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    clean = encode_frame(Declaration(letters=letters))
    dirty = clean[:-1] + bytes([clean[-1] | 0x07])  # the three pad bits set
    assert dirty != clean
    assert decode_frame(dirty) == decode_frame(clean) == Declaration(letters=letters)
    assert decode_frame(dirty).letters.unpack().tolist() == letters.tolist()


def test_session_sifts_a_declaration_with_pad_bits_as_the_clean_one(monkeypatch):
    # 35 * 3 = 105 letters: the last byte holds one letter and seven pad bits
    cfg = make_config(n_items=35, substrings=3)
    database = random_database(cfg.n_items, 4)
    clean_bob, clean_alice = run_local_session(cfg, database, 6)
    honest = protocol.Sender.declaration

    def with_pad_bits(sender):
        letters = honest(sender)
        letters.body[-1] |= 0x7F
        return letters

    monkeypatch.setattr(protocol.Sender, "declaration", with_pad_bits)
    declared = []
    bob, alice = run_local_session(
        cfg, database, 6,
        audit_bob=lambda direction, msg: declared.extend([msg] * isinstance(msg, Declaration)),
    )
    assert encode_frame(declared[0])[-1] & 0x7F == 0x7F  # the pad bits went out
    for name in ("mask", "alice"):
        got, want = getattr(alice.raw, name), getattr(clean_alice.raw, name)
        assert got.body.tobytes() == want.body.tobytes()
    assert alice.raw.mask.body[-1] & 0x7F == 0  # and were not taken in
    assert np.array_equal(alice.final.alice_mask, clean_alice.final.alice_mask)
    assert np.array_equal(alice.final.alice_bits, clean_alice.final.alice_bits)
    assert alice.report.to_json() == clean_alice.report.to_json()
    assert bob.report.to_json() == clean_bob.report.to_json()
    assert alice.retrieved_bit == database[6]


class ChunkedConn:
    """A connected stream holding the given bytes that hands out at most
    chunk bytes per recv_into, so every frame arrives in several short
    reads; data holds the bytes not yet read."""

    def __init__(self, data, chunk):
        self.data = data
        self._chunk = chunk
        self.sent = []

    def gettimeout(self):
        return None

    def recv_into(self, buffer):
        size = min(len(buffer), self._chunk)
        out, self.data = self.data[:size], self.data[size:]
        buffer[:len(out)] = out
        return len(out)

    def sendall(self, data):
        self.sent.append(data)


@pytest.mark.parametrize("chunk", [1, 3, 7, 4096])
def test_frames_read_in_short_reads_stay_aligned(chunk):
    rng = np.random.default_rng(9)
    frames = [
        OutcomeBatch(received=rng.random(21) >= 0.3, outcomes=rng.random(21) >= 0.5),
        Declaration(letters=(rng.random(37) >= 0.5).astype(np.uint8)),
        Shift(shift=2),
        Ciphertext(bits=(rng.random(11) >= 0.5).astype(np.uint8)),
    ]
    conn = ChunkedConn(b"".join(encode_frame(m) for m in frames), chunk)
    stream = wire.FrameStream(conn)
    assert [stream.recv() for _ in frames] == frames
    assert conn.sent == []  # no ERROR frame went back


def test_decode_frame_rejects_a_length_over_the_cap():
    # before the body is compared with the length: this frame ends at its tag
    header = (wire.MAX_FRAME_LENGTH + 1).to_bytes(4, "big") + bytes([MsgType.SHIFT])
    with pytest.raises(CapacityError, match="exceeds the"):
        decode_frame(header)


def test_spent_budget_aborts_a_send_and_a_read_before_they_start():
    # a zero-second budget is spent as the stream starts
    left, right = socket.socketpair()
    with left, right:
        left.settimeout(0.0)
        fs = wire.FrameStream(left)
        for call in (lambda: fs.send(Shift(shift=1)), fs.recv):
            with pytest.raises(ProtocolAbort, match="exceeded its 0.0 s budget") as exc:
                call()
            assert exc.value.code == wire.ERR_TIMEOUT
        right.setblocking(False)
        with pytest.raises(BlockingIOError):
            right.recv(1)  # nothing went out


@pytest.mark.parametrize("left_behind", [b"", encode_frame(Shift(shift=4))],
                         ids=["nothing", "a-shift-frame"])
def test_send_to_a_peer_that_left_no_error_frame_reports_the_disconnect(left_behind):
    left, right = socket.socketpair()
    with left:
        with right:
            right.sendall(left_behind)
        with pytest.raises(ProtocolAbort, match="peer disconnected: ") as exc:
            wire.FrameStream(left).send(Shift(shift=1))
    assert exc.value.code is None


class ResetConn(ChunkedConn):
    """A ChunkedConn whose peer resets the connection once its bytes run out."""

    def recv_into(self, buffer):
        if not self.data:
            raise ConnectionResetError("connection reset by peer")
        return super().recv_into(buffer)


def test_connection_reset_mid_frame_aborts():
    # two bytes of the SHIFT frame's body arrive, then the reset
    conn = ResetConn(encode_frame(Shift(shift=3))[:-2], 4)
    with pytest.raises(ProtocolAbort, match="connection lost mid-frame") as exc:
        wire.FrameStream(conn).recv()
    assert exc.value.code is None
    assert conn.sent == []


def _alice_against(cfg, target_index, bob):
    """Alice's ProtocolAbort and the frame she answers with, where the
    scripted bob(fs, sender) plays the database holder after HELLO."""
    left, right = socket.socketpair()
    alice_error = {}

    def alice():
        try:
            run_alice_endpoint(cfg, target_index, left)
        except ProtocolAbort as exc:
            alice_error["exc"] = exc
        finally:
            left.close()

    thread = threading.Thread(target=alice)
    thread.start()
    with right:
        fs = wire.FrameStream(right)
        fs.expect(Hello)
        bob(fs, protocol.Sender(cfg))
        reply = fs.recv()
    thread.join(timeout=30)
    assert not thread.is_alive()
    return alice_error.get("exc"), reply


def _honest_rounds(fs, sender):
    while not sender.done:
        fs.expect(PhotonBatchReq)
        received, outcomes = sender.transmit(fs.expect(MeasureSubmit).bases.unpack())
        fs.send(OutcomeBatch(received=received, outcomes=outcomes))


@pytest.mark.parametrize("extra", [-1, 1, 8])
def test_declaration_of_the_wrong_length_aborts_the_receiver(extra):
    # an honest Bob's rounds, then a declaration of raw_length + extra letters
    cfg = make_config()

    def bob(fs, sender):
        _honest_rounds(fs, sender)
        letters = sender.declaration().unpack()
        fs.send(Declaration(letters=np.resize(letters, cfg.raw_length + extra)))

    error, reply = _alice_against(cfg, 3, bob)
    assert error.code == wire.ERR_BAD_PARAMS
    assert "declaration length" in str(error)
    assert isinstance(reply, Error) and reply.code == wire.ERR_BAD_PARAMS


@pytest.mark.parametrize("extra", [-1, 1])
def test_outcome_batch_of_the_wrong_size_aborts_the_receiver(extra):
    def bob(fs, sender):
        size = fs.expect(PhotonBatchReq).count + extra
        received, outcomes = sender.transmit(fs.expect(MeasureSubmit).bases.unpack())
        received, outcomes = np.resize(received, size), np.resize(outcomes, size)
        fs.send(OutcomeBatch(received=received, outcomes=outcomes))

    error, reply = _alice_against(make_config(), 3, bob)
    assert error.code == wire.ERR_BAD_PARAMS
    assert "outcome batch does not match requested size" in str(error)
    assert isinstance(reply, Error) and reply.code == wire.ERR_BAD_PARAMS


@pytest.mark.parametrize("extra", [-1, 1])
def test_ciphertext_of_the_wrong_length_aborts_the_receiver(extra):
    cfg = make_config()
    database = random_database(cfg.n_items, 1)

    def bob(fs, sender):
        _honest_rounds(fs, sender)
        fs.send(Declaration(letters=sender.declaration()))
        fs.expect(SiftAck)
        ciphertext = sender.answer(database, fs.expect(Shift).shift)
        fs.send(Ciphertext(bits=np.resize(ciphertext, cfg.n_items + extra)))

    error, reply = _alice_against(cfg, 3, bob)
    assert error.code == wire.ERR_BAD_PARAMS
    assert "ciphertext length does not match database size" in str(error)
    assert isinstance(reply, Error) and reply.code == wire.ERR_BAD_PARAMS


# --- endpoint sessions ---------------------------------------------------------------


def test_local_wire_session_retrieves_database_bit():
    cfg = make_config()
    database = random_database(cfg.n_items, 7)
    bob_res, alice_res = run_local_session(cfg, database, 13)
    assert alice_res.retrieved_bit == database[13]
    assert bob_res.report.query.shift == alice_res.report.query.shift
    assert public_report_fields(bob_res.report) == public_report_fields(alice_res.report)


def test_wire_matches_in_process_engine():
    for seed in (1, 2, 3, 4, 5):
        cfg = make_config(
            source_seed=seed, channel_seed=seed + 50, measure_seed=seed + 90,
            loss_rate=0.2,
        )
        database = random_database(cfg.n_items, seed)
        item = (3 * seed) % cfg.n_items
        report, raw, final = run_session(cfg, database, item)
        assert report.success and report.restarted == 0
        bob_res, alice_res = run_local_session(cfg, database, item)
        # the endpoints return the parties, each holding only its own view
        assert isinstance(bob_res, protocol.Sender)
        assert isinstance(alice_res, protocol.Receiver)
        assert np.array_equal(bob_res.raw_bits, raw.bits)
        assert np.array_equal(bob_res.final_bits, final.bits)
        assert alice_res.raw.bits is None and alice_res.final.bits is None
        assert np.array_equal(alice_res.final.alice_mask, final.alice_mask)
        assert np.array_equal(alice_res.final.alice_bits, final.alice_bits)
        assert alice_res.retrieved_bit == report.query.retrieved_bit == database[item]
        assert alice_res.report.query.shift == report.query.shift


def test_lossless_session_simulates_exactly_kn_photons(monkeypatch):
    # rounds are sized to the photons the key still misses, so without loss
    # both modes simulate k*N photons and not one round's worth more
    simulated = []
    simulate_batch = protocol.simulate_batch

    def counting(source_rng, channel_rng, bases, *args):
        simulated.append(bases.shape[0])
        return simulate_batch(source_rng, channel_rng, bases, *args)

    monkeypatch.setattr(protocol, "simulate_batch", counting)
    cfg = make_config(n_items=1000, substrings=2, theta=0.6)
    database = random_database(cfg.n_items, 4)
    report, _, _ = run_session(cfg, database, 42)
    assert report.success and report.restarted == 0
    assert sum(simulated) == cfg.raw_length == 2000

    submitted = []

    def audit_bob(direction, msg):
        if direction == "recv" and isinstance(msg, MeasureSubmit):
            submitted.append(len(msg.bases))

    _, alice_res = run_local_session(cfg, database, 42, audit_bob=audit_bob)
    assert sum(submitted) == 2000
    assert alice_res.report.to_dict() == report.to_dict()


def test_wire_public_fields_match_in_process_report():
    # both modes run the same rounds, and the photon counters stop at the
    # last retained photon, so the public report views are equal
    cfg = make_config()
    database = random_database(cfg.n_items, 9)
    report, _, _ = run_session(cfg, database, 11)
    assert report.success and report.restarted == 0
    bob_res, alice_res = run_local_session(cfg, database, 11)
    in_process = public_report_fields(report)
    assert in_process == public_report_fields(bob_res.report)
    assert in_process == public_report_fields(alice_res.report)


def test_malformed_hello_aborts_both_sides():
    cfg = make_config()
    database = random_database(cfg.n_items, 1)
    left, right = socket.socketpair()
    bob_error = {}

    def bob():
        try:
            run_bob_endpoint(cfg, database, left)
        except ProtocolAbort as exc:
            bob_error["exc"] = exc
        finally:
            left.close()

    thread = threading.Thread(target=bob)
    thread.start()
    fs = wire.FrameStream(right)
    fs.send(Hello(theta=0.0, n_items=cfg.n_items, substrings=2, loss_rate=0.0))
    msg = fs.recv()
    right.close()
    thread.join()
    assert isinstance(msg, Error)
    assert msg.code == wire.ERR_BAD_PARAMS
    assert isinstance(bob_error["exc"], ProtocolAbort)


def test_out_of_order_frame_aborts_with_order_error():
    cfg = make_config()
    database = random_database(cfg.n_items, 1)
    left, right = socket.socketpair()

    def bob():
        try:
            run_bob_endpoint(cfg, database, left)
        except ProtocolAbort:
            pass
        finally:
            left.close()

    thread = threading.Thread(target=bob)
    thread.start()
    fs = wire.FrameStream(right)
    fs.send(Shift(shift=1))  # before HELLO
    msg = fs.recv()
    right.close()
    thread.join()
    assert isinstance(msg, Error)
    assert msg.code == wire.ERR_ORDER


def _bob_reply(cfg, *frames):
    """Bob's answer to HELLO followed by frames."""
    database = random_database(cfg.n_items, 1)
    left, right = socket.socketpair()

    def bob():
        try:
            run_bob_endpoint(cfg, database, left)
        except ProtocolAbort:
            pass
        finally:
            left.close()

    thread = threading.Thread(target=bob)
    thread.start()
    fs = wire.FrameStream(right)
    for frame in (wire._hello(cfg),) + frames:
        fs.send(frame)
    msg = fs.recv()
    right.close()
    thread.join(timeout=30)
    assert not thread.is_alive()
    return msg


@pytest.mark.parametrize(
    "frame",
    [
        bytes.fromhex("00000001" "55"),
        bytes.fromhex("00000004" "06" "000003"),
        bytes.fromhex("00000000" "06"),
    ],
    ids=["unknown-tag", "short-sift-ack", "zero-length"],
)
def test_undecodable_frame_aborts_with_decode_error(frame):
    cfg = make_config()
    left, right = socket.socketpair()
    bob_error = {}

    def bob():
        try:
            run_bob_endpoint(cfg, random_database(cfg.n_items, 1), left)
        except ProtocolAbort as exc:
            bob_error["exc"] = exc
        finally:
            left.close()

    thread = threading.Thread(target=bob)
    thread.start()
    right.sendall(encode_frame(wire._hello(cfg)) + frame)
    msg = wire.FrameStream(right).recv()
    right.close()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert isinstance(msg, Error) and msg.code == wire.ERR_DECODE
    assert bob_error["exc"].code == wire.ERR_DECODE


@pytest.mark.parametrize(
    "frames",
    [
        (PhotonBatchReq(count=0),),
        (PhotonBatchReq(count=wire.ROUND + 1),),
        (PhotonBatchReq(count=10), MeasureSubmit(bases=np.zeros(9, dtype=np.uint8))),
    ],
    ids=["empty-round", "round-over-limit", "bases-not-matching-round"],
)
def test_bad_round_rejected(frames):
    msg = _bob_reply(make_config(), *frames)
    assert isinstance(msg, Error)
    assert msg.code == wire.ERR_BAD_PARAMS


def test_parameter_mismatch_rejected():
    cfg = make_config()
    database = random_database(cfg.n_items, 1)
    left, right = socket.socketpair()

    def bob():
        try:
            run_bob_endpoint(cfg, database, left)
        except ProtocolAbort:
            pass
        finally:
            left.close()

    thread = threading.Thread(target=bob)
    thread.start()
    other = make_config(theta=0.7)
    with pytest.raises(ProtocolAbort) as err:
        run_alice_endpoint(other, 0, right)
    right.close()
    thread.join()
    assert err.value.code == wire.ERR_BAD_PARAMS


def test_check_config_requires_the_declaration_to_fit_one_frame():
    # 1 + 4 + ceil(k*N / 8) bytes: k*N = 134,217,688 letters fill the cap
    wire.check_config(SessionConfig(n_items=134_217_688, substrings=1, theta=0.3))
    for n_items, substrings in ((134_217_689, 1), (2 ** 26, 2)):
        config = SessionConfig(n_items=n_items, substrings=substrings, theta=0.3)
        with pytest.raises(CapacityError, match="DECLARATION frame, over the 16777216 cap"):
            wire.check_config(config)


def test_server_checks_the_database_size_before_it_listens():
    # it used to listen, and abort every session with bad_params after HELLO
    with pytest.raises(DomainError, match="database has 10 bits, key has 64"):
        wire.WireServer("127.0.0.1", 0, make_config(), np.zeros(10))


@pytest.mark.parametrize("sessions", [0, -1])
def test_server_rejects_fewer_than_one_session_before_it_listens(monkeypatch, sessions):
    # it used to listen, accept nothing and serve 0 sessions
    monkeypatch.setattr(wire.socket, "create_server", lambda *args: pytest.fail("listened"))
    with pytest.raises(DomainError, match=f"session count must be >= 1, got {sessions}"):
        wire.WireServer("127.0.0.1", 0, make_config(), random_database(64, 9), sessions=sessions)


BAD_VALUE = "database values must be 0 or 1"


@pytest.mark.parametrize(
    "database, target, message",
    [
        ([0] * 10, 3, "database has 10 bits, key has 64"),
        ([0] * 64, 64, r"target index 64 out of range \[0, 64\)"),
        # a 2 retrieved 2 in process and 1 over the wire, -1 and 256 raised
        # OverflowError, and 0.5 was taken as 0
        ([0, 0, 0, 2] + [0] * 60, 3, BAD_VALUE),
        ([0, 0, 0, -1] + [0] * 60, 3, BAD_VALUE),
        ([0, 0, 0, 256] + [0] * 60, 3, BAD_VALUE),
        ([0, 0, 0, 0.5] + [0] * 60, 3, BAD_VALUE),
    ],
    ids=["database-size", "target-index", "value-2", "value-minus-1", "value-256", "value-half"],
)
def test_local_session_checks_its_inputs_before_the_first_frame(database, target, message):
    # run_session's DomainError, before either endpoint sends or reads a frame
    cfg = make_config()
    with pytest.raises(DomainError, match=message):
        run_session(cfg, database, target)
    frames = []
    with pytest.raises(DomainError, match=message):
        run_local_session(
            cfg, database, target,
            audit_bob=lambda *frame: frames.append(("bob", frame)),
            audit_alice=lambda *frame: frames.append(("alice", frame)),
        )
    assert frames == []


def test_alice_checks_hello_fields_before_her_first_frame():
    # SessionConfig takes any k >= 1, but HELLO carries k in 16 bits
    cfg = SessionConfig(n_items=1, substrings=70000, theta=0.9)
    left, right = socket.socketpair()
    with left, right:
        with pytest.raises(CapacityError):
            run_alice_endpoint(cfg, 0, right)
        left.setblocking(False)
        with pytest.raises(BlockingIOError):
            left.recv(1)


def test_local_abort_message_does_not_depend_on_thread_order():
    # p ~ 2e-4 with one attempt: Alice aborts, then Bob reads her ERROR frame;
    # the two errors used to be listed in the order the threads failed
    cfg = SessionConfig(n_items=1, substrings=1, theta=0.02, max_restarts=0)
    messages = set()
    for _ in range(20):
        with pytest.raises(ProtocolAbort) as err:
            run_local_session(cfg, np.zeros(1, dtype=np.uint8), 0)
        messages.add(str(err.value))
    (message,) = messages
    assert message.startswith("local session failed: {'alice': ")
    assert "'bob': " in message


def test_local_sessions_reuse_one_bob_thread():
    cfg = make_config()
    database = random_database(cfg.n_items, 7)
    threads = set()
    for item in range(5):
        _, alice = run_local_session(
            cfg, database, item,
            audit_bob=lambda direction, msg: threads.add(threading.current_thread()),
        )
        assert alice.retrieved_bit == database[item]
    (thread,) = threads
    assert thread is not threading.main_thread()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_local_sessions():
    # the child inherits the local worker's executor but not its thread
    cfg = make_config()
    database = random_database(cfg.n_items, 7)
    run_local_session(cfg, database, 13)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(10)  # a hung session kills the child
            _, alice = run_local_session(cfg, database, 13)
            code = 0 if alice.retrieved_bit == database[13] else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_privacy_hygiene_of_frames():
    # sender never transmits labels or coded bits; receiver reveals only
    # counts and the shift (never the target index or mask positions)
    cfg = make_config()
    database = random_database(cfg.n_items, 3)
    item = 29
    bob_frames, alice_frames = [], []
    bob_res, alice_res = run_local_session(
        cfg,
        database,
        item,
        audit_bob=lambda direction, msg: bob_frames.append((direction, msg)),
        audit_alice=lambda direction, msg: alice_frames.append((direction, msg)),
    )
    bob_sent = [m for d, m in bob_frames if d == "send"]
    alice_sent = [m for d, m in alice_frames if d == "send"]
    assert {type(m) for m in bob_sent} <= {OutcomeBatch, Declaration, Ciphertext}
    assert {type(m) for m in alice_sent} <= {
        Hello, PhotonBatchReq, MeasureSubmit, SiftAck, Shift,
    }
    # the receiver's sift outcome crosses the wire only as a scalar count
    acks = [m for m in alice_sent if isinstance(m, SiftAck)]
    assert len(acks) == 1
    shifts = [m for m in alice_sent if isinstance(m, Shift)]
    assert len(shifts) == 1
    # nothing the receiver sends encodes the queried index directly: the
    # shift is the only index-bearing field and j is uniform over knowns
    assert shifts[0].shift == (alice_res.report.query.known_index - item) % cfg.n_items
    # declarations are the public letters, never the coded bits
    decls = [m for m in bob_sent if isinstance(m, Declaration)]
    assert len(decls) == 1
    assert np.array_equal(decls[0].letters.unpack().view(np.uint8) >> 1, np.zeros(cfg.raw_length))


def serve_in_thread(server):
    """Start server.serve on a thread; the returned list receives its count."""
    handled = []
    thread = threading.Thread(target=lambda: handled.append(server.serve()), daemon=True)
    thread.start()
    return thread, handled


def test_tcp_server_hosts_sessions():
    cfg = make_config()
    database = random_database(cfg.n_items, 9)
    server = wire.WireServer("127.0.0.1", 0, cfg, database, sessions=2)
    thread, handled = serve_in_thread(server)
    finals = []
    for index, item in enumerate((5, 40)):
        with socket.create_connection(("127.0.0.1", server.port)) as conn:
            result = run_alice_endpoint(cfg, item, conn)
        assert result.retrieved_bit == database[item]
        # each connection's key is the in-process key of its derived config
        report, _, final = run_session(server.session_config(index), database, item)
        assert report.restarted == 0
        assert np.array_equal(result.final.alice_mask, final.alice_mask)
        assert np.array_equal(result.final.alice_bits, final.alice_bits)
        finals.append(final.bits)
    thread.join(timeout=30)
    assert handled == [2]
    assert server.outcomes == {"ok": 2}
    # a fresh key per connection: known bits cannot be pooled across queries
    assert not np.array_equal(finals[0], finals[1])


def test_stalled_peer_frees_its_worker_within_the_timeout(monkeypatch):
    monkeypatch.setattr(wire, "SOCKET_TIMEOUT", 0.2)
    cfg = make_config()
    server = wire.WireServer("127.0.0.1", 0, cfg, random_database(cfg.n_items, 9), sessions=1)
    start = time.monotonic()
    thread, handled = serve_in_thread(server)
    # the peer connects, sends nothing and keeps its end open
    with socket.create_connection(("127.0.0.1", server.port)):
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert time.monotonic() - start < 5
    assert handled == [1]
    assert server.outcomes == {"timeout": 1}


def test_close_wakes_a_server_blocked_in_accept():
    # on Linux, closing a listening socket does not wake accept, so a serve
    # with no session limit stayed blocked after close
    cfg = make_config()
    server = wire.WireServer("127.0.0.1", 0, cfg, random_database(cfg.n_items, 9))
    thread, handled = serve_in_thread(server)
    time.sleep(0.2)  # serve is blocked in accept
    start = time.monotonic()
    server.close()
    thread.join(timeout=2)
    assert not thread.is_alive()
    assert time.monotonic() - start < 2
    assert handled == [0]
    assert server.outcomes == {}
    server.close()  # once serve has returned, close does nothing


def drip(conn, data, interval):
    """Send data one byte per interval until it is all sent or the peer hangs up."""
    try:
        for byte in data:
            conn.sendall(bytes([byte]))
            time.sleep(interval)
    except OSError:
        pass  # the peer closed the connection


def test_drip_feeding_peer_times_out_within_the_budget(monkeypatch):
    # each byte used to restart the timeout, and HELLO takes 5.4 s at this pace
    monkeypatch.setattr(wire, "SOCKET_TIMEOUT", 0.5)
    cfg = make_config()
    server = wire.WireServer("127.0.0.1", 0, cfg, random_database(cfg.n_items, 9), sessions=1)
    start = time.monotonic()
    thread, handled = serve_in_thread(server)
    with socket.create_connection(("127.0.0.1", server.port)) as conn:
        drip(conn, encode_frame(wire._hello(cfg)), 0.2)
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert time.monotonic() - start < 5
    assert handled == [1]
    assert server.outcomes == {"timeout": 1}


def test_drip_feeding_peer_cannot_starve_the_server(monkeypatch):
    # one worker, held by a peer dripping HELLO (8.1 s at this pace): the
    # honest client behind it waits out that peer's budget, not the whole
    # frame, and its own budget, counted from accept, still has 1 s left
    monkeypatch.setattr(wire, "SERVER_WORKERS", 1)
    monkeypatch.setattr(wire, "SOCKET_TIMEOUT", 2.0)
    cfg = make_config()
    database = random_database(cfg.n_items, 9)
    server = wire.WireServer("127.0.0.1", 0, cfg, database, sessions=2)
    thread, handled = serve_in_thread(server)
    with socket.create_connection(("127.0.0.1", server.port)) as slow:
        dripper = threading.Thread(
            target=drip, args=(slow, encode_frame(wire._hello(cfg)), 0.3), daemon=True
        )
        dripper.start()
        time.sleep(1.0)
        start = time.monotonic()
        with socket.create_connection(("127.0.0.1", server.port)) as conn:
            alice = run_alice_endpoint(cfg, 5, conn)
        assert time.monotonic() - start < 5
        dripper.join(timeout=30)
    thread.join(timeout=30)
    assert alice.retrieved_bit == database[5]
    assert handled == [2]
    assert server.outcomes == {"timeout": 1, "ok": 1}


def test_queued_sessions_spend_their_budget_from_accept(monkeypatch):
    # four silent peers, one worker: each budget runs from accept, so serve
    # drains in one budget; counted from a worker's pickup it took four
    monkeypatch.setattr(wire, "SERVER_WORKERS", 1)
    monkeypatch.setattr(wire, "SOCKET_TIMEOUT", 1.0)
    cfg = make_config()
    server = wire.WireServer("127.0.0.1", 0, cfg, random_database(cfg.n_items, 9), sessions=4)
    start = time.monotonic()
    thread, handled = serve_in_thread(server)
    peers = [socket.create_connection(("127.0.0.1", server.port)) for _ in range(4)]
    thread.join(timeout=30)
    for peer in peers:
        peer.close()
    assert time.monotonic() - start < 2.5
    assert handled == [4]
    assert server.outcomes == {"timeout": 4}


def test_session_budget_grows_with_the_photons_it_sends():
    assert wire.session_budget(make_config()) < wire.SOCKET_TIMEOUT + 0.01
    lossy = make_config(n_items=10**6, substrings=4, loss_rate=0.9)
    budget = wire.SOCKET_TIMEOUT + wire.PHOTON_SECONDS * 4e7  # photons: kN / (1 - loss)
    assert wire.session_budget(lossy) == pytest.approx(budget)
    beyond_cap = make_config(n_items=10**8, substrings=4, loss_rate=0.99)
    budget = wire.SOCKET_TIMEOUT + wire.PHOTON_SECONDS * protocol.PHOTON_CAP
    assert wire.session_budget(beyond_cap) == pytest.approx(budget)


def test_frame_stream_turns_nagle_off_on_tcp_only():
    # a round sends two small frames before it reads; an API caller's TCP
    # socket held the second for the peer's delayed ACK, about 44 ms a round
    with socket.create_server(("127.0.0.1", 0)) as listener:
        with socket.create_connection(listener.getsockname()) as conn:
            accepted, _ = listener.accept()
            with accepted:
                assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 0
                wire.FrameStream(conn)
                assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
    left, right = socket.socketpair()  # AF_UNIX: no such option, and no error
    with left, right:
        wire.FrameStream(left).send(Shift(shift=1))
        assert wire.FrameStream(right).recv() == Shift(shift=1)


def test_session_longer_than_socket_timeout_completes_within_its_budget(monkeypatch):
    # 3,193,564 photons in 49 rounds take about 4x longer than 0.02 s, which
    # stands in for the whole budget any session used to have; the photons
    # now add to it. Both ends send without Nagle's delay, so the photons,
    # not delayed ACKs, make the session outlast it
    monkeypatch.setattr(wire, "SOCKET_TIMEOUT", 0.02)
    cfg = make_config(n_items=40000, substrings=4, loss_rate=0.95)
    database = random_database(cfg.n_items, 9)
    server = wire.WireServer("127.0.0.1", 0, cfg, database, sessions=1)
    thread, handled = serve_in_thread(server)
    start = time.monotonic()
    with socket.create_connection(("127.0.0.1", server.port)) as conn:
        conn.settimeout(wire.session_budget(cfg))
        alice = run_alice_endpoint(cfg, 5, conn)
    assert time.monotonic() - start > wire.SOCKET_TIMEOUT
    thread.join(timeout=30)
    assert alice.retrieved_bit == database[5]
    assert handled == [1]
    assert server.outcomes == {"ok": 1}


def test_query_times_out_against_a_drip_feeding_server():
    # each byte used to restart the timeout: the query read the whole
    # frame (13 s at this pace) and only then failed on its size
    cfg = make_config()
    batch = OutcomeBatch(received=np.ones(1000, bool), outcomes=np.zeros(1000, np.uint8))
    with socket.create_server(("127.0.0.1", 0)) as listener:

        def drip_server():
            conn, _ = listener.accept()
            with conn:
                drip(conn, encode_frame(batch), 0.05)

        dripper = threading.Thread(target=drip_server, daemon=True)
        dripper.start()
        start = time.monotonic()
        with socket.create_connection(listener.getsockname(), timeout=0.5) as conn:
            with pytest.raises(ProtocolAbort) as exc:
                run_alice_endpoint(cfg, 5, conn)
        assert time.monotonic() - start < 3
        dripper.join(timeout=30)
    assert exc.value.code == wire.ERR_TIMEOUT
    assert "0.5 s budget" in str(exc.value)


def test_peer_that_never_reads_times_out_the_send():
    # a frame far larger than both socket buffers blocks in sendall until
    # the budget is spent; this used to count as a disconnect (code None)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        with socket.create_connection(listener.getsockname(), timeout=0.5) as conn:
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            peer, _ = listener.accept()
            with peer, pytest.raises(ProtocolAbort) as exc:
                wire.FrameStream(conn).send(MeasureSubmit(bases=np.zeros(1 << 23, np.uint8)))
    assert exc.value.code == wire.ERR_TIMEOUT


def test_server_runs_at_most_server_workers_sessions_at_once(monkeypatch):
    monkeypatch.setattr(wire, "SERVER_WORKERS", 2)
    lock = threading.Lock()
    running, peak = [0], [0]
    endpoint = wire.run_bob_endpoint

    def counted_endpoint(*args, **kwargs):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        try:
            time.sleep(0.1)  # keeps each session open while the others connect
            return endpoint(*args, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(wire, "run_bob_endpoint", counted_endpoint)
    cfg = make_config()
    database = random_database(cfg.n_items, 9)
    server = wire.WireServer("127.0.0.1", 0, cfg, database, sessions=5)
    thread, handled = serve_in_thread(server)
    retrieved = {}

    def client(item):
        with socket.create_connection(("127.0.0.1", server.port)) as conn:
            retrieved[item] = run_alice_endpoint(cfg, item, conn).retrieved_bit

    clients = [threading.Thread(target=client, args=(item,), daemon=True) for item in range(5)]
    for c in clients:
        c.start()
    for c in clients:
        c.join(timeout=30)
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert peak[0] == 2
    assert retrieved == {item: database[item] for item in range(5)}
    assert handled == [5]
    assert server.outcomes == {"ok": 5}


def test_session_failing_with_any_exception_is_counted(monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("session buffers")

    monkeypatch.setattr(wire, "run_bob_endpoint", out_of_memory)
    cfg = make_config()
    server = wire.WireServer("127.0.0.1", 0, cfg, random_database(cfg.n_items, 9), sessions=1)
    thread, handled = serve_in_thread(server)
    socket.create_connection(("127.0.0.1", server.port)).close()
    thread.join(timeout=30)
    assert handled == [1]
    assert server.outcomes == {"MemoryError": 1}


def test_concurrent_sessions_are_all_counted():
    # sixteen sessions on SERVER_WORKERS threads finish close together
    cfg = make_config()
    server = wire.WireServer("127.0.0.1", 0, cfg, random_database(cfg.n_items, 9), sessions=16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread, handled = serve_in_thread(server)
        for _ in range(16):  # each peer hangs up before HELLO
            socket.create_connection(("127.0.0.1", server.port)).close()
        thread.join(timeout=30)
        assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert handled == [16]
    assert server.outcomes == {"disconnected": 16}


def test_full_duplex_loss_session_over_wire():
    cfg = make_config(loss_rate=0.4)
    database = random_database(cfg.n_items, 21)
    bob_res, alice_res = run_local_session(cfg, database, 60)
    assert alice_res.retrieved_bit == database[60]
    assert bob_res.report.photons_received == alice_res.report.photons_received
    assert bob_res.report.photons_sent == alice_res.report.photons_sent
