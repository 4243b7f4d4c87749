import socket
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpqsim import protocol, wire
from qpqsim.errors import CapacityError, ProtocolAbort
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

    def counting(source_rng, channel_rng, bases, config, p0):
        simulated.append(bases.shape[0])
        return simulate_batch(source_rng, channel_rng, bases, config, p0)

    monkeypatch.setattr(protocol, "simulate_batch", counting)
    cfg = make_config(n_items=1000, substrings=2, theta=0.6)
    database = random_database(cfg.n_items, 4)
    report, _, _ = run_session(cfg, database, 42)
    assert report.success and report.restarted == 0
    assert sum(simulated) == cfg.raw_length == 2000

    submitted = []

    def audit_bob(direction, msg):
        if direction == "recv" and isinstance(msg, MeasureSubmit):
            submitted.append(msg.bases.size)

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
    assert np.array_equal((np.asarray(decls[0].letters) >> 1), np.zeros(cfg.raw_length))


def test_tcp_server_hosts_sessions():
    cfg = make_config()
    database = random_database(cfg.n_items, 9)
    server = wire.WireServer("127.0.0.1", 0, cfg, database, sessions=2)
    thread = threading.Thread(target=server.serve, daemon=True)
    thread.start()
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
    assert server.outcomes == {"ok": 2}
    # a fresh key per connection: known bits cannot be pooled across queries
    assert not np.array_equal(finals[0], finals[1])


def test_stalled_peer_frees_its_worker_within_the_timeout(monkeypatch):
    monkeypatch.setattr(wire, "SOCKET_TIMEOUT", 0.2)
    cfg = make_config()
    server = wire.WireServer("127.0.0.1", 0, cfg, random_database(cfg.n_items, 9), sessions=1)
    thread = threading.Thread(target=server.serve, daemon=True)
    start = time.monotonic()
    thread.start()
    # the peer connects, sends nothing and keeps its end open
    with socket.create_connection(("127.0.0.1", server.port)):
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert time.monotonic() - start < 5
    assert server.outcomes == {"timeout": 1}


def test_concurrent_sessions_are_all_counted():
    # sixteen workers on two cores finish at once; a lost update of the
    # shared tally would show as a count below 16
    cfg = make_config()
    server = wire.WireServer("127.0.0.1", 0, cfg, random_database(cfg.n_items, 9), sessions=16)
    thread = threading.Thread(target=server.serve, daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread.start()
        for _ in range(16):  # each peer hangs up before HELLO
            socket.create_connection(("127.0.0.1", server.port)).close()
        thread.join(timeout=30)
        assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert server.outcomes == {"disconnected": 16}


def test_full_duplex_loss_session_over_wire():
    cfg = make_config(loss_rate=0.4)
    database = random_database(cfg.n_items, 21)
    bob_res, alice_res = run_local_session(cfg, database, 60)
    assert alice_res.retrieved_bit == database[60]
    assert bob_res.report.photons_received == alice_res.report.photons_received
    assert bob_res.report.photons_sent == alice_res.report.photons_sent
