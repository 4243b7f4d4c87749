"""A session's memory is bounded by one photon round plus k*N bits.

Every k*N array of a session is held packed, one bit per retained
photon, so the largest T4 session, N = 10^6 and k = 4, must fit well
inside the 12 MiB this test allows for everything it allocates (the
inputs are built before tracing starts). With one byte per retained
photon in each of its arrays it traced about 24 MiB in both modes.

The N-bit final keys are packed too. With a byte per final-key bit, the
same session traced 7.2 MB over the wire; it must now trace at most
6 MiB there.

A received frame is held once too, in the one buffer it is read into,
and a round's retained photons are picked through its loss flags, with
no index array; a round that lost none keeps a view of its arrays.

The database and the ciphertext are packed too: the query phase leaves
the N/8-byte ciphertext behind, where a byte per item held 0.95 MiB, and
the receiver picks her known position without unpacking her N-bit mask.
"""

import socket
import threading
import tracemalloc

import numpy as np
import pytest

from qpqsim import planner, protocol, wire

N_ITEMS = 10 ** 6
LIMIT = 12 << 20


def _traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _in_process(config, database, target):
    report, _, _ = protocol.run_session(config, database, target)
    return report.query.retrieved_bit


def _over_the_wire(config, database, target):
    _, alice = wire.run_local_session(config, database, target)
    return alice.retrieved_bit


@pytest.mark.parametrize("run", [_in_process, _over_the_wire])
def test_largest_t4_session_peaks_under_12_mib(run):
    plan = planner.plan_min_k(N_ITEMS, 3.0, 0.2)
    assert plan.substrings == 4
    config = protocol.SessionConfig(n_items=N_ITEMS, substrings=4, theta=plan.theta)
    database = protocol.random_database(N_ITEMS, 1)
    target = 123457
    retrieved, peak = _traced_peak(lambda: run(config, database, target))
    assert retrieved == database[target]
    assert peak <= LIMIT, f"traced peak {peak / 2 ** 20:.1f} MiB"


def test_largest_t4_session_over_the_wire_peaks_under_6_mib():
    # each party held its N-bit final key a byte per bit: 7.2 MB
    theta = planner.plan_min_k(N_ITEMS, 3.0, 0.2).theta
    config = protocol.SessionConfig(n_items=N_ITEMS, substrings=4, theta=theta)
    database = protocol.random_database(N_ITEMS, 1)
    retrieved, peak = _traced_peak(lambda: _over_the_wire(config, database, 123457))
    assert retrieved == database[123457]
    assert peak <= 6 << 20, f"traced peak {peak / 2 ** 20:.2f} MiB"


def test_query_phase_holds_only_the_packed_ciphertext():
    config = protocol.SessionConfig(n_items=N_ITEMS, substrings=1, theta=0.6)
    sender, receiver = protocol._single_pass(config, 0)
    database = protocol.random_database(N_ITEMS, 1)
    tracemalloc.start()
    try:
        retrieved = receiver.retrieve(sender.answer(database, receiver.query(123457)))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retrieved == database[123457]
    assert held <= 1 << 18, f"held {held / 2 ** 20:.2f} MiB"


def test_query_picks_its_known_position_from_the_packed_mask():
    # unpacking the N-bit final-key mask to list its known positions
    # traced 0.96 MiB at this row; the pick unpacks its nonzero bytes only
    theta = planner.plan_min_k(N_ITEMS, 3.0, 0.2).theta
    config = protocol.SessionConfig(n_items=N_ITEMS, substrings=4, theta=theta)
    _, receiver, _, final = protocol._distribute(config)
    known = np.flatnonzero(final.alice_mask)
    shift, peak = _traced_peak(lambda: receiver.query(123457))
    pick = protocol.query_stream(config, receiver.attempt).random()
    assert (123457 + shift) % N_ITEMS == known[int(pick * known.size)]
    assert peak <= 64 << 10, f"traced peak {peak / 1024:.1f} KiB"


def test_received_frame_is_read_into_one_buffer():
    # a DECLARATION of k*N = 4*10^6 letters; joining its chunks and
    # prepending its header held it twice
    count = 4 * N_ITEMS
    body = np.full(count // 8, 0xA5, dtype=np.uint8)
    frame = wire.encode_frame(wire.Declaration(letters=protocol.Bits(count, body)))
    assert len(frame) == 500_009
    left, right = socket.socketpair()
    with left, right:
        sender = threading.Thread(target=left.sendall, args=(frame,))
        sender.start()
        msg, peak = _traced_peak(wire.FrameStream(right).recv)
        sender.join(timeout=30)
    assert not sender.is_alive()
    assert len(msg.letters) == count and msg.letters.body.tobytes() == body.tobytes()
    assert peak <= 1.1 * len(frame), f"traced peak {peak / len(frame):.3f} x the frame"


def test_lossless_round_is_retained_without_an_index_array():
    # a round that leaves the key incomplete (k*N = 2 * ROUND), and one that
    # receives exactly the missing photons (k*N = ROUND); an int64 index of
    # its photons alone would take 8 bytes per photon
    received = np.ones(protocol.ROUND, dtype=bool)
    outcomes = np.ones(protocol.ROUND, dtype=np.uint8)
    for n_items in (protocol.ROUND, protocol.ROUND // 2):
        config = protocol.SessionConfig(n_items=n_items, substrings=2, theta=0.6)
        receiver = protocol.Receiver(config)
        receiver.bases(protocol.ROUND)
        _, peak = _traced_peak(lambda: receiver.absorb(received, outcomes))
        assert receiver.retained == receiver.sent == protocol.ROUND
        per_photon = peak / protocol.ROUND
        assert per_photon < 4, f"k*N = {config.raw_length}: {per_photon:.2f} bytes per photon"
