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
The sender rotates the packed final key, where unpacking it traced 1.14
MiB.

Photon rounds and database draws work in chunks of protocol.CHUNK
photons, each party drawing into buffers it reuses until it is done. So
no array a session or a database draw allocates is much larger than one
chunk, and a process whose allocator was never warmed by a large free
(a database read from a file) re-maps nothing round after round.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from qpqsim import cli, planner, protocol, wire

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


def _t4_config(**seeds):
    theta = planner.plan_min_k(N_ITEMS, 3.0, 0.2).theta
    return protocol.SessionConfig(n_items=N_ITEMS, substrings=4, theta=theta, **seeds)


def test_largest_t4_session_in_process_peaks_under_4_mib():
    # round-sized float64 draws and kernel temporaries traced 5.16 MiB
    config, database = _t4_config(), protocol.random_database(N_ITEMS, 1)
    retrieved, peak = _traced_peak(lambda: _in_process(config, database, 123457))
    assert retrieved == database[123457]
    assert peak <= 4 << 20, f"traced peak {peak / 2 ** 20:.2f} MiB"


def test_random_database_draws_in_chunks_under_1_mib():
    # one float64 per bit, drawn at once, traced 8.6 MiB at N = 10^6
    database, peak = _traced_peak(lambda: protocol.random_database(N_ITEMS, 1))
    assert len(database) == N_ITEMS
    assert peak <= 1 << 20, f"traced peak {peak / 2 ** 20:.2f} MiB"


def test_parties_drop_their_draw_buffers_when_done():
    # at loss 0.9 the first round of this k*N = 4000 asks for 40,001
    # photons, so the sender draws through 512 KiB of chunk buffers and the
    # receiver through 128 KiB; the finished parties hold 7 KiB
    config = protocol.SessionConfig(n_items=2000, substrings=2, theta=0.6, loss_rate=0.9)
    protocol._single_pass(config, 0)  # the first one imports numpy.random, which loads lazily
    tracemalloc.start()
    try:
        sender, receiver = protocol._single_pass(config, 0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sender.final is not None and receiver.final is not None
    assert held <= 64 << 10, f"held {held / 1024:.1f} KiB"


def test_query_phase_traces_under_half_a_mib_at_the_largest_t4_row():
    # the sender unpacked her N-bit final key to rotate it: 1.14 MiB
    config = _t4_config()
    sender, receiver, _, _ = protocol._distribute(config)
    database = protocol.random_database(N_ITEMS, 1)
    retrieved, peak = _traced_peak(
        lambda: receiver.retrieve(sender.answer(database, receiver.query(123457)))
    )
    assert retrieved == database[123457]
    assert peak < 1 << 19, f"traced peak {peak / 2 ** 20:.2f} MiB"


def test_run_command_peaks_within_half_a_mib_of_its_session(tmp_path, capsys):
    # the database draw used to set the peak of run: 8.6 MiB, against 5.2
    # for the session it ran
    source, channel, measure = cli.derive_seeds(1)
    config = _t4_config(source_seed=source, channel_seed=channel, measure_seed=measure)
    database = protocol.random_database(N_ITEMS, 1)
    _, session_peak = _traced_peak(lambda: _in_process(config, database, 123457))
    argv = ["run", "--N", str(N_ITEMS), "--k", "4", "--theta", repr(config.theta),
            "--seed", "1", "--item", "123457", "--out", str(tmp_path)]
    code, peak = _traced_peak(lambda: cli.main(argv))
    assert code == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[0])
    assert doc["database_bit"] == database[123457] == doc["query"]["retrieved_bit"]
    assert peak <= session_peak + (1 << 19), (
        f"run {peak / 2 ** 20:.2f} MiB, session {session_peak / 2 ** 20:.2f} MiB"
    )


COLD_SESSIONS = """
import json, resource, sys
from qpqsim import planner, protocol
n_items, path = 10 ** 6, sys.argv[1]
theta = planner.plan_min_k(n_items, 3.0, 0.2).theta
database = protocol.load_database(path, n_items)
faults = []
for seed in range(3):
    config = protocol.SessionConfig(n_items=n_items, substrings=4, theta=theta,
                                    source_seed=seed + 1, channel_seed=seed + 11,
                                    measure_seed=seed + 21)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    report, _, _ = protocol.run_session(config, database, 123457)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert report.query.retrieved_bit == database[123457]
print(json.dumps(faults))
"""


def test_cold_process_sessions_fault_under_5000_times_from_the_second(tmp_path):
    # a process that reads its database from a file frees no large block
    # before its sessions, so glibc's mmap threshold stays at 128 KiB: with
    # round-sized draws every round mapped and faulted its arrays again,
    # about 47,000 minor faults per N = 10^6 session
    path = tmp_path / "database.hex"
    path.write_text(protocol.random_database(N_ITEMS, 1).body.tobytes().hex())
    src = os.path.dirname(os.path.dirname(protocol.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", COLD_SESSIONS, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout)
    assert all(count < 5000 for count in faults[1:]), f"minor faults per session: {faults}"
