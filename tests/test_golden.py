"""Golden digests: seeded outputs that must stay bit for bit.

A session case runs one seeded session, in process (run_session) or over
the wire (run_local_session), at one protocol.ROUND, and hashes what it
yields: the keys and masks, the report JSON, the retrieved bit, the class,
code and message of an abort, and, on the wire, every frame each endpoint
sends. The server case hashes WireServer.outcomes and what each of four
clients it serves one after another gets. An attack case hashes the
report JSON of one Monte Carlo attack at a fixed generator seed; an out
case hashes every file one CLI command writes to --out. tests/golden.json
holds one SHA-256 per case. A change that moves any of these outputs
fails here; one that means to must say so and regenerate the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import socket
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qpqsim import attacks, cli, protocol, wire
from qpqsim.errors import QpqError

GOLDEN = Path(__file__).with_name("golden.json")

ROUNDS = (7, 4096, 65536)
# N % 8 != 0 in every config; loss from 0 to 0.5; k up to 5. In process,
# "restart" succeeds on its third attempt and "exhausted" fails both of
# its; over the wire, where a session has one attempt, both abort.
CONFIGS = {
    "n1": dict(n_items=1, substrings=1, theta=1.2, loss_rate=0.0,
               source_seed=1, channel_seed=2, measure_seed=3),
    "n37-k5-loss50": dict(n_items=37, substrings=5, theta=1.5, loss_rate=0.5,
                          source_seed=11, channel_seed=12, measure_seed=13),
    "n1001-k3-loss20": dict(n_items=1001, substrings=3, theta=0.9, loss_rate=0.2,
                            source_seed=21, channel_seed=22, measure_seed=23),
    "restart": dict(n_items=37, substrings=2, theta=0.6, loss_rate=0.3,
                    source_seed=2, channel_seed=3, measure_seed=4, max_restarts=4),
    "exhausted": dict(n_items=9, substrings=4, theta=0.5, loss_rate=0.1,
                      source_seed=1, channel_seed=2, measure_seed=3, max_restarts=1),
}
SESSION_CASES = [f"{mode}-{name}-round{size}"
                 for mode in ("inproc", "wire") for name in CONFIGS for size in ROUNDS]

# Monte Carlo attacks at a fixed generator seed; each crosses a round of
# protocol.ROUND photons.
ATTACKS = {
    "attack-usd-k1": lambda rng: attacks.alice_individual_usd(
        50, 0.7, 1, trials=70_000, rng=rng),
    "attack-usd-k3": lambda rng: attacks.alice_individual_usd(
        50, 1.1, 3, trials=30_000, rng=rng),
    "attack-bob-conclusive": lambda rng: attacks.bob_conclusiveness_attack(
        0.3, True, trials=70_000, rng=rng),
    "attack-bob-inconclusive": lambda rng: attacks.bob_conclusiveness_attack(
        1.2, False, trials=70_000, rng=rng),
}

# CLI commands whose --out files are hashed
OUT_TRIALS = ["--trials", "20000", "--seed", "5"]
COMMANDS = {
    "out-attack-usd": ["attack", "--kind", "usd", "--theta", "0.9", "--k", "2", *OUT_TRIALS],
    "out-attack-helstrom": ["attack", "--kind", "helstrom", "--theta", "0.3", "--k", "4"],
    "out-attack-joint-usd": ["attack", "--kind", "joint-usd", "--theta", "0.3", "--k", "5"],
    "out-attack-bob": ["attack", "--kind", "bob", "--theta", "0.6", "--want", "inconclusive",
                       "--format", "csv", *OUT_TRIALS],
    **{f"out-figures-{which}": ["figures", "--which", which, "--N", "1000"]
       for which in ("F1", "F2", "F3", "F4", "F5")},
    **{f"out-figures-{which}-csv": ["figures", "--which", which, "--N", "1000", "--format", "csv"]
       for which in ("F1", "F2", "F3", "F4", "F5")},
    "out-plan": ["plan", "--N", "5000", "--nbar", "3"],
    "out-plan-csv": ["plan", "--N", "5000", "--nbar", "3", "--k", "2", "--format", "csv"],
    "out-tables": ["tables"],
    "out-run": ["run", "--N", "203", "--k", "2", "--theta", "0.8", "--loss", "0.1",
                "--seed", "17", "--item", "150"],
}

SERVER_CASE = "server-four-clients"

CASES = SESSION_CASES + [SERVER_CASE] + list(ATTACKS) + list(COMMANDS)


class Digest:
    """SHA-256 over a sequence of length-prefixed items."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, *items):
        for item in items:
            if isinstance(item, np.ndarray):
                data = b"array" + np.asarray(item, dtype=np.uint8).tobytes()
            elif isinstance(item, bytes):
                data = b"bytes" + item
            else:
                data = b"repr" + repr(item).encode()
            self._hash.update(len(data).to_bytes(8, "big") + data)

    def hexdigest(self):
        return self._hash.hexdigest()


def _abort(digest, exc):
    digest.add("abort", type(exc).__name__, getattr(exc, "code", None), str(exc))


def _run_inproc(digest, config, database, target):
    try:
        report, raw, final = protocol.run_session(config, database, target)
    except QpqError as exc:
        _abort(digest, exc)
        return
    digest.add(raw.bits, raw.alice_mask, raw.alice_bits,
               final.bits, final.alice_mask, final.alice_bits, report.to_json())
    digest.add("retrieved", None if report.query is None else report.query.retrieved_bit)


def _run_wire(digest, config, database, target):
    sent = {"bob": [], "alice": []}

    def audit(endpoint):
        def hook(direction, msg):
            if direction == "send":
                sent[endpoint].append(wire.encode_frame(msg))
        return hook

    try:
        bob, alice = wire.run_local_session(
            config, database, target, audit_bob=audit("bob"), audit_alice=audit("alice")
        )
    except QpqError as exc:
        _abort(digest, exc)
    else:
        digest.add(bob.raw_bits, bob.final_bits,
                   alice.raw.alice_mask, alice.raw.alice_bits,
                   alice.final.alice_mask, alice.final.alice_bits,
                   bob.report.to_json(), alice.report.to_json())
        digest.add("retrieved", alice.retrieved_bit)
    for endpoint in ("bob", "alice"):
        digest.add(endpoint, len(sent[endpoint]), *sent[endpoint])


def _server_digest():
    # clients in turn, so each is accepted with its own index: two honest
    # ones, one whose HELLO does not match, one that hangs up mid-round
    config = protocol.SessionConfig(n_items=61, substrings=2, theta=1.0, loss_rate=0.1,
                                    source_seed=31, channel_seed=32, measure_seed=33)
    database = protocol.random_database(config.n_items, config.source_seed)
    server = wire.WireServer("127.0.0.1", 0, config, database, sessions=4)
    thread = threading.Thread(target=server.serve)
    thread.start()
    digest = Digest()
    try:
        for item, client_config in ((5, config), (0, replace(config, theta=1.4)), (30, config)):
            with socket.create_connection(("127.0.0.1", server.port)) as conn:
                try:
                    alice = wire.run_alice_endpoint(client_config, item, conn)
                except QpqError as exc:
                    _abort(digest, exc)
                else:
                    digest.add(alice.report.to_json(), alice.retrieved_bit)
        with socket.create_connection(("127.0.0.1", server.port)) as conn:
            fs = wire.FrameStream(conn)
            fs.send(wire._hello(config))
            fs.send(wire.PhotonBatchReq(count=100))
    finally:
        thread.join(timeout=30)
    assert not thread.is_alive()
    digest.add(sorted(server.outcomes.items()))
    return digest.hexdigest()


def _attack_digest(case):
    report = ATTACKS[case](np.random.default_rng(2024))
    digest = Digest()
    digest.add(report.to_json())
    return digest.hexdigest()


def _out_digest(case):
    # the file names carry a hash of every flag, --out among them, so only
    # their extensions are hashed with the contents
    digest = Digest()
    with tempfile.TemporaryDirectory() as out:
        assert cli.main(COMMANDS[case] + ["--out", out]) == cli.EXIT_OK
        for path in sorted(Path(out).iterdir()):
            name = path.name if case == "out-tables" else path.suffix
            digest.add(name, path.read_bytes())
    return digest.hexdigest()


def case_digest(case):
    if case == SERVER_CASE:
        return _server_digest()
    if case in ATTACKS:
        return _attack_digest(case)
    if case in COMMANDS:
        return _out_digest(case)
    mode, rest = case.split("-", 1)
    name, size = rest.rsplit("-round", 1)
    config = protocol.SessionConfig(**CONFIGS[name])
    database = protocol.random_database(config.n_items, config.source_seed)
    target = (7 * config.n_items) // 3 % config.n_items
    digest = Digest()
    previous = protocol.ROUND
    protocol.ROUND = int(size)
    try:
        (_run_inproc if mode == "inproc" else _run_wire)(digest, config, database, target)
    finally:
        protocol.ROUND = previous
    return digest.hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_lists_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_session_outputs_match_their_golden_digest(case, golden):
    assert case_digest(case) == golden[case]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case: case_digest(case) for case in CASES}, indent=1) + "\n")
    print(f"wrote {len(CASES)} digests to {GOLDEN}")
