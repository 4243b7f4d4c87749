import ast
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import retain_indices, sift, xor_fold

from qpqsim import planner, protocol, wire
from qpqsim.errors import (
    DomainError,
    EmptyKeyMaskError,
    ProtocolAbort,
    ResourceError,
)
from qpqsim.protocol import (
    Bits,
    Key,
    SessionConfig,
    load_database,
    random_database,
    run_key_distribution,
    run_session,
    sift_batch,
    xor_compress,
)
from qpqsim.qubits import Basis, CarrierLabel, born_outcome0_tables


class FixedUniform:
    """Stand-in generator returning a scripted sequence of uniforms."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out = self.values[:size]
        del self.values[:size]
        return np.array(out)


def make_config(**kw):
    base = dict(
        n_items=50,
        substrings=2,
        theta=0.6,
        source_seed=101,
        channel_seed=202,
        measure_seed=303,
    )
    base.update(kw)
    return SessionConfig(**base)


# --- sift ---------------------------------------------------------------------


def test_sift_reference_cases():
    assert sift(Basis.B, 1, 0) == 1
    assert sift(Basis.B, 0, 0) is None
    assert sift(Basis.BP, 0, 1) == 0


def test_sift_exhaustive_truth_table():
    # 8 conclusive cases out of the 16 (label, basis, outcome) combos;
    # conclusive-but-wrong must only ever occur with Born probability 0
    for theta in np.linspace(0.01, math.pi / 2 - 0.01, 50):
        p0 = born_outcome0_tables(theta)
        conclusive_cases = 0
        for label in CarrierLabel:
            declaration = label.declaration_letter
            for basis in Basis:
                for outcome in (0, 1):
                    prob = p0[label, basis] if outcome == 0 else 1 - p0[label, basis]
                    verdict = sift(basis, outcome, declaration)
                    if verdict is None:
                        continue
                    conclusive_cases += 1
                    if verdict != label.coded_bit:
                        assert prob <= 1e-12, (
                            f"conclusive-but-wrong with p={prob} at "
                            f"{label} {basis} outcome={outcome}"
                        )
        assert conclusive_cases == 8


def test_sift_batch_matches_the_scalar_sift_per_photon():
    # random pad bits in the letters count for nothing, and both packed
    # outputs keep their pad bits zero
    rng = np.random.default_rng(2011)
    for count in range(1, 41):
        for _ in range(5):
            bases, outcomes, letters = rng.integers(0, 2, (3, count), dtype=np.uint8)
            declared = Bits.of(letters)
            declared.body[-1] |= rng.integers(0, 256) & ((1 << (-count % 8)) - 1)
            mask, bits = sift_batch(Bits.of(bases), Bits.of(outcomes), declared)
            mask, bits = np.unpackbits(mask.body), np.unpackbits(bits.body)
            for i in range(count):
                verdict = sift(int(bases[i]), int(outcomes[i]), int(letters[i]))
                assert mask[i] == (verdict is not None)
                assert bits[i] == (verdict or 0)
            assert not mask[count:].any() and not bits[count:].any()


def _uses(names, home, owner):
    """Where the package names any of names: the count of uses inside the
    top-level class or function owner of module home, and "file:line" of
    every use elsewhere."""
    inside, outside = 0, []
    for path in sorted(Path(protocol.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == home:
            (node,) = [n for n in tree.body if getattr(n, "name", None) == owner]
            allowed = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in names:
                if id(node) in allowed:
                    inside += 1
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    return inside, outside


def test_only_bits_packs_and_unpacks():
    # the packed layout is decided in one place: np.packbits and
    # np.unpackbits appear in the package only inside protocol.Bits
    inside, outside = _uses({"packbits", "unpackbits"}, "protocol.py", "Bits")
    assert outside == []
    assert inside > 0


@pytest.mark.parametrize("count", [1, 7, 8, 61])
def test_asarray_unpacks_bits_without_indexing(monkeypatch, count):
    # np.asarray walked a Bits through __getitem__, one call per bit, into
    # int64; the pad bits, set here, are not read
    values = np.random.default_rng(count).integers(0, 2, count, dtype=np.uint8)
    values[0] = 1
    bits = Bits.of(values)
    bits.body[-1] |= (1 << (-count % 8)) - 1

    def walk(*args):
        raise AssertionError("np.asarray indexed the Bits")

    monkeypatch.setattr(Bits, "__getitem__", walk)
    got = np.asarray(bits)
    assert got.dtype == np.uint8 and got.tolist() == values.tolist()
    as_float = np.asarray(bits, dtype=np.float64)
    assert as_float.dtype == np.float64 and as_float.tolist() == values.tolist()
    assert np.resize(bits, count + 1).tolist() == [*values.tolist(), 1]
    with pytest.raises(ValueError):
        np.array(bits, copy=False)


@pytest.mark.parametrize("count", [1, 7, 8, 61, 1000])
def test_flatnonzero_lists_the_set_bits_in_order(count):
    # dense and sparse bits; the pad bits, set here, are no positions
    rng = np.random.default_rng(count)
    for density in (0.0, 0.001, 0.5, 1.0):
        values = rng.random(count) < density
        bits = Bits.of(values)
        bits.body[-1] |= (1 << (-count % 8)) - 1
        got = bits.flatnonzero()
        assert got.dtype == np.intp and got.tolist() == np.flatnonzero(values).tolist()


def test_only_the_born_helper_takes_inner_products():
    # every Born weight of the package comes from qubits._born_weights:
    # np.vdot, and numpy's other inner products, appear nowhere else
    inside, outside = _uses({"vdot", "inner", "dot", "einsum"}, "qubits.py", "_born_weights")
    assert outside == []
    assert inside > 0


# --- compression ----------------------------------------------------------------


def _raw(bits, mask):
    bits = np.array(bits, dtype=np.uint8)
    mask = np.array(mask, dtype=bool)
    alice = np.where(mask, bits, 0)
    return Key(Bits.of(bits), Bits.of(mask), Bits.of(alice))


def test_xor_compress_identity_at_k1():
    raw = _raw([1, 0, 1, 1], [True, False, True, False])
    final = xor_compress(raw, 1, 4)
    assert np.array_equal(final.bits, raw.bits)
    assert np.array_equal(final.alice_mask, raw.alice_mask)
    assert np.array_equal(final.alice_bits, raw.alice_bits)


def test_xor_compress_hand_example():
    # substrings (1,1) and (0,0): bits XOR to (1,1); mask (1,1,0,1) ANDs to (0,1)
    raw = _raw([1, 1, 0, 0], [True, True, False, True])
    final = xor_compress(raw, 2, 2)
    assert final.bits.tolist() == [1, 1]
    assert final.alice_mask.tolist() == [False, True]
    assert final.alice_bits.tolist() == [0, 1]


def test_xor_compress_all_conclusive_and_errors():
    raw = _raw([1, 0, 0, 1, 1, 0], [True] * 6)
    final = xor_compress(raw, 3, 2)
    assert final.alice_mask.all()
    assert final.bits.tolist() == [(1 ^ 0 ^ 1), (0 ^ 1 ^ 0)]
    with pytest.raises(DomainError):
        xor_compress(raw, 2, 2)


@given(
    n_items=st.integers(1, 70),
    substrings=st.integers(1, 5),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(n_items=8, substrings=1, seed=0)  # whole bytes, one substring
@example(n_items=13, substrings=5, seed=1)  # unpacked substrings
def test_xor_compress_matches_the_per_position_fold(n_items, substrings, seed):
    # N runs over both _fold paths: whole rows of bytes when N % 8 == 0,
    # unpacked substrings otherwise
    truth, mask, alice = np.random.default_rng(seed).integers(0, 2, (3, substrings * n_items))
    final = xor_compress(Key(Bits.of(truth), Bits.of(mask), Bits.of(alice)), substrings, n_items)
    bits, known, value = xor_fold(truth, mask, alice, substrings, n_items)
    assert final.bits.tolist() == bits
    assert final.alice_mask.tolist() == [bool(b) for b in known]
    assert final.alice_bits.tolist() == value
    for field in (final.truth, final.mask, final.alice):
        # repacking the unpacked bits gives the same bytes: the pad bits are zero
        assert len(field) == n_items
        assert field.body.tobytes() == Bits.of(field.unpack()).body.tobytes()
    assert final.known_count == np.count_nonzero(final.alice_mask)
    assert not final.alice_bits[~final.alice_mask].any()


# --- session runs ----------------------------------------------------------------


def test_public_api_resolves_and_channel_noise_is_gone():
    import qpqsim

    for name in qpqsim.__all__:
        assert getattr(qpqsim, name) is not None, name
    with pytest.raises(TypeError):
        SessionConfig(n_items=10, substrings=1, theta=0.6, noise_rate=0.1)


def test_conclusive_fraction_at_reference_theta():
    cfg = make_config(n_items=500, substrings=2, theta=0.5)
    _, _, report = run_key_distribution(cfg)
    p = math.sin(0.5) ** 2 / 2
    n = cfg.raw_length
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(report.conclusive_count / n - p) <= 4 * sigma


def test_conclusive_fraction_symmetric_case():
    cfg = make_config(n_items=500, substrings=2, theta=math.pi / 4)
    _, _, report = run_key_distribution(cfg)
    sigma = math.sqrt(0.25 * 0.75 / cfg.raw_length)
    assert abs(report.conclusive_count / cfg.raw_length - 0.25) <= 4 * sigma


def test_conclusive_fraction_independent_of_loss():
    # fixed seeds, sweep loss: weighted regression slope consistent with 0
    etas = [0.0, 0.3, 0.6, 0.9]
    fractions = []
    for eta in etas:
        cfg = make_config(n_items=2000, substrings=1, theta=0.5, loss_rate=eta)
        _, _, report = run_key_distribution(cfg)
        fractions.append(report.conclusive_count / cfg.raw_length)
    p = math.sin(0.5) ** 2 / 2
    var = p * (1 - p) / 2000
    x = np.array(etas)
    y = np.array(fractions)
    w = 1.0 / var
    xbar = np.average(x, weights=[w] * 4)
    sxx = np.sum(w * (x - xbar) ** 2)
    slope = np.sum(w * (x - xbar) * y) / sxx
    slope_sigma = math.sqrt(1.0 / sxx)
    assert abs(slope) <= 4 * slope_sigma


def test_raw_key_receiver_agreement_noiseless():
    cfg = make_config(n_items=200, substrings=3)
    raw, final, report = run_key_distribution(cfg)
    assert len(raw) == cfg.raw_length
    assert np.all(raw.alice_bits[raw.alice_mask] == raw.bits[raw.alice_mask])
    assert np.all(final.alice_bits[final.alice_mask] == final.bits[final.alice_mask])
    assert report.known_final_count == final.known_count
    # each party holds only its own view; the returned keys join the two
    sender, receiver = protocol._single_pass(cfg, report.restarted)
    assert receiver.raw.bits is None and receiver.final.bits is None
    assert np.array_equal(receiver.raw.alice_mask, raw.alice_mask)
    assert np.array_equal(receiver.final.alice_bits, final.alice_bits)
    assert np.array_equal(sender.raw_bits, raw.bits)
    assert np.array_equal(sender.final_bits, final.bits)
    assert sender.report.conclusive_count == report.conclusive_count


def test_session_restarts_and_failure():
    # p^k tiny: receiver virtually never learns a bit
    cfg = make_config(n_items=1, substrings=1, theta=0.02, max_restarts=3)
    raw, final, report = run_key_distribution(cfg)
    if not report.success:
        assert report.restarted == 3
        assert report.known_final_count == 0
    cfg0 = make_config(n_items=1, substrings=1, theta=0.02, max_restarts=0)
    _, final0, report0 = run_key_distribution(cfg0)
    assert report0.success == (final0.known_count > 0)


def test_restarted_session_picks_its_known_index_from_its_own_attempt():
    # the query pick reads the query stream of the attempt that succeeded;
    # reading attempt 0's stream in every attempt passed the golden digests.
    # Each seed restarts at least once and ends with at least two known bits,
    # and in five of them attempt 0's stream picks another index
    database = random_database(40, 1)
    for seed in (18, 19, 22, 26, 49, 55, 61, 73):
        cfg = make_config(n_items=40, theta=0.672, source_seed=seed, channel_seed=seed + 1000,
                          measure_seed=seed + 2000, max_restarts=5)
        report, _, final = run_session(cfg, database, 7)
        known = np.flatnonzero(final.alice_mask)
        assert report.restarted >= 1 and known.size >= 2
        pick = protocol.query_stream(cfg, report.restarted).random()
        assert report.query.known_index == known[int(pick * known.size)], seed


def test_transmission_frequencies_follow_the_born_table_and_loss_rate():
    # frequencies, not bytes, so any draw scheme passes: 2^23 lossless
    # photons run as the engine runs them, about 10^6 per (label, basis)
    # cell with outcomes at random. Each cell's outcome-0 frequency lies
    # within 5 sigma of the table; scaling the kernel's gathered
    # probabilities by 1.005 moves the worst cell to |z| = 8.4
    theta = 0.6
    config = SessionConfig(n_items=2 ** 21, substrings=4, theta=theta)
    sender, receiver = protocol.Sender(config), protocol.Receiver(config)
    measured = np.empty(config.raw_length, dtype=np.uint8)  # 2 * basis + outcome
    while not receiver.done:
        start, bases = receiver.retained, receiver.bases(receiver.next_round())
        received, outcomes = sender.transmit(bases)
        receiver.absorb(received, outcomes)
        measured[start:receiver.retained] = 2 * bases + outcomes
    letters = sender.declaration()
    counts = np.zeros(16, dtype=np.int64)
    for start in range(0, config.raw_length, protocol.ROUND):
        stop = start + protocol.ROUND
        labels = 2 * sender.truth.unpack(start, stop) + letters.unpack(start, stop)
        counts += np.bincount(4 * labels + measured[start:stop], minlength=16)
    counts = counts.reshape(4, 2, 2)  # label, basis, outcome
    n = counts.sum(axis=2)
    p0 = born_outcome0_tables(theta)
    sigma = np.sqrt(p0 * (1 - p0) / n)
    assert n.min() > 0.95 * config.raw_length / 8
    assert np.all(np.abs(counts[..., 0] / n - p0) <= 5 * sigma)
    # the received fraction of a lossy session
    lossy = make_config(n_items=50_000, substrings=2, loss_rate=0.3)
    _, _, report = run_key_distribution(lossy)
    sigma = math.sqrt(0.3 * 0.7 / report.photons_sent)
    assert abs(report.photons_received / report.photons_sent - 0.7) <= 5 * sigma


def test_keys_and_report_do_not_depend_on_round_size(monkeypatch):
    # both parties retain the first received photons, every photon takes a
    # fixed number of draws, and the counters stop at the last retained
    # photon, so the round size can move neither a key nor the report
    database = random_database(50, 8)
    runs = []
    for size in (1, 64, 4096, 10 ** 5):
        monkeypatch.setattr(protocol, "ROUND", size)
        runs.append(run_session(make_config(loss_rate=0.3), database, 17))
    first_report, first_raw, first_final = runs[0]
    assert first_report.success
    assert first_report.restarted == 1  # these seeds compare a restart too
    for report, raw, final in runs[1:]:
        assert np.array_equal(raw.bits, first_raw.bits)
        assert np.array_equal(raw.alice_mask, first_raw.alice_mask)
        assert np.array_equal(raw.alice_bits, first_raw.alice_bits)
        assert np.array_equal(final.bits, first_final.bits)
        assert np.array_equal(final.alice_mask, first_final.alice_mask)
        assert report.to_dict() == first_report.to_dict()


def test_lossless_keys_and_report_do_not_depend_on_round_size(monkeypatch):
    # at loss 0 every round is retained as a view, cut only where the key
    # completes; the keys and the report still ignore the round size
    database = random_database(50, 8)
    runs = []
    for size in (1, 64, 4096, 10 ** 5):
        monkeypatch.setattr(protocol, "ROUND", size)
        runs.append(run_session(make_config(theta=0.3), database, 17))
    first_report, first_raw, first_final = runs[0]
    assert first_report.success
    assert first_report.restarted == 3  # these seeds compare restarts too
    assert first_report.photons_sent == first_report.photons_received == 100
    for report, raw, final in runs[1:]:
        assert np.array_equal(raw.bits, first_raw.bits)
        assert np.array_equal(raw.alice_mask, first_raw.alice_mask)
        assert np.array_equal(raw.alice_bits, first_raw.alice_bits)
        assert np.array_equal(final.bits, first_final.bits)
        assert np.array_equal(final.alice_mask, first_final.alice_mask)
        assert report.to_dict() == first_report.to_dict()


def check_retention(flags, missing, prefix, flag_dtype=bool):
    """One round of the given loss flags, into parties that have retained
    prefix photons and miss missing more, against retain_indices. The
    retained photons of a stretch that lost none come back as a view."""
    received = np.array(flags, dtype=bool)
    size = received.size
    rng = np.random.default_rng([size, missing, prefix])
    labels = rng.integers(0, 4, size, dtype=np.uint8)
    outcomes = rng.integers(0, 2, size, dtype=np.uint8)
    idx, used = retain_indices(received, missing)
    config = make_config(n_items=prefix + missing, substrings=1)
    party = protocol._Party(config, 0)
    sender, receiver = protocol.Sender(config), protocol.Receiver(config)
    for each in (party, sender, receiver):
        each.retained, each.sent, each.received = prefix, 100, 90
    start, kept_labels, kept_outcomes = party._retain(received.astype(flag_dtype), labels, outcomes)
    assert start == prefix
    assert kept_labels.tolist() == labels[idx].tolist()
    assert kept_outcomes.tolist() == outcomes[idx].tolist()
    # a lossless stretch makes no boolean-index copy; a lossy one must
    lossless = bool(received[:used].all())
    assert np.shares_memory(kept_labels, labels) == lossless
    assert np.shares_memory(kept_outcomes, outcomes) == lossless
    bases = receiver.bases(size)
    with mock.patch.object(protocol, "simulate_batch", lambda *args: (labels, received, outcomes)):
        sender.transmit(bases)
    receiver.absorb(received.astype(flag_dtype), outcomes)

    def placed(values):
        return [0] * prefix + values[idx].tolist() + [0] * (missing - idx.size)

    assert sender.truth.unpack().tolist() == placed(labels >> 1)
    assert sender.declaration().unpack().tolist() == placed(labels & 1)
    assert receiver._kept_bases.unpack().tolist() == placed(bases)
    assert receiver._kept_outcomes.unpack().tolist() == placed(outcomes)
    counters = (prefix + idx.size, 100 + used, 90 + int(np.count_nonzero(received[:used])))
    for each in (party, sender, receiver):
        assert (each.retained, each.sent, each.received) == counters


@given(
    flags=st.one_of(
        st.lists(st.booleans(), min_size=1, max_size=150),
        st.integers(1, 150).map(lambda size: [True] * size),  # lossless rounds
    ),
    missing=st.integers(1, 160),
    prefix=st.integers(0, 20),
)
@example(flags=[False] * 9, missing=3, prefix=5)  # all photons lost
@example(flags=[True] * 9, missing=30, prefix=0)  # all received, key incomplete
@example(flags=[True] * 9, missing=9, prefix=3)  # all received, key completes
@example(flags=[True] * 16, missing=8, prefix=8)  # ... at a byte edge, mid-round
@example(flags=[True] * 16, missing=5, prefix=3)  # ... mid-byte, mid-round
@example(flags=[True, True, False, True], missing=2, prefix=0)  # lossless up to the cut
@example(flags=[False, False, True, True], missing=1, prefix=7)  # missing = 1
@example(flags=[True, False, True], missing=1, prefix=0)  # cut at the first photon
@example(flags=[False, True, False, True], missing=2, prefix=1)  # cut at the last photon
def test_retention_matches_the_index_rule(flags, missing, prefix):
    check_retention(flags, missing, prefix)


def test_receiver_masks_with_uint8_loss_flags():
    # indexing with uint8 0/1 flags gathers photons 0 and 1, not the
    # received ones, so the flags must become bools first
    check_retention([0, 1, 1, 0, 1, 0, 0, 1, 1, 0], 4, 2, flag_dtype=np.uint8)


def test_photon_budget_cap(monkeypatch):
    # both modes ask Receiver.next_round for each round, so both stop at
    # the cap with one message
    monkeypatch.setattr(protocol, "PHOTON_CAP", 10 ** 4)
    cfg = make_config(n_items=1000, substrings=2, loss_rate=0.9)
    database = random_database(cfg.n_items, 5)
    message = "photon budget exhausted: cap 10000, retained 0/2000"
    with pytest.raises(ResourceError, match=message):
        run_session(cfg, database, 7)
    with pytest.raises(ProtocolAbort, match=f"'alice': ResourceError\\('{message}'\\)"):
        wire.run_local_session(cfg, database, 7)


# --- query -----------------------------------------------------------------------


def query_parties(monkeypatch, bits, alice_mask, alice_bits, *uniforms):
    """Sender and receiver holding a given final key, with the receiver's
    query stream scripted to the given uniforms."""
    n = len(bits)
    cfg = make_config(n_items=n)
    sender, receiver = protocol.Sender(cfg), protocol.Receiver(cfg)
    sender.final = Bits.of(bits)
    receiver.final = Key(None, Bits.of(alice_mask), Bits.of(alice_bits))
    monkeypatch.setattr(protocol, "query_stream", lambda *args: FixedUniform(*uniforms))
    return sender, receiver


def test_oblivious_query_hand_example(monkeypatch):
    bits = [1, 0, 1, 1, 0]
    sender, receiver = query_parties(monkeypatch, bits, [True] * 5, bits, 0.9)
    database = Bits.of([0, 1, 0, 1, 0])
    shift = receiver.query(2)  # picks j=4
    ciphertext = sender.answer(database, shift)
    assert receiver.retrieve(ciphertext) == 0 == database[2]
    assert receiver.exchange.known_index == 4
    assert shift == receiver.exchange.shift == sender.exchange.shift == 2
    assert ciphertext.unpack().tolist() == [1, 0, 0, 0, 0]


def test_oblivious_query_zero_shift(monkeypatch):
    sender, receiver = query_parties(monkeypatch, [1, 0, 1], [False, True, False], [0, 0, 0], 0.0)
    database = Bits.of([1, 1, 0])
    shift = receiver.query(1)
    assert shift == 0
    assert receiver.retrieve(sender.answer(database, shift)) == database[1]


def test_oblivious_query_requires_known_bit(monkeypatch):
    _, receiver = query_parties(monkeypatch, [0] * 4, [False] * 4, [0] * 4, 0.1)
    with pytest.raises(EmptyKeyMaskError):
        receiver.query(0)


def test_oblivious_query_validates_index_and_sizes(monkeypatch):
    # checked before the first photon, even in a session that would fail
    calls = []
    monkeypatch.setattr(protocol, "simulate_batch", lambda *args: calls.append(args))
    cfg = make_config(n_items=2, theta=0.02, max_restarts=0)
    for database, target in ((np.zeros(2), 2), (np.zeros(2), -1), (np.zeros(3), 0)):
        with pytest.raises(DomainError):
            run_session(cfg, database, target)
    assert calls == []


def test_retrieval_identity_across_seeds():
    for seed in range(12):
        cfg = make_config(
            n_items=64,
            substrings=2,
            theta=0.6,
            source_seed=seed,
            channel_seed=seed + 100,
            measure_seed=seed + 200,
        )
        database = random_database(64, seed)
        item = (seed * 17) % 64
        report, _, _ = run_session(cfg, database, item)
        assert report.success
        assert report.query.retrieved_bit == database[item]


def test_run_session_reports_failed_sessions():
    cfg = make_config(
        n_items=1, substrings=1, theta=0.02, max_restarts=1,
        source_seed=400, channel_seed=401, measure_seed=402,
    )
    database = np.array([1], dtype=np.uint8)
    report, _, _ = run_session(cfg, database, 0)
    if not report.success:
        assert report.query is None


# --- known-count law (small version; the full one runs in acceptance) -------------


def test_known_count_mean_tracks_expectation():
    cfg_base = make_config(n_items=200, substrings=2, theta=0.7)
    counts = []
    for seed in range(400):
        cfg = make_config(
            n_items=200, substrings=2, theta=0.7,
            source_seed=seed, channel_seed=10000 + seed, measure_seed=20000 + seed,
            max_restarts=0,
        )
        _, final, _ = run_key_distribution(cfg)
        counts.append(final.known_count)
    p = planner.conclusive_probability(0.7)
    mean = planner.expected_known_bits(200, p, 2)
    var = 200 * p ** 2 * (1 - p ** 2)
    sigma = math.sqrt(var / len(counts))
    assert abs(np.mean(counts) - mean) <= 4 * sigma


# --- serialization -----------------------------------------------------------------


def test_report_json_is_canonical_and_stable():
    cfg = make_config(n_items=32, substrings=1)
    database = random_database(32, 5)
    report, _, _ = run_session(cfg, database, 3)
    doc = report.to_json()
    assert doc == report.to_json()
    parsed = json.loads(doc)
    assert list(parsed) == sorted(parsed)
    assert parsed["config"]["n_items"] == 32
    public = json.loads(report.to_json(public_only=True))
    assert "target_index" not in public["query"]
    assert "retrieved_bit" not in public["query"]
    # the public view holds only what both endpoints know and must agree on
    assert public == wire.public_report_fields(report)
    assert "known_final_count" not in public and "known_final_count" in parsed
    assert sorted(public["config"]) == ["loss_rate", "n_items", "substrings", "theta"]
    assert sorted(public["query"]) == ["ciphertext", "shift"]


def test_database_file_round_trip(tmp_path):
    bits = random_database(37, 99)
    hex_path = tmp_path / "db.hex"
    hex_path.write_text(bits.body.tobytes().hex())
    assert load_database(hex_path, 37) == bits
    bin_path = tmp_path / "db.bin"
    bin_path.write_bytes(bits.body.tobytes())
    assert load_database(bin_path, 37) == bits
    with pytest.raises(DomainError):
        load_database(bin_path, 512)
    # the three pad bits of the last byte are set in the file, and cleared
    bin_path.write_bytes(bits.body.tobytes()[:-1] + bytes([bits.body[-1] | 0x07]))
    loaded = load_database(bin_path, 37)
    assert loaded == bits and loaded.body.tobytes() == bits.body.tobytes()


def test_database_file_of_exactly_n_bits(tmp_path):
    # a binary file of 64 bits, and its hex form, hold a 64-bit database
    # and not a 65-bit one
    blob = bytes([0x9C, 0x01, 0xFF, 0x80, 0x3E, 0x00, 0xA5, 0x5A])
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8))
    bin_path = tmp_path / "db.bin"
    bin_path.write_bytes(blob)
    hex_path = tmp_path / "db.hex"
    hex_path.write_text(blob.hex())
    for path in (bin_path, hex_path):
        assert load_database(path, 64).unpack().tolist() == bits.tolist()
        with pytest.raises(DomainError):
            load_database(path, 65)


def test_hex_database_file_with_an_odd_digit_count_is_rejected(tmp_path):
    path = tmp_path / "db.hex"
    path.write_text("abc")
    with pytest.raises(DomainError, match="malformed hex database payload"):
        load_database(path, 8)


def test_config_validation():
    with pytest.raises(DomainError):
        make_config(theta=0.0)
    with pytest.raises(DomainError):
        make_config(n_items=0)
    with pytest.raises(DomainError):
        make_config(loss_rate=1.0)
    with pytest.raises(DomainError):
        make_config(substrings=0)
    with pytest.raises(DomainError, match="max_restarts must be >= 0"):
        make_config(max_restarts=-1)
    assert make_config(max_restarts=0).max_restarts == 0
