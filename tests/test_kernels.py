"""The numpy kernels against per-element pure-Python reference loops."""

from itertools import product

import numpy as np
import pytest
from oracles import sift

from qpqsim import _kernels
from qpqsim.protocol import Bits, sift_batch
from qpqsim.qubits import born_outcome0_tables

N = 2000


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(1234)
    return {
        "u_label": rng.random(N),
        "bases": (rng.random(N) >= 0.5).astype(np.uint8),
        "u_chan": rng.random((N, 3)),
        "u": rng.random(N),
        "truth": (rng.random(N) >= 0.5).astype(np.uint8),
        "attack": rng.random(N) >= 0.5,
        "basis": rng.random(N) >= 0.5,
        "u_outcome": rng.random(N),
    }


def transmission_loop(u_label, bases, u_chan, p0, loss_rate):
    labels, received, outcomes = [], [], []
    for i in range(u_label.shape[0]):
        lab = int(u_label[i] * 4.0)
        labels.append(lab)
        received.append(u_chan[i, 0] >= loss_rate)
        outcomes.append(1 if u_chan[i, 2] >= p0[lab, bases[i]] else 0)
    return labels, received, outcomes


def usd_loop(u, truth, p_wrong, p_right):
    codes = []
    for i in range(u.shape[0]):
        pw = p_wrong[truth[i]]
        if u[i] < pw:
            codes.append(2)
        elif u[i] < pw + p_right[truth[i]]:
            codes.append(1)
        else:
            codes.append(0)
    return codes


def conclusiveness_loop(attack_coins, basis_coins, u, p0_attack):
    outcomes = []
    for i in range(u.shape[0]):
        attack, basis = int(attack_coins[i]), int(basis_coins[i])
        outcomes.append(u[i] >= p0_attack[attack, basis])
    return outcomes


def assert_same(got, want, dtype):
    assert got.dtype == dtype
    assert got.tolist() == want


def assert_attack_sift_matches_oracle(attack, basis, outcomes, want):
    # the Bob attack announces its label, flipped to seek a conclusive
    # result, and sifts the kernel's outcomes with the session's sift_batch
    letters = attack ^ want
    mask, bits = sift_batch(Bits.of(basis), Bits.of(outcomes), Bits.of(letters))
    ref = [sift(int(b), int(o), int(d)) for b, o, d in zip(basis, outcomes, letters)]
    assert mask.unpack().tolist() == [r is not None for r in ref]
    assert bits.unpack().tolist() == [r == 1 for r in ref]


def test_transmission_matches_reference_loop(inputs):
    p0 = born_outcome0_tables(0.47)
    args = (inputs["u_label"], inputs["bases"], inputs["u_chan"], p0, 0.35)
    labels, received, outcomes = _kernels.simulate_transmission(*args)
    ref_labels, ref_received, ref_outcomes = transmission_loop(*args)
    assert_same(labels, ref_labels, np.uint8)
    assert_same(received, ref_received, np.bool_)
    assert_same(outcomes, ref_outcomes, np.uint8)
    # the inputs exercise every branch
    assert 0 < np.count_nonzero(received) < N


def test_transmission_boundaries_match_reference_loop():
    # per label and basis, the outcome uniform on, just below and just
    # above its Born entry (0 and 1 among them), and the loss uniform on,
    # just below and just above the loss rate: >= and > differ only there
    p0 = born_outcome0_tables(0.47)
    loss_rate = 0.35
    rows = []
    for label, basis in product(range(4), range(2)):
        prob = p0[label, basis]
        for u_out in (prob, np.nextafter(prob, 0.0), np.nextafter(prob, 1.0)):
            for u_loss in (loss_rate, np.nextafter(loss_rate, 0.0), np.nextafter(loss_rate, 1.0)):
                rows.append((label / 4 + 0.1, basis, u_loss, 0.5, u_out))
    u_label, bases, *chan = (np.array(column) for column in zip(*rows))
    args = (u_label, bases.astype(np.uint8), np.column_stack(chan), p0, loss_rate)
    labels, received, outcomes = _kernels.simulate_transmission(*args)
    ref_labels, ref_received, ref_outcomes = transmission_loop(*args)
    assert_same(labels, ref_labels, np.uint8)
    assert_same(received, ref_received, np.bool_)
    assert_same(outcomes, ref_outcomes, np.uint8)
    # the table holds entries of exactly 0 and 1, and each is hit
    on_entry = args[2][:, 2] == p0[labels, bases]
    assert {0.0, 1.0} <= set(args[2][on_entry, 2].tolist())


def test_usd_trials_match_reference_loop(inputs):
    p_wrong = np.array([0.05, 0.1])
    p_right = np.array([0.27, 0.3])
    codes = _kernels.usd_trials(inputs["u"], inputs["truth"], p_wrong, p_right)
    assert_same(codes, usd_loop(inputs["u"], inputs["truth"], p_wrong, p_right), np.uint8)
    assert set(codes.tolist()) == {0, 1, 2}
    # the attack passes its truth coins as bools
    as_bool = _kernels.usd_trials(inputs["u"], inputs["truth"].astype(bool), p_wrong, p_right)
    assert_same(as_bool, codes.tolist(), np.uint8)


@pytest.mark.parametrize("want", [True, False])
def test_conclusiveness_trials_match_reference_loop(inputs, want):
    p0a = np.array([[0.8, 0.7], [0.2, 0.3]])
    args = (inputs["attack"], inputs["basis"], inputs["u_outcome"], p0a)
    outcomes = _kernels.conclusiveness_trials(*args)
    assert_same(outcomes, conclusiveness_loop(*args), np.bool_)
    assert 0 < np.count_nonzero(outcomes) < N
    assert_attack_sift_matches_oracle(inputs["attack"], inputs["basis"], outcomes, want)


# --- boundaries: u on a threshold, probabilities 0 and 1, weights of +-1e-17 ---

TINY = (-1e-17, 0.0, 1e-17)


def test_usd_trials_match_reference_loop_on_boundaries():
    # every (p_wrong, p_right) row from tiny and certain weights, each u on,
    # just below and just above the thresholds pw and pw + pr of its truth
    rows = [(pw, pr) for pw in TINY for pr in (*TINY, 0.3, 1.0)]
    for (pw0, pr0), (pw1, pr1) in product(rows, repeat=2):
        p_wrong, p_right = np.array([pw0, pw1]), np.array([pr0, pr1])
        u, truth = [], []
        for bit in (0, 1):
            for edge in (p_wrong[bit], p_wrong[bit] + p_right[bit], 0.0, 1.0):
                near = [np.nextafter(edge, -1.0), edge, np.nextafter(edge, 2.0)]
                u += near
                truth += [bit] * len(near)
        u, truth = np.array(u), np.array(truth, dtype=np.uint8)
        codes = _kernels.usd_trials(u, truth, p_wrong, p_right)
        assert_same(codes, usd_loop(u, truth, p_wrong, p_right), np.uint8)


@pytest.mark.parametrize("want", [True, False])
def test_conclusiveness_trials_match_reference_loop_on_boundaries(want):
    # each coin at both values and outcome uniforms on, just below and just
    # above each probability, which are 0, 1 and within 1e-17 of 0
    tables = ([[0.0, 1.0], [1.0, 0.0]], [[1e-17, 1.0], [0.5, 0.0]], [[-1e-17, 0.3], [1.0, 1e-17]])
    for p0a in tables:
        p0a = np.array(p0a)
        attack, basis, u = [], [], []
        for coin0, coin1 in product((False, True), repeat=2):
            edge = p0a[int(coin0), int(coin1)]
            for u2 in (np.nextafter(edge, -1.0), edge, np.nextafter(edge, 2.0)):
                attack.append(coin0)
                basis.append(coin1)
                u.append(u2)
        args = (np.array(attack), np.array(basis), np.array(u), p0a)
        outcomes = _kernels.conclusiveness_trials(*args)
        assert_same(outcomes, conclusiveness_loop(*args), np.bool_)
        assert_attack_sift_matches_oracle(args[0], args[1], outcomes, want)
