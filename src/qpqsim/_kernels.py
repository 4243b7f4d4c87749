"""Hot Monte Carlo kernels, vectorized with numpy.

Every kernel consumes randomness its caller has already drawn: uniform
arrays for the Born-rule comparisons and the transmission's coins, and
0/1 coin arrays for the attacks. So all randomness stays in the numpy
Generator streams owned by the callers and results depend only on the
seeds. The attacks sift and fold with protocol.sift_batch and _fold.
"""

import numpy as np

# --- transmission: carrier choice, loss, measurement ---
#
# Per photon i the caller supplies
#   u_label[i]   -> carrier label floor(u * 4)
#   bases[i]     -> receiver basis (chosen by the receiver, not drawn here)
#   u_chan[i, 0] -> photon lost when u < loss_rate
#   u_chan[i, 1] -> unused: the channel keeps three draws per photon, since
#                   with two every key would change
#   u_chan[i, 2] -> outcome 1 when u >= P(outcome 0 | label, basis)
# p0 is the C-contiguous (4, 2) outcome-0 probability table.


def _simulate_transmission_np(u_label, bases, u_chan, p0, loss_rate):
    labels = (u_label * 4.0).astype(np.uint8)
    received = u_chan[:, 0] >= loss_rate
    prob0 = p0.take(2 * labels + bases)
    outcomes = (u_chan[:, 2] >= prob0).astype(np.uint8)
    return labels, received, outcomes


def _pick(coin, if0, if1):
    """Per element, if1 where the bool coin is set and if0 where it is
    not: on bool arrays, bit operations cost several times less than a
    gather through an index array."""
    return if0 ^ (coin & (if0 ^ if1))


def usd_trials(u, truth, p_wrong, p_right):
    # codes: 0 = inconclusive, 1 = correct identification, 2 = wrong one.
    # Two stages, since u < pw implies u < pw + pr only when pr >= 0.
    truth = truth.view(np.bool_)  # 0/1 of any one-byte dtype
    (pw0, pw1), (pk0, pk1) = p_wrong.tolist(), (p_wrong + p_right).tolist()
    codes = _pick(truth, u < pk0, u < pk1).view(np.uint8)
    codes[_pick(truth, u < pw0, u < pw1)] = 2
    return codes


def conclusiveness_trials(attack, bases, u, p0_attack):
    # attack and bases are bool coins, u the outcome uniforms: outcome 1
    # when u >= p0_attack[attack, basis]; the caller sifts the outcomes
    (p00, p01), (p10, p11) = p0_attack.tolist()
    return _pick(bases, _pick(attack, u >= p00, u >= p10), _pick(attack, u >= p01, u >= p11))


# public alias of the _np definition: perfbench/test_bench.py checks
# that simulate_transmission is _simulate_transmission_np
simulate_transmission = _simulate_transmission_np
