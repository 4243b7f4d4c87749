"""A session's memory is bounded by one photon round plus k*N bits.

Every k*N array of a session is held packed, one bit per retained
photon, so the largest T4 session, N = 10^6 and k = 4, must fit well
inside the 12 MiB this test allows for everything it allocates (the
inputs are built before tracing starts). With one byte per retained
photon in each of its arrays it traced about 24 MiB in both modes.
"""

import tracemalloc

import pytest

from qpqsim import planner, protocol, wire

N_ITEMS = 10 ** 6
LIMIT = 12 << 20


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
    tracemalloc.start()
    try:
        retrieved = run(config, database, target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retrieved == database[target]
    assert peak <= LIMIT, f"traced peak {peak / 2 ** 20:.1f} MiB"
