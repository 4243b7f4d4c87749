"""Simulator and analysis toolkit for a flexible QKD-based quantum
private query protocol: honest sessions, parameter planning, attack
bounds, and a framed wire mode."""

from .planner import (
    PlanResult,
    conclusive_probability,
    expected_known_bits,
    failure_probability,
    plan_min_k,
    solve_theta,
    table_generator,
)
from .protocol import (
    Key,
    QueryExchange,
    Receiver,
    Sender,
    SessionConfig,
    SessionReport,
    run_key_distribution,
    run_session,
    xor_compress,
)
from .qubits import (
    AttackLabel,
    Basis,
    CarrierLabel,
    DensityMatrix,
    attack_state,
    carrier_state,
    fidelity,
    trace_distance,
)

__version__ = "0.1.0"

__all__ = [
    "AttackLabel",
    "Basis",
    "CarrierLabel",
    "DensityMatrix",
    "Key",
    "PlanResult",
    "QueryExchange",
    "Receiver",
    "Sender",
    "SessionConfig",
    "SessionReport",
    "attack_state",
    "carrier_state",
    "conclusive_probability",
    "expected_known_bits",
    "failure_probability",
    "fidelity",
    "plan_min_k",
    "run_key_distribution",
    "run_session",
    "solve_theta",
    "table_generator",
    "trace_distance",
    "xor_compress",
    "__version__",
]
