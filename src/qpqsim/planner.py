"""Closed-form session planning.

Conclusive probability, expected known key bits, restart probability, the
theta solver for a target expectation, and the minimal-substring search
under a theta feasibility floor. Also regenerates the four reference
parameter tables and the flexibility figure series.
"""

import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, InfeasibleError
from .qubits import _check_theta

THETA_CAP = math.pi / 4  # larger theta weakens database security
MAX_SUBSTRINGS = 64      # beyond this p^k underflows any practical size
_EDGE = 1e-12


def conclusive_probability(theta):
    """Fraction of retained photons the receiver decodes: sin^2(theta)/2."""
    _check_theta(theta)
    return math.sin(theta) ** 2 / 2.0


def expected_known_bits(n_items, p, substrings):
    """Expected count of final-key bits the receiver knows: N * p^k."""
    _check_args(n_items, p, substrings)
    return n_items * p ** substrings


def failure_probability(n_items, p, substrings):
    """Probability the receiver ends with no known bit: (1 - p^k)^N."""
    _check_args(n_items, p, substrings)
    return math.exp(n_items * math.log1p(-(p ** substrings)))


def _check_args(n_items, p, substrings):
    if n_items < 1:
        raise DomainError(f"database size must be >= 1, got {n_items}")
    if not 0.0 < p <= 0.5:
        raise DomainError(f"conclusive probability must lie in (0, 1/2], got {p}")
    if substrings < 1:
        raise DomainError(f"substring count must be >= 1, got {substrings}")


def solve_theta(n_items, substrings, target_known):
    """Invert N * p^k = target for theta.

    Feasible only when (target/N)^(1/k) <= 1/2, since p = sin^2(theta)/2
    cannot exceed 1/2.
    """
    if n_items < 1 or substrings < 1:
        raise DomainError("need n_items >= 1 and substrings >= 1")
    if not 0.0 < target_known <= n_items:
        raise DomainError(f"target must lie in (0, N], got {target_known}")
    p = (target_known / n_items) ** (1.0 / substrings)
    if p > 0.5 + _EDGE:
        raise InfeasibleError(
            f"no theta exists: required p = {p:.6g} exceeds the p <= 1/2 bound"
        )
    return math.asin(math.sqrt(min(2.0 * p, 1.0)))


@dataclass(frozen=True)
class PlanResult:
    n_items: int
    substrings: int
    theta: float
    conclusive_p: float
    expected_known: float
    restart_probability: float

    def to_dict(self):
        return asdict(self)


def plan_for(n_items, substrings, theta):
    """Assemble the full parameter tuple for an explicit (k, theta)."""
    p = conclusive_probability(theta)
    return PlanResult(
        n_items=n_items,
        substrings=substrings,
        theta=theta,
        conclusive_p=p,
        expected_known=expected_known_bits(n_items, p, substrings),
        restart_probability=failure_probability(n_items, p, substrings),
    )


def plan_min_k(n_items, target_known, theta_min, theta_max=THETA_CAP):
    """Smallest substring count whose solved theta lands in [theta_min, theta_max].

    theta_max defaults to pi/4; raising it trades database security for a
    lower sender guessing probability and must be requested explicitly.
    """
    if not 0.0 < theta_min <= theta_max + _EDGE:
        raise DomainError(
            f"theta_min must lie in (0, theta_max], got {theta_min} vs {theta_max}"
        )
    for k in range(1, MAX_SUBSTRINGS + 1):
        try:
            theta = solve_theta(n_items, k, target_known)
        except InfeasibleError:
            continue
        if theta_min - _EDGE <= theta <= theta_max + _EDGE:
            return plan_for(n_items, k, theta)
    raise InfeasibleError(
        f"no substring count <= {MAX_SUBSTRINGS} puts theta in "
        f"[{theta_min:.4g}, {theta_max:.4g}] for N={n_items}, target={target_known}"
    )


# --- reference tables -------------------------------------------------------
#
# Each table is recomputed from the formulas above; the embedded printed
# values (at their printed precision) back the CLI --check mode.

T1_SIZES = (10 ** 3, 5 * 10 ** 3, 10 ** 4, 5 * 10 ** 4, 10 ** 5, 10 ** 6)
T1_SUBSTRINGS = (3, 4, 4, 5, 5, 6)
T1_P = 0.15

T2_SIZES = (12, 50, 100, 200, 500, 1000, 5000)
T3_SIZES = (20, 50, 100, 200, 500, 1000, 5000)

T4_SIZES = T1_SIZES
T4_THETA_MIN = 0.2
T4_TARGET = 3.0

# (row name, printed values, comparison tolerance) per table. Tolerances
# are one unit in the last printed digit: the source mixed rounding and
# truncation when printing, so a tighter rule cannot hold for every cell.
PRINTED_TABLES = {
    "T1": (
        ("k", (3, 4, 4, 5, 5, 6), 0),
        ("n_bar", (3.38, 2.53, 5.06, 3.79, 7.59, 11.39), 0.01),
        ("P0", (0.034, 0.080, 0.006, 0.022, 5e-4, 1e-5), (1e-3, 1e-3, 1e-3, 1e-3, 1e-4, 1e-5)),
    ),
    "T2": (
        ("p", (0.25, 0.06, 0.03, 0.015, 0.006, 0.003, 6e-4), 1e-12),
        ("P0", (0.032, 0.045, 0.048, 0.049, 0.049, 0.050, 0.050), 1e-3),
        ("theta", (0.785, 0.354, 0.247, 0.174, 0.110, 0.078, 0.035), 1e-3),
    ),
    "T3": (
        ("p", (0.25, 0.1, 0.05, 0.025, 0.01, 0.005, 0.001), 1e-12),
        ("P0", (0.003, 0.005, 0.005, 0.006, 0.006, 0.006, 0.006), 1e-3),
        ("theta", (0.785, 0.464, 0.322, 0.226, 0.142, 0.100, 0.045), 1e-3),
    ),
    "T4": (
        ("k", (2, 2, 3, 3, 3, 4), 0),
        ("theta", (0.337, 0.223, 0.375, 0.284, 0.252, 0.293), 1e-3),
    ),
}


@dataclass(frozen=True)
class ReferenceTable:
    table_id: str
    sizes: tuple
    rows: dict  # row name -> tuple of full-precision values

    def to_csv(self):
        buf = io.StringIO()
        buf.write("N," + ",".join(str(n) for n in self.sizes) + "\n")
        for name, values in self.rows.items():
            buf.write(name + "," + ",".join(repr(float(v)) for v in values) + "\n")
        return buf.getvalue()

    def to_json(self):
        doc = {"table": self.table_id, "N": list(self.sizes)}
        doc.update({name: [float(v) for v in values] for name, values in self.rows.items()})
        return json.dumps(doc, sort_keys=True)


def table_generator(which):
    """Recompute one of the four reference tables from the formulas."""
    if which == "T1":
        rows = {
            "k": T1_SUBSTRINGS,
            "n_bar": tuple(
                expected_known_bits(n, T1_P, k) for n, k in zip(T1_SIZES, T1_SUBSTRINGS)
            ),
            "P0": tuple(
                failure_probability(n, T1_P, k) for n, k in zip(T1_SIZES, T1_SUBSTRINGS)
            ),
        }
        return ReferenceTable("T1", T1_SIZES, rows)
    if which in ("T2", "T3"):
        target = 3.0 if which == "T2" else 5.0
        sizes = T2_SIZES if which == "T2" else T3_SIZES
        thetas = tuple(solve_theta(n, 1, target) for n in sizes)
        ps = tuple(conclusive_probability(t) for t in thetas)
        rows = {
            "p": ps,
            "P0": tuple(failure_probability(n, p, 1) for n, p in zip(sizes, ps)),
            "theta": thetas,
        }
        return ReferenceTable(which, sizes, rows)
    if which == "T4":
        plans = [plan_min_k(n, T4_TARGET, T4_THETA_MIN) for n in T4_SIZES]
        rows = {
            "k": tuple(pl.substrings for pl in plans),
            "theta": tuple(pl.theta for pl in plans),
        }
        return ReferenceTable("T4", T4_SIZES, rows)
    raise DomainError(f"unknown table {which!r}; expected one of T1..T4")


def check_tables():
    """Compare recomputed tables against the embedded printed values.

    Returns a list of mismatch descriptions; empty means every cell lands
    within one unit of the last printed digit.
    """
    mismatches = []
    for table_id, row_specs in PRINTED_TABLES.items():
        table = table_generator(table_id)
        for name, printed, tol in row_specs:
            computed = table.rows[name]
            tols = tol if isinstance(tol, tuple) else (tol,) * len(printed)
            for n, got, want, cell_tol in zip(table.sizes, computed, printed, tols):
                if abs(float(got) - want) > cell_tol:
                    mismatches.append(
                        f"{table_id} {name} N={n}: computed {got!r} != "
                        f"printed {want!r} (tolerance {cell_tol})"
                    )
    return mismatches


# --- figure series ----------------------------------------------------------


def _theta_series(points, solve):
    """One series per substring count 1..6 of the theta that solve(k, x)
    returns at each point x, skipping points no theta inside the protocol
    reaches. Raises InfeasibleError when no point is left."""
    series = []
    for k in range(1, 7):
        xs, ys = [], []
        for x in points:
            try:
                theta = solve(k, x)
            except (InfeasibleError, DomainError):
                continue
            if theta >= math.pi / 2 - _EDGE:  # p = 1/2 boundary, outside the protocol
                continue
            xs.append(x)
            ys.append(theta)
        if xs:
            series.append({"label": f"k={k}", "x": np.array(xs), "y": np.array(ys)})
    if not series:
        raise InfeasibleError("no substring count 1..6 has a theta inside (0, pi/2) at any point")
    return series


def flexibility_series(target_known=3.0):
    """Theta needed to hit the target expectation, per substring count,
    across database sizes. One series per k; every point satisfies
    N * p(theta)^k = target exactly (up to float round-off)."""
    n_grid = np.unique(np.logspace(1, 6, 121).astype(np.int64)).tolist()
    series = _theta_series(n_grid, lambda k, n: solve_theta(n, k, target_known))
    return {"figure": "F1", "x_name": "N", "y_name": "theta", "series": series}


def tradeoff_series(n_items=10 ** 4):
    """Theta needed for a range of target expectations at one database size."""
    targets = np.linspace(1.0, 50.0, 99).tolist()
    series = _theta_series(targets, lambda k, target: solve_theta(n_items, k, target))
    return {"figure": "F2", "x_name": "n_bar", "y_name": "theta", "series": series}
