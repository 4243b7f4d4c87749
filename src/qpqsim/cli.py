"""Command-line entry point.

Subcommands: plan, tables, run, serve, query, attack, figures. Every run
is fully determined by its flags plus the seed; outputs land in --out
(default ./out) as <command>-<params-hash>.<ext> and are byte-identical
across repeated invocations.

Exit codes: 1 usage or unreadable file, 2 infeasible parameters, 3 protocol
abort, connection failure or out of memory, 4 check failure.
"""

import argparse
import hashlib
import json
import math
import os
import socket
import sys

import numpy as np

from . import attacks, planner, protocol, wire
from .errors import (
    CapacityError,
    DomainError,
    EmptyKeyMaskError,
    InfeasibleError,
    ProtocolAbort,
    ResourceError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_PROTOCOL = 3
EXIT_CHECK = 4

_INFEASIBLE = (InfeasibleError, DomainError, CapacityError)
_PROTOCOL = (ProtocolAbort, ResourceError, EmptyKeyMaskError, MemoryError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def derive_seeds(seed):
    """Three independent 64-bit stream seeds from one CLI seed."""
    state = np.random.SeedSequence(seed).generate_state(3, dtype=np.uint64)
    return tuple(int(v) for v in state)


def _session_config(args):
    source, channel, measure = derive_seeds(args.seed)
    return protocol.SessionConfig(
        n_items=args.N,
        substrings=args.k,
        theta=args.theta,
        loss_rate=args.loss,
        source_seed=source,
        channel_seed=channel,
        measure_seed=measure,
    )


def _database_for(args):
    if getattr(args, "database", None):
        return protocol.load_database(args.database, args.N)
    return protocol.random_database(args.N, args.seed)


def _params_hash(args):
    skip = {"func"}
    doc = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    return hashlib.sha256(json.dumps(doc, sort_keys=True, default=str).encode()).hexdigest()[:12]


def _emit(args, text, ext):
    out_dir = getattr(args, "out", None) or "./out"
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.command}-{_params_hash(args)}.{ext}")
    with open(path, "w") as fh:
        fh.write(text)
    print(text)
    print(f"wrote {path}", file=sys.stderr)
    return path


def _emit_doc(args, doc):
    if args.format == "csv":
        return _emit(args, attacks.dict_to_csv(doc), "csv")
    return _emit(args, json.dumps(doc, sort_keys=True), "json")


# --- subcommands ---------------------------------------------------------------


def cmd_plan(args):
    if args.k is not None:
        theta = planner.solve_theta(args.N, args.k, args.nbar)
        plan = planner.plan_for(args.N, args.k, theta)
    else:
        theta_max = math.pi / 2 - 1e-9 if args.allow_large_theta else planner.THETA_CAP
        plan = planner.plan_min_k(args.N, args.nbar, args.theta_min, theta_max)
    _emit_doc(args, plan.to_dict())
    return EXIT_OK


def cmd_tables(args):
    out_dir = args.out or "./out"
    os.makedirs(out_dir, exist_ok=True)
    for table_id in ("T1", "T2", "T3", "T4"):
        table = planner.table_generator(table_id)
        # CSV mirrors the printed layout; full-precision JSON sits alongside
        with open(os.path.join(out_dir, f"tables-{table_id}.csv"), "w") as fh:
            fh.write(table.to_csv())
        with open(os.path.join(out_dir, f"tables-{table_id}.json"), "w") as fh:
            fh.write(table.to_json())
        print(table.to_json() if args.format == "json" else table.to_csv())
    if args.check:
        mismatches = planner.check_tables()
        if mismatches:
            for line in mismatches:
                print(f"check failed: {line}", file=sys.stderr)
            return EXIT_CHECK
        print("table check: all cells match the reference values")
    return EXIT_OK


def cmd_run(args):
    config = _session_config(args)
    database = _database_for(args)
    report, _, _ = protocol.run_session(config, database, args.item)
    doc = report.to_dict()
    doc["database_bit"] = database[args.item]
    _emit_doc(args, doc)
    if not report.success:
        print("session failed: no known key bits after all restarts", file=sys.stderr)
        return EXIT_PROTOCOL
    return EXIT_OK


def _parse_address(text):
    host, _, port = text.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()):
        raise DomainError(f"address must be host:port, got {text!r}")
    if int(port) > 65535:
        raise DomainError(f"port must be in 0..65535, got {port}")
    return host, int(port)


def cmd_serve(args):
    host, port = _parse_address(args.address)
    config = _session_config(args)
    wire.check_config(config)  # both before a database of N bits is drawn or read
    wire.check_sessions(args.sessions)
    database = _database_for(args)
    try:
        server = wire.WireServer(host, port, config, database, sessions=args.sessions)
    except OSError as exc:
        raise ProtocolAbort(f"cannot listen on {args.address}: {exc}")
    print(f"listening on {host}:{server.port}", flush=True)
    handled = server.serve()
    _emit_doc(
        args,
        {
            "command": "serve",
            "sessions_handled": handled,
            "outcomes": dict(sorted(server.outcomes.items())),
            "n_items": config.n_items,
            "substrings": config.substrings,
            "theta": config.theta,
            "loss_rate": config.loss_rate,
        },
    )
    return EXIT_OK


def cmd_query(args):
    host, port = _parse_address(args.address)
    config = _session_config(args)
    protocol.check_target(config, args.item)
    wire.check_config(config)
    try:
        conn = socket.create_connection((host, port), timeout=wire.SOCKET_TIMEOUT)
    except OSError as exc:
        raise ProtocolAbort(f"cannot connect to {args.address}: {exc}")
    with conn:
        # each round sends two small frames before it reads: Nagle's
        # algorithm would hold the second until the first is ACKed
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(wire.session_budget(config))
        alice = wire.run_alice_endpoint(config, args.item, conn)
    _emit_doc(args, alice.report.to_dict())
    return EXIT_OK


def cmd_attack(args):
    rng = np.random.default_rng(args.seed)
    if args.kind == "helstrom":
        doc = {
            "kind": "helstrom",
            "theta": args.theta,
            "substrings": args.k,
            "p_guess": attacks.helstrom_guess(args.theta, args.k),
        }
    elif args.kind == "joint-usd":
        doc = {
            "kind": "joint_usd",
            "theta": args.theta,
            "substrings": args.k,
            "bound": attacks.joint_usd_bound(args.theta, args.k),
        }
    elif args.kind == "usd":
        report = attacks.alice_individual_usd(
            args.N, args.theta, args.k, trials=args.trials, rng=rng
        )
        doc = report.to_dict()
        doc["honest_expected"] = planner.expected_known_bits(
            args.N, planner.conclusive_probability(args.theta), args.k
        )
    elif args.kind == "bob":
        report = attacks.bob_conclusiveness_attack(
            args.theta, args.want == "conclusive", trials=args.trials, rng=rng
        )
        doc = report.to_dict()
    else:  # pragma: no cover - argparse restricts choices
        raise DomainError(f"unknown attack kind {args.kind!r}")
    _emit_doc(args, doc)
    return EXIT_OK


def cmd_figures(args):
    if args.N is not None and args.N < 1:
        raise DomainError(f"--N must be at least 1, got {args.N}")
    if args.which == "F1":
        doc = planner.flexibility_series(target_known=args.nbar)
    elif args.which == "F2":
        doc = planner.tradeoff_series(n_items=10 ** 4 if args.N is None else args.N)
    else:
        doc = attacks.fig_data(args.which, n_items=args.N)
    if args.format == "csv":
        _emit(args, attacks.series_to_csv(doc), "csv")
    else:
        _emit(args, attacks.series_to_json(doc), "json")
    return EXIT_OK


# --- parser --------------------------------------------------------------------


def build_parser():
    parser = _Parser(prog="qpqsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="output directory (default ./out)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def add_session(p):
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--theta", type=float, required=True)
        p.add_argument("--loss", type=float, default=0.0)
        p.add_argument("--seed", type=non_negative_int, required=True)

    p = sub.add_parser("plan", help="solve session parameters for a target")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--nbar", type=float, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--theta-min", dest="theta_min", type=float, default=0.2)
    p.add_argument("--allow-large-theta", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("tables", help="regenerate the reference tables")
    p.add_argument("--check", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("run", help="run one in-process session and query")
    add_session(p)
    p.add_argument("--item", type=int, required=True)
    p.add_argument("--database", default=None, help="hex or binary database file")
    add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("serve", help="host wire sessions over TCP")
    p.add_argument("--address", required=True, help="host:port (port 0 auto-binds)")
    add_session(p)
    p.add_argument("--database", default=None)
    p.add_argument("--sessions", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("query", help="query a serving endpoint over TCP")
    p.add_argument("--address", required=True)
    add_session(p)
    p.add_argument("--item", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("attack", help="run an attack model")
    p.add_argument("--kind", choices=("usd", "helstrom", "joint-usd", "bob"), required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--N", type=int, default=50000)
    p.add_argument("--trials", type=int, default=10 ** 6)
    p.add_argument("--want", choices=("conclusive", "inconclusive"), default="conclusive")
    p.add_argument("--seed", type=non_negative_int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("figures", help="emit plot-ready figure series")
    p.add_argument("--which", choices=("F1", "F2", "F3", "F4", "F5"), required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--nbar", type=float, default=3.0)
    add_common(p)
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INFEASIBLE as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except _PROTOCOL as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except OSError as exc:  # socket failures are ProtocolAbort by now: a file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
