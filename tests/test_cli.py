import json
import math
import os
import resource
import socket
import subprocess
import sys
import threading

import pytest

from qpqsim import cli, protocol, wire


def run_cli(args, tmp_path, capsys):
    code = cli.main(args + ["--out", str(tmp_path)] if "--out" not in args else args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_plan_min_k_example(tmp_path, capsys):
    code, out, _ = run_cli(
        ["plan", "--N", "50000", "--nbar", "3", "--theta-min", "0.2"], tmp_path, capsys
    )
    assert code == 0
    doc = json.loads(out.splitlines()[0])
    assert doc["substrings"] == 3
    assert doc["theta"] == pytest.approx(0.284, abs=5e-4)


def test_plan_explicit_k_example(tmp_path, capsys):
    code, out, _ = run_cli(["plan", "--N", "12", "--nbar", "3", "--k", "1"], tmp_path, capsys)
    assert code == 0
    doc = json.loads(out.splitlines()[0])
    assert doc["theta"] == pytest.approx(0.785, abs=5e-4)


def test_plan_infeasible_exits_2(tmp_path, capsys):
    code, _, err = run_cli(["plan", "--N", "10", "--nbar", "9", "--k", "1"], tmp_path, capsys)
    assert code == 2
    assert "p <= 1/2" in err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["plan", "--N", "10"])  # missing --nbar
    assert exc.value.code == 1


def test_tables_check_failure_exits_4(tmp_path, capsys, monkeypatch):
    from qpqsim import planner

    broken = dict(planner.PRINTED_TABLES)
    broken["T4"] = (
        ("k", (2, 2, 3, 3, 3, 4), 0),
        ("theta", (0.337, 0.223, 0.375, 0.284, 0.252, 0.999), 1e-3),
    )
    monkeypatch.setattr(planner, "PRINTED_TABLES", broken)
    code, _, err = run_cli(["tables", "--check"], tmp_path, capsys)
    assert code == 4
    assert "check failed" in err


def test_run_session_failure_exits_3(tmp_path, capsys):
    # p ~ 2e-4 with a 1-bit database: every restart ends with no known bit
    args = [
        "run", "--N", "1", "--k", "1", "--theta", "0.02",
        "--seed", "11", "--item", "0",
    ]
    code, out, err = run_cli(args, tmp_path, capsys)
    assert code == 3
    doc = json.loads(out.splitlines()[0])
    assert doc["success"] is False
    assert "session failed" in err


def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 1.43 GiB")

    monkeypatch.setattr(protocol, "run_session", out_of_memory)
    args = ["run", "--N", "100", "--k", "1", "--theta", "0.6", "--seed", "3", "--item", "5"]
    code, _, err = run_cli(args, tmp_path, capsys)
    assert code == 3
    assert err.startswith("error:")


def run_cli_process(args, tmp_path, address_space=None, timeout=60):
    """Run the CLI in a child process; address_space caps the child's
    RLIMIT_AS in bytes, leaving this process's limit alone."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "qpqsim.cli", *args, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        preexec_fn=None if address_space is None else cap_memory,
        timeout=timeout,
    )


SESSION = ["--N", "64", "--k", "2", "--theta", "0.9", "--seed", "5"]
GIB = 1 << 30


def test_refused_connection_exits_3_without_traceback(tmp_path):
    with socket.socket() as closed:  # bound but not listening: connects are refused
        closed.bind(("127.0.0.1", 0))
        address = "127.0.0.1:%d" % closed.getsockname()[1]
        done = run_cli_process(["query", "--address", address, *SESSION, "--item", "3"], tmp_path)
    assert done.returncode == 3
    assert done.stderr.startswith("error: cannot connect")
    assert "Traceback" not in done.stderr


def test_query_bad_item_exits_2_before_connecting(tmp_path):
    # the refused port shows no connection is tried: that would exit 3
    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))
        address = "127.0.0.1:%d" % closed.getsockname()[1]
        done = run_cli_process(["query", "--address", address, *SESSION, "--item", "99"], tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith("error: target index 99 out of range")
    assert "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["query", "--item", "0"], ["serve"]])
def test_k_beyond_hello_field_exits_2_before_connecting(tmp_path, command):
    # run handles k = 70000 at N = 1, but HELLO carries k in 16 bits; this
    # used to end in a struct.error traceback. The refused port shows that
    # query tries no connection and serve does not listen (port in use: 3).
    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))
        address = "127.0.0.1:%d" % closed.getsockname()[1]
        args = [command[0], "--address", address, "--N", "1", "--k", "70000",
                "--theta", "0.9", "--seed", "1", *command[1:]]
        done = run_cli_process(args, tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith("error: session parameters do not fit a HELLO frame")
    assert "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    ("command", "port"),
    [
        (["query", "--item", "0"], "P + 65536"),
        (["query", "--item", "0"], "P in fullwidth digits"),
        (["serve"], "99999"),
        (["serve"], "\u00b2"),
    ],
    ids=(
        "query-beyond-65535",
        "query-fullwidth-digits",
        "serve-beyond-65535",
        "serve-superscript-digit",
    ),
)
def test_bad_port_exits_2_before_connecting(tmp_path, command, port):
    # getaddrinfo keeps the low 16 bits, so query used to reach port P
    # (refused: exit 3), as it did for P in fullwidth digits, which int()
    # reads; serve failed in bind with an OverflowError, and int()
    # rejected the superscript digit with a ValueError
    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))
        if port == "P + 65536":
            port = str(closed.getsockname()[1] + 65536)
        elif port == "P in fullwidth digits":
            fullwidth = {ord("0") + d: 0xFF10 + d for d in range(10)}
            port = str(closed.getsockname()[1]).translate(fullwidth)
        args = [command[0], "--address", f"127.0.0.1:{port}", *SESSION, *command[1:]]
        done = run_cli_process(args, tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and port in done.stderr
    assert "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["query", "--item", "0"], ["serve"]])
def test_declaration_over_the_frame_cap_exits_2_before_connecting(tmp_path, capsys, monkeypatch,
                                                                   command):
    # k*N = 134,217,689 letters take a 16,777,217-byte DECLARATION frame:
    # a served session sent them all as photons before the frame failed.
    # The refused port shows that query tries no connection and serve does
    # not listen, and serve draws no database first.
    monkeypatch.setattr(cli, "_database_for", lambda args: pytest.fail("database drawn"))
    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))
        address = "127.0.0.1:%d" % closed.getsockname()[1]
        args = [command[0], "--address", address, "--N", "134217689", "--k", "1",
                "--theta", "0.3", "--seed", "1", *command[1:]]
        code, _, err = run_cli(args, tmp_path, capsys)
    assert code == 2
    assert err.startswith("error: k*N = 134217689 letters take a 16777217-byte DECLARATION")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [["F1", "--nbar", "-1"], ["F1", "--nbar", "2000000"], ["F2", "--N", "1"]],
    ids=["F1-negative-target", "F1-target-over-every-N", "F2-one-item"],
)
def test_figure_with_no_point_exits_2_and_writes_no_file(tmp_path, capsys, args):
    # each used to write "series": [] and exit 0
    code, _, err = run_cli(["figures", "--which", *args], tmp_path, capsys)
    assert code == 2
    assert err.startswith("error: no substring count 1..6 has a theta")
    assert list(tmp_path.iterdir()) == []


NEGATIVE_SEED = ["--N", "64", "--k", "2", "--theta", "0.9", "--seed", "-1"]


@pytest.mark.parametrize(
    "args",
    [
        ["run", *NEGATIVE_SEED, "--item", "0"],
        ["serve", "--address", "127.0.0.1:0", *NEGATIVE_SEED, "--sessions", "1"],
        ["query", "--address", "127.0.0.1:9", *NEGATIVE_SEED, "--item", "0"],
        ["attack", "--kind", "helstrom", "--theta", "0.3", "--seed", "-1"],
    ],
    ids=lambda args: args[0],
)
def test_negative_seed_is_a_usage_error(tmp_path, args):
    # np.random.SeedSequence used to reject it with a ValueError traceback
    done = run_cli_process(args, tmp_path)
    assert done.returncode == 1
    assert "error: argument --seed: must be a non-negative integer" in done.stderr
    assert "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(("which", "n_items"), [("F2", "0"), ("F2", "-5"), ("F4", "-5")])
def test_figures_n_below_1_exits_2(tmp_path, which, n_items):
    # F2 used to take 0 for "absent" and draw N = 10^4, and -5 gave an
    # empty F2 series and negative F4 expected bits, all with exit 0
    done = run_cli_process(["figures", "--which", which, "--N", n_items], tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith(f"error: --N must be at least 1, got {n_items}")
    assert "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_serve_on_port_in_use_exits_3_without_traceback(tmp_path):
    with socket.create_server(("127.0.0.1", 0)) as busy:
        address = "127.0.0.1:%d" % busy.getsockname()[1]
        done = run_cli_process(["serve", "--address", address, *SESSION, "--sessions", "1"], tmp_path)
    assert done.returncode == 3
    assert done.stderr.startswith("error: cannot listen")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("sessions", ["0", "-1"])
def test_serve_fewer_than_one_session_exits_2_and_writes_no_file(tmp_path, capsys, sessions):
    # each used to print "listening on", write sessions_handled 0 and exit 0
    args = ["serve", "--address", "127.0.0.1:0", *SESSION, "--sessions", sessions]
    code, out, err = run_cli(args, tmp_path, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: session count must be >= 1, got {sessions}")
    assert list(tmp_path.iterdir()) == []


def test_missing_database_file_exits_1_without_traceback(tmp_path):
    missing = str(tmp_path / "no-such-database.hex")
    done = run_cli_process(["run", *SESSION, "--item", "3", "--database", missing], tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and "no-such-database.hex" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("item", ["5", "-1"])
def test_run_bad_item_exits_2_without_traceback(tmp_path, item):
    # this session fails, so the target used to go unchecked: item 5 raised
    # IndexError, item -1 reported the last item's bit
    args = ["run", "--N", "1", "--k", "1", "--theta", "0.02", "--seed", "1", "--item", item]
    done = run_cli_process(args, tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and "target index" in done.stderr
    assert "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_noise_flag_is_gone(tmp_path, capsys):
    # it used to exit 0 here while retrieving the wrong bit
    args = ["run", "--N", "200", "--k", "1", "--theta", "0.7", "--noise", "0.2",
            "--seed", "4", "--item", "0"]
    with pytest.raises(SystemExit) as exc:
        run_cli(args, tmp_path, capsys)
    assert exc.value.code == 1


def test_t4_largest_row_runs_in_one_gib(tmp_path):
    # memory is bounded by the photon round and the k*N key, not by N/p
    args = ["run", "--N", "1000000", "--k", "4", "--theta", "0.293", "--seed", "1", "--item", "0"]
    done = run_cli_process(args, tmp_path, address_space=GIB, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[0])["success"] is True


def test_usd_attack_of_ten_million_trials_runs_in_one_gib(tmp_path):
    # trials are drawn and counted one round at a time; all that grows
    # with the trials is one packed truth bit per raw photon (3.75 MB
    # here), where drawing them at once failed to allocate 229 MiB
    args = ["attack", "--kind", "usd", "--theta", "0.284", "--k", "3",
            "--N", "50000", "--trials", "10000000"]
    done = run_cli_process(args, tmp_path, address_space=GIB, timeout=120)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.splitlines()[0])
    assert doc["trials"] == 10 ** 7
    assert doc["wrong_identifications"] == 0
    assert abs(doc["estimate"] - doc["analytic"]) <= 5 * doc["sigma"]


def test_tables_check_passes(tmp_path, capsys):
    code, out, _ = run_cli(["tables", "--check"], tmp_path, capsys)
    assert code == 0
    assert "all cells match" in out
    for table_id in ("T1", "T2", "T3", "T4"):
        assert (tmp_path / f"tables-{table_id}.csv").exists()
        assert (tmp_path / f"tables-{table_id}.json").exists()
    t2 = (tmp_path / "tables-T2.csv").read_text().splitlines()
    assert t2[0] == "N,12,50,100,200,500,1000,5000"


def test_run_retrieves_database_bit(tmp_path, capsys):
    args = [
        "run", "--N", "1000", "--k", "2", "--theta", "0.337",
        "--seed", "7", "--item", "42",
    ]
    code, out, _ = run_cli(args, tmp_path, capsys)
    assert code == 0
    doc = json.loads(out.splitlines()[0])
    assert doc["success"] is True
    assert doc["query"]["retrieved_bit"] == doc["database_bit"]


def test_run_is_byte_identical_across_invocations(tmp_path, capsys):
    args = [
        "run", "--N", "100", "--k", "1", "--theta", "0.6",
        "--seed", "3", "--item", "5",
    ]
    code, out1, _ = run_cli(args, tmp_path, capsys)
    assert code == 0
    files1 = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    code, out2, _ = run_cli(args, tmp_path, capsys)
    assert out1 == out2
    files2 = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert files1 == files2


def test_attack_helstrom_value(tmp_path, capsys):
    code, out, _ = run_cli(
        ["attack", "--kind", "helstrom", "--theta", "0.785", "--k", "2"], tmp_path, capsys
    )
    assert code == 0
    doc = json.loads(out.splitlines()[0])
    assert doc["p_guess"] == pytest.approx(0.75, abs=1e-3)


def test_attack_usd_report(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "attack", "--kind", "usd", "--theta", "0.284", "--k", "3",
            "--N", "50000", "--trials", "50000", "--seed", "1",
        ],
        tmp_path,
        capsys,
    )
    assert code == 0
    doc = json.loads(out.splitlines()[0])
    assert doc["analytic"] == pytest.approx(3.21, abs=0.01)
    assert doc["honest_expected"] == pytest.approx(3.02, abs=0.01)


def test_attack_bob_csv_format(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "attack", "--kind", "bob", "--theta", "0.785", "--trials", "20000",
            "--format", "csv",
        ],
        tmp_path,
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == "field,value"
    assert any(line.startswith("analytic,0.853") for line in out.splitlines())


def test_figures_f5_reference(tmp_path, capsys):
    code, out, _ = run_cli(["figures", "--which", "F5"], tmp_path, capsys)
    assert code == 0
    doc = json.loads(out.splitlines()[0])
    ref = [s for s in doc["series"] if s["label"] == "reference_pi_over_4"][0]
    assert ref["y"][0] == pytest.approx(0.8536, abs=1e-4)


def test_figures_f1_csv(tmp_path, capsys):
    code, out, _ = run_cli(
        ["figures", "--which", "F1", "--format", "csv"], tmp_path, capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "label,x,y"


def test_joint_usd_attack_kind(tmp_path, capsys):
    code, out, _ = run_cli(
        ["attack", "--kind", "joint-usd", "--theta", "0.2", "--k", "1"], tmp_path, capsys
    )
    assert code == 0
    doc = json.loads(out.splitlines()[0])
    assert doc["bound"] == pytest.approx(1 - math.cos(0.2), abs=1e-9)


def test_joint_usd_attack_every_plannable_k(tmp_path, capsys):
    code, out, _ = run_cli(
        ["attack", "--kind", "joint-usd", "--theta", "0.2", "--k", "20"], tmp_path, capsys
    )
    assert code == 0
    assert 0.0 < json.loads(out.splitlines()[0])["bound"] < 1 - math.cos(0.2)
    code, _, _ = run_cli(
        ["attack", "--kind", "joint-usd", "--theta", "0.2", "--k", "65"], tmp_path, capsys
    )
    assert code == 2


def test_query_and_server_sockets_send_without_nagle_delay(tmp_path, monkeypatch):
    # a round sends two small frames before it reads: under Nagle's
    # algorithm the second waits for the delayed ACK of the first
    nodelay = {}

    def recording(end, endpoint):
        def run(config, arg, conn):
            nodelay[end] = conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            return endpoint(config, arg, conn)

        return run

    monkeypatch.setattr(wire, "run_bob_endpoint", recording("server", wire.run_bob_endpoint))
    monkeypatch.setattr(wire, "run_alice_endpoint", recording("query", wire.run_alice_endpoint))
    source, channel, measure = cli.derive_seeds(5)
    config = protocol.SessionConfig(
        n_items=64, substrings=2, theta=0.9,
        source_seed=source, channel_seed=channel, measure_seed=measure,
    )
    server = wire.WireServer("127.0.0.1", 0, config, protocol.random_database(64, 5), sessions=1)
    thread = threading.Thread(target=server.serve, daemon=True)
    thread.start()
    address = f"127.0.0.1:{server.port}"
    code = cli.main(["query", "--address", address, *SESSION, "--item", "3",
                     "--out", str(tmp_path)])
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert code == 0
    assert server.outcomes == {"ok": 1}
    assert nodelay == {"server": 1, "query": 1}


def test_serve_and_query_subprocess_round_trip(tmp_path):
    # real two-process interop: serve in a child, query via the CLI API
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    db_path = tmp_path / "db.hex"
    database = protocol.random_database(64, 123)
    db_path.write_text(protocol.bits_to_hex(database))
    with subprocess.Popen(
        [
            sys.executable, "-m", "qpqsim.cli", "serve",
            "--address", "127.0.0.1:0", "--N", "64", "--k", "2",
            "--theta", "0.9", "--seed", "5", "--database", str(db_path),
            "--sessions", "2", "--out", str(tmp_path),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    ) as server:
        try:
            line = server.stdout.readline()
            assert line.startswith("listening on "), line
            port = int(line.strip().rsplit(":", 1)[1])
            for item in (9, 33):
                code = cli.main(
                    [
                        "query", "--address", f"127.0.0.1:{port}", "--N", "64",
                        "--k", "2", "--theta", "0.9", "--seed", "5",
                        "--item", str(item), "--out", str(tmp_path),
                    ]
                )
                assert code == 0
        finally:
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                raise
    served = json.loads(next(tmp_path.glob("serve-*.json")).read_text())
    assert served["sessions_handled"] == 2
    assert served["outcomes"] == {"ok": 2}
    reports = sorted(tmp_path.glob("query-*.json"))
    assert len(reports) == 2
    for path, item in zip(reports, (33, 9)):  # hash order is not item order
        doc = json.loads(path.read_text())
        got = doc["query"]["retrieved_bit"]
        assert got == int(database[doc["query"]["target_index"]])
