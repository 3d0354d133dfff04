import hashlib
import json
import os
import re
import shlex
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from privset import transport, wire
from privset.cli import EXIT_AUDIT, EXIT_OK, EXIT_PROTOCOL, EXIT_USAGE, main, read_set
from privset.params import ParamError


SRC = Path(__file__).resolve().parent.parent / "src"


def checkout_env() -> dict[str, str]:
    """The environment for a ``python -m privset...`` subprocess that runs this checkout's sources."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def closed_ports() -> tuple[int, int]:
    """Two distinct loopback ports, bound together and then released, so nothing listens on them."""
    with socket.socket() as a, socket.socket() as b:
        a.bind(("127.0.0.1", 0))
        b.bind(("127.0.0.1", 0))
        return a.getsockname()[1], b.getsockname()[1]


def machine_records(out: str):
    return [json.loads(line) for line in out.strip().splitlines()]


def argparse_refusal(capsys, *argv) -> str:
    """The stderr of a command line the parser refuses: exit 2 with usage text, before any command runs."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE and not out, argv
    assert err.startswith("usage: privset") and "error: " in err, (argv, err)
    return err


def test_params_output(capsys):
    code, out, _ = run_cli(capsys, "params", "--K", "3", "--P", "1", "--N", "3", "--machine")
    assert code == EXIT_OK
    (rec,) = machine_records(out)
    assert rec["alpha"] == [1, 2, 4]
    assert rec["nu"] == 2
    assert rec["rate"] == "2/3"
    assert rec["table_message_length"] == "54"
    assert rec["table_downloads"] == "81"
    assert rec["table_randomness"] == "27"


def test_params_human_output(capsys):
    code, out, _ = run_cli(capsys, "params", "--K", "5", "--P", "3", "--N", "2")
    assert code == EXIT_OK
    assert "alpha = [3, 1, 0, 0, 1]" in out
    assert "rate = 1/2" in out


def test_table_summary_worked_example(capsys):
    code, out, _ = run_cli(capsys, "table", "--K", "3", "--P", "1", "--N", "3", "--machine")
    assert code == EXIT_OK
    (rec,) = machine_records(out)
    assert rec["desired_symbols"] == 54
    assert rec["downloads"] == 81
    assert rec["randomness"] == 27
    assert rec["rate"] == "2/3"


def test_table_variant_summary(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--K", "5", "--P", "3", "--N", "2", "--reps", "1", "--machine"
    )
    assert code == EXIT_OK
    (rec,) = machine_records(out)
    assert rec["downloads"] == 76
    assert rec["desired_symbols"] == 38
    assert rec["randomness"] == 38
    assert rec["rate"] == "1/2"


def test_table_rendering_contains_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "--K", "3", "--P", "1", "--N", "3")
    assert code == EXIT_OK
    assert "Database 3" in out
    assert "+s" in out
    assert "rate = 2/3" in out


def test_table_advises_download_all(capsys):
    code, out, _ = run_cli(capsys, "table", "--K", "4", "--P", "4", "--N", "2")
    assert code == EXIT_OK
    assert "download all" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--K", "0", "--P", "0", "--N", "2"), "K must be >= 1"),
        (("--K", "-2", "--P", "-2", "--N", "2"), "K must be >= 1"),
        (("--K", "3", "--P", "3", "--N", "0", "--q", "4"), "N must be >= 1"),
        (("--K", "3", "--P", "3", "--N", "2", "--L", "0"), "L must be >= 1"),
        (("--K", "3", "--P", "3", "--N", "2", "--q", "4"), "q must be a prime"),
    ],
)
def test_table_checks_its_inputs_before_the_download_all_advice(capsys, argv, message):
    code, out, err = run_cli(capsys, "table", *argv)
    assert code == EXIT_USAGE
    assert err.startswith(f"error: {message}") and not out


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "params", "--K", "3", "--P", "5", "--N", "2")
    assert code == EXIT_USAGE
    assert "error" in err


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_table_repetition_count_below_one_is_a_usage_error(capsys, reps):
    code, out, err = run_cli(capsys, "table", "--K", "3", "--P", "1", "--N", "2", "--reps", reps)
    assert code == EXIT_USAGE
    assert err.startswith("error: the repetition count must be at least 1") and not out


def test_io_errors_are_usage_errors(tmp_path, capsys):
    set1 = tmp_path / "e1.set"
    set1.write_text("# privset set v1 K=10\n0\n1\n")
    missing = str(tmp_path / "missing")
    no_k = tmp_path / "no-k.set"
    no_k.write_text("# privset set v1\n1\n")
    for argv, says in (
        (["psi", "run", "--set1", missing, "--set2", missing], ""),
        (["psi", "run", "--set1", str(no_k), "--set2", str(no_k)], ""),
        (["psi", "verify", "--transcript", missing], ""),
        (["psi", "gen", "--K", "4", "--out-dir", str(set1 / "sub")], ""),
        (["psi", "run", "--set1", str(set1), "--set2", str(set1), "--save-transcript", str(tmp_path / "no-dir" / "t")], ""),
        (["psi", "connect", "--set", str(set1), "--databases", "localhost"], "'localhost' is not host:port"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert says in err, (argv, err)
    # a local run reads both set files, and a remote one its set and the databases: the parser requires them
    for argv, missing in (
        (["run", "--set1", str(set1)], "--set2"),
        (["run", "--set2", str(set1)], "--set1"),
        (["connect", "--set", str(set1)], "--databases"),
        (["connect", "--databases", "127.0.0.1:1"], "--set"),
    ):
        err = argparse_refusal(capsys, "psi", *argv)
        assert err.endswith(f"error: the following arguments are required: {missing}\n"), (argv, err)


def test_psi_serve_on_a_port_in_use_is_a_usage_error(tmp_path):
    set2 = tmp_path / "e2.set"
    set2.write_text("# privset set v1 K=10\n0\n2\n")
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        port = taken.getsockname()[1]
        out = subprocess.run(
            [sys.executable, "-m", "privset.cli", "psi", "serve", "--set", str(set2), "--listen", f"127.0.0.1:{port}"],
            capture_output=True, text=True, timeout=30, env=checkout_env(),
        )
    assert out.returncode == EXIT_USAGE
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr and not out.stdout


@pytest.mark.parametrize("listen, n_databases", [("127.0.0.1:70000", "1"), ("127.0.0.1:65535", "2")])
def test_psi_serve_on_a_port_past_65535_is_a_usage_error(tmp_path, listen, n_databases):
    # with two databases from port 65535, database 1 would get port 65536: nothing is bound
    set2 = tmp_path / "e2.set"
    set2.write_text("# privset set v1 K=10\n0\n2\n")
    out = subprocess.run(
        [sys.executable, "-m", "privset.cli", "psi", "serve", "--set", str(set2), "--listen", listen,
         "--n-databases", n_databases],
        capture_output=True, text=True, timeout=30, env=checkout_env(),
    )
    assert out.returncode == EXIT_USAGE
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert "Traceback" not in out.stderr and not out.stdout


def test_bad_counts_are_usage_errors_before_any_port_is_bound(tmp_path, capsys, monkeypatch):
    from privset import transport

    def no_bind(*args, **kwargs):
        raise AssertionError("a port was bound")

    monkeypatch.setattr(transport, "TcpServerPool", no_bind)
    set_path = tmp_path / "e.set"
    set_path.write_text("# privset set v1 K=10\n0\n2\n")
    empty = tmp_path / "empty.set"
    empty.write_text("# privset set v1 K=0\n")
    for argv, says in (
        (["psi", "serve", "--set", str(set_path), "--pool-size", "-5"], "--pool-size must be >= 0, got -5"),
        (["psi", "gen", "--K", "0", "--out-dir", str(tmp_path / "gen0")], "K must be >= 1"),
        (["psi", "gen", "--K", "-3", "--out-dir", str(tmp_path / "gen-3")], "K must be >= 1"),
        (["psi", "run", "--set1", str(empty), "--set2", str(empty)], "K must be >= 1"),
        (["psi", "serve", "--set", str(empty)], "K must be >= 1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and not out, argv
        assert err == f"error: {says}\n", (argv, err)
    assert not (tmp_path / "gen0").exists() and not (tmp_path / "gen-3").exists()


def test_psi_serve_draws_an_unseeded_pool_from_secrets(tmp_path, capsys, monkeypatch):
    from types import SimpleNamespace

    from privset import cli, transport
    from privset.storage import CommonRandomnessPool

    set_path = tmp_path / "e.set"
    set_path.write_text("# privset set v1 K=10\n0\n2\n")
    pools = []
    provision_cr = transport.provision_cr

    def recording_provision_cr(servers, pool, required):
        pools.append(pool.symbols)
        return provision_cr(servers, pool, required)

    def interrupt(seconds):  # stands in for Ctrl-C once the databases are up
        raise KeyboardInterrupt

    monkeypatch.setattr(transport, "provision_cr", recording_provision_cr)
    monkeypatch.setattr(cli, "time", SimpleNamespace(sleep=interrupt))
    serve = ["psi", "serve", "--set", str(set_path), "--pool-size", "128"]
    for seed in (None, None, "0", "7"):
        code, out, _ = run_cli(capsys, *serve, *(["--seed-cr", seed] if seed else []))
        assert code == EXIT_OK and json.loads(out)["record"] == "psi_serve"
    unseeded_a, unseeded_b, seeded_0, seeded_7 = pools
    assert seeded_0 == CommonRandomnessPool.generate(128, 2, 0).symbols
    assert seeded_7 == CommonRandomnessPool.generate(128, 2, 7).symbols
    # Two unseeded pools of 128 uniform bits agree with each other, or with seed 0's, with probability 2**-128.
    assert len(unseeded_a) == len(unseeded_b) == 128 and set(unseeded_a + unseeded_b) <= {0, 1}
    assert unseeded_a != unseeded_b
    assert seeded_0 not in (unseeded_a, unseeded_b)


def test_psi_run_against_a_closed_port_is_a_transport_fault(tmp_path, capsys):
    set1 = tmp_path / "e1.set"
    set1.write_text("# privset set v1 K=10\n0\n1\n")
    port, other = closed_ports()
    code, _, err = run_cli(capsys, "psi", "connect", "--set", str(set1), "--databases", f"127.0.0.1:{port},127.0.0.1:{other}")
    assert code == EXIT_PROTOCOL
    assert err.startswith(f"protocol fault: database 0 at 127.0.0.1:{port}") and err.count("\n") == 1


@pytest.mark.parametrize("reply", [b"[1]", b"7", b"\xff"])
def test_psi_run_against_a_malformed_setup_reply_is_a_transport_fault(reply, tmp_path, capsys, monkeypatch):
    from privset import transport, wire
    from privset.storage import MessageStore

    set1 = tmp_path / "e1.set"
    set1.write_text("# privset set v1 K=3\n0\n")
    servers = transport.make_entity_servers(MessageStore.from_bits([1, 0, 1]), 2)
    for srv in servers:
        def handle(msg_type, payload, honest=srv.handle_client_frame):
            return (wire.MSG_SETUP, reply) if msg_type == wire.MSG_SETUP else honest(msg_type, payload)

        monkeypatch.setattr(srv, "handle_client_frame", handle)
    with transport.TcpServerPool(servers) as pool:
        connect = ",".join(f"{host}:{port}" for host, port in pool.addresses)
        code, _, err = run_cli(capsys, "psi", "connect", "--set", str(set1), "--databases", connect)
    assert code == EXIT_PROTOCOL
    assert err == "protocol fault: setup reply is not a JSON object\n"


def test_psi_connect_refuses_databases_of_another_K(tmp_path, capsys):
    from privset import psi

    set1 = tmp_path / "e1.set"
    set1.write_text("# privset set v1 K=10\n0\n1\n")
    servers = psi.entity_servers(psi.EntityConfig(2, 12, 2, frozenset({0, 2})), 64, 5)
    with transport.TcpServerPool(servers) as pool:
        with pytest.raises(ParamError, match=r"^setup exchange reports a different field size$"):
            psi.run_psi_remote(psi.EntityConfig(1, 10, 2, frozenset({0, 1})), pool.addresses, seed_client=1)
        connect = ",".join(f"{h}:{p}" for h, p in pool.addresses)
        code, out, err = run_cli(capsys, "psi", "connect", "--set", str(set1), "--databases", connect)
    assert (code, out, err) == (EXIT_USAGE, "", "error: setup exchange reports a different field size\n")


def test_psi_run_refuses_set_files_that_disagree_on_K(tmp_path, capsys):
    set1, set2 = tmp_path / "e1.set", tmp_path / "e2.set"
    set1.write_text("# privset set v1 K=10\n0\n1\n")
    set2.write_text("# privset set v1 K=12\n0\n2\n")
    code, out, err = run_cli(capsys, "psi", "run", "--set1", str(set1), "--set2", str(set2))
    assert (code, out, err) == (EXIT_USAGE, "", "error: set files disagree on K\n")


def test_psi_run_connect_refuses_local_run_flags_before_connecting(tmp_path, capsys):
    set1 = tmp_path / "e1.set"
    set1.write_text("# privset set v1 K=10\n0\n1\n")
    set2 = tmp_path / "e2.set"
    set2.write_text("# privset set v1 K=12\n0\n2\n")
    port, other = closed_ports()  # a connection attempt would be refused (exit 3)
    connect = ["psi", "connect", "--set", str(set1), "--databases", f"127.0.0.1:{port},127.0.0.1:{other}"]
    err = argparse_refusal(capsys, *connect, "--set2", str(set2), "--transport", "sim", "--seed-cr", "5")
    assert err.endswith(f"error: unrecognized arguments: --set2 {set2} --transport sim --seed-cr 5\n"), err
    for flag, value in (
        ("--set2", str(set2)), ("--transport", "tcp"), ("--seed-cr", "0"), ("--n1", "2"), ("--n2", "3"),
        ("--K", "10"), ("--q1", "0.5"), ("--q2", "0.25"), ("--seed-sets", "0"),
    ):
        err = argparse_refusal(capsys, *connect, flag, value)
        assert err.endswith(f"error: unrecognized arguments: {flag} {value}\n"), (flag, err)


def test_an_abbreviated_flag_is_refused_before_any_port_is_bound(tmp_path, capsys, monkeypatch):
    # Prefix matching would read --seed as --seed-cr (a guessable pool) or
    # --seed-client, and --trans as --transport: each is refused as unknown,
    # as is psi serve's --machine, which it does not take.
    from privset import transport

    def no_socket(*args, **kwargs):
        raise AssertionError("a port was bound or a connection made")

    monkeypatch.setattr(transport.TcpServerPool, "start", no_socket)
    monkeypatch.setattr(transport.TcpBackend, "roundtrip", no_socket)
    set1 = tmp_path / "e1.set"
    set1.write_text("# privset set v1 K=10\n0\n1\n")
    port, other = closed_ports()
    for argv, extra in (
        (["psi", "serve", "--set", str(set1)], "--seed 5"),
        (["psi", "serve", "--set", str(set1)], "--machine"),  # its one startup record is always JSON
        (["psi", "connect", "--set", str(set1), "--databases", f"127.0.0.1:{port},127.0.0.1:{other}"], "--seed 5"),
        (["psi", "run", "--set1", str(set1), "--set2", str(set1)], "--trans tcp"),
    ):
        err = argparse_refusal(capsys, *argv, *extra.split())
        assert err.endswith(f"error: unrecognized arguments: {extra}\n"), (argv, err)


def test_python_dash_m_privset_runs_from_a_checkout(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "privset", "params", "--K", "3", "--P", "1", "--N", "3"],
        capture_output=True, text=True, timeout=30, cwd=tmp_path, env=checkout_env(),
    )
    assert out.returncode == EXIT_OK, out.stderr
    assert "rate = 2/3" in out.stdout


def test_params_ignores_the_environment(monkeypatch, capsys):
    monkeypatch.setenv("PRIVSET_SEED_CR", "abc")
    code, _, _ = run_cli(capsys, "params", "--K", "3", "--P", "1", "--N", "2")
    assert code == EXIT_OK


def test_table_run_rejects_a_non_prime_modulus(capsys):
    code, out, err = run_cli(capsys, "table", "--K", "3", "--P", "1", "--N", "2", "--q", "4", "--run")
    assert code == EXIT_USAGE
    assert "prime" in err and "decoded" not in out


def test_psi_gen_and_run_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "psi", "gen", "--K", "12", "--seed", "7", "--out-dir", str(tmp_path), "--machine"
    )
    assert code == EXIT_OK
    (rec,) = machine_records(out)
    set1, set2 = rec["files"][0], rec["files"][1]
    k1, elems1 = read_set(set1)
    assert k1 == 12
    inc_file = tmp_path / "entity1.incidence"
    header, bits = inc_file.read_text().splitlines()
    assert header.startswith("# privset incidence v1")
    assert {c for c in bits} <= {"0", "1"}
    assert [i for i, c in enumerate(bits) if c == "1"] == sorted(elems1)

    code, out, _ = run_cli(
        capsys, "psi", "run", "--set1", set1, "--set2", set2,
        "--seed-client", "5", "--seed-cr", "6", "--machine",
    )
    assert code == EXIT_OK
    (rec,) = machine_records(out)
    k2, elems2 = read_set(set2)
    assert set(rec["intersection"]) == set(elems1 & elems2)
    assert rec["download_symbols"] == rec["optimal_cost"]


def test_psi_gen_files_are_fixed_by_the_seed(tmp_path, capsys):
    code, *_ = run_cli(capsys, "psi", "gen", "--K", "12", "--seed", "7", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert (tmp_path / "entity1.incidence").read_text() == "# privset incidence v1 K=12\n010111011110\n"
    assert (tmp_path / "entity1.set").read_text() == "# privset set v1 K=12\n1\n3\n4\n5\n7\n8\n9\n10\n"


# SHA-256 of each file ``psi gen --K 16384 --seed 3`` writes, captured before
# ``generate_set`` drew its K values in one ``field.sample_below`` batch (one
# randrange per element then).  The batch is pure speed: none may change.
GOLDEN_GEN_DIGESTS = {
    "entity1.incidence": "cac8efdf361777949998fac8b65fbf85bc186e2f1df0396e8567d13646b89679",
    "entity1.set": "092b9eb8b79dce719a0d7d1a4cd864ca0b40956e155a15775786643d78f784e3",
    "entity2.incidence": "c21e03a3eab598dbd85bd75ca46e3e52bb72f30ed659c1a47e09d7409939ec86",
    "entity2.set": "86369b7d79aeb0bd24daea0c543acce9e5ff060840c359c202e84749dde465b2",
}


def test_psi_gen_files_at_paper_scale_match_the_golden_digests(tmp_path, capsys):
    code, *_ = run_cli(capsys, "psi", "gen", "--K", "16384", "--seed", "3", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert got == GOLDEN_GEN_DIGESTS


def test_psi_run_flagship_over_tcp(tmp_path, capsys):
    set1 = tmp_path / "e1.set"
    set2 = tmp_path / "e2.set"
    set1.write_text("# privset set v1 K=10\n0\n1\n2\n3\n")
    set2.write_text("# privset set v1 K=10\n0\n2\n4\n5\n6\n7\n")
    transcript = tmp_path / "run.transcript"
    code, out, _ = run_cli(
        capsys, "psi", "run", "--set1", str(set1), "--set2", str(set2),
        "--transport", "tcp", "--seed-client", "11", "--seed-cr", "22",
        "--save-transcript", str(transcript), "--machine",
    )
    assert code == EXIT_OK
    (rec,) = machine_records(out)
    assert rec["intersection"] == [0, 2]
    assert rec["download_symbols"] == 8
    assert rec["initiator"] == 1

    code, out, _ = run_cli(
        capsys, "psi", "verify", "--transcript", str(transcript),
        "--responder-set", str(set2), "--machine",
    )
    assert code == EXIT_OK
    (rec,) = machine_records(out)
    assert rec["replayed"] is True and rec["problems"] == []


def test_psi_verify_detects_tampering(tmp_path, capsys):
    set1 = tmp_path / "e1.set"
    set2 = tmp_path / "e2.set"
    set1.write_text("# privset set v1 K=6\n0\n3\n")
    set2.write_text("# privset set v1 K=6\n1\n3\n")
    transcript = tmp_path / "run.transcript"
    code, *_ = run_cli(
        capsys, "psi", "run", "--set1", str(set1), "--set2", str(set2),
        "--seed-client", "1", "--seed-cr", "2", "--save-transcript", str(transcript),
    )
    assert code == EXIT_OK
    wrong = tmp_path / "wrong.set"
    wrong.write_text("# privset set v1 K=6\n0\n1\n2\n")
    code, out, _ = run_cli(
        capsys, "psi", "verify", "--transcript", str(transcript), "--responder-set", str(wrong)
    )
    assert code == EXIT_PROTOCOL


def test_psi_verify_names_a_responder_set_of_another_K(tmp_path, capsys):
    set2, other = tmp_path / "e2.set", tmp_path / "other.set"
    set2.write_text("# privset set v1 K=10\n0\n2\n4\n5\n6\n7\n")
    other.write_text("# privset set v1 K=12\n0\n2\n4\n5\n6\n7\n")
    path = tmp_path / "run.transcript"
    verify_run("P=4").save(str(path))
    verify = ["psi", "verify", "--transcript", str(path), "--machine", "--responder-set"]
    code, out, _ = run_cli(capsys, *verify, str(set2))
    assert code == EXIT_OK and machine_records(out)[0]["replayed"] is True
    code, out, err = run_cli(capsys, *verify, str(other))
    rec = machine_records(out)[0]
    assert (code, err, rec["replayed"]) == (EXIT_PROTOCOL, "", False)
    assert rec["problems"] == ["responder set file disagrees with the transcript's K"]


def test_psi_verify_reads_vectors_over_the_transcripts_field(tmp_path, capsys):
    from privset import transport

    set1 = tmp_path / "e1.set"
    set2 = tmp_path / "e2.set"
    set1.write_text("# privset set v1 K=20\n0\n3\n11\n")
    set2.write_text("# privset set v1 K=20\n1\n3\n11\n19\n")
    path = tmp_path / "run.transcript"
    code, *_ = run_cli(
        capsys, "psi", "run", "--set1", str(set1), "--set2", str(set2),
        "--seed-client", "1", "--seed-cr", "2", "--save-transcript", str(path),
    )
    assert code == EXIT_OK
    code, *_ = run_cli(capsys, "psi", "verify", "--transcript", str(path), "--responder-set", str(set2))
    assert code == EXIT_OK
    # the intersection runs over F_2: a q of 3 is a metadata problem, which
    # stops the shape check and the replay, so the replay is refused naming q
    transcript = transport.Transcript.load(str(path))
    assert transcript.meta["q"] == 2
    transcript.meta["q"] = 3
    transcript.save(str(path))
    code, out, err = run_cli(capsys, "psi", "verify", "--transcript", str(path), "--responder-set", str(set2))
    assert code == EXIT_USAGE and out == "", err
    assert err.startswith("error: answer replay needs") and "transcript metadata has q=3, not the 2 of F_2" in err
    # metadata from an untrusted file: a list-valued q, a boolean P or a P past K is a usage error
    honest = {**transcript.meta, "q": 2}
    for key, value in (("q", [2]), ("q", True), ("P_initiator", True), ("P_initiator", 21), ("N_responder", 2.0)):
        transcript.meta = {**honest, key: value}
        transcript.save(str(path))
        code, _, err = run_cli(capsys, "psi", "verify", "--transcript", str(path), "--responder-set", str(set2))
        assert code == EXIT_USAGE, key
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, (key, err)


def test_psi_verify_replays_against_the_pool_the_run_had(tmp_path, capsys):
    from privset import transport, wire
    from privset.storage import CommonRandomnessPool

    set1 = tmp_path / "e1.set"
    set2 = tmp_path / "e2.set"
    set1.write_text("# privset set v1 K=10\n0\n1\n2\n3\n")
    set2.write_text("# privset set v1 K=10\n0\n2\n4\n5\n6\n7\n")
    # P=4 against N=2 provisions D - P = 4 slots.  Slot 4 lies past them; take a
    # seed whose five symbols are equal, so a pool sized from the recorded
    # slots would replay the run moved up one slot.
    symbols = {seed: CommonRandomnessPool.generate(5, 2, seed).symbols for seed in range(64)}
    seed_cr = next(seed for seed, pool in symbols.items() if len(set(pool)) == 1)
    path = tmp_path / "run.transcript"
    code, *_ = run_cli(
        capsys, "psi", "run", "--set1", str(set1), "--set2", str(set2),
        "--seed-cr", str(seed_cr), "--save-transcript", str(path),
    )
    assert code == EXIT_OK
    verify = ["psi", "verify", "--transcript", str(path), "--responder-set", str(set2), "--machine"]
    code, out, _ = run_cli(capsys, *verify)
    assert code == EXIT_OK and machine_records(out)[0]["replayed"] is True

    transcript = transport.Transcript.load(str(path))
    assert transcript.meta["P_initiator"] == 4 and transcript.meta["N_responder"] == 2
    qry, ans = transcript.records[0][0]
    query_id, body = wire.parse_query(qry)
    first, vectors = wire.parse_block_query(body, 2, 10)
    assert (first, len(vectors)) == (0, 4)
    transcript.records[0][0] = (wire.encode_query(query_id, wire.encode_block_query(1, vectors, 10, 2)), ans)
    transcript.save(str(path))
    code, out, err = run_cli(capsys, *verify)
    record = machine_records(out)[0]
    assert code == EXIT_PROTOCOL and err == "" and record["replayed"] is False
    # the replayed databases hold the run's 4 slots and refuse the run past them
    assert "recorded answers do not replay against the given store" in record["problems"]
    # Without the run's shape in its metadata the pool cannot be sized: a usage error, not a traceback.
    for key in ("P_initiator", "N_responder"):
        broken = transport.Transcript({k: v for k, v in transcript.meta.items() if k != key}, transcript.records)
        broken.save(str(path))
        code, _, err = run_cli(capsys, *verify)
        assert code == EXIT_USAGE and "P_initiator and N_responder" in err


def test_psi_run_and_verify_report_the_upload_bytes(tmp_path, capsys):
    from privset import transport

    set1 = tmp_path / "e1.set"
    set2 = tmp_path / "e2.set"
    set1.write_text("# privset set v1 K=10\n0\n1\n2\n3\n")
    set2.write_text("# privset set v1 K=10\n0\n2\n4\n5\n6\n7\n")
    path = tmp_path / "run.transcript"
    code, out, _ = run_cli(
        capsys, "psi", "run", "--set1", str(set1), "--set2", str(set2),
        "--seed-client", "11", "--seed-cr", "22", "--save-transcript", str(path), "--machine",
    )
    assert code == EXIT_OK
    sizes = [len(qry) for db_records in transport.Transcript.load(str(path)).records for qry, _ in db_records]
    # P=4 against N=2: each database gets one run of 4 entries of 2 vector bytes
    assert sizes == [4 + 9 + 4 * 2] * 2
    assert machine_records(out)[0]["upload_bytes"] == sum(sizes) == 42
    code, out, _ = run_cli(capsys, "psi", "verify", "--transcript", str(path), "--machine")
    assert code == EXIT_OK and machine_records(out)[0]["upload_bytes"] == 42


def test_psi_verify_refuses_a_version_1_transcript(tmp_path, capsys):
    # and a version-2 transcript: each earlier version is refused by name
    from privset import transport, wire

    set1 = tmp_path / "e1.set"
    set1.write_text("# privset set v1 K=10\n2\n9\n")
    path = tmp_path / "run.transcript"
    code, *_ = run_cli(capsys, "psi", "run", "--set1", str(set1), "--set2", str(set1), "--save-transcript", str(path))
    assert code == EXIT_OK
    data = path.read_bytes()
    assert wire.TRANSCRIPT_HEADER == b"PRIVSET-TRANSCRIPT v3\n" and data.startswith(wire.TRANSCRIPT_HEADER)
    for version in (1, 2):
        path.write_bytes(b"PRIVSET-TRANSCRIPT v%d\n" % version + data[len(wire.TRANSCRIPT_HEADER) :])
        with pytest.raises(wire.TransportError, match=f"unsupported transcript version v{version}"):
            transport.Transcript.load(str(path))
        code, out, err = run_cli(capsys, "psi", "verify", "--transcript", str(path))
        assert code == EXIT_PROTOCOL and out == ""
        assert err == f"protocol fault: unsupported transcript version v{version}\n"


def test_psi_verify_checks_the_transcripts_own_shape(tmp_path, capsys):
    from privset import psi, transport, wire

    set1 = tmp_path / "e1.set"
    set2 = tmp_path / "e2.set"
    set1.write_text("# privset set v1 K=10\n0\n1\n2\n3\n")
    set2.write_text("# privset set v1 K=10\n0\n2\n4\n5\n6\n7\n")
    flagship, remote, path = tmp_path / "run.transcript", tmp_path / "remote.transcript", tmp_path / "t.transcript"
    code, *_ = run_cli(
        capsys, "psi", "run", "--set1", str(set1), "--set2", str(set2),
        "--seed-client", "11", "--seed-cr", "22", "--save-transcript", str(flagship),
    )
    assert code == EXIT_OK
    servers = psi.entity_servers(psi.EntityConfig(2, 10, 2, frozenset({0, 2, 4, 5, 6, 7})), 64, 5)
    with transport.TcpServerPool(servers) as pool:
        connect = ",".join(f"{h}:{p}" for h, p in pool.addresses)
        code, *_ = run_cli(capsys, "psi", "connect", "--set", str(set1), "--databases", connect,
                           "--save-transcript", str(remote))
        assert code == EXIT_OK

    def verify(transcript):
        transcript.save(str(path))
        code, out, _ = run_cli(capsys, "psi", "verify", "--transcript", str(path), "--machine")
        problems = machine_records(out)[0]["problems"]
        assert code == (EXIT_PROTOCOL if problems else EXIT_OK)
        return problems

    for saved in (flagship, remote):  # P=4 against N=2: 4 entries from slot 0 at each database
        honest = transport.Transcript.load(str(saved))
        assert verify(honest) == []
    (r0,), (r1,) = honest.records
    # (a) one extra probe appended to database 0's body, and its answer
    qid, body = wire.parse_query(r0[0])
    first, vectors = wire.parse_block_query(body, 2, 10)
    extra = (
        wire.encode_query(qid, wire.encode_block_query(first, vectors + [(1).to_bytes(2, "little")], 10, 2)),
        wire.encode_answer(qid, wire.parse_answer(r0[1])[1] + [0]),
    )
    assert verify(transport.Transcript(honest.meta, [[extra], [r1]])) == [
        "downloaded 9 symbols, not the 8 of P_initiator=4 against N_responder=2",
        "database 0 got 5 entries from slot 0; the run's shape lays out 4 entries from slot 0",
    ]
    # (b) database 1's body moved to database 0
    assert verify(transport.Transcript(honest.meta, [[r0, r1], []])) == [
        "database 0 got 2 bodies, not at most one",
        "database 1 got no body; the run's shape lays out 4 entries from slot 0",
    ]
    # (b) database 1's run starts one slot later than database 0's
    qid, body = wire.parse_query(r1[0])
    _, vectors = wire.parse_block_query(body, 2, 10)
    moved = (wire.encode_query(qid, wire.encode_block_query(1, vectors, 10, 2)), r1[1])
    assert verify(transport.Transcript(honest.meta, [[r0], [moved]])) == [
        "database 1 got 4 entries from slot 1; the run's shape lays out 4 entries from slot 0",
    ]


# (K, initiator set, its databases, responder set, its databases) of the runs
# verify reads: P=4 against N=2, an empty and a full initiator, and P=1 against
# N=3, where database 2 gets no entry.
VERIFY_RUNS = {
    "P=4": (10, {0, 1, 2, 3}, 2, {0, 2, 4, 5, 6, 7}, 2),
    "P=0": (10, set(), 2, {1, 2, 3}, 2),
    "P=K": (10, set(range(10)), 2, {0, 2, 4, 5, 6, 7}, 2),
    "P=1 N=3": (10, {4}, 2, {1, 4, 5, 6, 7}, 3),
}


def verify_run(name, backend="sim"):
    from privset import psi

    K, s1, n1, s2, n2 = VERIFY_RUNS[name]
    e1, e2 = psi.EntityConfig(1, K, n1, frozenset(s1)), psi.EntityConfig(2, K, n2, frozenset(s2))
    if backend == "connect":  # against databases served as psi serve serves them; the transcript carries no pool seed
        with transport.TcpServerPool(psi.entity_servers(e2, 64, 5)) as pool:
            return psi.run_psi_remote(e1, pool.addresses, seed_client=1).transcript
    return psi.run_psi(e1, e2, backend=backend, seed_client=1, seed_cr=2).transcript


def verify_record(capsys, tmp_path, transcript):
    path = tmp_path / "t.transcript"
    transcript.save(str(path))
    code, out, err = run_cli(capsys, "psi", "verify", "--transcript", str(path), "--machine")
    (rec,) = machine_records(out)
    return code, err, rec


@pytest.mark.parametrize("name, backend, downloaded", [
    ("P=4", "sim", 8), ("P=4", "tcp", 8), ("P=4", "connect", 8), ("P=0", "sim", 0), ("P=K", "sim", 10),
    ("P=1 N=3", "sim", 2),
])
def test_psi_verify_passes_honest_transcripts(tmp_path, capsys, name, backend, downloaded):
    code, err, rec = verify_record(capsys, tmp_path, verify_run(name, backend))
    assert (code, err, rec["problems"], rec["download_symbols"]) == (EXIT_OK, "", [], downloaded)


def move_an_answer_symbol(records):
    (q0, a0), (q1, a1) = records[0][0], records[1][0]
    (i0, s0), (i1, s1) = wire.parse_answer(a0), wire.parse_answer(a1)
    return [[(q0, wire.encode_answer(i0, s0 + s1[:1]))], [(q1, wire.encode_answer(i1, s1[1:]))]]


def raise_an_answer_id(records):
    ((q0, a0),) = records[0]
    i0, s0 = wire.parse_answer(a0)
    return [[(q0, wire.encode_answer(i0 + 7, s0))], records[1]]


def give_a_body(db, body):
    """The run's records with database ``db``'s replaced by one query carrying ``body`` and an empty answer."""
    def tamper(records):
        record = [(wire.encode_query(db, body), wire.encode_answer(db, []))]
        return [record if i == db else r for i, r in enumerate(records)]

    return tamper


# Each tamper of a saved run, and the problems verify names for it.
VERIFY_TAMPERS = [
    pytest.param("P=4", move_an_answer_symbol, [  # 5 and 3 symbols for 4 entries each, still 8 in all
        "database 0 got an answer the client refuses: answer of wrong length at database 0",
        "database 1 got an answer the client refuses: answer of wrong length at database 1",
    ], id="a-a-symbol-moved-between-answers"),
    pytest.param("P=4", raise_an_answer_id, [
        "database 0 got an answer the client refuses: answer id 7 does not match query id 0",
    ], id="b-an-answer-id-raised"),
    pytest.param("P=4", lambda records: [[(records[0][0][0], b"\x00")], records[1]], [
        "downloaded 4 symbols, not the 8 of P_initiator=4 against N_responder=2",
        "database 0 got an answer the client refuses: truncated answer",
    ], id="c-a-truncated-answer"),
    pytest.param("P=0", give_a_body(0, b"\x09"), [
        "database 0 got a body that does not parse at K=10, q=2: unknown scheme tag 9",
    ], id="d-an-unknown-tag-at-P=0"),
    pytest.param("P=1 N=3", give_a_body(2, b"\x01\x00"), [
        "database 2 got a body that does not parse at K=10, q=2: unknown scheme tag 1",
    ], id="e-the-reserved-table-tag"),
    pytest.param("P=1 N=3", give_a_body(2, wire.encode_download_all()), [
        "database 2 got an answer the client refuses: answer of wrong length at database 2",
    ], id="f-a-download-all-where-no-body-is-laid-out"),
    pytest.param("P=K", lambda records: [[], records[0]], [
        "database 0 got no body; the run's shape lays out a download-all body",
        "database 1 got a download-all body; the run's shape lays out no body",
    ], id="g-download-all-moved-to-database-1"),
]


@pytest.mark.parametrize("name, tamper, problems", VERIFY_TAMPERS)
def test_psi_verify_reads_each_record_as_the_client_reads_it(tmp_path, capsys, name, tamper, problems):
    # Each database's query and answer are read by the client's own readers and
    # compared once with what the run's shape lays out there; whatever fails is
    # that database's named problem, and the record is printed with exit 3.
    honest = verify_run(name)
    code, err, rec = verify_record(capsys, tmp_path, transport.Transcript(honest.meta, tamper(honest.records)))
    assert (code, err, rec["problems"]) == (EXIT_PROTOCOL, "", problems)


def test_psi_verify_sizes_nothing_by_the_transcripts_metadata(tmp_path, capsys):
    # A rewritten K or N_responder costs verify no work or memory in proportion to it.
    from privset import psi, transport

    e1 = psi.EntityConfig(1, 10, 2, frozenset({0, 1, 2, 3}))
    e2 = psi.EntityConfig(2, 10, 2, frozenset({0, 2, 4, 5, 6, 7}))
    honest = psi.run_psi(e1, e2, seed_client=11, seed_cr=22).transcript
    path = tmp_path / "t.transcript"
    verify = ["psi", "verify", "--transcript", str(path), "--machine"]
    for key, value in (("K", 2**40), ("N_responder", 10**9)):
        transport.Transcript({**honest.meta, key: value}, honest.records).save(str(path))
        start = time.monotonic()
        code, out, err = run_cli(capsys, *verify)
        assert time.monotonic() - start < 1 and code == EXIT_PROTOCOL, key
        if key == "K":  # each recorded body is far shorter than 2**40-coefficient vectors
            assert err == "" and machine_records(out)[0]["problems"] == [
                f"database {db} got a body that does not parse at K={2**40}, q=2: truncated query payload"
                for db in range(2)
            ]
        else:
            assert machine_records(out)[0]["problems"] == ["the transcript records 2 databases, not N_responder=1000000000"]


def test_psi_verify_names_a_query_too_short_to_parse(tmp_path, capsys):
    # A recorded query shorter than its id and scheme tag is its database's one
    # named problem, as an unparsable body is: the record is printed and
    # the exit is 3, with or without the answer replay.
    from privset import psi, transport

    e1 = psi.EntityConfig(1, 20, 2, frozenset({0, 3, 11}))
    e2 = psi.EntityConfig(2, 20, 2, frozenset({1, 3, 11, 19}))
    honest = psi.run_psi(e1, e2, seed_client=1, seed_cr=2).transcript
    (r0,), (r1,) = honest.records
    path, responder_set = tmp_path / "t.transcript", tmp_path / "e2.set"
    responder_set.write_text("# privset set v1 K=20\n1\n3\n11\n19\n")
    transport.Transcript(honest.meta, [[(b"\x00\x01", r0[1])], [r1]]).save(str(path))
    problem = "database 0 got a query that does not parse: query too short"
    code, out, err = run_cli(capsys, "psi", "verify", "--transcript", str(path), "--machine")
    assert code == EXIT_PROTOCOL and err == "" and machine_records(out)[0]["problems"] == [problem]
    code, out, err = run_cli(
        capsys, "psi", "verify", "--transcript", str(path), "--responder-set", str(responder_set), "--machine"
    )
    assert code == EXIT_PROTOCOL and err == ""
    assert machine_records(out)[0]["problems"] == [problem, "recorded answers do not replay against the given store"]


def test_psi_verify_reports_metadata_without_the_runs_shape(tmp_path, capsys):
    # Without K, P_initiator or N_responder verify cannot check the run's
    # shape: each missing key is a named problem and exit 3, never "transcript consistent".
    from privset import psi, transport

    e1 = psi.EntityConfig(1, 10, 2, frozenset({0, 1, 2, 3}))
    e2 = psi.EntityConfig(2, 10, 2, frozenset({0, 2, 4, 5, 6, 7}))
    honest = psi.run_psi(e1, e2, seed_client=1, seed_cr=2).transcript
    path = tmp_path / "t.transcript"

    def verify(meta, records):
        transport.Transcript(meta, records).save(str(path))
        code, out, _ = run_cli(capsys, "psi", "verify", "--transcript", str(path), "--machine")
        (rec,) = machine_records(out)
        return code, rec["download_symbols"], rec["problems"]

    def without(key):
        return {k: v for k, v in honest.meta.items() if k != key}

    assert verify(honest.meta, honest.records) == (EXIT_OK, 8, [])
    for key in ("K", "P_initiator", "N_responder"):
        assert verify(without(key), honest.records) == (EXIT_PROTOCOL, 8, [f"transcript metadata has no integer {key}"])
    # database 1's record doubled downloads 12 symbols against the optimum of 8
    r0, r1 = honest.records
    doubled = verify(without("P_initiator"), [r0, r1 + r1])
    assert doubled == (EXIT_PROTOCOL, 12, ["transcript metadata has no integer P_initiator"])
    # a P_initiator outside 0 to K is a named problem too, not a usage error
    for key, value in (("P_initiator", 11), ("P_initiator", -1), ("K", -3)):
        meta = {**honest.meta, key: value}
        problem = f"transcript metadata has P_initiator={meta['P_initiator']} outside 0 to K={meta['K']}"
        assert verify(meta, honest.records) == (EXIT_PROTOCOL, 8, [problem])
    # so is an N_responder below 2 while 0 < P_initiator < K, and replay refuses it as other bad metadata
    responder_set = tmp_path / "e2.set"
    responder_set.write_text("# privset set v1 K=10\n0\n2\n4\n5\n6\n7\n")
    for n, records, downloaded in ((1, [r0], 4), (0, [], 0)):
        meta = {**honest.meta, "N_responder": n}
        problem = f"transcript metadata has N_responder={n}; P_initiator=4 of K=10 needs at least two databases"
        assert verify(meta, records) == (EXIT_PROTOCOL, downloaded, [problem])
        code, _, err = run_cli(capsys, "psi", "verify", "--transcript", str(path), "--responder-set", str(responder_set))
        assert code == EXIT_USAGE and err.startswith("error: answer replay needs") and problem in err, err
    # a K the recorded bodies do not fit names each database's body, and the record is printed
    meta = {**honest.meta, "K": 1000000}
    problems = [
        f"database {db} got a body that does not parse at K={meta['K']}, q={meta['q']}: truncated query payload"
        for db in range(2)
    ]
    assert verify(meta, honest.records) == (EXIT_PROTOCOL, 8, problems)
    # a q other than F_2's is one problem of the metadata
    problem = "transcript metadata has q=3, not the 2 of F_2"
    assert verify({**honest.meta, "q": 3}, honest.records) == (EXIT_PROTOCOL, 8, [problem])


def drop(key):
    return lambda meta: {k: v for k, v in meta.items() if k != key}


def put(key, value):
    return lambda meta: {**meta, key: value}


# The metadata cases of test_psi_verify_reports_metadata_without_the_runs_shape,
# each a (metadata edit, records edit) of the P=4 run.
VERIFY_METADATA = [
    *[pytest.param(drop(key), None, id=f"no-{key}") for key in ("K", "P_initiator", "N_responder")],
    pytest.param(drop("P_initiator"), lambda records: [records[0], records[1] + records[1]], id="no-P-doubled"),
    *[pytest.param(put(key, value), None, id=f"{key}={value}") for key, value in (
        ("P_initiator", 11), ("P_initiator", -1), ("K", -3), ("K", 1000000), ("q", 3),
    )],
    pytest.param(put("N_responder", 1), lambda records: records[:1], id="N_responder=1"),
    pytest.param(put("N_responder", 0), lambda records: [], id="N_responder=0"),
]


@pytest.mark.parametrize("name, edit_meta, edit_records", [
    *[pytest.param(name, None, None, id=f"honest-{name}") for name in VERIFY_RUNS],
    *[pytest.param(p.values[0], None, p.values[1], id=p.id) for p in VERIFY_TAMPERS],
    *[pytest.param("P=4", *p.values, id=p.id) for p in VERIFY_METADATA],
])
def test_check_transcript_returns_what_psi_verify_prints(tmp_path, capsys, name, edit_meta, edit_records):
    # psi verify prints what the library's one check of a run returns: the
    # same problems, and with the responder's set the same replay, or the
    # same refusal to replay.
    from privset import psi

    honest = verify_run(name)
    transcript = transport.Transcript(
        (edit_meta or dict)(honest.meta), (edit_records or list)(honest.records)
    )
    code, _, rec = verify_record(capsys, tmp_path, transcript)
    assert psi.check_transcript(transcript) == rec["problems"]
    assert code == (EXIT_PROTOCOL if rec["problems"] else EXIT_OK)
    K, responder = transcript.meta.get("K"), VERIFY_RUNS[name][3]
    if type(K) is not int:  # a responder set file of any K disagrees with the transcript's
        return
    responder_set = tmp_path / "responder.set"
    responder_set.write_text(f"# privset set v1 K={K}\n" + "".join(f"{e}\n" for e in sorted(responder)))
    code, out, err = run_cli(capsys, "psi", "verify", "--transcript", str(tmp_path / "t.transcript"),
                             "--responder-set", str(responder_set), "--machine")
    if code == EXIT_USAGE:
        with pytest.raises(ParamError) as refusal:
            psi.check_transcript(transcript, responder)
        assert err == f"error: {refusal.value}\n"
    else:
        assert psi.check_transcript(transcript, responder) == machine_records(out)[0]["problems"]


def test_psi_verify_reports_a_transcript_without_a_field_size(tmp_path, capsys):
    # A q that is missing or not F_2's 2 is a problem of the transcript
    # (exit 3, named in the record), as a missing K is, not a usage error.
    from privset import psi, transport

    e1 = psi.EntityConfig(1, 10, 2, frozenset({0, 1, 2, 3}))
    e2 = psi.EntityConfig(2, 10, 2, frozenset({0, 2, 4, 5, 6, 7}))
    honest = psi.run_psi(e1, e2, seed_client=1, seed_cr=2).transcript
    path = tmp_path / "t.transcript"

    def verify(meta):
        transport.Transcript(meta, honest.records).save(str(path))
        code, out, err = run_cli(capsys, "psi", "verify", "--transcript", str(path), "--machine")
        assert err == ""
        (rec,) = machine_records(out)
        return code, rec["problems"]

    assert honest.meta["q"] == 2 and verify(honest.meta) == (EXIT_OK, [])
    without = {k: v for k, v in honest.meta.items() if k != "q"}
    for meta, shown in ((without, "None"), ({**honest.meta, "q": 4}, "4"), ({**honest.meta, "q": "2"}, "'2'")):
        assert verify(meta) == (EXIT_PROTOCOL, [f"transcript metadata has q={shown}, not the 2 of F_2"])


def test_psi_verify_replay_of_a_remote_transcript_needs_the_pool_seed(tmp_path, capsys):
    from privset import psi, transport

    set2 = tmp_path / "e2.set"
    set2.write_text("# privset set v1 K=10\n0\n2\n4\n5\n6\n7\n")
    servers = psi.entity_servers(psi.EntityConfig(2, 10, 2, frozenset({0, 2, 4, 5, 6, 7})), 64, 5)
    with transport.TcpServerPool(servers) as pool:
        local = psi.EntityConfig(1, 10, 2, frozenset({0, 1, 2, 3}))
        result = psi.run_psi_remote(local, pool.addresses, seed_client=11)
    transcript = tmp_path / "remote.transcript"
    result.transcript.save(str(transcript))

    code, out, err = run_cli(
        capsys, "psi", "verify", "--transcript", str(transcript), "--responder-set", str(set2)
    )
    assert code == EXIT_USAGE
    assert "pool seed" in err and "do not replay" not in out


def test_psi_run_connect_without_a_seed_draws_a_fresh_strategy(tmp_path, capsys, received_bodies):
    from privset import psi, transport

    set1 = tmp_path / "e1.set"
    set1.write_text("# privset set v1 K=10\n0\n1\n2\n3\n")
    servers = psi.entity_servers(psi.EntityConfig(2, 10, 2, frozenset({0, 2, 4, 5, 6, 7})), 64, 5)
    transcript = tmp_path / "remote.transcript"
    with transport.TcpServerPool(servers) as pool:
        connect = ",".join(f"{h}:{p}" for h, p in pool.addresses)
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "psi", "connect", "--set", str(set1), "--databases", connect,
                "--save-transcript", str(transcript), "--machine",
            )
            assert code == EXIT_OK and machine_records(out)[0]["intersection"] == [0, 2]
    assert transport.Transcript.load(str(transcript)).meta["seed_client"] is None
    first, second = received_bodies[servers[0]]
    assert first != second  # no fixed default seed: each run plans afresh


def test_audit_command_pass_and_fail(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "--scheme", "block", "--K", "3", "--P", "1", "--N", "2", "--machine"
    )
    assert code == EXIT_OK
    records = machine_records(out)
    assert all(r["ok"] for r in records)
    assert {r["check"] for r in records} == {"user_privacy", "db_privacy", "reliability"}

    code, out, _ = run_cli(
        capsys, "audit", "--scheme", "block", "--K", "3", "--P", "1", "--N", "2",
        "--mutant", "no_base_mask", "--machine",
    )
    assert code == EXIT_AUDIT


def test_block_audit_rejects_a_single_database(capsys):
    code, _, err = run_cli(capsys, "audit", "--scheme", "block", "--K", "3", "--P", "1", "--N", "1")
    assert code == EXIT_USAGE
    assert "two databases" in err


def test_block_audit_runs_at_the_psi_serve_size(capsys):
    argv = ["audit", "--scheme", "block", "--K", "256", "--P", "8", "--N", "2", "--machine"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    records = machine_records(out)
    assert [r["check"] for r in records] == ["user_privacy", "db_privacy", "reliability"]
    assert all(r["ok"] for r in records)
    sampled = ", premises checked on 40 sampled strategy draws"
    assert records[0]["detail"] == "max per-database total variation 0" + sampled
    assert records[1]["detail"] == "posterior uniform in all views" + sampled
    for mutant in ("no_cr", "no_base_mask"):
        code, out, _ = run_cli(capsys, *argv, "--mutant", mutant)
        assert code == EXIT_AUDIT
        assert not machine_records(out)[1]["ok"]


def test_paper_n3_table_audit_passes(capsys):
    code, out, _ = run_cli(capsys, "audit", "--scheme", "table", "--K", "3", "--P", "1", "--N", "3", "--machine")
    assert code == EXIT_OK
    records = machine_records(out)
    assert len(records) == 3 and all(r["ok"] for r in records)
    for mutant in ("no_index_permutation", "no_pool_relabel"):
        code, _, _ = run_cli(
            capsys, "audit", "--scheme", "table", "--K", "3", "--P", "1", "--N", "3", "--mutant", mutant
        )
        assert code == EXIT_AUDIT


# SHA-256 of ``privset table`` stdout, rendered and with ``--run --machine``, at
# the default seeds.  The rendered table prints every download of every
# database, so a change to the build, its relabeling or its rendering that
# keeps its output leaves every value here as it is.
GOLDEN_TABLE_DIGESTS = {
    "K=3 P=1 N=3 rendered": "8c0067fbbb1a6d26d340078b4b7b237552fe721899683f1a4d1f29b5fef59550",
    "K=3 P=1 N=3 run machine": "4977ab874c1705ca7e0c6a723c9769f9197a851edf0940fd3345e6bb85bd7588",
    "K=5 P=3 N=2 reps=1 rendered": "04a989dfc762483220d63e9e5ab275f70181eea87bc1c7d9cd8a406d2056fb90",
    "K=5 P=3 N=2 reps=1 run machine": "2e497d90fc5a101eb647693ef4c0dcebe24ccdf2e1aee5b7f7fc8e7afff4ef65",
    "K=4 P=2 N=2 rendered": "11907560db5fc740d5a2f51f3a77b4edbd94bb8cf4e6cb1c713a38a28d5b5d73",
    "K=4 P=2 N=2 run machine": "79dc7c92523bf3fc3d5b25ecb0281025bd1e5f90a7b9bd646f2c164f2b5a7def",
    "K=3 P=1 N=2 q=3 rendered": "2c5382f35f46fc5f2da03d415f0dac0ec0467860b33051ab0c52baaca250ff18",
    "K=3 P=1 N=2 q=3 run machine": "a9b986f08a978983f610cbb052ecc8533c4902ed25dfcf8619b4960e9bbf7a11",
    "K=6 P=4 N=2 reps=1 rendered": "5ee6c6cf374a570bd1489e37509810f32f1700b85a22900f145961d7cf49d715",
    "K=6 P=4 N=2 reps=1 run machine": "970cd7933ad82b206952fecfe3116f088a6dc0c8794ee8f8d6d1881d6903cd23",
}


def test_table_output_matches_the_golden_digests(capsys):
    shapes = {
        "K=3 P=1 N=3": ["--K", "3", "--P", "1", "--N", "3"],
        "K=5 P=3 N=2 reps=1": ["--K", "5", "--P", "3", "--N", "2", "--reps", "1"],
        "K=4 P=2 N=2": ["--K", "4", "--P", "2", "--N", "2"],
        "K=3 P=1 N=2 q=3": ["--K", "3", "--P", "1", "--N", "2", "--q", "3"],
        "K=6 P=4 N=2 reps=1": ["--K", "6", "--P", "4", "--N", "2", "--reps", "1"],
    }
    got = {}
    for name, argv in shapes.items():
        for mode, extra in (("rendered", []), ("run machine", ["--run", "--machine"])):
            code, out, _ = run_cli(capsys, "table", *argv, *extra)
            assert code == EXIT_OK, (name, mode)
            got[f"{name} {mode}"] = hashlib.sha256(out.encode()).hexdigest()
    assert got == GOLDEN_TABLE_DIGESTS


# SHA-256 of ``privset audit --machine`` stdout.  Each verdict's ok, distance
# and detail are fixed by the scheme and the audit's arithmetic, so a change
# that only speeds an audit up leaves every value here as it is.
GOLDEN_AUDIT_DIGESTS = {
    "table K=3 P=1 N=2": "4fc6925092cb95ecbeb1ab8846bcdb2abc78ea5e66c1d9dda13927679398dbde",
    "table K=3 P=1 N=3": "4fc6925092cb95ecbeb1ab8846bcdb2abc78ea5e66c1d9dda13927679398dbde",
    "table K=3 P=1 N=3 no_index_permutation": "23310c4b26462c33334a4728b1b4dfa6932e64ae71fcf8ba0132fb18a2965832",
    "table K=3 P=1 N=3 no_pool_relabel": "a4857ab560076473bc7d19f9ed5193dda81333186ce5c0f01d080a6f52cf1cdc",
    "table K=3 P=1 N=3 no_hidden_cr": "9f605b78f0990310032b5a6a5b782e9df0ad64c962f6b0d31d37780966821135",
    "table K=3 P=2 N=2": "4fc6925092cb95ecbeb1ab8846bcdb2abc78ea5e66c1d9dda13927679398dbde",
    "table K=3 P=1 N=2 q=3": "4fc6925092cb95ecbeb1ab8846bcdb2abc78ea5e66c1d9dda13927679398dbde",
    "table K=4 P=2 N=2": "4fc6925092cb95ecbeb1ab8846bcdb2abc78ea5e66c1d9dda13927679398dbde",
    "table K=4 P=2 N=2 no_hidden_cr": "c13bcdbd4cbc7583a528627b6e6d0112d8a5eb402e0b176d14309f79a340d8a5",
    "block K=3 P=1 N=2": "ccfadc05277000786e9c52130b162fd9a8bbf66332d673b5a5d039f535f40290",
    "block K=3 P=1 N=2 no_base_mask": "020772442a89323497f85df2e58b061cccf6a50d05ca176b382c658ac659afc2",
    "block K=3 P=1 N=2 no_cr": "136d61be414f06a35e91b9d8ce8941699089f12b744a91a5692f6c69cf3ab9ca",
    "block K=3 P=2 N=2": "f117b53fa6cd5f21d3dc91d14b2fedf0516239d937abe9499511aa4b2e8db3f3",
    "block K=3 P=2 N=2 no_base_mask": "31ffb83429303676c345ede0711f01223411fef01d7e68e3d3fa0e5919f12dd9",
    "block K=3 P=2 N=2 no_cr": "136d61be414f06a35e91b9d8ce8941699089f12b744a91a5692f6c69cf3ab9ca",
    "block K=3 P=2 N=3": "0c12834165a0966aa5162f5ad13d51454141c5a63259fb185b1096923b15a7c8",
    "block K=3 P=2 N=3 no_cr": "136d61be414f06a35e91b9d8ce8941699089f12b744a91a5692f6c69cf3ab9ca",
    "block K=2 P=1 N=2 q=3": "8f206e002dc06d9ea0fcf103498e12f07fe8a41c7802c9cdc5a302bfdf906c1d",
    "block K=2 P=1 N=2 q=3 no_cr": "136d61be414f06a35e91b9d8ce8941699089f12b744a91a5692f6c69cf3ab9ca",
}


def audit_cases():
    """(name, argv, mutant) of each pinned ``audit --machine`` run."""
    cases = [("table", 3, 1, N, 2, None) for N in (2, 3)]
    cases += [("table", 3, 1, 3, 2, m) for m in ("no_index_permutation", "no_pool_relabel", "no_hidden_cr")]
    cases += [("table", K, P, 2, q, None) for K, P, q in ((3, 2, 2), (3, 1, 3), (4, 2, 2))]
    cases += [("table", 4, 2, 2, 2, "no_hidden_cr")]
    cases += [("block", 3, P, 2, 2, m) for P in (1, 2) for m in (None, "no_base_mask", "no_cr")]
    cases += [("block", K, P, N, q, m) for K, P, N, q in ((3, 2, 3, 2), (2, 1, 2, 3)) for m in (None, "no_cr")]
    for scheme, K, P, N, q, mutant in cases:
        argv = ["--scheme", scheme, "--K", str(K), "--P", str(P), "--N", str(N)]
        name = [scheme, f"K={K} P={P} N={N}"]
        if q != 2:
            argv += ["--q", str(q)]
            name.append(f"q={q}")
        if mutant is not None:
            argv += ["--mutant", mutant]
            name.append(mutant)
        yield " ".join(name), argv, mutant


def test_audit_machine_output_matches_the_golden_digests(capsys):
    got = {}
    for name, argv, mutant in audit_cases():
        code, out, _ = run_cli(capsys, "audit", *argv, "--machine")
        assert code == (EXIT_OK if mutant is None else EXIT_AUDIT), name
        got[name] = hashlib.sha256(out.encode()).hexdigest()
    assert got == GOLDEN_AUDIT_DIGESTS


def test_reliability_audit_without_trials_is_a_usage_error(capsys):
    for trials in ("0", "-3"):
        code, out, err = run_cli(
            capsys, "audit", "--scheme", "table", "--K", "3", "--P", "1", "--N", "2", "--trials", trials
        )
        assert code == EXIT_USAGE
        assert "at least one trial" in err and "PASS" not in out
    # checked before any audit runs, and also under a mutant (which runs no reliability audit)
    for extra in (["--P", "2"], ["--P", "1", "--mutant", "no_cr"], ["--P", "1", "--mutant", "no_base_mask"]):
        code, out, err = run_cli(
            capsys, "audit", "--scheme", "block", "--K", "3", "--N", "2", "--trials", "0", *extra
        )
        assert code == EXIT_USAGE
        assert "at least one trial" in err and out == ""


def test_table_audit_rejects_block_mutants(capsys):
    for mutant in ("no_base_mask", "no_cr"):
        code, out, err = run_cli(
            capsys, "audit", "--scheme", "table", "--K", "3", "--P", "1", "--N", "2", "--mutant", mutant
        )
        assert code == EXIT_USAGE
        assert "unknown table mutant" in err and out == ""


def test_table_audit_refuses_a_message_length_other_than_1(capsys):
    # The query table sets its own message length: an audit at --L 5 would
    # print the --L 1 verdicts for a configuration it never checked.
    table = ("audit", "--scheme", "table", "--K", "3", "--P", "1", "--N", "2", "--machine")
    for L in ("2", "5"):
        code, out, err = run_cli(capsys, *table, "--L", L)
        assert code == EXIT_USAGE
        assert err == f"error: the table scheme sets its own message length: --L must be 1, got {L}\n" and out == ""
    code, out, _ = run_cli(capsys, *table, "--L", "1")
    assert code == EXIT_OK and (code, out) == run_cli(capsys, *table)[:2]


def test_block_audit_rejects_table_mutants(capsys):
    # the mutant is refused before any audit runs, at K=8 P=3 N=2 as at K=3
    for K, P, mutant in ((3, 1, "no_index_permutation"), (3, 1, "no_hidden_cr"), (8, 3, "bogus")):
        code, out, err = run_cli(
            capsys, "audit", "--scheme", "block", "--K", str(K), "--P", str(P), "--N", "2", "--mutant", mutant
        )
        assert code == EXIT_USAGE
        assert "unknown block mutant" in err and out == ""


def test_table_run_executes_and_decodes(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--K", "3", "--P", "1", "--N", "3",
        "--run", "--seed-msg", "5", "--seed-cr", "6", "--machine",
    )
    assert code == EXIT_OK
    (rec,) = machine_records(out)
    assert rec["decoded_ok"] is True
    assert rec["downloads"] == 81


def test_serve_and_connect_roundtrip(tmp_path):
    set2 = tmp_path / "e2.set"
    set2.write_text("# privset set v1 K=10\n0\n2\n4\n5\n6\n7\n")
    set1 = tmp_path / "e1.set"
    set1.write_text("# privset set v1 K=10\n0\n1\n2\n3\n")

    proc = subprocess.Popen(
        [sys.executable, "-m", "privset.cli", "psi", "serve", "--set", str(set2),
         "--n-databases", "2", "--pool-size", "64", "--seed-cr", "3"],
        stdout=subprocess.PIPE, text=True, env=checkout_env(),
    )
    try:
        line = proc.stdout.readline()
        info = json.loads(line)
        addresses = ",".join(info["addresses"])
        out = subprocess.run(
            [sys.executable, "-m", "privset.cli", "psi", "connect", "--set", str(set1),
             "--databases", addresses, "--seed-client", "11", "--machine"],
            capture_output=True, text=True, timeout=30, env=checkout_env(),
        )
        assert out.returncode == EXIT_OK, out.stderr
        rec = json.loads(out.stdout.strip())
        assert rec["intersection"] == [0, 2]
        assert rec["download_symbols"] == 8
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_help_lists_flags(capsys):
    def help_flags(command):
        with pytest.raises(SystemExit) as exc:
            main(["psi", command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        return set(re.findall(r"(?<![\w-])--[\w-]+", out)), " ".join(out.split())

    flags, out = help_flags("run")
    assert flags == {
        "--help", "--set1", "--set2", "--n1", "--n2", "--transport", "--seed-client", "--seed-cr",
        "--save-transcript", "--machine",
    }
    for stated in (
        "databases of entity 1 (default 2)", "databases of entity 2 (default 2)", "transport backend (default sim)",
        "query strategy seed (default 0)", "randomness pool seed (default 0)",
    ):
        assert stated in out, stated
    flags, out = help_flags("connect")
    assert flags == {"--help", "--set", "--databases", "--seed-client", "--save-transcript", "--machine"}
    assert "query strategy seed (default: drawn from secrets)" in out


def test_psi_run_on_psi_gen_files_reproduces_the_generated_run(tmp_path, capsys, monkeypatch):
    # ``psi run`` generated its own sets with ``psi gen``'s draws until it took
    # set files only; its bare ``--machine`` record then was this one.
    monkeypatch.chdir(tmp_path)
    code, *_ = run_cli(capsys, "psi", "gen", "--K", "10", "--out-dir", "g")
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, "psi", "run", "--set1", "g/entity1.set", "--set2", "g/entity2.set", "--machine")
    assert code == EXIT_OK
    assert machine_records(out) == [{
        "K": 10, "N1": 2, "N2": 2, "P1": 2, "P2": 6, "cardinality": 1, "download_symbols": 4, "initiator": 1,
        "intersection": [2], "optimal_cost": 4, "record": "psi_result", "transport": "sim", "upload_bytes": 34,
    }]


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """The argv of each ``privset`` line of README's CLI block, in order, with its
    continuations joined; the served pair (the ``&`` line and the lines naming
    a ``PORT``) is left to ``test_serve_and_connect_roundtrip``."""
    block = next(b for b in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S) if "\nprivset " in b)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("privset ")]
    served = [line for line in lines if line.rstrip().endswith("&") or "PORT" in line]
    assert len(served) == 2, served
    return [shlex.split(line)[1:] for line in lines if line not in served]


def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert ["psi", "run"] in [argv[:2] for argv in commands]
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert code == (EXIT_AUDIT if "--mutant" in argv else EXIT_OK), (argv, err)
