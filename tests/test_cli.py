import json
import socket

import pytest

from privset.cli import EXIT_AUDIT, EXIT_OK, EXIT_PROTOCOL, EXIT_USAGE, main, read_set


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_records(out: str):
    return [json.loads(line) for line in out.strip().splitlines()]


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
        (["psi", "run", "--K", "6", "--save-transcript", str(tmp_path / "no-dir" / "t.bin")], ""),
        (["psi", "run", "--set1", str(set1), "--connect", "localhost"], "'localhost' is not host:port"),
        (["psi", "run", "--set1", str(set1)], "--set1 needs --set2"),
        (["psi", "run", "--set2", str(set1)], "--set2 needs --set1"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert says in err, (argv, err)


def test_psi_serve_on_a_port_in_use_is_a_usage_error(tmp_path):
    import subprocess
    import sys

    set2 = tmp_path / "e2.set"
    set2.write_text("# privset set v1 K=10\n0\n2\n")
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        port = taken.getsockname()[1]
        out = subprocess.run(
            [sys.executable, "-m", "privset.cli", "psi", "serve", "--set", str(set2), "--listen", f"127.0.0.1:{port}"],
            capture_output=True, text=True, timeout=30,
        )
    assert out.returncode == EXIT_USAGE
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr and not out.stdout


def test_psi_run_against_a_closed_port_is_a_transport_fault(tmp_path, capsys):
    set1 = tmp_path / "e1.set"
    set1.write_text("# privset set v1 K=10\n0\n1\n")
    with socket.socket() as sock:  # bound, then released: nothing listens on the port
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    code, _, err = run_cli(capsys, "psi", "run", "--set1", str(set1), "--connect", f"127.0.0.1:{port},127.0.0.1:{port}")
    assert code == EXIT_PROTOCOL
    assert err.startswith(f"protocol fault: database 0 at 127.0.0.1:{port}") and err.count("\n") == 1


def test_params_ignores_the_environment(monkeypatch, capsys):
    monkeypatch.setenv("PRIVSET_SEED_CR", "abc")
    code, _, _ = run_cli(capsys, "params", "--K", "3", "--P", "1", "--N", "2")
    assert code == EXIT_OK


def test_table_run_rejects_a_non_prime_modulus(capsys):
    code, out, err = run_cli(capsys, "table", "--K", "3", "--P", "1", "--N", "2", "--q", "4", "--run")
    assert code == EXIT_USAGE
    assert "prime" in err and "decoded" not in out


def test_psi_serve_rejects_an_unknown_entity(tmp_path, capsys):
    set_path = tmp_path / "e.set"
    set_path.write_text("# privset set v1 K=4\n1\n")
    code, _, err = run_cli(capsys, "psi", "serve", "--set", str(set_path), "--entity", "3")
    assert code == EXIT_USAGE
    assert "entity_id" in err


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
    # the same packed bytes read as F_3 vectors (one byte per coefficient) are truncated
    transcript = transport.Transcript.load(str(path))
    assert transcript.meta["q"] == 2
    transcript.meta["q"] = 3
    transcript.save(str(path))
    code, _, err = run_cli(capsys, "psi", "verify", "--transcript", str(path), "--responder-set", str(set2))
    assert code == EXIT_PROTOCOL and "truncated" in err


def test_psi_verify_replay_of_a_remote_transcript_needs_the_pool_seed(tmp_path, capsys):
    from privset import psi, transport
    from privset.storage import CommonRandomnessPool, MessageStore

    set2 = tmp_path / "e2.set"
    set2.write_text("# privset set v1 K=10\n0\n2\n4\n5\n6\n7\n")
    store = MessageStore.from_bits(list(psi.to_incidence({0, 2, 4, 5, 6, 7}, 10).bits))
    servers = transport.make_entity_servers(store, 2, {"entity": 2, "K": 10, "P": 6, "N": 2})
    transport.provision_cr(servers, CommonRandomnessPool.generate(64, 2, 5), 0)
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


def test_refused_audit_is_a_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "audit", "--scheme", "block", "--K", "3", "--P", "1", "--N", "2", "--budget", "255"
    )
    assert code == EXIT_USAGE
    assert "audit refused" in err


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
    import json as _json
    import subprocess
    import sys
    import time

    set2 = tmp_path / "e2.set"
    set2.write_text("# privset set v1 K=10\n0\n2\n4\n5\n6\n7\n")
    set1 = tmp_path / "e1.set"
    set1.write_text("# privset set v1 K=10\n0\n1\n2\n3\n")

    proc = subprocess.Popen(
        [sys.executable, "-m", "privset.cli", "psi", "serve", "--set", str(set2),
         "--n-databases", "2", "--pool-size", "64", "--seed-cr", "3"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        info = _json.loads(line)
        addresses = ",".join(info["addresses"])
        out = subprocess.run(
            [sys.executable, "-m", "privset.cli", "psi", "run", "--set1", str(set1),
             "--connect", addresses, "--seed-client", "11", "--machine"],
            capture_output=True, text=True, timeout=30,
        )
        assert out.returncode == EXIT_OK, out.stderr
        rec = _json.loads(out.stdout.strip())
        assert rec["intersection"] == [0, 2]
        assert rec["download_symbols"] == 8
    finally:
        proc.terminate()
        proc.wait(timeout=10)


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["psi", "run", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--transport", "--seed-client", "--seed-cr", "--set1", "--save-transcript"):
        assert flag in out
