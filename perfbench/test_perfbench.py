"""Tests of the benchmark itself: statistics, span arithmetic, the correctness gate.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_privset()

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_percentile_selection_needs_ten_samples_beyond():
    assert run.samples_beyond(100, 90) == 10
    assert run.samples_beyond(99, 90) == 9
    assert run.tail_percentile(99) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(999) == 90
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(10000) == 99.9
    assert run.tail_percentile(19) is None


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile(reversed(values), 90) == 90
    assert run.percentile([7.0], 90) == 7.0


def test_end_to_end_scales_times_to_the_reference_speed():
    phase = run.Phase()
    for shape, ms, speed in [("a", 4, 0.5), ("b", 9, 1.0), ("a", 2, 1.0), ("b", 16, 0.5), ("a", 5, 1.0), ("b", 30, 1.0)]:
        phase.shapes.append(shape)
        phase.latency_ns.append(ms * 1_000_000)
        phase.speed.append(speed)
    phase.failed = 3  # half the ops failed: throughput counts correct ops only
    phase.upload, phase.download = 300, 30
    metrics = run.end_to_end(phase, setup_s=0.5)
    assert phase.scaled_ms() == [2.0, 9.0, 2.0, 8.0, 5.0, 30.0]
    assert phase.shape_ms() == {"a": 2.0, "b": 9.0}
    assert metrics["ops_per_s"] == pytest.approx(1000 * 2 / 11 * 0.5)
    assert metrics["latency_p50_ms"] == 2.0 and metrics["latency_p90_ms"] == 9.0
    assert metrics["upload_bytes_per_op"] == 100 and metrics["download_symbols_per_op"] == 10
    assert metrics["setup_s"] == 0.5


def test_calibration_times_a_fixed_loop():
    assert run.calibrate() > 0
    assert len(run.Phase().speed) == 0


def _span(sid, name, start, end, parent, op=0):
    return [sid, name, start, end, parent, op]


def test_self_time_subtracts_the_union_of_nested_children():
    spans = [
        _span(1, "a", 0, 100, None),
        _span(2, "b", 10, 50, 1),
        _span(3, "c", 40, 70, 1),  # overlaps b, as a child on another thread can
        _span(4, "d", 20, 30, 2),
        _span(5, "e", 90, 130, 1),  # runs past its parent's end; only 90..100 counts
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 100 - (60 + 10), 2: 40 - 10, 3: 30, 4: 10, 5: 40}
    assert tracing.self_ns_by_name(spans + [_span(6, "a", 0, 5, None, op=None)])["a"] == 30


def test_wait_is_time_outside_every_descendant_answer():
    spans = [
        _span(1, "transport.query_all", 0, 100, None),
        _span(2, "transport.roundtrip", 5, 90, 1),
        _span(3, "transport.roundtrip", 10, 95, 1),
        _span(4, "transport.handle_client_frame", 20, 60, 2),
        _span(5, "transport.handle_client_frame", 50, 80, 3),
    ]
    assert tracing.wait_ns(spans, "transport.query_all", "transport.handle_client_frame") == 100 - 60


def test_tracer_parents_spans_across_threads_by_hint_and_ambient():
    tr = tracing.Tracer()
    tr.op = 3
    outer = tr.begin("outer")
    inner = tr.begin("inner")
    tr.end(inner)
    tr.end(outer)
    assert inner[tracing.PARENT] == outer[tracing.ID]
    assert outer[tracing.PARENT] is None and outer[tracing.OP] == 3
    tr.ambient = outer[tracing.ID]
    hinted = tr.begin("server", hint=inner[tracing.ID])
    tr.end(hinted)
    free = tr.begin("worker")
    tr.end(free)
    assert hinted[tracing.PARENT] == inner[tracing.ID]
    assert free[tracing.PARENT] == outer[tracing.ID]


def test_install_wraps_and_restores_every_layer():
    from privset import block_scheme, psi, storage, transport

    before = (psi.run_psi, block_scheme.sample_uniform, storage.CommonRandomnessPool.__dict__["generate"],
              transport.QUERY_HANDLERS, transport.TcpBackend.roundtrip)
    tr = tracing.Tracer()
    undo = tracing.install(tr)
    try:
        e1 = psi.EntityConfig(1, 10, 2, frozenset({0, 1, 2, 3}))
        e2 = psi.EntityConfig(2, 10, 2, frozenset({0, 2, 4, 5, 6, 7}))
        tr.op = 0
        res = psi.run_psi(e1, e2, seed_client=11, seed_cr=22)
        tr.op = None
    finally:
        undo()
    after = (psi.run_psi, block_scheme.sample_uniform, storage.CommonRandomnessPool.__dict__["generate"],
             transport.QUERY_HANDLERS, transport.TcpBackend.roundtrip)
    assert after == before
    assert res.intersection == frozenset({0, 2})
    names = {rec[tracing.NAME] for rec in tr.spans}
    assert {"psi.run", "psi.to_incidence", "block_scheme.plan_blocks", "field.sample_uniform",
            "storage.pool_generate", "storage.provision", "block_scheme.answer_wire_query",
            "transport.query_all", "transport.roundtrip", "transport.handle_client_frame"} <= names
    assert tr.counts["block_scheme.queries"] == res.download_symbols == 8
    assert tr.counts["field.sample_uniform.symbols"] == 4 * 10


def test_gate_flags_a_wrong_intersection_and_an_off_optimum_download():
    result = SimpleNamespace(intersection=frozenset({0, 2}), download_symbols=8)
    assert workloads.check_psi(result, frozenset({0, 2}), 8) is None
    assert "wrong intersection" in workloads.check_psi(result, frozenset({0}), 8)
    assert "optimum" in workloads.check_psi(result, frozenset({0, 2}), 7)


def test_gate_flags_a_mutant_that_passes_and_an_honest_audit_that_fails():
    from fractions import Fraction

    from privset.audit import Verdict

    passing = Verdict(True, Fraction(0), "")
    assert workloads.check_verdict(passing, True) is None
    assert workloads.check_verdict(passing, False) == "mutant passed its audit"
    assert workloads.check_verdict(Verdict(False, Fraction(1), ""), True) == "honest audit failed"
    assert workloads.check_verdict(Verdict(False, Fraction(1), ""), False) is None
    assert "nonzero distance" in workloads.check_verdict(Verdict(True, Fraction(1, 2), ""), True)


def test_audit_exact_expects_every_honest_audit_to_pass_and_every_mutant_to_fail():
    wl = workloads.AuditExact()
    wl.setup(0)
    try:
        for op in wl.inputs:
            if op[0] != "table_user_privacy":  # the one slow verdict; the acceptance suite runs it
                assert wl.check(op, wl.run(op)) is None
        assert [label for label, _, ok in wl.inputs if not ok] == [
            "mutant no_base_mask", "mutant no_cr", "mutant no_index_permutation", "mutant no_hidden_cr"]
    finally:
        wl.close()


def test_benchmark_json_lists_exactly_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(m, u) for m, u, _, _ in run.PER_LAYER]
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_serve_workload_end_to_end_and_traced(tmp_path):
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "psi-serve", "--seed", "5",
             "--seconds", "0.5", "--trace", trace],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        names = [n for n, _ in run.END_TO_END] if trace == "0" else [m for m, *_ in run.PER_LAYER]
        assert list(result["metrics"]) == names
    assert result["metrics"]["transport.connections"]["value"] == 2
    assert result["metrics"]["transport.server_retained_bytes"]["value"] > 0


def test_fails_without_the_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "psi-wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
