"""privset benchmark: seeded workloads, a correctness gate on every op, and a traced breakdown.

Run from the repository root:

    python3 perfbench/run.py                                  # every workload, end-to-end table
    python3 perfbench/run.py --workload psi-wide --seed 3     # one workload; last line is JSON
    python3 perfbench/run.py --workload audit-exact --trace 1 # per-layer metrics instead

With ``--trace 0`` the last line carries the end-to-end metrics, measured with
no instrumentation, their times scaled to a reference speed (``calibrate``).
With ``--trace 1`` the run measures the same inputs twice, first plain and then
with spans around every layer (see ``tracing.py``); the last line carries the
per-layer metrics and the tracing overhead, and the spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_FIRST = 3  # set-ups before the timed loop; the last one is the one measured
SETUP_MAX = 12  # set-up samples per run, the rest taken between passes
MIN_PASSES = 5  # passes over the deck per run, so every shape has a median of five or more
MIN_BEYOND = 10  # samples a reported percentile must have above it
TAIL = 90
MAX_MEASURE_S = 120.0  # hard stop, so a run ends within three minutes even if ops get very slow

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("upload_bytes_per_op", "B"),
    ("download_symbols_per_op", "count"),
    ("peak_rss_mb", "MB"),
]

# (metric, unit, how it is computed, span or counter name)
PER_LAYER = [
    ("psi.run.self_ms", "ms", "self", "psi.run"),
    ("psi.to_incidence.ms", "ms", "self", "psi.to_incidence"),
    ("params.ms", "ms", "self", "params"),
    ("params.calls", "count", "per_op", "params.calls"),
    ("field.sample_uniform.ms", "ms", "self", "field.sample_uniform"),
    ("field.sample_uniform.symbols", "count", "per_op", "field.sample_uniform.symbols"),
    ("storage.pool_generate.ms", "ms", "self", "storage.pool_generate"),
    ("storage.provision.ms", "ms", "self", "storage.provision"),
    ("block_scheme.plan_blocks.ms", "ms", "self", "block_scheme.plan_blocks"),
    ("block_scheme.wire_queries.ms", "ms", "self", "block_scheme.wire_queries"),
    ("block_scheme.answer_wire_query.ms", "ms", "self", "block_scheme.answer_wire_query"),
    ("block_scheme.answer_wire_query.calls", "count", "per_op", "block_scheme.answer_wire_query.calls"),
    ("block_scheme.answer_wire_query.terms", "count", "per_op", "block_scheme.answer_wire_query.terms"),
    ("block_scheme.decode_blocks.ms", "ms", "self", "block_scheme.decode_blocks"),
    ("block_scheme.queries", "count", "per_op", "block_scheme.queries"),
    ("table_scheme.build_query_table.ms", "ms", "self", "table_scheme.build_query_table"),
    ("table_scheme.build_query_table.calls", "count", "per_op", "table_scheme.build_query_table.calls"),
    ("table_scheme.answer_wire_query.ms", "ms", "self", "table_scheme.answer_wire_query"),
    ("table_scheme.answer_wire_query.calls", "count", "per_op", "table_scheme.answer_wire_query.calls"),
    ("table_scheme.decode.ms", "ms", "self", "table_scheme.decode"),
    ("transport.connect.ms", "ms", "self", "transport.connect"),
    ("transport.connections", "count", "per_op", "transport.connections"),
    ("transport.roundtrip.self_ms", "ms", "self", "transport.roundtrip"),
    ("transport.handle_client_frame.self_ms", "ms", "self", "transport.handle_client_frame"),
    ("transport.query_all.wait_ms", "ms", "wait", "transport.query_all"),
    ("transport.frames", "count", "per_op", "transport.frames"),
    ("transport.bytes_up", "B", "per_op", "transport.bytes_up"),
    ("transport.bytes_down", "B", "per_op", "transport.bytes_down"),
    ("transport.errors", "count", "total", "transport.errors"),
    ("transport.server_retained_bytes", "B", "retained", None),
    ("audit.block_user_privacy.ms", "ms", "self", "audit.block_user_privacy"),
    ("audit.block_db_privacy.ms", "ms", "self", "audit.block_db_privacy"),
    ("audit.table_user_privacy.ms", "ms", "self", "audit.table_user_privacy"),
    ("audit.table_db_privacy.ms", "ms", "self", "audit.table_db_privacy"),
    ("audit.recoverable_coordinates.ms", "ms", "self", "audit.recoverable_coordinates"),
    ("audit.reliability.ms", "ms", "self", "audit.reliability"),
    ("audit.verdicts", "count", "total", "audit.verdicts"),
    ("trace.overhead_ms", "ms", "overhead", None),
    ("trace.overhead_pct", "%", "overhead", None),
]

OP_SPAN = "bench.op"  # root span of every traced op; its self time is unattributed glue

CAL_REF_NS = 1_000_000  # reference speed: the machine on which calibrate() takes 1 ms


def calibrate() -> int:
    """Time a fixed piece of pure-Python work, in ns; it shares nothing with privset.

    Other tenants of a shared machine slow the CPU by up to 2x for spells of
    seconds to minutes.  Timing this loop next to every op tells how fast the
    machine ran just then, so each time can be scaled to the reference speed.
    """
    start = time.perf_counter_ns()
    seen: dict[int, int] = {}
    rows = []
    acc = 0
    for i in range(3000):
        row = (i, i * 3 % 17)
        seen[row[1]] = seen.get(row[1], 0) + row[0]
        acc += i * 2654435761 % 65537
        rows.append(row)
    return time.perf_counter_ns() - start


def samples_beyond(n: int, pct) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile of ``n`` samples."""
    return n - math.ceil(Fraction(str(pct)) * n / 100)


def percentile(values, pct) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``% at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(Fraction(str(pct)) * len(ordered) / 100) - 1)]


def tail_percentile(n: int, ladder=(99.9, 99, 90, 75, 50)):
    """The highest percentile of ``ladder`` with at least MIN_BEYOND samples above it, or None."""
    for pct in ladder:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def import_privset():
    if not (SRC / "privset" / "__init__.py").is_file():
        sys.exit(f"perfbench: privset sources not found under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


class Phase:
    """Results of one measured loop over a workload's inputs."""

    def __init__(self):
        self.latency_ns: list[int] = []
        self.speed: list[float] = []  # reference over measured calibration time, per op
        self.shapes: list = []  # shape of each timed op, parallel to latency_ns
        self.failed = 0
        self.errors: list[str] = []
        self.upload = 0
        self.download = 0

    @property
    def attempted(self) -> int:
        return len(self.latency_ns)

    def scaled_ms(self) -> list[float]:
        """Each op's latency at the reference speed, in ms."""
        return [ns * f / 1e6 for ns, f in zip(self.latency_ns, self.speed)]

    def shape_ms(self) -> dict:
        """Each shape's median latency at the reference speed, in ms."""
        by_shape: dict = {}
        for shape, ms in zip(self.shapes, self.scaled_ms()):
            by_shape.setdefault(shape, []).append(ms)
        return {shape: statistics.median(v) for shape, v in by_shape.items()}


def run_op(wl, op, phase: Phase, tracer=None, op_id=None) -> None:
    cal_before = calibrate()
    rec = None
    if tracer is not None:
        tracer.op = op_id
        rec = tracer.begin(OP_SPAN)
    start = time.perf_counter_ns()
    try:
        result = wl.run(op)
        err = None
    except Exception as exc:  # the gate counts it; the loop goes on
        result, err = None, f"{type(exc).__name__}: {exc}"
    phase.latency_ns.append(time.perf_counter_ns() - start)
    phase.shapes.append(op[0])
    if tracer is not None:
        tracer.end(rec)
        tracer.op = None
    phase.speed.append(2 * CAL_REF_NS / (cal_before + calibrate()))
    if err is None:
        err = wl.check(op, result)
        up, down = wl.traffic(op, result)
        phase.upload += up
        phase.download += down
    if err is not None:
        phase.failed += 1
        if len(phase.errors) < 5:
            phase.errors.append(err)


def measure(wl, seconds: float, min_passes: int, tracer=None, between_passes=None) -> Phase:
    """Closed loop, one client: run ops back to back from the first input on.

    Stops at the end of a pass over the deck once ``seconds`` have passed and
    at least ``min_passes`` passes are done, or at MAX_MEASURE_S.  Calls
    ``between_passes(elapsed)`` at the other pass boundaries, outside any op.
    """
    phase = Phase()
    t0 = time.perf_counter()
    i = 0
    while True:
        run_op(wl, wl.inputs[i % len(wl.inputs)], phase, tracer, i)
        i += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= MAX_MEASURE_S or (i % wl.deck == 0 and elapsed >= seconds and i >= min_passes * wl.deck):
            return phase
        if between_passes is not None and i % wl.deck == 0:
            between_passes(elapsed)


def time_setup(cls, seed: int):
    """Set the workload up; returns it and the set-up time in s at the reference speed."""
    cal_before = calibrate()
    start = time.perf_counter_ns()
    wl = cls()
    wl.setup(seed)
    took = time.perf_counter_ns() - start
    return wl, took / 1e9 * 2 * CAL_REF_NS / (cal_before + calibrate())


class SetupSampler:
    """Times extra set-ups of the workload, spread over the run.

    Load from elsewhere on the machine comes and goes over seconds, so set-ups
    made back to back would all land in the same spell; spreading them over the
    run lets their median see the run's typical speed.
    """

    def __init__(self, cls, seed: int, seconds: float):
        self.cls, self.seed = cls, seed
        self.times: list[float] = []
        self.gap = seconds / (SETUP_MAX - SETUP_FIRST)
        wl = None
        for _ in range(SETUP_FIRST):
            if wl is not None:
                wl.close()
            wl, took = time_setup(cls, seed)
            self.times.append(took)
        self.workload = wl

    def __call__(self, elapsed: float) -> None:
        """Take the samples that fell due since the last pass, one per ``gap`` seconds."""
        due = min(SETUP_MAX, SETUP_FIRST + int(elapsed / self.gap))
        while len(self.times) < due:
            extra, took = time_setup(self.cls, self.seed)
            extra.close()
            self.times.append(took)


def end_to_end(phase: Phase, setup_s: float) -> dict:
    """End-to-end metrics; times are at the reference speed (see README)."""
    # Each shape at its median time, so every shape of the deck weighs the same
    # however often it ran, and an op slowed by a passing hiccup moves nothing.
    per_shape = list(phase.shape_ms().values())
    n = phase.attempted
    ok = n - phase.failed
    return {
        "setup_s": setup_s,
        "ops_per_s": 1000 * len(per_shape) / sum(per_shape) * ok / n,
        "latency_p50_ms": percentile(per_shape, 50),
        "latency_p90_ms": percentile(per_shape, TAIL),
        "upload_bytes_per_op": phase.upload / max(ok, 1),
        "download_symbols_per_op": phase.download / max(ok, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, traced: Phase, plain: Phase, wl) -> dict:
    from tracing import self_ns_by_name, wait_ns

    n = traced.attempted
    selfs = self_ns_by_name(tracer.spans)
    # Both phases ran every shape; compare each shape's median time, traced and not.
    plain_ms, traced_ms = plain.shape_ms(), traced.shape_ms()
    base = statistics.mean(plain_ms[s] for s in traced_ms)
    extra = statistics.mean(traced_ms[s] - plain_ms[s] for s in traced_ms)
    out = {}
    for metric, _, kind, source in PER_LAYER:
        if kind == "self":
            value = selfs.get(source, 0) / 1e6 / n
        elif kind == "wait":
            value = wait_ns(tracer.spans, source, "transport.handle_client_frame") / 1e6 / n
        elif kind == "per_op":
            value = tracer.counts.get(source, 0) / n
        elif kind == "total":
            value = tracer.counts.get(source, 0)
        elif kind == "retained":
            value = sum(len(q) for srv in wl.retained_servers() for q in srv.seen_queries)
        elif metric == "trace.overhead_ms":
            value = extra
        else:
            value = 100 * extra / base
        out[metric] = value
    return out


def layer_shares(tracer) -> dict[str, float]:
    """Each layer's share of the self time recorded inside ops.

    On one thread the self times add up to the op time.  Where threads
    overlap (the TCP client's per-database workers and the servers), they add
    up to busy thread time, which is more than the op's wall time.
    """
    from tracing import self_ns_by_name

    selfs = self_ns_by_name(tracer.spans)
    total = sum(selfs.values())
    shares: dict[str, float] = {}
    for name, ns in selfs.items():
        layer = "unattributed" if name == OP_SPAN else name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + ns / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def run_workload(args, cls) -> int:
    sampler = SetupSampler(cls, args.seed, args.seconds)
    wl = sampler.workload
    try:
        warm = Phase()
        run_op(wl, wl.inputs[0], warm)  # first call pays one-time costs; checked, not timed
        if args.trace:
            import tracing

            plain = measure(wl, args.seconds / 2, 2)
            tracer = tracing.Tracer()
            undo = tracing.install(tracer)
            try:
                traced = measure(wl, args.seconds / 2, 2, tracer)
            finally:
                undo()
            metrics = per_layer(tracer, traced, plain, wl)
            units = {m: u for m, u, _, _ in PER_LAYER}
            phases = [warm, plain, traced]
            OUT.mkdir(exist_ok=True)
            span_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(span_file)
            print(f"# {len(tracer.spans)} spans written to {span_file.relative_to(HERE.parent)}")
            for layer, share in layer_shares(tracer).items():
                print(f"# share {layer:<14} {100 * share:6.2f}%")
        else:
            main = measure(wl, args.seconds, MIN_PASSES, between_passes=sampler)
            metrics = end_to_end(main, statistics.median(sampler.times))
            units = dict(END_TO_END)
            phases = [warm, main]
            raw = [ns / 1e6 for ns in main.latency_ns]
            tail = tail_percentile(len(raw))
            print(f"# {len(raw)} timed ops over {len(set(main.shapes))} shapes, "
                  f"{samples_beyond(len(raw), TAIL)} beyond p{TAIL}; the machine ran at "
                  f"{1 / statistics.median(main.speed):.3g}x the reference time; unscaled p50 "
                  f"{percentile(raw, 50):.6g} ms, unscaled p{tail} {percentile(raw, tail):.6g} ms")
            print(f"# {'failed_frac':<40} {main.failed / main.attempted:>14.6g} 1")
    finally:
        wl.close()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        for err in p.errors:
            print(f"# FAILED op: {err}")
    for name, value in metrics.items():
        print(f"# {name:<40} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args, names) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        results[name] = json.loads(lines[-1])
    print(f"{'metric':<40} {'unit':>6} " + " ".join(f"{n:>14}" for n in results))
    first = next(iter(results.values()))
    rows = [(m, v["unit"], [r["metrics"][m]["value"] for r in results.values()]) for m, v in first["metrics"].items()]
    if not args.trace:
        rows.append(("failed_frac", "1", [r["failed"] / r["attempted"] for r in results.values()]))
    for metric, unit, values in rows:
        print(f"{metric:<40} {unit:>6} " + " ".join(f"{v:>14.6g}" for v in values))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    workloads = import_privset()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    return run_workload(args, workloads.WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
