"""Span recording for the traced benchmark run, installed from outside the package.

The program under test has no spans of its own.  ``install`` wraps the
public entry points of each privset layer at the place its caller looks them
up (a module attribute, a class attribute, or a name one module imported
from another), records a span per call, and undoes every patch afterwards.

A span is ``[id, name, start_ns, end_ns, parent_id, op_id]``.  Spans are kept
in memory and written out once, when the run ends.  The parent of a span is
the innermost open span on the same thread; a thread with no open span takes
a hint instead (the client round trip a database server is answering), or
else the ambient span (the ``query_all`` that started the worker thread).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

ID, NAME, START, END, PARENT, OP = range(6)


class Tracer:
    """In-memory span and counter store for one traced phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None  # id of the op being timed; None outside ops
        self.ambient: int | None = None
        self.inflight: dict[int, int] = {}  # database -> open client round-trip span
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, hint: int | None = None) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = hint if hint is not None else self.ambient
        rec = [next(self._ids), name, time.perf_counter_ns(), 0, parent, self.op]
        self.spans.append(rec)
        stack.append(rec[ID])
        return rec

    def end(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        self._stack().pop()

    def count(self, name: str, n: float = 1) -> None:
        """Add to a counter; work done outside a timed op is not counted."""
        if self.op is None:
            return
        with self._lock:
            self.counts[name] += n

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(("id", "name", "start_ns", "end_ns", "parent", "op"), rec))) + "\n")


def covered_ns(intervals, start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def children_of(spans) -> dict[int, list]:
    out: dict[int, list] = defaultdict(list)
    for rec in spans:
        if rec[PARENT] is not None:
            out[rec[PARENT]].append(rec)
    return out


def self_times(spans) -> dict[int, int]:
    """Span id -> its duration minus the part of it its child spans cover.

    Children may run on other threads and overlap one another; the union of
    their intervals is subtracted once.
    """
    kids = children_of(spans)
    return {
        rec[ID]: (rec[END] - rec[START])
        - covered_ns(((c[START], c[END]) for c in kids.get(rec[ID], ())), rec[START], rec[END])
        for rec in spans
    }


def wait_ns(spans, outer: str, inner: str) -> int:
    """Time inside ``outer`` spans not covered by any descendant ``inner`` span.

    For ``transport.query_all`` over ``transport.handle_client_frame`` this is
    the time the batch spends beyond the server answers: thread start and
    join, framing and the wire.
    """
    kids = children_of(spans)
    total = 0
    for rec in spans:
        if rec[NAME] != outer or rec[OP] is None:
            continue
        found, todo = [], list(kids.get(rec[ID], ()))
        while todo:
            c = todo.pop()
            if c[NAME] == inner:
                found.append((c[START], c[END]))
            todo.extend(kids.get(c[ID], ()))
        total += (rec[END] - rec[START]) - covered_ns(found, rec[START], rec[END])
    return total


def self_ns_by_name(spans) -> dict[str, int]:
    """Summed self time per span name, over spans that belong to a timed op."""
    selfs = self_times(spans)
    out: dict[str, int] = defaultdict(int)
    for rec in spans:
        if rec[OP] is not None:
            out[rec[NAME]] += selfs[rec[ID]]
    return out


class _Patches:
    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self._undo: list[tuple] = []

    @staticmethod
    def _raw(owner, attr: str):
        """The attribute as stored, so a classmethod is restored as a classmethod."""
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, self._raw(owner, attr)))
        setattr(owner, attr, value)

    def span(self, owner, attr: str, name: str, after=None, hint=None):
        """Wrap ``owner.attr`` in a span and return the wrapper.

        ``after(args, result)`` records counts; ``hint(args)`` names a parent
        span for calls made on a thread with no open span.
        """
        tr = self.tr
        is_static = isinstance(self._raw(owner, attr), (classmethod, staticmethod))
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            rec = tr.begin(name, hint(args) if hint else None)
            try:
                result = orig(*args, **kwargs)
            finally:
                tr.end(rec)
            if after is not None:
                after(args, result)
            return result

        self.set(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        return wrapper

    def undo(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def install(tr: Tracer):
    """Wrap every traced privset entry point; returns a callable that undoes it."""
    from privset import audit, block_scheme, psi, storage, table_scheme, transport

    p = _Patches(tr)
    count = tr.count

    # psi: one span per intersection; the incidence rebuild it does per run.
    p.span(psi, "run_psi", "psi.run")
    p.span(psi, "run_psi_remote", "psi.run")
    p.span(psi, "to_incidence", "psi.to_incidence")

    # params: the cost and profile functions, bound by name where they are called.
    def params_call(args, result):
        count("params.calls")

    p.span(block_scheme, "lspir_cost", "params", params_call)
    for fn in ("alpha_profile", "cost_ledger", "repetition_factor"):
        p.span(table_scheme, fn, "params", params_call)

    # field: block_scheme imported sample_uniform by name, so wrap that binding.
    p.span(block_scheme, "sample_uniform", "field.sample_uniform",
           lambda a, r: count("field.sample_uniform.symbols", a[1]))

    # storage
    p.span(storage.CommonRandomnessPool, "generate", "storage.pool_generate")
    p.span(transport, "provision_cr", "storage.provision")

    # block_scheme
    p.span(block_scheme, "plan_blocks", "block_scheme.plan_blocks",
           lambda a, plan: count("block_scheme.queries", plan.total_queries))
    p.span(block_scheme.BlockPlan, "wire_query", "block_scheme.wire_queries")

    def block_answered(args, result):
        store = args[1]
        count("block_scheme.answer_wire_query.calls")
        count("block_scheme.answer_wire_query.terms", len(result) * store.K * store.L)

    block_answer = p.span(block_scheme, "answer_wire_query", "block_scheme.answer_wire_query", block_answered)
    p.span(block_scheme, "decode_blocks", "block_scheme.decode_blocks")

    # table_scheme
    p.span(table_scheme, "build_query_table", "table_scheme.build_query_table",
           lambda a, r: count("table_scheme.build_query_table.calls"))
    table_answer = p.span(table_scheme, "answer_wire_query", "table_scheme.answer_wire_query",
                          lambda a, r: count("table_scheme.answer_wire_query.calls"))
    p.span(table_scheme, "decode", "table_scheme.decode")

    # The servers dispatch answers through this table, not the module attributes.
    handlers = dict(transport.QUERY_HANDLERS)
    handlers[block_scheme.BLOCK_QUERY_TAG] = block_answer
    handlers[table_scheme.TABLE_QUERY_TAG] = table_answer
    p.set(transport, "QUERY_HANDLERS", handlers)

    # transport
    header = len(transport.encode_frame(0, b""))

    def roundtrip_done(args, reply):
        payload = args[3]
        rtype, rbody = reply
        count("transport.frames", 2)
        count("transport.bytes_up", header + len(payload))
        count("transport.bytes_down", header + len(rbody))
        if rtype == transport.MSG_ERROR:
            count("transport.errors")

    p.span(transport.SimBackend, "roundtrip", "transport.roundtrip", roundtrip_done)

    tcp_roundtrip = transport.TcpBackend.roundtrip

    def traced_tcp_roundtrip(backend, db, msg_type, payload):
        rec = tr.begin("transport.roundtrip")
        tr.inflight[db] = rec[ID]
        try:
            reply = tcp_roundtrip(backend, db, msg_type, payload)
        except BaseException:
            count("transport.errors")
            raise
        finally:
            tr.inflight.pop(db, None)
            tr.end(rec)
        roundtrip_done((backend, db, msg_type, payload), reply)
        return reply

    p.set(transport.TcpBackend, "roundtrip", traced_tcp_roundtrip)

    tcp_sock = transport.TcpBackend._sock

    def traced_sock(backend, db):
        if backend._socks[db] is not None:
            return tcp_sock(backend, db)
        rec = tr.begin("transport.connect")
        try:
            return tcp_sock(backend, db)
        finally:
            tr.end(rec)
            count("transport.connections")

    p.set(transport.TcpBackend, "_sock", traced_sock)

    p.span(transport.DatabaseServer, "handle_client_frame", "transport.handle_client_frame",
           hint=lambda a: tr.inflight.get(a[0].db_id))

    query_all = transport.Client.query_all

    def traced_query_all(client, bodies):
        rec = tr.begin("transport.query_all")
        outer, tr.ambient = tr.ambient, rec[ID]
        try:
            return query_all(client, bodies)
        finally:
            tr.ambient = outer
            tr.end(rec)

    p.set(transport.Client, "query_all", traced_query_all)

    # audit: one span per verdict function, plus the shared elimination kernel.
    def verdict(args, result):
        count("audit.verdicts")

    for fn, name in (
        ("audit_block_user_privacy", "audit.block_user_privacy"),
        ("audit_block_db_privacy", "audit.block_db_privacy"),
        ("audit_table_user_privacy", "audit.table_user_privacy"),
        ("audit_table_db_privacy", "audit.table_db_privacy"),
        ("audit_reliability_table", "audit.reliability"),
        ("audit_reliability_block", "audit.reliability"),
        ("symbolic_leakage_table", "audit.symbolic_leakage"),
        ("symbolic_leakage_block", "audit.symbolic_leakage"),
    ):
        p.span(audit, fn, name, verdict)
    p.span(audit, "recoverable_coordinates", "audit.recoverable_coordinates")

    return p.undo
