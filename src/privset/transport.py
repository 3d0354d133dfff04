"""Database servers, the simulated / TCP backends, and run transcripts.

The bytes of every frame, query, answer and error are laid out by ``wire``.
Each entity runs its N databases as independent servers that share nothing
but one randomness pool; there is no server-to-server channel, so
non-collusion holds by construction.  A database holds an empty pool until
one is installed, so a new database serves exactly as one provisioned with
no symbols.  The client-facing protocol is a fixed binary framing; the pool
is installed through a separate administrative path and the client
connection rejects provisioning frames outright.  A refused query is always
an ERR_BAD_QUERY reply, which the client raises as a ProtocolFault.

A ``Transcript`` records every query and answer of a run and is the one
record of what was downloaded: ``downloaded_symbols`` counts the field
symbols of the answers that parse, never framing bytes, matching how the
schemes' costs are defined.  ``upload_bytes`` counts the query payloads sent,
also without framing.  Its bytes depend only on the run's seeds and sets.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, Iterator

from . import block_scheme, wire
from .params import ParamError
from .storage import CommonRandomnessPool, MessageStore
from .wire import MSG_ERROR, encode_frame  # noqa: F401  (looked up here by callers)

_log = logging.getLogger(__name__)


def answer_download_all(payload: bytes, store: MessageStore, pool: CommonRandomnessPool) -> list[int]:
    """Every stored symbol, unmasked: the P = K path, which needs no shared
    randomness.  Only a database whose pool is empty answers it."""
    wire.parse_download_all(payload, len(pool))
    return list(store.flat)


# Scheme tag -> answer evaluator over (payload, store, pool), for each tag ``wire.body_tag`` passes.
QUERY_HANDLERS = {
    block_scheme.BLOCK_QUERY_TAG: block_scheme.answer_wire_query,
    wire.DOWNLOAD_ALL_TAG: answer_download_all,
}


class DatabaseServer:
    """One replica: holds the store and the shared pool, empty until ``provision`` installs one.

    ``handle_client_frame`` is the entire client-visible behaviour; it is a
    deterministic function of (frame, store, pool).  Answers to unknown or
    out-of-place frame types are ERROR frames and the connection survives.
    A database keeps no history of the queries it answers: ``seen_queries``
    holds only the last query body it read, for tests and the benchmark's
    retained-bytes metric, so its memory stays flat however many it serves.
    """

    def __init__(self, db_id: int, store: MessageStore, public_info: dict | None = None):
        self.db_id = db_id
        self.store = store
        self.pool = CommonRandomnessPool(store.q, b"")
        self.query_served = False
        self.public_info = public_info or {}
        self.seen_queries: list[bytes] = []  # the last body read, replaced in place: for tests and retained bytes
        self._max_payload = self._payload_bound()

    def provision(self, pool: CommonRandomnessPool, required_size: int) -> None:
        """Administrative path (entity-internal); never reachable from a client socket."""
        if self.query_served:
            raise wire.ProtocolFault("cannot provision randomness after queries have been served")
        if len(pool) < required_size:
            raise ParamError(f"pool of {len(pool)} symbols below required {required_size}")
        self.pool = pool
        self._max_payload = self._payload_bound()

    def max_payload(self) -> int:
        """The largest legal client payload, fixed until the pool next changes."""
        return self._max_payload

    def _payload_bound(self) -> int:
        """A query whose block body fills the pool from slot 0, or a result
        forward naming all of [0, K).  The download-all query (5 bytes) is
        shorter than any block query (13 or more)."""
        store = self.store
        return max(wire.block_query_size(len(self.pool), store.K * store.L, store.q), wire.result_size(store.K))

    def handle_client_frame(self, msg_type: int, payload: bytes) -> tuple[int, bytes]:
        if msg_type == wire.MSG_QUERY:
            return self._handle_query(payload)
        if msg_type == wire.MSG_SETUP:
            return wire.MSG_SETUP, wire.encode_setup(self.public_info)
        if msg_type == wire.MSG_RESULT_FORWARD:
            return wire.MSG_RESULT_FORWARD, b"ack"
        if msg_type == wire.MSG_CR_PROVISION:
            return wire.MSG_ERROR, wire.encode_error(
                wire.ERR_CHANNEL_SEPARATION, "randomness provisioning is not accepted from clients"
            )
        return wire.MSG_ERROR, wire.encode_error(wire.ERR_UNKNOWN_TYPE, f"unknown message type {msg_type}")

    def _handle_query(self, payload: bytes) -> tuple[int, bytes]:
        try:
            query_id, body = wire.parse_query(payload)
            tag = wire.body_tag(body)
            self.query_served = True
            self.seen_queries[:] = (body,)
            symbols = QUERY_HANDLERS[tag](body, self.store, self.pool)
        except wire.ProtocolFault as exc:
            return refusal(exc)
        return wire.MSG_ANSWER, wire.encode_answer(query_id, symbols)


def refusal(fault: wire.ProtocolFault) -> tuple[int, bytes]:
    """The ERR_BAD_QUERY reply to a query refused for ``fault``, a frame over the bound included."""
    return MSG_ERROR, wire.encode_error(wire.ERR_BAD_QUERY, str(fault))


def make_entity_servers(store: MessageStore, n_databases: int, public_info: dict | None = None) -> list[DatabaseServer]:
    """Independent replicas of one entity's store. No shared mutable state."""
    return [DatabaseServer(db, store, public_info) for db in range(n_databases)]


def provision_cr(servers: list[DatabaseServer], pool: CommonRandomnessPool, required_size: int) -> None:
    """Install the one pool object on every replica, refused below ``required_size`` symbols.

    In the package only ``psi.entity_servers`` provisions, with
    ``required_size`` 0: it draws the pool at the size the run needs.
    """
    for srv in servers:
        srv.provision(pool, required_size)


@dataclass
class Transcript:
    """Client-side record of one run: every query and answer, per database."""

    meta: dict
    records: list[list[tuple[bytes, bytes]]]  # per db: (query payload, answer payload)

    @property
    def downloaded_symbols(self) -> int:
        total = 0
        for _, ans in (record for db_records in self.records for record in db_records):
            with suppress(wire.TransportError):  # psi verify names an answer that does not parse
                total += len(wire.parse_answer(ans)[1])
        return total

    @property
    def upload_bytes(self) -> int:
        """Query payload bytes sent, framing excluded."""
        return sum(len(qry) for db_records in self.records for qry, _ in db_records)

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(wire.encode_transcript(self.meta, self.records))

    @classmethod
    def load(cls, path: str) -> "Transcript":
        with open(path, "rb") as fh:
            meta, records = wire.parse_transcript(fh.read())
        return cls(meta=meta, records=records)

    def dump_text(self) -> str:
        lines = [f"meta: {json.dumps(self.meta, sort_keys=True)}"]
        for db, db_records in enumerate(self.records):
            lines.append(f"database {db}: {len(db_records)} roundtrips")
            for i, (qry, ans) in enumerate(db_records):
                lines.append(f"  q[{i}] {qry.hex()}")
                lines.append(f"  a[{i}] {ans.hex()}")
        return "\n".join(lines)


class Client:
    """Issues queries to one entity's databases over either backend.

    Each frame is one roundtrip: the client sends it and reads the next reply
    on that database's stream, which must answer the query id it sent.
    """

    def __init__(self, backend: "SimBackend | TcpBackend"):
        self.backend = backend
        self.records: list[list[tuple[bytes, bytes]]] = [[] for _ in range(backend.n_databases)]
        self._next_query_id = 0

    def setup_info(self) -> dict:
        mtype, payload = self.backend.roundtrip(0, wire.MSG_SETUP, b"")
        if mtype != wire.MSG_SETUP:
            raise wire.TransportError("setup exchange failed")
        return wire.parse_setup(payload)

    def forward_result(self, payload: bytes) -> None:
        mtype, _ = self.backend.roundtrip(0, wire.MSG_RESULT_FORWARD, payload)
        if mtype != wire.MSG_RESULT_FORWARD:
            raise wire.TransportError("result forwarding failed")

    def query(self, db: int, body: bytes) -> list[int]:
        qid = self._next_query_id
        self._next_query_id += 1
        payload = wire.encode_query(qid, body)
        mtype, reply = self.backend.roundtrip(db, wire.MSG_QUERY, payload)
        if mtype == wire.MSG_ERROR:
            raise wire.ProtocolFault(f"database {db} rejected the query: {wire.parse_error(reply)[1]}")
        if mtype != wire.MSG_ANSWER:
            raise wire.TransportError(f"unexpected reply type {mtype}")
        symbols = wire.parse_answer(reply, qid)[1]
        self.records[db].append((payload, reply))
        return symbols

    def query_all(self, bodies: list[bytes]) -> list[list[int]]:
        """One batch: bodies[db] goes to database db, in database order; empty bodies are skipped."""
        return [self.query(db, body) if body else [] for db, body in enumerate(bodies)]


class SimBackend:
    """In-process deterministic network: every frame is encoded and read back as ``TcpServerPool`` reads it."""

    def __init__(self, servers: list[DatabaseServer]):
        self.servers = servers

    @property
    def n_databases(self) -> int:
        return len(self.servers)

    def roundtrip(self, db: int, msg_type: int, payload: bytes) -> tuple[int, bytes]:
        srv = self.servers[db]
        request = wire.FrameReader(encode_frame(msg_type, payload))
        try:
            reply = srv.handle_client_frame(*request.next_frame(srv.max_payload()))
        except wire.ProtocolFault as exc:  # a frame over the bound
            reply = refusal(exc)
        return wire.FrameReader(encode_frame(*reply)).next_frame()


class TcpBackend:
    """Client side of the TCP backend; one connection per database."""

    def __init__(self, addresses: list[tuple[str, int]], timeout: float = 10.0):
        self.addresses = addresses
        self.timeout = timeout
        self._socks: list[socket.socket | None] = [None] * len(addresses)
        self._replies: list[Iterator[tuple[int, bytes]]] = [iter(()) for _ in addresses]
        self._locks = [threading.Lock() for _ in addresses]

    @property
    def n_databases(self) -> int:
        return len(self.addresses)

    def _sock(self, db: int) -> socket.socket:
        if self._socks[db] is None:
            s = socket.create_connection(self.addresses[db], timeout=self.timeout)
            peer = s.getpeername()
            same = [i for i, o in enumerate(self._socks) if o is not None and o.getpeername() == peer]
            if same:  # two spellings of one server: it would get two query shares
                s.close()
                raise wire.TransportError(f"databases {same[0]} and {db} both reach {peer[0]}:{peer[1]}")
            self._socks[db] = s
            self._replies[db] = _frames(s)
        return self._socks[db]

    def roundtrip(self, db: int, msg_type: int, payload: bytes) -> tuple[int, bytes]:
        """One frame out, one frame back; a failure closes and forgets the connection."""
        with self._locks[db]:
            try:
                s = self._sock(db)
                s.sendall(encode_frame(msg_type, payload))
                return next(self._replies[db])
            except (OSError, wire.TransportError) as exc:  # the stream is unusable past either
                if self._socks[db] is not None:
                    self._socks[db].close()
                    self._socks[db] = None
                host, port = self.addresses[db]
                raise wire.TransportError(f"database {db} at {host}:{port}: {exc}") from exc

    def close(self) -> None:
        for s in self._socks:
            if s is not None:
                s.close()
        self._socks = [None] * len(self.addresses)


def _frames(sock: socket.socket, limit: Callable[[], int] = lambda: 0xFFFFFFFF) -> Iterator[tuple[int, bytes]]:
    """Each frame arriving on ``sock``, its payload bounded by ``limit()`` when its header is in."""
    reader = wire.FrameReader()
    while True:
        while (frame := reader.next_frame(limit())) is not None:
            yield frame
        chunk = sock.recv(1 << 16)  # memory follows the bytes received, not a forged length
        if not chunk:
            raise wire.TransportError("connection closed mid-frame" if reader.unread else "connection closed")
        reader.feed(chunk)


class TcpServerPool:
    """Runs each database server on its own port of ``host``, one thread each.

    A connection's frames are answered strictly in order, however they are
    split or batched.  One whose header announces more than ``max_payload``
    gets the reply ``SimBackend`` gives, and the connection closes with at
    most one 64 KiB receive of its body read.
    """

    def __init__(self, servers: list[DatabaseServer], host: str = "127.0.0.1", base_port: int = 0):
        self.servers = servers
        self.host = host
        self.base_port = base_port
        self._listeners: list[socket.socket] = []
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self.addresses: list[tuple[str, int]] = []

    def start(self) -> None:
        if self.base_port + len(self.servers) - 1 > 65535:  # checked before any listener is bound
            raise ParamError(f"{len(self.servers)} databases from port {self.base_port} run past port 65535")
        for i, srv in enumerate(self.servers):
            port = self.base_port + i if self.base_port else 0
            lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                lsock.bind((self.host, port))
            except OSError:  # e.g. the port is taken: release what started, then report
                lsock.close()
                self.stop()
                raise
            lsock.listen(4)
            lsock.settimeout(0.2)
            self._listeners.append(lsock)
            self.addresses.append(lsock.getsockname())
            t = threading.Thread(target=self._serve, args=(srv, lsock), daemon=True)
            t.start()
            self._threads.append(t)

    def _serve(self, srv: DatabaseServer, lsock: socket.socket) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = lsock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with conn:
                conn.settimeout(10.0)
                try:
                    for frame in _frames(conn, srv.max_payload):
                        if self._stop.is_set():
                            break
                        conn.sendall(encode_frame(*srv.handle_client_frame(*frame)))
                except (wire.TransportError, OSError):
                    pass
                except wire.ProtocolFault as exc:  # a frame over the bound, whose body is never read: out of frame
                    with suppress(OSError):
                        conn.sendall(encode_frame(*refusal(exc)))
                except Exception:
                    # a frame the handler did not turn into an ERROR reply costs its connection, not the database
                    _log.exception("database %d failed on a client frame", srv.db_id)

    def stop(self) -> None:
        self._stop.set()
        for lsock in self._listeners:
            try:
                lsock.close()
            except OSError:
                pass
        for t in self._threads:
            t.join(timeout=2.0)

    def __enter__(self) -> "TcpServerPool":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def replay_answers(transcript: Transcript, servers: list[DatabaseServer]) -> bool:
    """Send every recorded query to the given server of its recorded database,
    one server per database (``psi.entity_servers`` stands them up); True iff
    every reply is the recorded answer.  A query the server refuses with an
    ERROR reply, a slot run past its pool included, is a mismatch."""
    return all(
        srv.handle_client_frame(wire.MSG_QUERY, qry) == (wire.MSG_ANSWER, ans)
        for srv, db_records in zip(servers, transcript.records, strict=True)
        for qry, ans in db_records
    )
