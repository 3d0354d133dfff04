"""Database servers, the simulated / TCP backends, and run transcripts.

The bytes of every frame, query, answer and error are laid out by ``wire``.
Each entity runs its N databases as independent servers that share nothing
but the pre-provisioned randomness pool; there is no server-to-server
channel, so non-collusion holds by construction.  The client-facing protocol
is a fixed binary framing; the randomness pool is installed through a
separate administrative path and the client connection rejects provisioning
frames outright.

A ``Transcript`` records every query and answer of a run and is the one
record of what was downloaded: ``downloaded_symbols`` counts answer field
symbols only, never framing bytes, matching how the schemes' costs are
defined.  Its bytes depend only on the run's seeds and sets.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
from dataclasses import dataclass

from . import block_scheme, table_scheme, wire
from .params import ParamError
from .storage import CommonRandomnessPool, MessageStore
from .wire import MSG_ERROR, encode_frame  # noqa: F401  (looked up here by callers)

_log = logging.getLogger(__name__)

# Scheme tag -> answer evaluator over (payload, store, pool).  A served
# database speaks only PSI: the table tag is not served, since one table body
# can mask every coordinate with one plainly served symbol.
QUERY_HANDLERS = {
    block_scheme.BLOCK_QUERY_TAG: block_scheme.answer_wire_query,
    wire.DOWNLOAD_ALL_TAG: table_scheme.answer_download_all,
}


class InsufficientRandomness(RuntimeError):
    """Provisioned pool is smaller than the scheme requires."""


class DatabaseServer:
    """One replica: holds the store and (after provisioning) the shared pool.

    ``handle_client_frame`` is the entire client-visible behaviour; it is a
    deterministic function of (frame, store, pool).  Answers to unknown or
    out-of-place frame types are ERROR frames and the connection survives.
    """

    def __init__(self, db_id: int, store: MessageStore, public_info: dict | None = None):
        self.db_id = db_id
        self.store = store
        self.pool: CommonRandomnessPool | None = None
        self.query_served = False
        self.public_info = public_info or {}
        self.seen_queries: list[bytes] = []  # instrumentation for non-collusion tests

    def provision(self, pool: CommonRandomnessPool, required_size: int) -> str:
        """Administrative path (entity-internal); never reachable from a client socket."""
        if self.query_served:
            raise wire.ProtocolFault("cannot provision randomness after queries have been served")
        if len(pool) < required_size:
            raise InsufficientRandomness(
                f"pool of {len(pool)} symbols below required {required_size}"
            )
        self.pool = pool
        return pool.digest()

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
            handler = QUERY_HANDLERS.get(body[0])
            if handler is None:
                raise wire.ProtocolFault(f"unknown scheme tag {body[0]}")
            if body[0] != wire.DOWNLOAD_ALL_TAG and self.pool is None:
                reason = "no randomness pool provisioned"
                return wire.MSG_ERROR, wire.encode_error(wire.ERR_NOT_PROVISIONED, reason)
            self.query_served = True
            self.seen_queries.append(body)
            pool = self.pool if self.pool is not None else CommonRandomnessPool(self.store.q, [])
            symbols = handler(body, self.store, pool)
        except wire.ProtocolFault as exc:
            return wire.MSG_ERROR, wire.encode_error(wire.ERR_BAD_QUERY, str(exc))
        return wire.MSG_ANSWER, wire.encode_answer(query_id, symbols)


def make_entity_servers(store: MessageStore, n_databases: int, public_info: dict | None = None) -> list[DatabaseServer]:
    """Independent replicas of one entity's store. No shared mutable state."""
    return [DatabaseServer(db, store, public_info) for db in range(n_databases)]


def provision_cr(servers: list[DatabaseServer], pool: CommonRandomnessPool, required_size: int) -> list[str]:
    """Install the same pool on every replica; returns the per-database digests."""
    digests = [srv.provision(pool, required_size) for srv in servers]
    if len(set(digests)) > 1:
        raise wire.ProtocolFault("replicas report differing pool digests")
    return digests


@dataclass
class Transcript:
    """Client-side record of one run: every query and answer, per database."""

    meta: dict
    records: list[list[tuple[bytes, bytes]]]  # per db: (query payload, answer payload)

    @property
    def downloaded_symbols(self) -> int:
        return sum(len(wire.parse_answer(ans)[1]) for db_records in self.records for _, ans in db_records)

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
            code, message = wire.parse_error(reply)
            if code == wire.ERR_NOT_PROVISIONED:
                raise InsufficientRandomness(message)
            raise wire.ProtocolFault(f"database {db} rejected the query: {message}")
        if mtype != wire.MSG_ANSWER:
            raise wire.TransportError(f"unexpected reply type {mtype}")
        got_qid, symbols = wire.parse_answer(reply)
        if got_qid != qid:
            raise wire.ProtocolFault(f"answer id {got_qid} does not match query id {qid}")
        self.records[db].append((payload, reply))
        return symbols

    def query_all(self, bodies: list[bytes]) -> list[list[int]]:
        """One batch: bodies[db] goes to database db, in database order; empty bodies are skipped."""
        return [self.query(db, body) if body else [] for db, body in enumerate(bodies)]


class SimBackend:
    """In-process deterministic network: every frame is encoded and parsed as on the wire."""

    def __init__(self, servers: list[DatabaseServer]):
        self.servers = servers

    @property
    def n_databases(self) -> int:
        return len(self.servers)

    def roundtrip(self, db: int, msg_type: int, payload: bytes) -> tuple[int, bytes]:
        mtype, body = wire.parse_frame(wire.encode_frame(msg_type, payload))
        rtype, rbody = self.servers[db].handle_client_frame(mtype, body)
        return wire.parse_frame(wire.encode_frame(rtype, rbody))


class TcpBackend:
    """Client side of the TCP backend; one connection per database."""

    def __init__(self, addresses: list[tuple[str, int]], timeout: float = 10.0):
        self.addresses = addresses
        self.timeout = timeout
        self._socks: list[socket.socket | None] = [None] * len(addresses)
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
        return self._socks[db]

    def roundtrip(self, db: int, msg_type: int, payload: bytes) -> tuple[int, bytes]:
        """One frame out, one frame back; a failure closes and forgets the connection."""
        with self._locks[db]:
            try:
                s = self._sock(db)
                s.sendall(wire.encode_frame(msg_type, payload))
                return _read_frame(s)
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


def _read_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 16))  # 64 KiB at most: memory follows the bytes, not a forged length
        if not chunk:
            raise wire.TransportError("connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _read_frame(sock: socket.socket) -> tuple[int, bytes]:
    msg_type, length = wire.parse_frame_header(_read_exact(sock, wire.FRAME_HEADER_SIZE))
    payload = _read_exact(sock, length) if length else b""
    return msg_type, payload


class TcpServerPool:
    """Runs each database server on its own localhost port, one thread each.

    Requests on a connection are handled strictly sequentially; databases
    serve concurrently with respect to each other.
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
                while not self._stop.is_set():
                    try:
                        msg_type, payload = _read_frame(conn)
                    except (wire.TransportError, socket.timeout, OSError):
                        break
                    try:
                        rtype, rbody = srv.handle_client_frame(msg_type, payload)
                    except Exception:
                        # A frame the handler did not turn into an ERROR reply
                        # costs the client its connection, never the database.
                        _log.exception("database %d failed on a frame of type %d", srv.db_id, msg_type)
                        break
                    try:
                        conn.sendall(wire.encode_frame(rtype, rbody))
                    except OSError:
                        break

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


def replay_answers(transcript: Transcript, store: MessageStore, pool: CommonRandomnessPool) -> bool:
    """Send every recorded query to a fresh server per recorded database, each
    holding the given store and pool; True iff every reply is the recorded
    answer.  A query the server refuses with an ERROR reply is a mismatch."""
    servers = make_entity_servers(store, len(transcript.records))
    provision_cr(servers, pool, 0)
    return all(
        srv.handle_client_frame(wire.MSG_QUERY, qry) == (wire.MSG_ANSWER, ans)
        for srv, db_records in zip(servers, transcript.records)
        for qry, ans in db_records
    )
