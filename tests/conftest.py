import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from privset import transport, wire  # noqa: E402  (after the path insert)
from privset.field import to_lane_bytes  # noqa: E402
from privset.params import ParamError  # noqa: E402

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def answer_block(vector, store, cr_symbol: int) -> int:
    """<vector, flattened store> + cr, in F_q, over unpacked coefficients: the
    explicit-loop reference that the packed block answers are checked against."""
    if len(vector) != store.K * store.L:
        raise ParamError(f"query vector length {len(vector)} != K*L = {store.K * store.L}")
    acc = cr_symbol
    for c, w in zip(vector, store.flat):
        acc += c * w
    return acc % store.q


def lanes(vectors, length: int, q: int = 2) -> list[bytes]:
    """The wire bytes of packed int vectors of ``length`` coefficients over F_q."""
    return [to_lane_bytes(vec, length, q) for vec in vectors]


def read_frames(data: bytes, limit: int = 0xFFFFFFFF) -> list[tuple[int, bytes]]:
    """Every complete frame in ``data``, fed to one FrameReader at once."""
    reader = wire.FrameReader(data)
    return list(iter(lambda: reader.next_frame(limit), None))


@contextmanager
def connected(servers, backend: str):
    """A SimBackend over ``servers``, or one TcpBackend to them served on loopback by a TcpServerPool."""
    if backend == "sim":
        yield transport.SimBackend(servers)
        return
    with transport.TcpServerPool(servers) as pool:
        link = transport.TcpBackend(pool.addresses)
        try:
            yield link
        finally:
            link.close()


@pytest.fixture
def faulty_streams(monkeypatch):
    """Make ``transport.SimBackend`` deliver replies the way a TCP stream would, with faults.

    ``faulty_streams(drop=..., duplicate=...)`` names (database, message type)
    pairs.  A dropped reply never arrives: the read times out, a
    TransportError.  A duplicated reply arrives twice and the copy stays on
    that database's stream, where it is read as the reply to the next frame;
    the copy of a connection's last reply is never read.
    """

    def install(drop=(), duplicate=()):
        class StreamSimBackend(transport.SimBackend):
            def __init__(self, servers):
                super().__init__(servers)
                self.unread = [[] for _ in servers]

            def roundtrip(self, db, msg_type, payload):
                reply = super().roundtrip(db, msg_type, payload)
                stream = self.unread[db]
                if (db, msg_type) not in drop:
                    stream.append(reply)
                    if (db, msg_type) in duplicate:
                        stream.append(reply)
                if not stream:
                    raise wire.TransportError(f"database {db}: timed out waiting for a reply")
                return stream.pop(0)

        monkeypatch.setattr(transport, "SimBackend", StreamSimBackend)

    return install


@pytest.fixture
def received_bodies(monkeypatch):
    """Every query body each ``transport.DatabaseServer`` is sent, in order.

    A database keeps only the last body it read, so a test that counts the
    bodies a database got records them here instead: a dict from server to
    its list of bodies, empty for a server sent no query.
    Every server, in-process or behind ``TcpServerPool``, is recorded.
    """
    received = defaultdict(list)
    handle_client_frame = transport.DatabaseServer.handle_client_frame

    def recording(self, msg_type, payload):
        if msg_type == wire.MSG_QUERY:
            received[self].append(wire.parse_query(payload)[1])
        return handle_client_frame(self, msg_type, payload)

    monkeypatch.setattr(transport.DatabaseServer, "handle_client_frame", recording)
    return received


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
