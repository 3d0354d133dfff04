import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from privset import transport, wire  # noqa: E402  (after the path insert)
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


def read_frames(data: bytes, limit: int = 0xFFFFFFFF) -> list[tuple[int, bytes]]:
    """Every complete frame in ``data``, fed to one FrameReader at once."""
    reader = wire.FrameReader(data)
    return list(iter(lambda: reader.next_frame(limit), None))


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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
