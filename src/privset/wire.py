"""Byte layout of every frame, query, answer and error the protocol sends,
and of the transcript file a run saves.

This is the only module that knows a message layout; the lanes inside one
query vector are laid out by ``field``, and a block body carries each
vector's bytes as they are.  Each format that is read back is one
``encode_*``/``parse_*`` pair with ``encode(parse(p)) == p`` for every
well-formed ``p``.  A parser raises ProtocolFault on anything else
(truncation, trailing bytes, a count that overruns the payload, a
reference outside the bounds it is given) and never struct.error
or IndexError, so a database can turn any client query into an answer or an
ERROR reply.  Frames, answers, errors and transcripts are what a client
reads; faults in them are TransportError, a ProtocolFault.  Frames are read
by ``FrameReader``, on every backend and on both ends of a connection.

All integers are little-endian:

    frame         "PSI1" | version u8 | type u8 | length u32 | payload
    setup         JSON object with sorted keys: the responder's public shape
    query         query id u32 | body, whose first byte is its scheme tag; ``parse_body`` is
                    the one reader of a body by its tag; tag 1, TABLE_QUERY_TAG, is reserved
    block body    2 | first slot u32 | n u32 | n x ceil(K*L * w / 8) bytes
                    entry i is a packed vector of the store's K*L coefficients, masked
                    by pool slot first + i; K*L is known to both sides and not sent:
                    coefficient i in lane i (``field.to_lane_bytes``), w = 1 bit over F_2, else 8
    download-all  3   served only by a database that holds no shared randomness
    result        the intersection's elements in ascending ASCII decimal, comma-separated;
                    a database acknowledges it unread
    answer        query id u32 | n u32 | n x symbol u8
    error         code u16 | UTF-8 message
    transcript    "PRIVSET-TRANSCRIPT v3\n" | length u32 | metadata, laid out as setup
                    | n u32 | n x (m u32 | m x (length u32 | query | length u32 | answer))
"""

from __future__ import annotations

import json
import struct
from typing import Sequence

from .field import lane_bits, vector_size

MAGIC = b"PSI1"
VERSION = 3  # 3: a block body names one slot run, entry i on slot first + i

MSG_SETUP = 1
MSG_CR_PROVISION = 2
MSG_QUERY = 3
MSG_ANSWER = 4
MSG_RESULT_FORWARD = 5
MSG_ERROR = 6

ERR_UNKNOWN_TYPE = 1
ERR_CHANNEL_SEPARATION = 2
ERR_BAD_QUERY = 3

TABLE_QUERY_TAG = 1  # reserved and never served: one such body could unmask a whole set
BLOCK_QUERY_TAG = 2
DOWNLOAD_ALL_TAG = 3

_FRAME = struct.Struct("<4sBBI")
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_PAIR = struct.Struct("<II")  # answer head (query id, count); block head (first slot, count)

_TRANSCRIPT_NAME = b"PRIVSET-TRANSCRIPT "
TRANSCRIPT_HEADER = _TRANSCRIPT_NAME + b"v%d\n" % VERSION


class ProtocolFault(RuntimeError):
    """Malformed or inconsistent protocol data (bad reference, bad answer shape)."""


class TransportError(ProtocolFault):
    """Lost or malformed traffic; always surfaces instead of a wrong result."""


def _check_tag(body: bytes, tag: int) -> None:
    if body[:1] != _U8.pack(tag):
        raise ProtocolFault(f"body does not carry scheme tag {tag}")


def _check_end(off: int, payload: bytes, what: str, fault: type[ProtocolFault] = ProtocolFault) -> None:
    if off > len(payload):
        raise fault(f"truncated {what}")
    if off < len(payload):
        raise fault(f"trailing bytes in {what}")


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    return _FRAME.pack(MAGIC, VERSION, msg_type, len(payload)) + payload


class FrameReader:
    """Frames out of a byte stream fed in chunks of any size; it does no I/O.  A bad magic
    or version is a TransportError as soon as the header's 8 bytes are in.  Memory follows the
    bytes fed, not an announced length; a frame fed whole to an empty reader costs one slice."""

    def __init__(self, data: bytes = b"") -> None:
        self._buf, self._off = data, 0  # unread: self._buf from self._off, then self._more
        self._more: list[bytes] = []
        self._size = len(data)  # unread bytes in all
        self._need = _FRAME.size  # unread bytes the next step waits for: a header, or a whole frame

    def feed(self, data: bytes) -> None:
        if self._size:
            self._more.append(data)
        else:
            self._buf, self._off = data, 0
        self._size += len(data)

    @property
    def unread(self) -> int:
        """Bytes fed and not yet returned in a frame."""
        return self._size

    def next_frame(self, limit: int = 0xFFFFFFFF) -> tuple[int, bytes] | None:
        """The next complete (message type, payload), or None while it is arriving; a header whose
        length is above ``limit`` is a ProtocolFault of the query, raised without waiting for the body."""
        if self._size < self._need:
            return None
        if self._more:  # joined when a header, then a whole frame, is in: linear however it was split
            self._buf, self._off, self._more = b"".join([memoryview(self._buf)[self._off :], *self._more]), 0, []
        buf, off = self._buf, self._off
        magic, version, msg_type, length = _FRAME.unpack_from(buf, off)
        if magic != MAGIC:
            raise TransportError(f"bad magic {magic!r}")
        if version != VERSION:
            raise TransportError(f"unsupported version {version}")
        if length > limit:
            raise ProtocolFault(f"a payload of {length} bytes exceeds the largest legal payload, {limit} bytes")
        self._need = _FRAME.size + length
        if self._size < self._need:
            return None
        self._off += self._need
        self._size -= self._need
        self._need = _FRAME.size
        return msg_type, buf[off + _FRAME.size : self._off]


def encode_setup(info: dict) -> bytes:
    return json.dumps(info, sort_keys=True).encode()


def parse_setup(payload: bytes, what: str = "setup reply") -> dict:
    """A JSON object: a setup reply, or the metadata of a transcript."""
    try:
        obj = json.loads(payload)
    except ValueError:  # UnicodeDecodeError included
        obj = None
    if not isinstance(obj, dict):
        raise TransportError(f"{what} is not a JSON object")
    return obj


def encode_query(query_id: int, body: bytes) -> bytes:
    return _U32.pack(query_id) + body


def parse_query(payload: bytes) -> tuple[int, bytes]:
    """(query id, scheme-tagged body); the body is at least its tag."""
    if len(payload) < _U32.size + 1:
        raise ProtocolFault("query too short")
    return _U32.unpack_from(payload)[0], payload[_U32.size :]


def block_query_size(n: int, length: int, q: int) -> int:
    """Payload bytes of a query whose block body carries ``n`` vectors of ``length`` coefficients over F_q."""
    return _U32.size + 1 + _PAIR.size + n * vector_size(length, q)


def encode_block_query(first: int, vectors: Sequence[bytes], length: int, q: int) -> bytes:
    """Block body of ``length``-coefficient vectors over F_q, each in its wire
    bytes (``field.to_lane_bytes``), entry i on pool slot ``first + i``."""
    size = vector_size(length, q)
    body = b"".join([_U8.pack(BLOCK_QUERY_TAG) + _PAIR.pack(first, len(vectors)), *vectors])
    if len(body) != 1 + _PAIR.size + len(vectors) * size:
        raise ValueError(f"a vector of {length} coefficients over F_{q} takes {size} bytes")
    return body


def parse_block_query(body: bytes, q: int, length: int, pool_size: int | None = None) -> tuple[int, list[bytes]]:
    """(first slot, each vector's wire bytes) of a body of ``length``-coefficient
    vectors over F_q; optionally checks that the run ends within ``pool_size``
    slots.  Padding bits past the last F_2 coefficient must be 0."""
    _check_tag(body, BLOCK_QUERY_TAG)
    size = vector_size(length, q)
    if not size:
        raise ProtocolFault("block vectors need at least one coefficient")
    start = 1 + _PAIR.size
    if len(body) < start:
        raise ProtocolFault("truncated query payload")
    first, n = _PAIR.unpack_from(body, 1)
    _check_end(start + n * size, body, "query payload")
    if pool_size is not None and first + n > pool_size:
        raise ProtocolFault(f"randomness slot {first + n - 1} outside the provisioned pool")
    used = length * lane_bits(q) % 8  # coefficient bits in a vector's last byte, 0 if it has no padding
    if used and any(last >> used for last in body[start + size - 1 :: size]):
        raise ProtocolFault("padding bits set past the last coefficient")
    return first, [body[off : off + size] for off in range(start, len(body), size)]


def encode_download_all() -> bytes:
    return _U8.pack(DOWNLOAD_ALL_TAG)


def parse_download_all(body: bytes, pool_size: int | None = None) -> None:
    """Optionally checks that a database of ``pool_size`` slots may answer it:
    the answer is every symbol unmasked, so only one without a pool does."""
    _check_tag(body, DOWNLOAD_ALL_TAG)
    if len(body) != 1:
        raise ProtocolFault("download-all query carries no arguments")
    if pool_size:
        raise ProtocolFault(f"download-all is not served by a database holding {pool_size} shared randomness slots")


def body_tag(body: bytes) -> int:
    """The scheme tag of a body some database serves; every other body is refused here."""
    if not body:
        raise ProtocolFault("empty query body")
    if body[0] not in (BLOCK_QUERY_TAG, DOWNLOAD_ALL_TAG):
        raise ProtocolFault(f"unknown scheme tag {body[0]}")
    return body[0]


def parse_body(body: bytes, length: int, q: int, pool_size: int | None = None) -> tuple[int, list[bytes]] | None:
    """A body read by its tag: a block body as ``parse_block_query`` reads it, a download-all body as None."""
    if body_tag(body) == BLOCK_QUERY_TAG:
        return parse_block_query(body, q, length, pool_size)
    return parse_download_all(body, pool_size)


def encode_result(elements) -> bytes:
    """The result forward's payload: the elements, ascending, comma-separated."""
    return ",".join(map(str, sorted(elements))).encode()


def result_size(K: int) -> int:
    """Bytes of the result forward naming all of [0, K): each decade's digits, plus K - 1 commas."""
    if not K:
        return 0
    digits = len(str(K - 1))  # of the largest element; below 10**d an element has one digit less per d
    return digits * K - (10**digits - 10) // 9 + K - 1


def encode_answer(query_id: int, symbols: Sequence[int]) -> bytes:
    return _PAIR.pack(query_id, len(symbols)) + bytes(symbols)


def parse_answer(payload: bytes, query_id: int | None = None) -> tuple[int, list[int]]:
    """(query id, answer symbols); given ``query_id``, an answer to another query is a ProtocolFault."""
    if len(payload) < _PAIR.size:
        raise TransportError("truncated answer")
    got, n = _PAIR.unpack_from(payload)
    _check_end(_PAIR.size + n, payload, "answer", TransportError)
    if query_id is not None and got != query_id:
        raise ProtocolFault(f"answer id {got} does not match query id {query_id}")
    return got, list(payload[_PAIR.size :])


def encode_error(code: int, message: str) -> bytes:
    return _U16.pack(code) + message.encode()


def parse_error(payload: bytes) -> tuple[int, str]:
    """(error code, message)."""
    if len(payload) < _U16.size:
        raise TransportError("truncated error payload")
    try:
        return _U16.unpack_from(payload)[0], payload[_U16.size :].decode()
    except UnicodeDecodeError:
        raise TransportError("error message is not UTF-8") from None


def encode_transcript(meta: dict, records: Sequence[Sequence[tuple[bytes, bytes]]]) -> bytes:
    """A saved run: its metadata, then per database its (query, answer) payloads."""
    meta_bytes = encode_setup(meta)
    out = [TRANSCRIPT_HEADER, _U32.pack(len(meta_bytes)), meta_bytes, _U32.pack(len(records))]
    for db_records in records:
        out.append(_U32.pack(len(db_records)))
        for qry, ans in db_records:
            out += [_U32.pack(len(qry)), qry, _U32.pack(len(ans)), ans]
    return b"".join(out)


def parse_transcript(data: bytes) -> tuple[dict, list[list[tuple[bytes, bytes]]]]:
    """(metadata, per-database (query, answer) payloads) of a saved run."""
    if not data.startswith(TRANSCRIPT_HEADER):
        name = data[:64].partition(b"\n")[0]
        if name.startswith(_TRANSCRIPT_NAME):
            version = name[len(_TRANSCRIPT_NAME) :].decode(errors="replace")
            raise TransportError(f"unsupported transcript version {version}")
        raise TransportError("not a transcript file")
    off = len(TRANSCRIPT_HEADER)

    def take(n: int) -> bytes:
        nonlocal off
        off += n
        if off > len(data):
            raise TransportError("truncated transcript")
        return data[off - n : off]

    def u32() -> int:
        return _U32.unpack(take(_U32.size))[0]

    meta = parse_setup(take(u32()), "transcript metadata")
    records = [[(take(u32()), take(u32())) for _ in range(u32())] for _ in range(u32())]
    _check_end(off, data, "transcript", TransportError)
    return meta, records
