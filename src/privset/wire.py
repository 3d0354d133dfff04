"""Byte layout of every frame, query, answer and error the protocol sends,
and of the transcript file a run saves.

This is the only module that knows a layout.  Each format that is read
back is one ``encode_*``/``parse_*`` pair with ``encode(parse(p)) == p``
for every well-formed ``p``.  A parser raises ProtocolFault on anything else
(truncation, trailing bytes, a count that overruns the payload, a
reference outside the bounds it is given) and never struct.error
or IndexError, so a database can turn any client query into an answer or an
ERROR reply.  Frames, answers, errors and transcripts are what a client
reads; faults in them are TransportError, a ProtocolFault.

All integers are little-endian:

    frame         "PSI1" | version u8 | type u8 | length u32 | payload
    setup         JSON object with sorted keys: the responder's public shape
    query         query id u32 | body
    table body    1 | n u32 | n x pool id u32 | m u32 | m x (t u8 | t x coordinate u32 | pool id u32)
                    a term's coordinate is m*L + s for symbol s of message m
    block body    2 | first slot u32 | n u32 | n x ceil(K*L * w / 8) bytes
                    entry i is a packed vector of the store's K*L coefficients, masked
                    by pool slot first + i; K*L is known to both sides and not sent:
                    coefficient i in lane i, w = 1 bit over F_2, else 8
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
from itertools import chain
from operator import itemgetter
from typing import NamedTuple, Sequence

from .field import lane_bits

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
ERR_NOT_PROVISIONED = 4

TABLE_QUERY_TAG = 1
BLOCK_QUERY_TAG = 2
DOWNLOAD_ALL_TAG = 3

_FRAME = struct.Struct("<4sBBI")
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_PAIR = struct.Struct("<II")  # answer head (query id, count); block head (first slot, count)
_SUM_FORMATS = [f"B{t + 1}I" for t in range(256)]  # t | t x coordinate | pool id
_SUM_VALUES = [struct.Struct(f"<{t + 1}I") for t in range(256)]  # a sum's t coordinates, then its pool id

FRAME_HEADER_SIZE = _FRAME.size
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


def parse_frame_header(header: bytes) -> tuple[int, int]:
    """(message type, payload length) from the first FRAME_HEADER_SIZE bytes."""
    if len(header) != _FRAME.size:
        raise TransportError("short frame")
    magic, version, msg_type, length = _FRAME.unpack(header)
    if magic != MAGIC:
        raise TransportError(f"bad magic {magic!r}")
    if version != VERSION:
        raise TransportError(f"unsupported version {version}")
    return msg_type, length


def parse_frame(data: bytes) -> tuple[int, bytes]:
    msg_type, length = parse_frame_header(data[: _FRAME.size])
    if len(data) != _FRAME.size + length:
        raise TransportError("frame length mismatch")
    return msg_type, data[_FRAME.size :]


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


def _vector_bytes(length: int, q: int) -> int:
    return (length * lane_bits(q) + 7) // 8


def block_query_size(n: int, length: int, q: int) -> int:
    """Payload bytes of a query whose block body carries ``n`` vectors of ``length`` coefficients over F_q."""
    return _U32.size + 1 + _PAIR.size + n * _vector_bytes(length, q)


def encode_block_query(first: int, vectors: Sequence[int], length: int, q: int) -> bytes:
    """Block body of packed ``length``-coefficient vectors over F_q, entry i on pool slot ``first + i``."""
    size = _vector_bytes(length, q)
    head = _U8.pack(BLOCK_QUERY_TAG) + _PAIR.pack(first, len(vectors))
    return b"".join([head, *(v.to_bytes(size, "little") for v in vectors)])


def parse_block_query(body: bytes, q: int, length: int, pool_size: int | None = None) -> tuple[int, list[int]]:
    """(first slot, packed vectors) of a body of ``length``-coefficient vectors
    over F_q; optionally checks that the run ends within ``pool_size`` slots.
    Padding bits past the last F_2 coefficient must be 0."""
    _check_tag(body, BLOCK_QUERY_TAG)
    size = _vector_bytes(length, q)
    if not size:
        raise ProtocolFault("block vectors need at least one coefficient")
    if len(body) < 1 + _PAIR.size:
        raise ProtocolFault("truncated query payload")
    first, n = _PAIR.unpack_from(body, 1)
    _check_end(1 + _PAIR.size + n * size, body, "query payload")
    if pool_size is not None and first + n > pool_size:
        raise ProtocolFault(f"randomness slot {first + n - 1} outside the provisioned pool")
    vectors = [int.from_bytes(body[off : off + size], "little") for off in range(1 + _PAIR.size, len(body), size)]
    bits = length * lane_bits(q)
    if any(vector >> bits for vector in vectors):
        raise ProtocolFault("padding bits set past the last coefficient")
    return first, vectors


class TableQuery(NamedTuple):
    """A table query, parsed or built in process: plainly served pool ids, then one entry per sum."""

    plain_ids: tuple[int, ...]
    sums: tuple[tuple[tuple[int, ...], int], ...]  # (coordinate terms, pool id)


def encode_table_query(plain_ids: Sequence[int], sums: Sequence[tuple[Sequence[int], int]]) -> bytes:
    fmt = [f"<BI{len(plain_ids)}II"]
    values = [TABLE_QUERY_TAG, len(plain_ids), *plain_ids, len(sums)]
    for terms, pool_id in sums:
        fmt.append(_SUM_FORMATS[len(terms)])
        values.append(len(terms))
        values.extend(terms)
        values.append(pool_id)
    return struct.pack("".join(fmt), *values)


def check_table_query(query: TableQuery, n_coords: int | None = None, pool_size: int | None = None) -> TableQuery:
    """``query``, once every term's coordinate is checked to be below
    ``n_coords`` and every pool id below ``pool_size`` (each optional)."""
    if n_coords is not None:
        top = max(chain.from_iterable(map(itemgetter(0), query.sums)), default=-1)
        if top >= n_coords:
            raise ProtocolFault(f"query references missing symbol at coordinate {top}")
    if pool_size is not None:
        top = max(chain(query.plain_ids, map(itemgetter(1), query.sums)), default=-1)
        if top >= pool_size:
            raise ProtocolFault(f"randomness slot {top} outside the provisioned pool")
    return query


def parse_table_query(body: bytes, n_coords: int | None = None, pool_size: int | None = None) -> TableQuery:
    """Parse a table body, bounded as ``check_table_query`` says."""
    _check_tag(body, TABLE_QUERY_TAG)
    sums = []
    append = sums.append
    try:
        (n_plain,) = _U32.unpack_from(body, 1)
        plain_ids = struct.unpack_from(f"<{n_plain}I", body, 1 + _U32.size)
        off = 1 + _U32.size * (n_plain + 1)
        (n_sums,) = _U32.unpack_from(body, off)
        off += _U32.size
        for _ in range(n_sums):
            t = body[off]
            values = _SUM_VALUES[t].unpack_from(body, off + 1)
            append((values[:t], values[t]))
            off += 1 + _U32.size * (t + 1)
    except (struct.error, IndexError):
        raise ProtocolFault("truncated query payload") from None
    _check_end(off, body, "query payload")
    return check_table_query(TableQuery(plain_ids, tuple(sums)), n_coords, pool_size)


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


def encode_result(elements) -> bytes:
    """The result forward's payload: the elements, ascending, comma-separated."""
    return ",".join(map(str, sorted(elements))).encode()


def result_size(K: int) -> int:
    """Bytes of the longest result forward over [0, K): the one naming every element."""
    return len(encode_result(range(K)))


def encode_answer(query_id: int, symbols: Sequence[int]) -> bytes:
    return _PAIR.pack(query_id, len(symbols)) + bytes(symbols)


def parse_answer(payload: bytes) -> tuple[int, list[int]]:
    """(query id, answer symbols)."""
    if len(payload) < _PAIR.size:
        raise TransportError("truncated answer")
    query_id, n = _PAIR.unpack_from(payload)
    _check_end(_PAIR.size + n, payload, "answer", TransportError)
    return query_id, list(payload[_PAIR.size :])


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
