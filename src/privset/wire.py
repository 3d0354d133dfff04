"""Byte layout of every frame, query, answer and error the protocol sends,
and of the transcript file a run saves.

This is the only module that knows a layout.  Each format is one
``encode_*``/``parse_*`` pair with ``encode(parse(p)) == p`` for every
well-formed ``p``.  A parser raises ProtocolFault on anything else
(truncation, trailing bytes, a count that overruns the payload, a vector
length or reference outside the bounds it is given) and never struct.error
or IndexError, so a database can turn any client query into an answer or an
ERROR reply.  Frames, answers, errors and transcripts are what a client
reads; faults in them are TransportError, a ProtocolFault.

All integers are little-endian:

    frame         "PSI1" | version u8 | type u8 | length u32 | payload
    query         query id u32 | body
    table body    1 | n u32 | n x pool id u32 | m u32 | m x (t u8 | t x coordinate u32 | pool id u32)
                    a term's coordinate is m*L + s for symbol s of message m
    block body    2 | n u32 | n x (pool id u32 | length u32 | ceil(length * w / 8) bytes)
                    a packed vector: coefficient i in lane i, w = 1 bit over F_2, else 8
    download-all  3
    answer        query id u32 | n u32 | n x symbol u8
    error         code u16 | UTF-8 message
    transcript    "PRIVSET-TRANSCRIPT v1\n" | length u32 | JSON metadata
                    | n u32 | n x (m u32 | m x (length u32 | query | length u32 | answer))
"""

from __future__ import annotations

import json
import struct
from typing import NamedTuple, Sequence

from .field import lane_bits

MAGIC = b"PSI1"
VERSION = 1

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
_PAIR = struct.Struct("<II")  # block entry head (pool id, length); answer head (query id, count)
_SUM_FORMATS = [f"B{t + 1}I" for t in range(256)]  # t | t x coordinate | pool id

FRAME_HEADER_SIZE = _FRAME.size
TRANSCRIPT_HEADER = b"PRIVSET-TRANSCRIPT v1\n"


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


def _check_slots(pool_ids, pool_size: int | None) -> None:
    top = max(pool_ids, default=-1)
    if pool_size is not None and top >= pool_size:
        raise ProtocolFault(f"randomness slot {top} outside the provisioned pool")


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


def encode_query(query_id: int, body: bytes) -> bytes:
    return _U32.pack(query_id) + body


def parse_query(payload: bytes) -> tuple[int, bytes]:
    """(query id, scheme-tagged body); the body is at least its tag."""
    if len(payload) < _U32.size + 1:
        raise ProtocolFault("query too short")
    return _U32.unpack_from(payload)[0], payload[_U32.size :]


def _vector_bytes(length: int, lane: int) -> int:
    return (length * lane + 7) // 8


def encode_block_query(entries: Sequence[tuple[int, int, int]], q: int) -> bytes:
    """Block body from (pool id, length, packed vector) entries over F_q."""
    lane = lane_bits(q)
    out = [_U8.pack(BLOCK_QUERY_TAG), _U32.pack(len(entries))]
    for pool_id, length, vector in entries:
        out.append(_PAIR.pack(pool_id, length))
        out.append(vector.to_bytes(_vector_bytes(length, lane), "little"))
    return b"".join(out)


def parse_block_query(
    body: bytes, q: int, vec_len: int | None = None, pool_size: int | None = None
) -> list[tuple[int, int, int]]:
    """(pool id, length, packed vector) per entry of a body over F_q; optionally
    checks that every vector has ``vec_len`` coefficients and every pool id is
    below ``pool_size``.  Padding bits past the last F_2 coefficient must be 0."""
    _check_tag(body, BLOCK_QUERY_TAG)
    lane = lane_bits(q)
    entries = []
    try:
        (n,) = _U32.unpack_from(body, 1)
        off = 1 + _U32.size
        for _ in range(n):
            pool_id, length = _PAIR.unpack_from(body, off)
            if vec_len is not None and length != vec_len:
                raise ProtocolFault(f"query vector length {length} != {vec_len}")
            start = off + _PAIR.size
            off = start + _vector_bytes(length, lane)
            vector = int.from_bytes(body[start:off], "little")
            if vector >> length * lane:
                raise ProtocolFault("padding bits set past the last coefficient")
            entries.append((pool_id, length, vector))
    except struct.error:
        raise ProtocolFault("truncated query payload") from None
    _check_end(off, body, "query payload")
    _check_slots((pool_id for pool_id, _, _ in entries), pool_size)
    return entries


class TableQuery(NamedTuple):
    """A parsed table body: plainly served pool ids, then one entry per sum."""

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


def parse_table_query(body: bytes, n_coords: int | None = None, pool_size: int | None = None) -> TableQuery:
    """Parse a table body; optionally checks that every term's coordinate is
    below ``n_coords`` and every pool id is below ``pool_size``."""
    _check_tag(body, TABLE_QUERY_TAG)
    sums = []
    try:
        (n_plain,) = _U32.unpack_from(body, 1)
        plain_ids = struct.unpack_from(f"<{n_plain}I", body, 1 + _U32.size)
        off = 1 + _U32.size * (n_plain + 1)
        (n_sums,) = _U32.unpack_from(body, off)
        off += _U32.size
        for _ in range(n_sums):
            t = body[off]
            values = struct.unpack_from(f"<{t + 1}I", body, off + 1)  # t coordinates, then the pool id
            sums.append((values[:t], values[t]))
            off += 1 + _U32.size * (t + 1)
    except (struct.error, IndexError):
        raise ProtocolFault("truncated query payload") from None
    _check_end(off, body, "query payload")
    if n_coords is not None:
        top = max((max(terms, default=-1) for terms, _ in sums), default=-1)
        if top >= n_coords:
            raise ProtocolFault(f"query references missing symbol at coordinate {top}")
    _check_slots(plain_ids + tuple(pool_id for _, pool_id in sums), pool_size)
    return TableQuery(plain_ids, tuple(sums))


def encode_download_all() -> bytes:
    return _U8.pack(DOWNLOAD_ALL_TAG)


def parse_download_all(body: bytes) -> None:
    _check_tag(body, DOWNLOAD_ALL_TAG)
    if len(body) != 1:
        raise ProtocolFault("download-all query carries no arguments")


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
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    out = [TRANSCRIPT_HEADER, _U32.pack(len(meta_bytes)), meta_bytes, _U32.pack(len(records))]
    for db_records in records:
        out.append(_U32.pack(len(db_records)))
        for qry, ans in db_records:
            out += [_U32.pack(len(qry)), qry, _U32.pack(len(ans)), ans]
    return b"".join(out)


def parse_transcript(data: bytes) -> tuple[dict, list[list[tuple[bytes, bytes]]]]:
    """(metadata, per-database (query, answer) payloads) of a saved run."""
    if not data.startswith(TRANSCRIPT_HEADER):
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

    raw_meta = take(u32())
    try:
        meta = json.loads(raw_meta)
    except ValueError:
        meta = None
    if not isinstance(meta, dict):
        raise TransportError("transcript metadata is not a JSON object")
    records = [[(take(u32()), take(u32())) for _ in range(u32())] for _ in range(u32())]
    _check_end(off, data, "transcript", TransportError)
    return meta, records
