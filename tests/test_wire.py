import ast
import hashlib
import struct
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import privset
from conftest import answer_block, connected, lanes, read_frames
from privset import audit, block_scheme, wire
from privset.field import pack, to_lane_bytes, unpack
from privset.params import SchemeParams
from privset.psi import EntityConfig, entity_servers, run_psi
from privset.storage import CommonRandomnessPool, MessageStore
from privset.transport import (
    make_entity_servers,
    provision_cr,
    replay_answers,
)
from privset.wire import MSG_ANSWER, MSG_ERROR, MSG_QUERY, ProtocolFault, TransportError

E1 = EntityConfig(1, 10, 2, frozenset({0, 1, 2, 3}))
E2 = EntityConfig(2, 10, 2, frozenset({0, 2, 4, 5, 6, 7}))


def seeded_runs():
    return [
        run_psi(E1, E2, seed_client=11, seed_cr=22),
        run_psi(EntityConfig(1, 6, 2, frozenset(range(6))), EntityConfig(2, 6, 2, frozenset({1, 2, 4, 5}))),
        run_psi(EntityConfig(1, 12, 3, frozenset({2, 5, 7})), EntityConfig(2, 12, 3, frozenset(range(1, 12))),
                seed_client=4, seed_cr=5),
    ]


def seeded_traffic():
    """((K, query payload) pairs, answer payloads) of seeded intersection runs."""
    records = [(res.transcript.meta["K"], rec) for res in seeded_runs() for db in res.transcript.records for rec in db]
    return [(K, q) for K, (q, _) in records], [a for _, (_, a) in records]


def server_errors():
    store = MessageStore.from_bits([1, 0, 1])
    bare, provisioned = make_entity_servers(store, 2, {"K": 3})
    provision_cr([provisioned], CommonRandomnessPool.generate(2, 2, seed=0), 2)
    frames = [
        (bare, 42, b""),
        (bare, wire.MSG_CR_PROVISION, b""),
        (bare, MSG_QUERY, wire.encode_query(0, wire.encode_block_query(1, [], 3, 2))),
        (provisioned, MSG_QUERY, b"\x00\x00"),
        (provisioned, MSG_QUERY, wire.encode_query(1, bytes([9]))),
        (provisioned, MSG_QUERY, wire.encode_query(2, wire.encode_block_query(5, lanes([0b101], 3), 3, 2))),
        (provisioned, MSG_QUERY, wire.encode_query(3, wire.encode_block_query(0, lanes([0b01], 9), 9, 2))),
        (provisioned, MSG_QUERY, wire.encode_query(4, bytes([2, 0, 0, 0, 0, 1, 0, 0, 0, 0b1101]))),
    ]
    out = []
    for srv, mtype, payload in frames:
        rtype, body = srv.handle_client_frame(mtype, payload)
        assert rtype == MSG_ERROR
        out.append(body)
    return out


def test_encode_inverts_parse_on_seeded_payloads():
    queries, answers = seeded_traffic()
    assert {wire.parse_query(q)[1][0] for _, q in queries} == {wire.BLOCK_QUERY_TAG, wire.DOWNLOAD_ALL_TAG}
    for K, payload in queries:
        qid, body = wire.parse_query(payload)
        assert wire.encode_query(qid, body) == payload
        if body[0] == wire.BLOCK_QUERY_TAG:
            assert wire.encode_block_query(*wire.parse_block_query(body, 2, K), K, 2) == body
        else:
            wire.parse_download_all(body)
            assert wire.encode_download_all() == body
    for payload in answers:
        assert wire.encode_answer(*wire.parse_answer(payload)) == payload
    for payload in server_errors():
        assert wire.encode_error(*wire.parse_error(payload)) == payload
    setup = wire.encode_setup({"entity": 2, "K": 10, "P": 6, "N": 2})
    assert wire.encode_setup(wire.parse_setup(setup)) == setup
    for res in seeded_runs():
        data = wire.encode_transcript(res.transcript.meta, res.transcript.records)
        assert wire.parse_transcript(data) == (res.transcript.meta, res.transcript.records)
        assert wire.encode_transcript(*wire.parse_transcript(data)) == data


def test_every_truncation_and_trailing_byte_is_a_fault():
    queries, answers = seeded_traffic()
    bodies = [(K, wire.parse_query(q)[1]) for K, q in queries[:4]]
    parsers = {
        wire.BLOCK_QUERY_TAG: lambda b, K: wire.parse_block_query(b, 2, K),
        wire.DOWNLOAD_ALL_TAG: lambda b, K: wire.parse_download_all(b),
    }
    for K, body in bodies:
        parse = parsers[body[0]]
        for cut in range(len(body)):
            with pytest.raises(ProtocolFault):
                parse(body[:cut], K)
        with pytest.raises(ProtocolFault):
            parse(body + b"\x00", K)
    for payload in answers[:3]:
        for cut in range(len(payload)):
            with pytest.raises(TransportError):
                wire.parse_answer(payload[:cut])
        with pytest.raises(TransportError):
            wire.parse_answer(payload + b"\x00")


def test_client_side_parsers_raise_transport_errors():
    with pytest.raises(TransportError):
        wire.parse_error(b"\x01")
    with pytest.raises(TransportError):
        wire.parse_error(b"\x03\x00\xff")
    with pytest.raises(TransportError):
        wire.parse_answer(b"\x00\x00")
    for header in (b"PSI2\x03\x01\x00\x00\x00\x00", b"PSI1\x00\x01\x00\x00\x00\x00"):
        with pytest.raises(TransportError):
            read_frames(header)
    for payload in (b"[1]", b"7", b"\xff", b"{", b""):
        with pytest.raises(TransportError, match="setup reply is not a JSON object"):
            wire.parse_setup(payload)
    empty = wire.encode_transcript({}, [])
    for data in (empty[:-1], empty + b"\x00", empty[1:], wire.TRANSCRIPT_HEADER + b"\x02\x00\x00\x00[]"):
        with pytest.raises(TransportError):
            wire.parse_transcript(data)


def test_block_body_layout():
    # tag, first slot, entry count, then per entry the packed vector alone:
    # entry i sits on slot first + i, and the vector length K*L is known to
    # both sides and not carried; over F_3 one byte per coefficient
    body = wire.encode_block_query(5, [to_lane_bytes(pack([2, 0, 1], 3), 3, 3)], 3, 3)
    u32 = lambda n: n.to_bytes(4, "little")  # noqa: E731
    assert body == bytes([2]) + u32(5) + u32(1) + bytes([2, 0, 1])
    assert wire.parse_block_query(body, 3, 3) == (5, [(0x010002).to_bytes(3, "little")])
    # over F_2 one bit per coefficient, coefficient i in bit i, the last byte zero-padded
    body = wire.encode_block_query(5, lanes([0b10_0000_0101, 0b1], 10), 10, 2)
    assert body == bytes([2]) + u32(5) + u32(2) + bytes([0b101, 0b10]) + bytes([1, 0])
    assert wire.parse_block_query(body, 2, 10) == (5, lanes([0b10_0000_0101, 0b1], 10))
    assert wire.encode_block_query(7, [], 10, 2) == bytes([2]) + u32(7) + u32(0)
    with pytest.raises(ValueError, match="takes 2 bytes"):  # each vector is exactly its wire bytes
        wire.encode_block_query(5, [bytes(2), bytes(3)], 10, 2)
    assert wire.parse_block_query(bytes([2]) + u32(7) + u32(0), 2, 10) == (7, [])


def test_parsers_check_the_bounds_they_are_given():
    block = wire.encode_block_query(2, lanes([0b101, 0b110], 3), 3, 2)  # slots 2 and 3
    assert wire.parse_block_query(block, 2, 3, 4) == (2, lanes([0b101, 0b110], 3))
    with pytest.raises(ProtocolFault, match="truncated"):  # 9 coefficients take 2 bytes, not 1
        wire.parse_block_query(block, 2, 9)
    with pytest.raises(ProtocolFault, match="padding"):  # 0b101 and 0b110 set a bit past coefficient 1
        wire.parse_block_query(block, 2, 2)
    with pytest.raises(ProtocolFault, match="slot 3"):
        wire.parse_block_query(block, 2, 3, 3)
    with pytest.raises(ProtocolFault, match="slot 1 outside"):  # an empty run past the pool names no slot in it
        wire.parse_block_query(wire.encode_block_query(2, [], 3, 2), 2, 3, 1)


ALL_PARSERS = [
    read_frames,
    lambda b: read_frames(b, 8),
    wire.parse_query,
    lambda b: wire.parse_block_query(b, 2, 11),
    lambda b: wire.parse_block_query(b, 2, 0),
    lambda b: wire.parse_block_query(b, 2, 3, 2),
    lambda b: wire.parse_block_query(b, 5, 3, 2),
    wire.parse_download_all,
    wire.parse_answer,
    wire.parse_error,
]


def _mutate(payload: bytes, pos: int, value: int, cut: int) -> bytes:
    data = bytearray(payload[:cut] if cut < len(payload) else payload)
    if data:
        data[pos % len(data)] = value
    return bytes(data)


_VALID_QUERIES = [
    wire.encode_query(7, wire.encode_block_query(0, lanes([0b101, 0b110], 3), 3, 2)),
    wire.encode_query(6, wire.encode_block_query(1, lanes([0b101_1010_0101, 0], 11), 11, 2)),
    # a body with the reserved table tag, laid out as one was: plain id 1, then one sum of coordinates 0 and 2 on id 0
    wire.encode_query(8, struct.pack("<BIIIBIII", wire.TABLE_QUERY_TAG, 1, 1, 1, 2, 0, 2, 0)),
    wire.encode_query(9, wire.encode_download_all()),
]

payloads = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda tag, rest: b"\x00\x00\x00\x00" + bytes([tag]) + rest, st.integers(0, 4), st.binary(max_size=64)),
    st.builds(_mutate, st.sampled_from(_VALID_QUERIES), st.integers(0, 63), st.integers(0, 255), st.integers(0, 64)),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(payloads)
def test_fuzzed_queries_get_an_answer_or_an_error(payload):
    store = MessageStore.from_bits([1, 0, 1])
    bare, provisioned = make_entity_servers(store, 2, {"K": 3})
    provision_cr([provisioned], CommonRandomnessPool.generate(2, 2, seed=0), 2)
    for srv in (bare, provisioned):
        rtype, body = srv.handle_client_frame(MSG_QUERY, payload)
        assert rtype in (MSG_ANSWER, MSG_ERROR)
        if rtype == MSG_ANSWER:
            wire.parse_answer(body)
        else:
            wire.parse_error(body)
    for parse in ALL_PARSERS:
        for data in (payload, payload[4:]):
            try:
                parse(data)
            except ProtocolFault:
                pass


frames = st.lists(st.tuples(st.integers(0, 255), st.binary(max_size=40)), max_size=6)
BAD_HEADERS = {
    "over the limit": wire.encode_frame(wire.MSG_QUERY, b"")[:6] + (41).to_bytes(4, "little"),
    "bad magic": b"PSI2" + wire.encode_frame(wire.MSG_QUERY, b"")[4:],
    "bad version": wire.encode_frame(wire.MSG_QUERY, b"")[:4] + bytes([wire.VERSION + 1, 3, 0, 0, 0, 0]),
}


@settings(max_examples=300, deadline=None)
@given(frames, st.sampled_from([None, *BAD_HEADERS]), st.lists(st.integers(0, 400), max_size=8), st.binary(max_size=40))
def test_any_chunking_of_a_frame_stream_reads_back_its_frames(sent, bad, cuts, rest):
    # the frames, then optionally a bad header and whatever follows it, cut at
    # arbitrary points: a reader yields exactly the frames, and raises as soon
    # as the bad header's last byte is fed, never earlier
    data = b"".join(wire.encode_frame(*frame) for frame in sent)
    bad_end = len(data) + len(wire.encode_frame(0, b""))
    if bad is not None:
        data += BAD_HEADERS[bad] + rest
    bounds = sorted({0, len(data), *(min(cut, len(data)) for cut in cuts)})
    reader, got = wire.FrameReader(), []

    def drain():
        while (frame := reader.next_frame(40)) is not None:
            got.append(frame)

    for start, end in zip(bounds, bounds[1:]):
        reader.feed(data[start:end])
        if bad is not None and end >= bad_end:
            with pytest.raises(ProtocolFault if bad == "over the limit" else TransportError):
                drain()
            break
        drain()
    else:
        assert bad is None
    assert got == sent


def test_only_a_partial_last_byte_has_padding_to_refuse():
    # Every bit of every vector byte set: over F_2 the body is refused exactly
    # when the length is not a multiple of 8; over F_3 every lane is a whole byte.
    for length in range(1, 26):
        size = (length + 7) // 8
        body = bytes([wire.BLOCK_QUERY_TAG]) + struct.pack("<II", 0, 2) + b"\xff" * (2 * size)
        if length % 8:
            with pytest.raises(ProtocolFault, match="padding bits set past the last coefficient"):
                wire.parse_block_query(body, 2, length)
        else:
            assert wire.parse_block_query(body, 2, length) == (0, lanes([(1 << length) - 1] * 2, length))
        body = bytes([wire.BLOCK_QUERY_TAG]) + struct.pack("<II", 0, 2) + b"\xff" * (2 * length)
        assert wire.parse_block_query(body, 3, length) == (0, lanes([(1 << 8 * length) - 1] * 2, length, 3))


packed_runs = st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, 3), st.lists(st.integers(0, (1 << n) - 1), max_size=4))
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(packed_runs, st.integers(0, 63), st.integers(0, 255), st.integers(0, 200))
def test_fuzzed_packed_bodies_parse_back_or_fault(shape, pos, value, cut):
    n, first, vectors = shape
    vectors = lanes(vectors, n)
    body = wire.encode_block_query(first, vectors, n, 2)
    assert wire.parse_block_query(body, 2, n) == (first, vectors)
    mutated = _mutate(body, pos, value, cut)
    try:
        parsed = wire.parse_block_query(mutated, 2, n)
    except ProtocolFault:
        parsed = None
    if parsed is not None:
        assert wire.encode_block_query(*parsed, n, 2) == mutated
    else:  # refused only for its tag, its size against its count, or a padding bit (n not a multiple of 8)
        count = int.from_bytes(mutated[5:9], "little")
        assert mutated[:1] != b"\x02" or len(mutated) != 9 + count * ((n + 7) // 8) or n % 8
    store = MessageStore.from_bits([1, 0, 1])
    (srv,) = make_entity_servers(store, 1, {"K": 3})
    provision_cr([srv], CommonRandomnessPool.generate(4, 2, seed=0), 4)
    rtype, reply = srv.handle_client_frame(MSG_QUERY, wire.encode_query(0, mutated))
    assert rtype in (MSG_ANSWER, MSG_ERROR)


def served_answer(body: bytes, store: MessageStore, pool: CommonRandomnessPool):
    """The served block answer, or its fault message."""
    try:
        return block_scheme.answer_wire_query(body, store, pool)
    except ProtocolFault as exc:
        return f"{type(exc).__name__}: {exc}"


def reference_answer(body: bytes, store: MessageStore, pool: CommonRandomnessPool):
    """``answer_block`` over the server's parse, or the parse's fault message."""
    KL, q = store.K * store.L, store.q
    try:
        first, vectors = wire.parse_block_query(body, q, KL, len(pool))
    except ProtocolFault as exc:
        return f"{type(exc).__name__}: {exc}"
    return [
        answer_block(unpack(int.from_bytes(vec, "little"), KL, q), store, pool.symbols[first + i])
        for i, vec in enumerate(vectors)
    ]


@pytest.mark.parametrize("q", [2, 3])
def test_the_served_answer_is_the_reference_on_seeded_bodies(q):
    rng = Random(q)
    params = SchemeParams(K=7, P=3, N=3, L=2, q=q)
    store = MessageStore.generate(params.K, params.L, q, seed=q)
    answered = faulted = 0
    for seed in range(20):
        plan = block_scheme.plan_blocks(params, rng.sample(range(params.K), params.P), Random(seed))
        pool = CommonRandomnessPool.generate(plan.n_blocks, q, seed=seed)
        for body in plan.wire_queries():
            assert served_answer(body, store, pool) == reference_answer(body, store, pool)
            mutated = _mutate(body, rng.randrange(64), rng.randrange(256), rng.randrange(len(body) + 8))
            served = served_answer(mutated, store, pool)
            assert served == reference_answer(mutated, store, pool)
            answered += isinstance(served, list)
            faulted += isinstance(served, str)
        # one slot short: every database's run reaches the last block's slot, and the server refuses it
        short = CommonRandomnessPool(q, pool.symbols[:-1])
        for body in plan.wire_queries():
            assert "slot" in served_answer(body, store, short)
    assert answered and faulted


def test_packed_parser_faults():
    body = wire.encode_block_query(0, lanes([0b11_0000_0001, 0b1], 10), 10, 2)
    for cut in range(len(body)):
        with pytest.raises(ProtocolFault):
            wire.parse_block_query(body[:cut], 2, 10)
    with pytest.raises(ProtocolFault, match="trailing"):
        wire.parse_block_query(body + b"\x00", 2, 10)
    # the count says 2 entries of 2 bytes; any other size is refused by name
    with pytest.raises(ProtocolFault, match="trailing"):
        wire.parse_block_query(body, 2, 8)  # 8 coefficients take 1 byte
    with pytest.raises(ProtocolFault, match="truncated"):
        wire.parse_block_query(body, 2, 17)  # 17 take 3
    with pytest.raises(ProtocolFault, match="padding"):
        wire.parse_block_query(body, 2, 9)  # 9 take 2, but the first vector sets coefficient 9
    # each of the 6 padding bits past coefficient 9 of the first entry's second byte
    for bit in range(2, 8):
        padded = bytearray(body)
        padded[1 + 4 + 4 + 1] |= 1 << bit  # tag, first slot, count, then the vector's first byte
        with pytest.raises(ProtocolFault, match="padding"):
            wire.parse_block_query(bytes(padded), 2, 10)
    # the same bytes read over F_3 are one byte per coefficient: too short for length 10
    with pytest.raises(ProtocolFault, match="truncated"):
        wire.parse_block_query(body, 3, 10)
    # a vector of no coefficients takes no bytes, so its count would bound nothing
    with pytest.raises(ProtocolFault, match="at least one coefficient"):
        wire.parse_block_query(bytes([2]) + bytes(4) + (2**32 - 1).to_bytes(4, "little"), 2, 0)


@pytest.mark.parametrize("backend", ["sim", "tcp"])
def test_a_served_database_refuses_every_block_body_whose_size_does_not_match_its_count(backend):
    # K=10: an entry is 2 vector bytes, so a body of count n is exactly
    # 9 + 2n bytes; every other size is ERR_BAD_QUERY.  A 16-slot pool puts
    # every payload here within the served frame bound (45 bytes), so each
    # one is read and parsed on one connection.
    servers = entity_servers(EntityConfig(2, 10, 1, frozenset({1, 4})), 16, 0)
    assert servers[0].max_payload() == 45
    with connected(servers, backend) as link:
        for n in range(4):
            for size in range(1, 30):
                body = (bytes([2]) + bytes(4) + n.to_bytes(4, "little") + bytes(size))[:size]
                mtype, reply = link.roundtrip(0, MSG_QUERY, wire.encode_query(size, body))
                if size == 9 + 2 * n:
                    assert mtype == MSG_ANSWER and wire.parse_answer(reply) == (size, list(servers[0].pool.symbols[:n]))
                else:
                    assert mtype == MSG_ERROR and wire.parse_error(reply)[0] == wire.ERR_BAD_QUERY, (n, size)


@pytest.mark.parametrize("backend", ["sim", "tcp"])
def test_one_body_cannot_reuse_a_slot(backend):
    # The slot-reuse repro against a served responder (K=12, set {1,4,5,9}):
    # a zero vector and the K unit vectors, meant to share slot 0 so that each
    # unit answer XOR the zero answer is one bit of the set.  Written as one
    # body, they land on K + 1 distinct slots, and the view pins nothing.
    K, elements = 12, frozenset({1, 4, 5, 9})
    servers = entity_servers(EntityConfig(2, K, 2, elements), 1024, 6)
    symbols = servers[0].pool.symbols
    vectors = lanes([0] + [1 << t for t in range(K)], K)
    body = wire.encode_block_query(0, vectors, K, 2)
    assert wire.parse_block_query(body, 2, K) == (0, vectors)
    with connected(servers, backend) as link:
        mtype, reply = link.roundtrip(0, MSG_QUERY, wire.encode_query(0, body))
    assert mtype == MSG_ANSWER
    zero, *units = wire.parse_answer(reply)[1]
    assert zero == symbols[0]
    assert units == [int(t in elements) ^ symbols[1 + t] for t in range(K)]  # each bit under a mask of its own
    span = audit.recoverable_coordinates([body], K, len(symbols), 2, ())
    assert span.coordinates == frozenset() and span.undesired == ()


@pytest.mark.parametrize("backend", ["sim", "tcp"])
def test_only_a_database_without_shared_randomness_answers_download_all(backend):
    # The download-all repro against a served responder (K=12, set {1,4,5,9}):
    # one 1-byte body would be answered with the whole incidence vector.  With
    # the 1024 slots psi serve provisions by default, every database refuses it,
    # as the audit's parser does; one provisioned with an empty pool, which
    # can serve nothing else, still answers it.
    K, elements = 12, frozenset({1, 4, 5, 9})
    body = wire.encode_download_all()
    servers = entity_servers(EntityConfig(2, K, 2, elements), 1024, 6)
    with connected(servers, backend) as link:
        for db in range(2):
            mtype, reply = link.roundtrip(db, MSG_QUERY, wire.encode_query(0, body))
            assert mtype == MSG_ERROR
            assert wire.parse_error(reply) == (
                wire.ERR_BAD_QUERY, "download-all is not served by a database holding 1024 shared randomness slots"
            )
    with pytest.raises(ProtocolFault, match="download-all is not served"):
        audit.recoverable_coordinates([body], K, 1024, 2, ())
    with connected(entity_servers(EntityConfig(2, K, 2, elements), 0, 6), backend) as link:
        mtype, reply = link.roundtrip(0, MSG_QUERY, wire.encode_query(0, body))
    assert mtype == MSG_ANSWER and wire.parse_answer(reply)[1] == [int(t in elements) for t in range(K)]


def test_a_result_forward_names_the_elements_in_ascending_order():
    assert wire.encode_result({10, 0, 9}) == b"0,9,10" and wire.encode_result(()) == b""
    assert [wire.result_size(K) for K in (1, 10, 11, 101)] == [1, 19, 22, 293]
    decades = [10**d + e for d in range(6) for e in (-1, 0, 1)]
    for K in [*range(2001), *decades, 16384]:
        assert wire.result_size(K) == len(wire.encode_result(range(K))), K


@pytest.mark.parametrize("backend", ["sim", "tcp"])
def test_a_full_set_initiator_downloads_all_from_an_empty_pool(backend):
    # P = K needs no shared randomness: run_psi provisions D - P = 0 symbols,
    # and the replay with that empty pool passes; a pool of one slot refuses it.
    # The initiator's one database leaves the other direction no scheme.
    K, elements = 12, frozenset({1, 4, 5, 9})
    responder = EntityConfig(2, K, 2, elements)
    result = run_psi(EntityConfig(1, K, 1, frozenset(range(K))), responder, backend=backend, seed_client=3, seed_cr=4)
    assert (result.intersection, result.initiator) == (elements, 1)
    assert result.download_symbols == result.optimal_cost == K
    assert [[wire.parse_query(qry)[1] for qry, _ in db] for db in result.transcript.records] == [[wire.encode_download_all()], []]
    assert replay_answers(result.transcript, entity_servers(responder, 0, 4))
    assert not replay_answers(result.transcript, entity_servers(responder, 1, 4))


def test_block_answer_matches_reference_evaluation():
    plan = block_scheme.plan_blocks(SchemeParams(K=6, P=2, N=3, L=2), (1, 4), Random(3))
    store = MessageStore.generate(6, 2, 2, seed=1)
    pool = CommonRandomnessPool.generate(plan.n_blocks, 2, seed=2)
    for db in range(3):
        want = [
            answer_block(unpack(int.from_bytes(bq.vector, "little"), 12, 2), store, pool.symbols[j])
            for j, bq in enumerate(plan.queries[db])
        ]
        assert block_scheme.answer_wire_query(plan.wire_query(db), store, pool) == want


@pytest.mark.parametrize("KL", [1, 7, 8, 9, 64, 1000])
def test_packed_f2_answer_matches_the_explicit_loop(KL):
    rng = Random(KL)
    for K, L in ((KL, 1), (1, KL)):
        store = MessageStore(2, L, [rng.randrange(2) for _ in range(K * L)])
        pool = CommonRandomnessPool(2, [0, 1, 1] * 3)
        vectors = [0, (1 << KL) - 1, 1 << (KL - 1)] + [rng.getrandbits(KL) for _ in range(5)]
        want = [answer_block(unpack(vec, KL, 2), store, pool.symbols[1 + i]) for i, vec in enumerate(vectors)]
        assert block_scheme.answer_wire_query(wire.encode_block_query(1, lanes(vectors, KL), KL, 2), store, pool) == want


def test_sim_and_tcp_runs_send_and_receive_the_same_bytes():
    for N in (2, 3):
        e1 = EntityConfig(1, 40, N, frozenset({1, 8, 9, 17, 30}))
        e2 = EntityConfig(2, 40, N, frozenset(range(0, 40, 3)))
        sim = run_psi(e1, e2, backend="sim", seed_client=3, seed_cr=4)
        tcp = run_psi(e1, e2, backend="tcp", seed_client=3, seed_cr=4)
        assert sim.intersection == tcp.intersection == e1.elements & e2.elements
        assert sim.transcript.records == tcp.transcript.records
        assert wire.encode_transcript(sim.transcript.meta, sim.transcript.records) == wire.encode_transcript(
            tcp.transcript.meta, tcp.transcript.records
        )
        # Upload guard: every query payload is its u32 id, the tag, first slot
        # and count, and per entry the K=40 vector in one bit per coefficient,
        # 5 bytes.  The entry count is the answer's symbol count.
        for run in (sim, tcp):
            sizes = [(len(qry), len(wire.parse_answer(ans)[1])) for db in run.transcript.records for qry, ans in db]
            assert len(sizes) == N and all(size == 4 + 9 + n * 5 for size, n in sizes)


# SHA-256 over the joined payloads of seeded runs. A deliberate change to a
# byte layout or to a scheme's draws updates these values and says why.
# The block values and the flagship transcript changed when a block body
# became one slot run (wire version 3): each new value is the version-2 bytes
# with every entry's u32 pool id cut and the run's u32 first slot inserted
# after the tag, and the transcript header renamed "PRIVSET-TRANSCRIPT v3".
# The table entries went with the table body layout: table queries are
# in-process views, pinned by tests/test_table_scheme.py's GOLDEN_BUILD_DIGEST.
GOLDEN_WIRE_DIGESTS = {
    "block K=6 P=2 N=3 L=2": "4e7b1fc71c0a2c0b5a444a52ce92ecfb95c0b9caeadc00fe737400d3ba89e924",
    "block K=6 P=2 N=3 L=2 q=5": "150e0922bce7a7f5882def202a28321b4ed7e86815ca74a1c4d542bfca764955",
    "flagship transcript": "8c6958e24b55c97248c7edf115d370de49cd97332350e33497eea122bdef346d",
}


def test_seeded_wire_bytes_match_the_golden_digests():
    def digest(payloads):
        return hashlib.sha256(b"".join(payloads)).hexdigest()

    flagship = run_psi(E1, E2, seed_client=11, seed_cr=22).transcript
    got = {
        "block K=6 P=2 N=3 L=2": digest(
            block_scheme.plan_blocks(SchemeParams(K=6, P=2, N=3, L=2), (1, 4), Random(0)).wire_queries()
        ),
        "block K=6 P=2 N=3 L=2 q=5": digest(
            block_scheme.plan_blocks(SchemeParams(K=6, P=2, N=3, L=2, q=5), (1, 4), Random(0)).wire_queries()
        ),
        "flagship transcript": digest([wire.encode_transcript(flagship.meta, flagship.records)]),
    }
    assert got == GOLDEN_WIRE_DIGESTS


def test_wire_is_the_only_module_that_imports_struct():
    # One wire codec: every byte layout lives in privset/wire.py.  An import
    # statement or an ``__import__``/``import_module`` call naming the module
    # counts, in any module of the package.
    importers = set()
    root = Path(privset.__file__).parent
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            if isinstance(node, ast.Call):
                func = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                if func in ("__import__", "import_module"):
                    names = [arg.value for arg in node.args[:1] if isinstance(arg, ast.Constant)]
            if any(str(name).split(".")[0] == "struct" for name in names):
                importers.add(str(path.relative_to(root)))
    assert importers == {"wire.py"}
