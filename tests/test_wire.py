import ast
import hashlib
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import privset
from conftest import answer_block
from privset import block_scheme, table_scheme, wire
from privset.field import pack, unpack
from privset.params import SchemeParams
from privset.psi import EntityConfig, run_psi
from privset.storage import CommonRandomnessPool, MessageStore
from privset.transport import make_entity_servers, provision_cr
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
    """(query payloads, answer payloads) of seeded intersection runs."""
    records = [rec for res in seeded_runs() for db in res.transcript.records for rec in db]
    return [q for q, _ in records], [a for _, a in records]


def seeded_table_bodies():
    t1 = table_scheme.build_query_table(SchemeParams(K=3, P=1, N=3), (0,), Random(5))
    t2 = table_scheme.build_query_table(SchemeParams(K=5, P=3, N=2), (0, 1, 2), Random(5), reps=1)
    return t1.wire_queries() + t2.wire_queries()


def server_errors():
    store = MessageStore.from_bits([1, 0, 1])
    bare, provisioned = make_entity_servers(store, 2, {"K": 3})
    provision_cr([provisioned], CommonRandomnessPool.generate(2, 2, seed=0), 2)
    frames = [
        (bare, 42, b""),
        (bare, wire.MSG_CR_PROVISION, b""),
        (bare, MSG_QUERY, wire.encode_query(0, bytes([2, 0, 0, 0, 0]))),
        (provisioned, MSG_QUERY, b"\x00\x00"),
        (provisioned, MSG_QUERY, wire.encode_query(1, bytes([9]))),
        (provisioned, MSG_QUERY, wire.encode_query(2, wire.encode_block_query([(5, 3, 0b101)], 2))),
        (provisioned, MSG_QUERY, wire.encode_query(3, wire.encode_block_query([(0, 2, 0b01)], 2))),
        (provisioned, MSG_QUERY, wire.encode_query(4, bytes([2, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0b1101]))),
    ]
    out = []
    for srv, mtype, payload in frames:
        rtype, body = srv.handle_client_frame(mtype, payload)
        assert rtype == MSG_ERROR
        out.append(body)
    return out


def test_encode_inverts_parse_on_seeded_payloads():
    queries, answers = seeded_traffic()
    assert {wire.parse_query(q)[1][0] for q in queries} == {wire.BLOCK_QUERY_TAG, wire.DOWNLOAD_ALL_TAG}
    for payload in queries:
        qid, body = wire.parse_query(payload)
        assert wire.encode_query(qid, body) == payload
        if body[0] == wire.BLOCK_QUERY_TAG:
            assert wire.encode_block_query(wire.parse_block_query(body, 2), 2) == body
        else:
            wire.parse_download_all(body)
            assert wire.encode_download_all() == body
    for payload in answers:
        assert wire.encode_answer(*wire.parse_answer(payload)) == payload
    for body in seeded_table_bodies():
        assert wire.encode_table_query(*wire.parse_table_query(body)) == body
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
    bodies = [wire.parse_query(q)[1] for q in queries] + seeded_table_bodies()
    parsers = {
        wire.BLOCK_QUERY_TAG: lambda b: wire.parse_block_query(b, 2),
        wire.TABLE_QUERY_TAG: wire.parse_table_query,
        wire.DOWNLOAD_ALL_TAG: wire.parse_download_all,
    }
    for body in bodies[:4] + bodies[-2:]:
        parse = parsers[body[0]]
        for cut in range(len(body)):
            with pytest.raises(ProtocolFault):
                parse(body[:cut])
        with pytest.raises(ProtocolFault):
            parse(body + b"\x00")
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
    with pytest.raises(TransportError):
        wire.parse_frame(b"PSI1")
    for payload in (b"[1]", b"7", b"\xff", b"{", b""):
        with pytest.raises(TransportError, match="setup reply is not a JSON object"):
            wire.parse_setup(payload)
    empty = wire.encode_transcript({}, [])
    for data in (empty[:-1], empty + b"\x00", empty[1:], wire.TRANSCRIPT_HEADER + b"\x02\x00\x00\x00[]"):
        with pytest.raises(TransportError):
            wire.parse_transcript(data)


def test_block_body_layout():
    # tag, entry count, then per entry: pool id, vector length, the packed vector;
    # over F_3 one byte per coefficient
    body = wire.encode_block_query([(5, 3, pack([2, 0, 1], 3))], 3)
    u32 = lambda n: n.to_bytes(4, "little")  # noqa: E731
    assert body == bytes([2]) + u32(1) + u32(5) + u32(3) + bytes([2, 0, 1])
    assert wire.parse_block_query(body, 3) == [(5, 3, 0x010002)]
    # over F_2 one bit per coefficient, coefficient i in bit i, the last byte zero-padded
    body = wire.encode_block_query([(5, 10, 0b10_0000_0101)], 2)
    assert body == bytes([2]) + u32(1) + u32(5) + u32(10) + bytes([0b101, 0b10])
    assert wire.parse_block_query(body, 2) == [(5, 10, 0b10_0000_0101)]


def test_table_body_layout():
    # tag, plain count, plain pool ids, sum count, then per sum: term count,
    # one u32 coordinate m*L + s per term, the masking pool id
    body = wire.encode_table_query([4], [([1, 4], 1)])
    u32 = lambda n: n.to_bytes(4, "little")  # noqa: E731
    assert body == bytes([1]) + u32(1) + u32(4) + u32(1) + bytes([2]) + u32(1) + u32(4) + u32(1)
    assert wire.parse_table_query(body) == ((4,), (((1, 4), 1),))


def test_parsers_check_the_bounds_they_are_given():
    block = wire.encode_block_query([(0, 3, 0b101), (3, 3, 0b110)], 2)
    assert wire.parse_block_query(block, 2, 3, 4) == [(0, 3, 0b101), (3, 3, 0b110)]
    with pytest.raises(ProtocolFault, match="vector length"):
        wire.parse_block_query(block, 2, 4)
    with pytest.raises(ProtocolFault, match="slot 3"):
        wire.parse_block_query(block, 2, 3, 3)
    # terms (0, 1) and (2, 0) of a K=3, L=2 store: coordinates 1 and 4
    table = wire.encode_table_query([4], [([1, 4], 1)])
    assert wire.parse_table_query(table, 6, 5) == wire.TableQuery((4,), (((1, 4), 1),))
    assert wire.parse_table_query(table, 5, 5) == wire.parse_table_query(table)
    with pytest.raises(ProtocolFault, match="missing symbol"):
        wire.parse_table_query(table, 4, 5)  # K=2, L=2
    with pytest.raises(ProtocolFault, match="missing symbol"):
        wire.parse_table_query(table, 3, 5)  # K=3, L=1
    with pytest.raises(ProtocolFault, match="slot 4"):
        wire.parse_table_query(table, 6, 4)
    with pytest.raises(ProtocolFault):
        wire.parse_table_query(block)


ALL_PARSERS = [
    wire.parse_frame,
    wire.parse_frame_header,
    wire.parse_query,
    lambda b: wire.parse_block_query(b, 2),
    lambda b: wire.parse_block_query(b, 2, 3, 2),
    lambda b: wire.parse_block_query(b, 5, 3, 2),
    wire.parse_table_query,
    lambda b: wire.parse_table_query(b, 3, 2),
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
    wire.encode_query(7, wire.encode_block_query([(0, 3, 0b101), (1, 3, 0b110)], 2)),
    wire.encode_query(6, wire.encode_block_query([(1, 11, 0b101_1010_0101), (0, 0, 0)], 2)),
    wire.encode_query(8, wire.encode_table_query([1], [([0, 2], 0)])),
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


packed_entries = st.lists(
    st.integers(0, 40).flatmap(
        lambda n: st.tuples(st.integers(0, 3), st.just(n), st.integers(0, (1 << n) - 1))
    ),
    max_size=4,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(packed_entries, st.integers(0, 63), st.integers(0, 255), st.integers(0, 200))
def test_fuzzed_packed_bodies_parse_back_or_fault(entries, pos, value, cut):
    body = wire.encode_block_query(entries, 2)
    assert wire.parse_block_query(body, 2) == entries
    mutated = _mutate(body, pos, value, cut)
    try:
        parsed = wire.parse_block_query(mutated, 2)
    except ProtocolFault:
        parsed = None
    if parsed is not None:
        assert wire.encode_block_query(parsed, 2) == mutated
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
        entries = wire.parse_block_query(body, q, KL, len(pool))
    except ProtocolFault as exc:
        return f"{type(exc).__name__}: {exc}"
    return [answer_block(unpack(vec, KL, q), store, pool.symbols[cr]) for cr, _, vec in entries]


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
        # one slot short: every database's body names the last block's slot, and the server refuses it
        short = CommonRandomnessPool(q, pool.symbols[:-1])
        for body in plan.wire_queries():
            assert "slot" in served_answer(body, store, short)
    assert answered and faulted


table_bodies = st.tuples(
    st.lists(st.integers(0, 2**32 - 1), max_size=4),
    st.lists(st.tuples(st.lists(st.integers(0, 2**32 - 1), max_size=5), st.integers(0, 2**32 - 1)), max_size=4),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table_bodies, st.integers(0, 63), st.integers(0, 255), st.integers(0, 200))
def test_fuzzed_table_bodies_parse_back_or_fault(query, pos, value, cut):
    plain_ids, sums = query
    body = wire.encode_table_query(plain_ids, sums)
    assert wire.parse_table_query(body) == (tuple(plain_ids), tuple((tuple(t), pid) for t, pid in sums))
    mutated = _mutate(body, pos, value, cut)
    try:
        parsed = wire.parse_table_query(mutated)
    except ProtocolFault:
        parsed = None
    if parsed is not None:
        assert wire.encode_table_query(*parsed) == mutated


def test_packed_parser_faults():
    body = wire.encode_block_query([(0, 10, 0b11_0000_0001), (1, 10, 0b1)], 2)
    for cut in range(len(body)):
        with pytest.raises(ProtocolFault):
            wire.parse_block_query(body[:cut], 2)
    with pytest.raises(ProtocolFault, match="trailing"):
        wire.parse_block_query(body + b"\x00", 2)
    for vec_len in (9, 11, 16):
        with pytest.raises(ProtocolFault, match="vector length"):
            wire.parse_block_query(body, 2, vec_len)
    # each of the 6 padding bits past coefficient 9 of the first entry's second byte
    for bit in range(2, 8):
        padded = bytearray(body)
        padded[1 + 4 + 8 + 1] |= 1 << bit
        with pytest.raises(ProtocolFault, match="padding"):
            wire.parse_block_query(bytes(padded), 2)
    # the same bytes read over F_3 are one byte per coefficient: too short for length 10
    with pytest.raises(ProtocolFault):
        wire.parse_block_query(body, 3)


def test_block_answer_matches_reference_evaluation():
    plan = block_scheme.plan_blocks(SchemeParams(K=6, P=2, N=3, L=2), (1, 4), Random(3))
    store = MessageStore.generate(6, 2, 2, seed=1)
    pool = CommonRandomnessPool.generate(plan.pool_size_required(), 2, seed=2)
    for db in range(3):
        want = [
            answer_block(unpack(bq.vector, 12, 2), store, pool.symbols[bq.block])
            for bq in plan.queries[db]
        ]
        assert block_scheme.answer_wire_query(plan.wire_query(db), store, pool) == want


@pytest.mark.parametrize("KL", [1, 7, 8, 9, 64, 1000])
def test_packed_f2_answer_matches_the_explicit_loop(KL):
    rng = Random(KL)
    for K, L in ((KL, 1), (1, KL)):
        store = MessageStore(2, L, [rng.randrange(2) for _ in range(K * L)])
        pool = CommonRandomnessPool(2, [0, 1, 1])
        vectors = [0, (1 << KL) - 1, 1 << (KL - 1)] + [rng.getrandbits(KL) for _ in range(5)]
        entries = [(i % 3, KL, vec) for i, vec in enumerate(vectors)]
        want = [answer_block(unpack(vec, KL, 2), store, pool.symbols[cr]) for cr, _, vec in entries]
        assert block_scheme.answer_wire_query(wire.encode_block_query(entries, 2), store, pool) == want


def test_sim_and_tcp_runs_send_and_receive_the_same_bytes():
    e1 = EntityConfig(1, 40, 3, frozenset({1, 8, 9, 17, 30}))
    e2 = EntityConfig(2, 40, 3, frozenset(range(0, 40, 3)))
    sim = run_psi(e1, e2, backend="sim", seed_client=3, seed_cr=4)
    tcp = run_psi(e1, e2, backend="tcp", seed_client=3, seed_cr=4)
    assert sim.intersection == tcp.intersection == e1.elements & e2.elements
    assert sim.transcript.records == tcp.transcript.records
    assert wire.encode_transcript(sim.transcript.meta, sim.transcript.records) == wire.encode_transcript(
        tcp.transcript.meta, tcp.transcript.records
    )
    # one bit per coefficient: a K=40 vector travels as 5 bytes
    _, body = wire.parse_query(sim.transcript.records[0][0][0])
    assert len(body) == 1 + 4 + len(wire.parse_block_query(body, 2)) * (8 + 5)


# SHA-256 over the joined payloads of seeded runs. A deliberate change to a
# byte layout or to a scheme's draws updates these values and says why.
# The table values changed when a table term became one u32 coordinate m*L + s
# instead of a (message u8, position u32) pair.
GOLDEN_WIRE_DIGESTS = {
    "table K=3 P=1 N=3": "ca1d1afa3757fd1958a997a378f868bcda030e6de0568afcc868578f951b5220",
    "table K=5 P=3 N=2 reps=1": "08e600f58c81f4612ea97154bbf44ef57d838179108d1ae7710be24ec11d314e",
    "block K=6 P=2 N=3 L=2": "2681b6fb5d9410f14db65904d113dd752e79a5fb30743f50d21640de77c732ce",
    "block K=6 P=2 N=3 L=2 q=5": "ba2bca2fdca62453e7a79452f0bd2e4c0ab8cb79657cb1809545556749d22c8c",
    "flagship transcript": "682da3a548729fce8828cc8d89d1ad631a9afc52ca6e32f741f6bcd8ec7ce6b3",
}


def test_seeded_wire_bytes_match_the_golden_digests():
    def digest(payloads):
        return hashlib.sha256(b"".join(payloads)).hexdigest()

    flagship = run_psi(E1, E2, seed_client=11, seed_cr=22).transcript
    got = {
        "table K=3 P=1 N=3": digest(
            table_scheme.build_query_table(SchemeParams(K=3, P=1, N=3), (0,), Random(0)).wire_queries()
        ),
        "table K=5 P=3 N=2 reps=1": digest(
            table_scheme.build_query_table(SchemeParams(K=5, P=3, N=2), (0, 1, 2), Random(0), reps=1).wire_queries()
        ),
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
    # One wire codec: every byte layout lives in privset/wire.py.
    importers = set()
    for path in Path(privset.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            if any(name.split(".")[0] == "struct" for name in names):
                importers.add(path.name)
    assert importers == {"wire.py"}
