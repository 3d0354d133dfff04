import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from conftest import read_frames

from privset import block_scheme, table_scheme, transport, wire
from privset.field import DOMAIN_CLIENT, domain_rng
from privset.params import ParamError, SchemeParams
from privset.psi import EntityConfig, entity_servers, run_psi, run_psi_remote
from privset.storage import CommonRandomnessPool, MessageStore
from privset.table_scheme import ProtocolFault
from privset.transport import (
    DatabaseServer,
    InsufficientRandomness,
    SimBackend,
    TcpBackend,
    TcpServerPool,
    Transcript,
    make_entity_servers,
    provision_cr,
    replay_answers,
)
from privset.wire import (
    ERR_CHANNEL_SEPARATION,
    ERR_UNKNOWN_TYPE,
    MSG_ANSWER,
    MSG_CR_PROVISION,
    MSG_ERROR,
    MSG_QUERY,
    MSG_SETUP,
    TransportError,
    encode_download_all,
    encode_frame,
    parse_error,
)

E1 = EntityConfig(1, 10, 2, frozenset({0, 1, 2, 3}))
E2 = EntityConfig(2, 10, 2, frozenset({0, 2, 4, 5, 6, 7}))


def small_servers(n=2, bits=(1, 0, 1)):
    store = MessageStore.from_bits(list(bits))
    return make_entity_servers(store, n, {"K": len(bits), "N": n})


def recv_frame(sock: socket.socket, reader: wire.FrameReader | None = None) -> tuple[int, bytes]:
    """The next frame on ``sock``, read through ``reader`` as the client reads its replies."""
    reader = reader or wire.FrameReader()
    while (frame := reader.next_frame()) is None:
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise TransportError("connection closed mid-frame")
        reader.feed(chunk)
    return frame


def test_frame_roundtrip():
    frame = encode_frame(MSG_QUERY, b"hello")
    assert frame[:4] == b"PSI1"
    assert read_frames(frame) == [(MSG_QUERY, b"hello")]
    batch = frame + encode_frame(MSG_SETUP, b"") + frame
    assert read_frames(batch) == [(MSG_QUERY, b"hello"), (MSG_SETUP, b""), (MSG_QUERY, b"hello")]


OLD_VERSIONS = (1, 2)  # every frame version before wire.VERSION


def old_version(frame: bytes, version: int) -> bytes:
    """The frame as a peer of an earlier wire version sends it."""
    return frame[:4] + bytes([version]) + frame[5:]


def test_the_client_refuses_a_version_1_frame():
    # and a version-2 frame: each earlier version is refused by name
    assert OLD_VERSIONS == tuple(range(1, wire.VERSION))
    for version in OLD_VERSIONS:
        reply = old_version(encode_frame(MSG_SETUP, b'{"K": 3}'), version)
        with pytest.raises(TransportError, match=f"unsupported version {version}"):
            read_frames(reply)
        with socket.create_server(("127.0.0.1", 0)) as lsock:
            lsock.settimeout(5)

            def old_peer():
                conn, _ = lsock.accept()
                with conn:
                    recv_frame(conn)
                    conn.sendall(reply)

            t = threading.Thread(target=old_peer, daemon=True)
            t.start()
            backend = TcpBackend([lsock.getsockname()], timeout=5)
            try:
                with pytest.raises(TransportError, match=f"unsupported version {version}"):
                    transport.Client(backend).setup_info()
            finally:
                backend.close()
                t.join(5)
            assert not t.is_alive()


def test_a_served_database_closes_a_connection_that_sends_a_version_1_frame():
    # and one that sends a version-2 frame; the next connection is served
    with TcpServerPool(small_servers()) as pool:
        for version in OLD_VERSIONS:
            with socket.create_connection(pool.addresses[0], timeout=5) as sock:
                sock.sendall(old_version(encode_frame(MSG_SETUP, b""), version))
                assert sock.recv(64) == b""  # closed without an answer
            mtype, _ = _tcp_roundtrip(pool.addresses[0], MSG_SETUP, b"")
            assert mtype == MSG_SETUP


def test_a_served_database_refuses_a_frame_longer_than_its_largest_legal_payload():
    # K=256 with 1024 slots, as psi-serve runs: a block run over the whole
    # pool is the largest payload, 4 + 1 + 8 + 1024 * 32 bytes
    servers = entity_servers(EntityConfig(2, 256, 2, frozenset(range(0, 256, 2))), 1024, 3)
    limit = 4 + 1 + 8 + 1024 * 32
    assert servers[0].max_payload() == limit
    with TcpServerPool(servers) as pool:
        for length in (2**31, limit + 1):
            with socket.create_connection(pool.addresses[0], timeout=5) as sock:
                sock.sendall(wire.encode_frame(MSG_QUERY, b"")[:6] + length.to_bytes(4, "little"))
                mtype, reply = recv_frame(sock)  # answered without reading a body
                code, message = parse_error(reply)
                assert mtype == MSG_ERROR and code == wire.ERR_BAD_QUERY
                assert message == f"a payload of {length} bytes exceeds the largest legal payload, {limit} bytes"
                assert sock.recv(64) == b""  # then closed
            mtype, _ = _tcp_roundtrip(pool.addresses[0], MSG_SETUP, b"")  # the next connection is served
            assert mtype == MSG_SETUP
        # a payload of exactly the bound is read and answered: the whole pool's run
        body = wire.encode_block_query(0, [0] * 1024, 256, 2)
        mtype, reply = _tcp_roundtrip(pool.addresses[0], MSG_QUERY, wire.encode_query(0, body))
        assert len(wire.encode_query(0, body)) == limit
        assert mtype == MSG_ANSWER and wire.parse_answer(reply) == (0, list(servers[0].pool.symbols))
        local = EntityConfig(1, 256, 2, frozenset({3, 4, 100, 200}))
        result = run_psi_remote(local, pool.addresses, seed_client=5)
        assert result.intersection == {4, 100, 200}
    # the simulated backend reads a query under the same bound and gives the same reply
    over = wire.encode_query(0, wire.encode_block_query(0, [0] * 1025, 256, 2))
    message = f"a payload of {limit + 32} bytes exceeds the largest legal payload, {limit} bytes"
    refused = (MSG_ERROR, wire.encode_error(wire.ERR_BAD_QUERY, message))
    assert SimBackend(servers).roundtrip(0, MSG_QUERY, over) == refused
    # without a pool a result forward naming all of [0, K) is the largest payload
    (bare,) = small_servers(1, bits=[0] * 10)
    forward = ",".join(map(str, range(10))).encode()
    assert bare.max_payload() == len(forward) == 19
    with TcpServerPool([bare]) as pool:
        assert _tcp_roundtrip(pool.addresses[0], wire.MSG_RESULT_FORWARD, forward) == (wire.MSG_RESULT_FORWARD, b"ack")
        mtype, reply = _tcp_roundtrip(pool.addresses[0], wire.MSG_RESULT_FORWARD, forward + b",")
        assert mtype == MSG_ERROR and parse_error(reply)[0] == wire.ERR_BAD_QUERY


def test_frame_rejects_corruption():
    frame = encode_frame(MSG_QUERY, b"hello")
    with pytest.raises(TransportError, match="bad magic"):
        read_frames(b"XXXX" + frame[4:])
    with pytest.raises(ProtocolFault, match="a payload of 5 bytes exceeds the largest legal payload, 4 bytes"):
        read_frames(frame, limit=4)
    assert read_frames(frame[:-1]) == []  # a truncated frame is not yet a frame


def test_unknown_type_gets_error_and_connection_survives():
    srv = small_servers()[0]
    mtype, payload = srv.handle_client_frame(42, b"")
    assert mtype == MSG_ERROR
    code, _ = parse_error(payload)
    assert code == ERR_UNKNOWN_TYPE
    # server still answers afterwards
    mtype, _ = srv.handle_client_frame(MSG_SETUP, b"")
    assert mtype == MSG_SETUP


def test_client_channel_rejects_randomness_provisioning():
    srv = small_servers()[0]
    mtype, payload = srv.handle_client_frame(MSG_CR_PROVISION, b"\x00" * 8)
    assert mtype == MSG_ERROR
    assert parse_error(payload)[0] == ERR_CHANNEL_SEPARATION


def test_provisioning_refuses_small_pool():
    servers = small_servers()
    pool = CommonRandomnessPool.generate(3, 2, seed=1)
    with pytest.raises(InsufficientRandomness):
        provision_cr(servers, pool, 4)


def test_provisioning_after_query_is_a_fault():
    # an empty pool: the one a database answers download-all on
    servers = small_servers()
    pool = CommonRandomnessPool.generate(0, 2, seed=1)
    provision_cr(servers, pool, 0)
    backend = SimBackend(servers)
    client = transport.Client(backend)
    client.query(0, encode_download_all())
    with pytest.raises(ProtocolFault):
        servers[0].provision(pool, 0)


def test_query_replay_is_deterministic():
    servers = small_servers()
    provision_cr(servers, CommonRandomnessPool.generate(0, 2, seed=1), 0)
    srv = servers[0]
    payload = b"\x00\x00\x00\x00" + encode_download_all()
    first = srv.handle_client_frame(MSG_QUERY, payload)
    second = srv.handle_client_frame(MSG_QUERY, payload)
    assert first == second and first[0] == MSG_ANSWER


def test_unprovisioned_query_refused():
    # Without a pool the largest legal payload is a 13-byte run of no entries:
    # it is read and refused for want of a pool.  A one-entry run (14 bytes)
    # is over that bound and refused unread, on both backends alike.
    servers = small_servers()
    assert servers[0].max_payload() == 13
    empty, one = (wire.encode_block_query(0, [0] * n, 3, 2) for n in (0, 1))
    message = "a payload of 14 bytes exceeds the largest legal payload, 13 bytes"
    with TcpServerPool(servers) as pool:
        tcp = [TcpBackend(pool.addresses, timeout=5) for _ in range(2)]  # the refusal closes the first
        try:
            for backend in (SimBackend(servers), tcp[0]):
                client = transport.Client(backend)
                with pytest.raises(InsufficientRandomness, match="no randomness pool provisioned"):
                    client.query(0, empty)
                with pytest.raises(ProtocolFault, match=f"database 0 rejected the query: {message}$"):
                    client.query(0, one)
            # the raw replies, byte for byte
            payload = wire.encode_query(0, one)
            replies = [backend.roundtrip(0, MSG_QUERY, payload) for backend in (SimBackend(servers), tcp[1])]
        finally:
            for backend in tcp:
                backend.close()
    assert replies == [(MSG_ERROR, wire.encode_error(wire.ERR_BAD_QUERY, message))] * 2


def test_sim_and_tcp_transcripts_identical():
    res_sim = run_psi(E1, E2, backend="sim", seed_client=9, seed_cr=8)
    res_tcp = run_psi(E1, E2, backend="tcp", seed_client=9, seed_cr=8)
    assert res_sim.intersection == res_tcp.intersection
    assert res_sim.transcript.records == res_tcp.transcript.records


def test_cost_meter_counts_symbols_only():
    res = run_psi(E1, E2, backend="sim", seed_client=9, seed_cr=8)
    assert res.download_symbols == 8
    raw_bytes = sum(len(a) for db in res.transcript.records for _, a in db)
    assert raw_bytes > 8  # framing/ids excluded from the meter


def test_dropped_answer_surfaces_as_error(faulty_streams):
    faulty_streams(drop={(0, MSG_QUERY)})
    with pytest.raises(TransportError, match="timed out"):
        run_psi(E1, E2, backend="sim", seed_client=1, seed_cr=2)


def test_duplicated_answer_surfaces_as_error(faulty_streams):
    # The copy of database 0's answer is read as the reply to the result forward that follows it.
    faulty_streams(duplicate={(0, MSG_QUERY)})
    with pytest.raises(ProtocolFault, match="result forwarding failed"):
        run_psi(E1, E2, backend="sim", seed_client=1, seed_cr=2)
    # A second query on the same database reads the first query's answer again.
    servers = small_servers()
    provision_cr(servers, CommonRandomnessPool.generate(0, 2, seed=1), 0)
    client = transport.Client(transport.SimBackend(servers))
    assert client.query(0, encode_download_all()) == [1, 0, 1]
    with pytest.raises(ProtocolFault, match="answer id 0 does not match query id 1"):
        client.query(0, encode_download_all())


def test_non_collusion_each_database_sees_only_its_queries():
    servers = small_servers(3, bits=(1, 0, 1, 1))
    provision_cr(servers, CommonRandomnessPool.generate(16, 2, seed=0), 16)
    backend = SimBackend(servers)
    client = transport.Client(backend)
    from privset import block_scheme

    plan = block_scheme.plan_blocks(SchemeParams(K=4, P=2, N=3, L=1, q=2), (0, 2), __import__("random").Random(1))
    wires = plan.wire_queries()
    client.query_all(wires)
    for db, srv in enumerate(servers):
        assert srv.seen_queries == [wires[db]]
        for other in range(3):
            if other != db:
                assert wires[other] not in srv.seen_queries


def test_transcript_save_load_and_replay(tmp_path):
    res = run_psi(E1, E2, backend="sim", seed_client=3, seed_cr=4)
    path = tmp_path / "run.transcript"
    res.transcript.save(str(path))
    loaded = Transcript.load(str(path))
    assert loaded.meta["initiator"] == 1
    assert loaded.records == res.transcript.records
    assert loaded.downloaded_symbols == 8

    # the responder stood up again with the run's 4 pool symbols from seed_cr=4; seed 5 draws other ones
    assert replay_answers(loaded, entity_servers(E2, 4, 4))
    assert not replay_answers(loaded, entity_servers(E2, 4, 5))

    dump = loaded.dump_text()
    assert "database 0" in dump and "meta:" in dump

    data = path.read_bytes()
    cut = tmp_path / "cut.transcript"
    for end in range(len(data)):
        cut.write_bytes(data[:end])
        with pytest.raises(TransportError):
            Transcript.load(str(cut))
    meta_at = data.index(b"{")
    for bad in (b"[", b"\xff"):
        cut.write_bytes(data[:meta_at] + bad + data[meta_at + 1 :])
        with pytest.raises(TransportError):
            Transcript.load(str(cut))


def test_replay_counts_a_refused_recorded_query_as_a_mismatch():
    res = run_psi(E1, E2, backend="sim", seed_client=3, seed_cr=4)
    assert replay_answers(res.transcript, entity_servers(E2, 4, 4))
    qry, ans = res.transcript.records[0][0]
    assert qry[4] == wire.BLOCK_QUERY_TAG  # query id u32, then the body's scheme tag
    for tag in (wire.TABLE_QUERY_TAG, 9):
        records = [list(db_records) for db_records in res.transcript.records]
        records[0][0] = (qry[:4] + bytes([tag]) + qry[5:], ans)
        assert not replay_answers(Transcript(res.transcript.meta, records), entity_servers(E2, 4, 4))


def test_saved_transcripts_are_identical_for_equal_seeds(tmp_path):
    paths = [tmp_path / "a.transcript", tmp_path / "b.transcript"]
    for path in paths:
        run_psi(E1, E2, backend="sim", seed_client=1, seed_cr=2).transcript.save(str(path))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_tcp_pool_serves_setup_and_queries():
    servers = small_servers()
    provision_cr(servers, CommonRandomnessPool.generate(0, 2, seed=1), 0)
    with TcpServerPool(servers) as pool:
        backend = TcpBackend(pool.addresses)
        client = transport.Client(backend)
        info = client.setup_info()
        assert info["K"] == 3
        symbols = client.query(0, encode_download_all())
        assert symbols == [1, 0, 1]
        backend.close()


def _tcp_roundtrip(address, msg_type, payload):
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(encode_frame(msg_type, payload))
        return recv_frame(sock)


def test_a_served_database_answers_batched_and_split_frames_in_order():
    servers = small_servers()
    provision_cr(servers, CommonRandomnessPool.generate(0, 2, seed=1), 0)
    query = wire.encode_query(7, encode_download_all())
    with TcpServerPool(servers) as pool, socket.create_connection(pool.addresses[0], timeout=5) as sock:
        reader = wire.FrameReader()
        sock.sendall(encode_frame(MSG_SETUP, b"") + encode_frame(MSG_QUERY, query))  # two frames, one write
        assert recv_frame(sock, reader) == (MSG_SETUP, b'{"K": 3, "N": 2}')
        assert recv_frame(sock, reader) == (MSG_ANSWER, wire.encode_answer(7, [1, 0, 1]))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for byte in encode_frame(MSG_QUERY, query):  # one frame, one byte per write
            sock.send(bytes([byte]))
        assert recv_frame(sock, reader) == (MSG_ANSWER, wire.encode_answer(7, [1, 0, 1]))


def test_a_client_reconnects_with_an_empty_reader_after_stray_bytes():
    # The peer follows its first reply with half of another frame, then
    # closes: the next roundtrip fails, and the one after that reads a clean
    # frame on a new connection, with nothing left over from the old one.
    setup = encode_frame(MSG_SETUP, b'{"K": 3}')
    with socket.create_server(("127.0.0.1", 0)) as lsock:
        lsock.settimeout(5)

        def peer():
            for tail in (setup[:5], b""):
                conn, _ = lsock.accept()
                with conn:
                    recv_frame(conn)
                    conn.sendall(setup + tail)

        t = threading.Thread(target=peer, daemon=True)
        t.start()
        backend = TcpBackend([lsock.getsockname()], timeout=5)
        try:
            assert backend.roundtrip(0, MSG_SETUP, b"") == (MSG_SETUP, b'{"K": 3}')
            with pytest.raises(TransportError, match="database 0 at 127.0.0.1:"):
                backend.roundtrip(0, MSG_SETUP, b"")
            assert backend._socks[0] is None
            assert backend.roundtrip(0, MSG_SETUP, b"") == (MSG_SETUP, b'{"K": 3}')
        finally:
            backend.close()
            t.join(5)
        assert not t.is_alive()


def test_a_query_after_an_over_bound_refusal_finds_the_connection_closed():
    # The database closes the connection right after its refusal, between
    # frames: the client's next query finds it closed, not cut mid-frame.
    servers = small_servers()
    one = wire.encode_block_query(0, [0], 3, 2)  # a 14-byte payload, over the 13-byte bound
    with TcpServerPool(servers) as pool:
        backend = TcpBackend(pool.addresses, timeout=5)
        client = transport.Client(backend)
        try:
            with pytest.raises(ProtocolFault, match="database 0 rejected the query: a payload of 14 bytes"):
                client.query(0, one)
            assert backend._socks[0].recv(1, socket.MSG_PEEK) == b""  # the database has closed
            with pytest.raises(TransportError) as closed:
                client.query(0, one)
        finally:
            backend.close()
    host, port = pool.addresses[0]
    assert str(closed.value) == f"database 0 at {host}:{port}: connection closed"


def test_a_peer_that_closes_after_half_a_header_cut_the_reply_mid_frame():
    with socket.create_server(("127.0.0.1", 0)) as lsock:
        lsock.settimeout(5)

        def peer():
            conn, _ = lsock.accept()
            with conn:
                recv_frame(conn)
                conn.sendall(encode_frame(MSG_SETUP, b"")[:4])

        t = threading.Thread(target=peer, daemon=True)
        t.start()
        backend = TcpBackend([lsock.getsockname()], timeout=5)
        try:
            with pytest.raises(TransportError, match="connection closed mid-frame$"):
                backend.roundtrip(0, MSG_SETUP, b"")
        finally:
            backend.close()
            t.join(5)
        assert not t.is_alive()


def test_malformed_query_over_tcp_gets_error_and_database_survives():
    servers = small_servers()
    provision_cr(servers, CommonRandomnessPool.generate(4, 2, seed=1), 4)
    with TcpServerPool(servers) as pool:
        # query id plus block tag 2 and no entry count
        mtype, payload = _tcp_roundtrip(pool.addresses[0], MSG_QUERY, b"\x00\x00\x00\x00\x02")
        assert mtype == MSG_ERROR
        assert parse_error(payload)[0] == wire.ERR_BAD_QUERY
        assert all(t.is_alive() for t in pool._threads)
        mtype, payload = _tcp_roundtrip(pool.addresses[0], MSG_SETUP, b"")
        assert mtype == MSG_SETUP and b'"K": 3' in payload


@pytest.mark.parametrize("backend", ["sim", "tcp"])
def test_served_database_refuses_a_table_query(backend):
    # one table body downloads slot 0 plainly and masks each of the K unit
    # sums with that same slot: each sum minus the plain symbol is one bit of
    # the responder's set, so a database that answered it would leak the set.
    # The 64-slot pool puts the 125-byte payload within the served frame bound
    # (a block run over the whole pool, 141 bytes), so the tag is what is refused.
    responder = EntityConfig(2, 12, 2, frozenset({1, 4, 5, 9}))
    servers = entity_servers(responder, 64, 1)
    view = table_scheme.TableQuery((0,), tuple(((t,), 0) for t in range(12)))
    plain, *sums = table_scheme.answer(view, responder.store, servers[0].pool)
    assert {t for t, v in enumerate(sums) if v != plain} == {1, 4, 5, 9}  # what the body would pin
    # the view in the layout tag 1 once had: plain ids, then per sum its term
    # count, its coordinates and its pool id
    body = struct.pack("<BIII", wire.TABLE_QUERY_TAG, 1, 0, 12) + b"".join(struct.pack("<BII", 1, t, 0) for t in range(12))
    payload = wire.encode_query(0, body)
    assert len(payload) == 125 and servers[0].max_payload() == 141
    if backend == "sim":
        mtype, reply = SimBackend(servers).roundtrip(0, MSG_QUERY, payload)
    else:
        with TcpServerPool(servers) as pool:
            mtype, reply = _tcp_roundtrip(pool.addresses[0], MSG_QUERY, payload)
    assert mtype == MSG_ERROR
    assert parse_error(reply) == (wire.ERR_BAD_QUERY, "unknown scheme tag 1")


def test_handler_failure_closes_only_that_connection(monkeypatch):
    def broken(payload, store, pool):
        raise RuntimeError("handler bug")

    monkeypatch.setitem(transport.QUERY_HANDLERS, wire.DOWNLOAD_ALL_TAG, broken)
    servers = small_servers()
    with TcpServerPool(servers) as pool:
        with pytest.raises(TransportError):
            _tcp_roundtrip(pool.addresses[0], MSG_QUERY, wire.encode_query(0, encode_download_all()))
        assert all(t.is_alive() for t in pool._threads)
        mtype, _ = _tcp_roundtrip(pool.addresses[0], MSG_SETUP, b"")
        assert mtype == MSG_SETUP


def test_broken_connection_is_closed_and_forgotten(monkeypatch):
    def broken(payload, store, pool):
        raise RuntimeError("handler bug")

    monkeypatch.setitem(transport.QUERY_HANDLERS, wire.DOWNLOAD_ALL_TAG, broken)
    with TcpServerPool(small_servers()) as pool:
        backend = TcpBackend(pool.addresses)
        with pytest.raises(TransportError, match="database 0 at 127.0.0.1:"):
            backend.roundtrip(0, MSG_QUERY, wire.encode_query(0, encode_download_all()))
        assert backend._socks[0] is None
        assert backend.roundtrip(0, MSG_SETUP, b"")[0] == MSG_SETUP  # a fresh connection
        backend.close()


def closed_ports(n: int) -> list[int]:
    """n distinct loopback ports, bound together and then released, so nothing listens on them."""
    socks = [socket.socket() for _ in range(n)]
    try:
        for sock in socks:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


def test_refused_connection_is_a_transport_error():
    addresses = [("127.0.0.1", port) for port in closed_ports(2)]
    backend = TcpBackend(addresses)
    with pytest.raises(TransportError, match=f"database 0 at 127.0.0.1:{addresses[0][1]}"):
        transport.Client(backend).setup_info()
    assert backend._socks == [None, None]
    with pytest.raises(TransportError):
        run_psi_remote(E1, addresses)


def test_the_client_never_sends_two_shares_to_one_database():
    # Two shares of one block query XOR to a unit vector: together they name a desired element.
    init = EntityConfig(1, 40, 2, frozenset({1, 8, 9, 17, 30}))
    servers = entity_servers(EntityConfig(2, 40, 2, frozenset(range(0, 40, 3))), 64, 1)
    wide = entity_servers(EntityConfig(2, 40, 3, frozenset(range(0, 40, 3))), 64, 1)
    with TcpServerPool(servers) as pool, TcpServerPool(wide) as wide_pool:
        with pytest.raises(ParamError, match="repeated address"):
            run_psi_remote(init, [pool.addresses[0], pool.addresses[0]])
        with pytest.raises(ParamError, match="setup exchange reports N=3, not the 2 databases queried"):
            run_psi_remote(init, wide_pool.addresses[:2])
    assert all(srv.seen_queries == [] for srv in servers + wide)


def test_two_spellings_of_one_database_get_one_share():
    init = EntityConfig(1, 40, 2, frozenset({1, 8, 9, 17, 30}))
    servers = entity_servers(EntityConfig(2, 40, 2, frozenset(range(0, 40, 3))), 64, 1)
    with TcpServerPool(servers) as pool:
        port = pool.addresses[0][1]
        start = time.monotonic()
        with pytest.raises(TransportError, match=f"databases 0 and 1 both reach 127.0.0.1:{port}"):
            run_psi_remote(init, [("127.0.0.1", port), ("localhost", port)])
        assert time.monotonic() - start < 5  # refused on connect, not after the 10 s read timeout
    assert len(servers[0].seen_queries) == 1 and servers[1].seen_queries == []


def test_an_unseeded_remote_client_hides_its_set_from_a_seed_guess():
    # Database 1 replans with the default seed 0 and XORs each vector it received
    # with the planned base vector of its block: a unit vector names a desired element.
    init = EntityConfig(1, 64, 2, frozenset({3, 17, 40, 41, 60}))
    guess = block_scheme.plan_blocks(SchemeParams(K=64, P=5, N=2, L=1, q=2), init.elements, domain_rng(0, DOMAIN_CLIENT))
    bases = {j: bq.vector for qs in guess.queries for j, bq in enumerate(qs) if bq.probe_coord is None}

    def named_by_guess(**seed):
        servers = entity_servers(EntityConfig(2, 64, 2, frozenset(range(0, 64, 3))), 64, 1)
        with TcpServerPool(servers) as pool:
            result = run_psi_remote(init, pool.addresses, **seed)
        assert result.intersection == {3, 60} and result.transcript.meta["seed_client"] == seed.get("seed_client")
        (body,) = servers[1].seen_queries
        first, vectors = wire.parse_block_query(body, 2, 64)
        diffs = [vec ^ bases[first + i] for i, vec in enumerate(vectors)]
        return {diff.bit_length() - 1 for diff in diffs if diff.bit_count() == 1}

    assert named_by_guess(seed_client=0) == {3, 17, 60}  # the guess works on a client seeded 0
    assert named_by_guess() == set()


def test_a_tcp_intersection_starts_no_client_thread(monkeypatch):
    servers = entity_servers(E2, 64, 1)
    with TcpServerPool(servers) as pool:

        def no_thread(*args, **kwargs):
            raise AssertionError("the client started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        result = run_psi_remote(E1, pool.addresses, seed_client=1)
        monkeypatch.undo()
    assert result.intersection == E1.elements & E2.elements


def test_a_hung_database_times_out_and_serves_again_once_released(monkeypatch):
    release = threading.Event()

    def hang(payload, store, pool):
        release.wait(10)
        return list(store.flat)

    monkeypatch.setitem(transport.QUERY_HANDLERS, wire.DOWNLOAD_ALL_TAG, hang)
    with TcpServerPool(small_servers()) as pool:
        backend = TcpBackend(pool.addresses, timeout=0.5)
        start = time.monotonic()
        try:
            with pytest.raises(TransportError, match="database 0 at 127.0.0.1:"):
                transport.Client(backend).query(0, encode_download_all())
        finally:
            release.set()
        assert time.monotonic() - start < 5
        assert backend._socks[0] is None
        backend = TcpBackend(pool.addresses)
        try:
            mtype, payload = backend.roundtrip(0, MSG_SETUP, b"")
        finally:
            backend.close()
        assert mtype == MSG_SETUP and b'"K": 3' in payload


# A database whose address space is capped at 1 GiB, far below the 4 GiB a
# forged frame length claims; it prints its port and serves until stdin closes.
CAPPED_SERVER = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from privset.storage import MessageStore
from privset.transport import TcpServerPool, make_entity_servers
with TcpServerPool(make_entity_servers(MessageStore.from_bits([1, 0, 1]), 1, {"K": 3})) as pool:
    print(pool.addresses[0][1], flush=True)
    sys.stdin.read()
"""


def test_a_forged_frame_length_does_not_wedge_the_database():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-c", CAPPED_SERVER], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    try:
        port = int(proc.stdout.readline())
        forged = encode_frame(MSG_SETUP, b"")[:-4] + (0xFFFFFFFF).to_bytes(4, "little")
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(forged)
        backend = TcpBackend([("127.0.0.1", port)], timeout=5)
        try:
            mtype, payload = backend.roundtrip(0, MSG_SETUP, b"")
        finally:
            backend.close()
        assert mtype == MSG_SETUP and payload == b'{"K": 3}'
    finally:
        proc.stdin.close()
        proc.wait(timeout=10)
