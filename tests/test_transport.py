import pytest

from privset import transport, wire
from privset.params import SchemeParams
from privset.psi import EntityConfig, run_psi, run_psi_remote
from privset.storage import CommonRandomnessPool, MessageStore
from privset.table_scheme import ProtocolFault
from privset.transport import (
    DatabaseServer,
    FaultPlan,
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
    parse_frame,
)

E1 = EntityConfig(1, 10, 2, frozenset({0, 1, 2, 3}))
E2 = EntityConfig(2, 10, 2, frozenset({0, 2, 4, 5, 6, 7}))


def small_servers(n=2, bits=(1, 0, 1)):
    store = MessageStore.from_bits(list(bits))
    return make_entity_servers(store, n, {"K": len(bits), "N": n})


def test_frame_roundtrip():
    frame = encode_frame(MSG_QUERY, b"hello")
    assert frame[:4] == b"PSI1"
    assert parse_frame(frame) == (MSG_QUERY, b"hello")


def test_frame_rejects_corruption():
    frame = encode_frame(MSG_QUERY, b"hello")
    with pytest.raises(TransportError):
        parse_frame(b"XXXX" + frame[4:])
    with pytest.raises(TransportError):
        parse_frame(frame[:-1])


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


def test_provisioning_digests_match():
    servers = small_servers()
    pool = CommonRandomnessPool.generate(4, 2, seed=1)
    digests = provision_cr(servers, pool, 4)
    assert len(set(digests)) == 1


def test_provisioning_refuses_small_pool():
    servers = small_servers()
    pool = CommonRandomnessPool.generate(3, 2, seed=1)
    with pytest.raises(InsufficientRandomness):
        provision_cr(servers, pool, 4)


def test_provisioning_after_query_is_a_fault():
    servers = small_servers()
    pool = CommonRandomnessPool.generate(4, 2, seed=1)
    provision_cr(servers, pool, 4)
    backend = SimBackend(servers)
    client = transport.Client(backend)
    client.query(0, encode_download_all())
    with pytest.raises(ProtocolFault):
        servers[0].provision(pool, 4)


def test_query_replay_is_deterministic():
    servers = small_servers()
    provision_cr(servers, CommonRandomnessPool.generate(4, 2, seed=1), 4)
    srv = servers[0]
    payload = b"\x00\x00\x00\x00" + encode_download_all()
    first = srv.handle_client_frame(MSG_QUERY, payload)
    second = srv.handle_client_frame(MSG_QUERY, payload)
    assert first == second and first[0] == MSG_ANSWER


def test_unprovisioned_query_refused():
    servers = small_servers()
    backend = SimBackend(servers)
    client = transport.Client(backend)
    body = bytes([2]) + (1).to_bytes(4, "little") + (0).to_bytes(4, "little") + (3).to_bytes(4, "little") + bytes(3)
    with pytest.raises(InsufficientRandomness):
        client.query(0, body)


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


def test_dropped_answer_surfaces_as_error():
    faults = FaultPlan(drop={(0, 0)})
    with pytest.raises(TransportError):
        run_psi(E1, E2, backend="sim", seed_client=1, seed_cr=2, faults=faults)


def test_duplicated_answer_surfaces_as_error():
    faults = FaultPlan(duplicate={(1, 0)})
    with pytest.raises(ProtocolFault):
        run_psi(E1, E2, backend="sim", seed_client=1, seed_cr=2, faults=faults)


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

    bits = [1, 0, 1, 0, 1, 1, 1, 1, 0, 0]
    store = MessageStore.from_bits(bits)
    pool = CommonRandomnessPool.generate(4, 2, seed=4)
    assert replay_answers(loaded, store, pool)
    other_pool = CommonRandomnessPool.generate(4, 2, seed=5)
    assert not replay_answers(loaded, store, other_pool)

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
    store = MessageStore.from_bits([1, 0, 1, 0, 1, 1, 1, 1, 0, 0])
    pool = CommonRandomnessPool.generate(4, 2, seed=4)
    assert replay_answers(res.transcript, store, pool)
    qry, ans = res.transcript.records[0][0]
    assert qry[4] == wire.BLOCK_QUERY_TAG  # query id u32, then the body's scheme tag
    for tag in (wire.TABLE_QUERY_TAG, 9):
        records = [list(db_records) for db_records in res.transcript.records]
        records[0][0] = (qry[:4] + bytes([tag]) + qry[5:], ans)
        assert not replay_answers(Transcript(res.transcript.meta, records), store, pool)


def test_saved_transcripts_are_identical_for_equal_seeds(tmp_path):
    paths = [tmp_path / "a.transcript", tmp_path / "b.transcript"]
    for path in paths:
        run_psi(E1, E2, backend="sim", seed_client=1, seed_cr=2).transcript.save(str(path))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_tcp_pool_serves_setup_and_queries():
    servers = small_servers()
    provision_cr(servers, CommonRandomnessPool.generate(4, 2, seed=1), 4)
    with TcpServerPool(servers) as pool:
        backend = TcpBackend(pool.addresses)
        client = transport.Client(backend)
        info = client.setup_info()
        assert info["K"] == 3
        symbols = client.query(0, encode_download_all())
        assert symbols == [1, 0, 1]
        backend.close()


def _tcp_roundtrip(address, msg_type, payload):
    import socket

    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(encode_frame(msg_type, payload))
        return transport._read_frame(sock)


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


def closed_port() -> int:
    """A loopback port that was just bound and released, so nothing listens on it."""
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_refused_connection_is_a_transport_error():
    port = closed_port()
    backend = TcpBackend([("127.0.0.1", port)] * 2)
    with pytest.raises(TransportError, match=f"database 0 at 127.0.0.1:{port}"):
        transport.Client(backend).setup_info()
    assert backend._socks == [None, None]
    with pytest.raises(TransportError):
        run_psi_remote(E1, [("127.0.0.1", port)] * 2)
