import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

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
    provision_cr(servers, CommonRandomnessPool.generate(4, 2, seed=1), 4)
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


@pytest.mark.parametrize("backend", ["sim", "tcp"])
def test_served_database_refuses_a_table_query(backend):
    # one table body downloads slot 0 plainly and masks each of the K unit
    # sums with that same slot: each sum minus the plain symbol is one bit of
    # the responder's set, so a database that answered it would leak the set
    responder = EntityConfig(2, 12, 2, frozenset({1, 4, 5, 9}))
    servers = entity_servers(responder)
    provision_cr(servers, CommonRandomnessPool.generate(4, 2, seed=1), 4)
    body = wire.encode_table_query([0], [([t], 0) for t in range(12)])
    plain, *sums = table_scheme.answer_wire_query(body, responder.store, servers[0].pool)
    assert {t for t, v in enumerate(sums) if v != plain} == {1, 4, 5, 9}  # what the body would pin
    payload = wire.encode_query(0, body)
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
    servers = entity_servers(EntityConfig(2, 40, 2, frozenset(range(0, 40, 3))))
    wide = entity_servers(EntityConfig(2, 40, 3, frozenset(range(0, 40, 3))))
    for group in (servers, wide):
        provision_cr(group, CommonRandomnessPool.generate(64, 2, seed=1), 0)
    with TcpServerPool(servers) as pool, TcpServerPool(wide) as wide_pool:
        with pytest.raises(ParamError, match="repeated address"):
            run_psi_remote(init, [pool.addresses[0], pool.addresses[0]])
        with pytest.raises(ParamError, match="setup exchange reports N=3, not the 2 databases queried"):
            run_psi_remote(init, wide_pool.addresses[:2])
    assert all(srv.seen_queries == [] for srv in servers + wide)


def test_two_spellings_of_one_database_get_one_share():
    init = EntityConfig(1, 40, 2, frozenset({1, 8, 9, 17, 30}))
    servers = entity_servers(EntityConfig(2, 40, 2, frozenset(range(0, 40, 3))))
    provision_cr(servers, CommonRandomnessPool.generate(64, 2, seed=1), 0)
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
    bases = {bq.block: bq.vector for qs in guess.queries for bq in qs if bq.probe_coord is None}

    def named_by_guess(**seed):
        servers = entity_servers(EntityConfig(2, 64, 2, frozenset(range(0, 64, 3))))
        provision_cr(servers, CommonRandomnessPool.generate(64, 2, seed=1), 0)
        with TcpServerPool(servers) as pool:
            result = run_psi_remote(init, pool.addresses, **seed)
        assert result.intersection == {3, 60} and result.transcript.meta["seed_client"] == seed.get("seed_client")
        (body,) = servers[1].seen_queries
        diffs = [vec ^ bases[block] for block, _, vec in wire.parse_block_query(body, 2)]
        return {diff.bit_length() - 1 for diff in diffs if diff.bit_count() == 1}

    assert named_by_guess(seed_client=0) == {3, 17, 60}  # the guess works on a client seeded 0
    assert named_by_guess() == set()


def test_a_tcp_intersection_starts_no_client_thread(monkeypatch):
    servers = entity_servers(E2)
    provision_cr(servers, CommonRandomnessPool.generate(64, 2, seed=1), 0)
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
        forged = encode_frame(MSG_SETUP, b"")[: wire.FRAME_HEADER_SIZE - 4] + (0xFFFFFFFF).to_bytes(4, "little")
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
