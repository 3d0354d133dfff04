import ast
import dataclasses
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path
from random import Random

import pytest
from conftest import connected

from privset.field import DOMAIN_CLIENT, domain_rng, to_lane_bytes
from privset.params import InfeasibleError, ParamError, SchemeParams, psi_direction_cost, psi_optimal_cost
from privset.psi import (
    EntityConfig,
    IncidenceVector,
    generate_set,
    run_psi,
    run_psi_remote,
    to_incidence,
)
import privset
from privset import audit, block_scheme, psi, transport, wire
from privset.storage import CommonRandomnessPool, MessageStore
from privset.wire import ProtocolFault

ALPHABET = "abcdefghij"


def letters(elements):
    return {ALPHABET[e] for e in elements}


FIG_E1 = EntityConfig(1, 10, 2, frozenset({0, 1, 2, 3}))
FIG_E2 = EntityConfig(2, 10, 2, frozenset({0, 2, 4, 5, 6, 7}))


def test_incidence_examples():
    assert to_incidence(FIG_E1.elements, 10).as_string() == "1111000000"
    assert to_incidence(FIG_E2.elements, 10).as_string() == "1010111100"
    assert to_incidence(set(), 4).as_string() == "0000"


def test_incidence_roundtrip_and_weight():
    vec = to_incidence({1, 3}, 5)
    assert vec.bits == bytes([0, 1, 0, 1, 0])
    assert vec.as_string() == "01010"
    assert IncidenceVector(vec.bits) == vec
    assert IncidenceVector(list(vec.bits)).bits == vec.bits


def test_incidence_rejects_bad_input():
    with pytest.raises(ParamError):
        to_incidence({5}, 5)
    with pytest.raises(ParamError):
        IncidenceVector((0, 2))


def test_incidence_string_holds_only_zeros_and_ones():
    assert IncidenceVector(bytes([0, 1, 1, 0])).as_string() == "0110"
    assert IncidenceVector(b"").as_string() == ""
    for bits in ((0, -1), (1, 256), ("0", "1"), (0, 2), b"01", None):
        with pytest.raises(ParamError):
            IncidenceVector(bits)


def test_incidence_vector_is_one_byte_per_element():
    vec = to_incidence({0, 3, 9}, 10)
    assert vec.bits == bytes([1, 0, 0, 1, 0, 0, 0, 0, 0, 1])
    store = MessageStore.from_bits(vec.bits)
    assert (store.K, store.L, store.flat) == (10, 1, vec.bits)
    assert [store.flat[m * store.L : (m + 1) * store.L] for m in range(store.K)] == [bytes([b]) for b in vec.bits]
    assert store.packed == 0b10_0000_1001


def test_generate_set_reproducible():
    a = generate_set(12, Fraction(1, 2), Random(5))
    b = generate_set(12, Fraction(1, 2), Random(5))
    assert a == b


def test_generate_set_inclusion_frequency():
    # 10^4 Bernoulli(p) draws within 3 sigma for each supported p.
    for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        rng = Random(77)
        hits = sum(len(generate_set(100, p, rng)) for _ in range(100))
        mean = 10_000 * p
        sigma = (10_000 * p * (1 - p)) ** Fraction(1, 2)
        assert abs(hits - mean) <= 3 * float(sigma)


def test_generate_set_rejects_degenerate_probability():
    with pytest.raises(ParamError):
        generate_set(4, 0, Random(0))
    with pytest.raises(ParamError):
        generate_set(4, 1, Random(0))


def test_an_entity_needs_at_least_one_element_of_the_field():
    for K in (0, -3):
        with pytest.raises(ParamError, match=r"^K must be >= 1$"):
            EntityConfig(1, K, 2, frozenset())
        with pytest.raises(ParamError, match=r"^K must be >= 1$"):
            generate_set(K, Fraction(1, 2), Random(0))


def test_an_entity_refuses_an_id_elements_or_databases_no_entity_has():
    for args, message in (
        ((3, 4, 2, frozenset()), "entity_id must be 1 or 2"),
        ((1, 4, 2, frozenset({4})), "set elements must lie in [0, K)"),
        ((1, 4, 2, frozenset({-1})), "set elements must lie in [0, K)"),
        ((1, 4, 0, frozenset()), "need at least one database"),
    ):
        with pytest.raises(ParamError, match=f"^{re.escape(message)}$"):
            EntityConfig(*args)
    with pytest.raises(ParamError, match=r"^set elements must lie in \[0, K\)$"):
        to_incidence({-1}, 4)  # would wrap to the last bit


def test_run_psi_refuses_an_unknown_backend():
    e1, e2 = EntityConfig(1, 4, 2, frozenset({0})), EntityConfig(2, 4, 2, frozenset({0, 1}))
    with pytest.raises(ParamError, match=r"^unknown backend 'udp'$"):
        run_psi(e1, e2, backend="udp")


def test_a_run_refuses_an_answer_to_another_query_id(monkeypatch):
    # The client checks every answer's id as it reads it, as psi verify does.
    roundtrip = transport.SimBackend.roundtrip

    def shifted(self, db, msg_type, payload):
        mtype, reply = roundtrip(self, db, msg_type, payload)
        if mtype == wire.MSG_ANSWER:
            query_id, symbols = wire.parse_answer(reply)
            reply = wire.encode_answer(query_id + 7, symbols)
        return mtype, reply

    monkeypatch.setattr(transport.SimBackend, "roundtrip", shifted)
    e1, e2 = EntityConfig(1, 10, 2, frozenset({0, 1, 2, 3})), EntityConfig(2, 10, 2, frozenset({0, 2, 4, 5, 6, 7}))
    with pytest.raises(ProtocolFault, match=r"^answer id 7 does not match query id 0$"):
        run_psi(e1, e2, seed_client=1, seed_cr=2)


def test_flagship_instance():
    res = run_psi(FIG_E1, FIG_E2, seed_client=11, seed_cr=22)
    assert letters(res.intersection) == {"a", "c"}
    assert res.cardinality == 2
    assert res.initiator == 1
    assert res.download_symbols == 8 == res.optimal_cost


def test_disjoint_sets_same_cost():
    # same public sizes as the flagship instance, but empty intersection:
    # the cost depends only on (P_i, N_i), never on the unknown overlap
    e1 = EntityConfig(1, 10, 2, frozenset({0, 1, 2, 3}))
    e2 = EntityConfig(2, 10, 2, frozenset({4, 5, 6, 7, 8, 9}))
    res = run_psi(e1, e2, seed_client=1, seed_cr=2)
    assert res.intersection == frozenset()
    assert res.download_symbols == 8


def test_equal_sets():
    s = frozenset({1, 4, 7})
    res = run_psi(EntityConfig(1, 9, 2, s), EntityConfig(2, 9, 2, s), seed_client=3, seed_cr=4)
    assert res.intersection == s


def test_direction_choice():
    assert psi_optimal_cost(4, 2, 6, 2, 10) == (8, 1)  # FIG_E1 against FIG_E2
    assert psi_optimal_cost(9, 3, 2, 3, 10) == (3, 2)
    with pytest.raises(InfeasibleError):
        psi_optimal_cost(1, 1, 1, 1, 4)
    with pytest.raises(InfeasibleError):
        run_psi(EntityConfig(1, 4, 1, frozenset({1})), EntityConfig(2, 4, 1, frozenset({2})))
    with pytest.raises(ParamError):
        run_psi(EntityConfig(1, 4, 2, frozenset({1})), EntityConfig(2, 5, 2, frozenset({2})))


def test_empty_and_full_set_edges():
    res = run_psi(EntityConfig(1, 6, 2, frozenset()), EntityConfig(2, 6, 2, frozenset({1, 2})),
                  seed_client=0, seed_cr=0)
    assert res.intersection == frozenset() and res.download_symbols == 0

    # full set on the cheaper side: retrieving all K incidence bits from one
    # database beats the other direction's ceil(4*2/1) = 8
    full = frozenset(range(6))
    res = run_psi(EntityConfig(1, 6, 2, full), EntityConfig(2, 6, 2, frozenset({1, 4, 2, 5})),
                  seed_client=0, seed_cr=0)
    assert res.initiator == 1
    assert res.intersection == frozenset({1, 2, 4, 5})
    assert res.download_symbols == 6  # download everything from one database


def test_remote_full_set_rejects_a_short_answer():
    # The responder announces K=6 but its store answers a download-all with 5 symbols.
    servers = transport.make_entity_servers(MessageStore.from_bits([1, 0, 1, 1, 0]), 2, {"K": 6})
    with transport.TcpServerPool(servers) as pool:
        with pytest.raises(ProtocolFault, match="wrong length"):
            run_psi_remote(EntityConfig(1, 6, 1, frozenset(range(6))), pool.addresses)


@pytest.mark.parametrize("backend", ["sim", "tcp"])
def test_a_download_all_answer_outside_f2_is_a_fault(backend, monkeypatch):
    # Database 0's download-all answer reads 3 at coordinate 2: one byte, as
    # the wire carries it, but no F_2 symbol.  It is refused as the block path
    # refuses one, never read as a 0 that drops element 2 from the intersection.
    answer = transport.QUERY_HANDLERS[wire.DOWNLOAD_ALL_TAG]

    def corrupted(payload, store, pool):
        symbols = answer(payload, store, pool)
        symbols[2] = 3
        return symbols

    monkeypatch.setitem(transport.QUERY_HANDLERS, wire.DOWNLOAD_ALL_TAG, corrupted)
    full, responder = EntityConfig(1, 6, 2, frozenset(range(6))), EntityConfig(2, 6, 2, frozenset({0, 2, 3}))
    with pytest.raises(ProtocolFault, match="^answer symbol outside F_2 at database 0$"):
        run_psi(full, responder, backend=backend, seed_client=1, seed_cr=1)


@pytest.mark.parametrize("backend", ["sim", "tcp"])
@pytest.mark.parametrize("change", [-1, 1])
def test_a_download_all_answer_of_wrong_length_names_its_database(backend, change, monkeypatch):
    # Database 0 answers a download-all with one symbol too few or too many;
    # the download-all path refuses it with the block and table decoders' message.
    answer = transport.QUERY_HANDLERS[wire.DOWNLOAD_ALL_TAG]

    def resized(payload, store, pool):
        symbols = answer(payload, store, pool)
        return symbols[:-1] if change < 0 else symbols + [0]

    monkeypatch.setitem(transport.QUERY_HANDLERS, wire.DOWNLOAD_ALL_TAG, resized)
    full, responder = EntityConfig(1, 6, 2, frozenset(range(6))), EntityConfig(2, 6, 2, frozenset({0, 2, 3}))
    with pytest.raises(ProtocolFault, match="^answer of wrong length at database 0$"):
        run_psi(full, responder, backend=backend, seed_client=1, seed_cr=1)


@pytest.mark.parametrize("backend", ["sim", "tcp"])
def test_a_block_answer_out_of_shape_names_its_database(backend, monkeypatch):
    # The client queries the databases in order, so the n-th block answer
    # served is database n's.  Each of them, one symbol short or reading 2,
    # is refused with that database named, on either backend.
    answer = transport.QUERY_HANDLERS[wire.BLOCK_QUERY_TAG]
    init = EntityConfig(1, 12, 3, frozenset({0, 3, 5, 9}))  # two entries at each of the responder's 3 databases
    resp = EntityConfig(2, 12, 3, frozenset({0, 1, 3, 4, 8, 9, 11}))
    for db in range(3):
        for tamper, message in (
            (lambda s: s[:-1], "answer of wrong length"),
            (lambda s: [2, *s[1:]], "answer symbol outside F_2"),
        ):
            served = []

            def tampered(payload, store, pool):
                served.append(answer(payload, store, pool))
                return tamper(served[-1]) if len(served) == db + 1 else served[-1]

            monkeypatch.setitem(transport.QUERY_HANDLERS, wire.BLOCK_QUERY_TAG, tampered)
            with pytest.raises(ProtocolFault, match=f"^{message} at database {db}$"):
                run_psi(init, resp, backend=backend, seed_client=1, seed_cr=1)


ONE_FLOW_INSTANCES = {
    "blocks": (
        EntityConfig(1, 12, 2, frozenset({0, 3, 5, 9})),
        EntityConfig(2, 12, 3, frozenset({0, 1, 3, 4, 8, 9, 11})),
    ),
    "empty": (EntityConfig(1, 6, 2, frozenset()), EntityConfig(2, 6, 2, frozenset({1, 2}))),
    "full": (EntityConfig(1, 6, 2, frozenset(range(6))), EntityConfig(2, 6, 2, frozenset({1, 4, 2, 5}))),
}


@pytest.mark.parametrize("name", ONE_FLOW_INSTANCES)
def test_local_tcp_run_is_a_remote_run_against_databases_it_serves(name, monkeypatch):
    e1, e2 = ONE_FLOW_INSTANCES[name]
    seed_client, seed_cr = 5, 6
    D = psi_direction_cost(e1.size, e2.n_databases, e1.K)
    shared = CommonRandomnessPool.generate(D - e1.size, 2, seed_cr).symbols

    served, remote_calls = [], []
    entity_servers, run_remote = psi.entity_servers, psi.run_psi_remote

    def recording_entity_servers(*args):
        served.append(entity_servers(*args))
        return served[-1]

    def recording_remote(initiator, addresses, **kwargs):
        # Every responder database is provisioned with the direction's D - P symbols before the first frame.
        assert all(srv.pool.symbols == shared and not srv.query_served for srv in served[-1])
        remote_calls.append((initiator, len(addresses)))
        return run_remote(initiator, addresses, **kwargs)

    monkeypatch.setattr(psi, "entity_servers", recording_entity_servers)
    monkeypatch.setattr(psi, "run_psi_remote", recording_remote)
    local = run_psi(e1, e2, backend="tcp", seed_client=seed_client, seed_cr=seed_cr)
    assert remote_calls == [(e1, e2.n_databases)]
    sim = run_psi(e1, e2, backend="sim", seed_client=seed_client, seed_cr=seed_cr)
    assert len(remote_calls) == 1 and all(srv.pool.symbols == shared for srv in served[-1])
    monkeypatch.undo()

    servers = psi.entity_servers(e2, D - e1.size, seed_cr)
    with transport.TcpServerPool(servers) as pool:
        remote = run_psi_remote(e1, pool.addresses, seed_client=seed_client)

    assert local.transcript.records == remote.transcript.records == sim.transcript.records
    assert local.intersection == remote.intersection == sim.intersection == e1.elements & e2.elements
    assert local.optimal_cost == remote.optimal_cost == sim.optimal_cost == D
    assert local.transcript.meta == sim.transcript.meta == {**remote.transcript.meta, "seed_cr": seed_cr}
    assert remote.transcript.meta["seed_cr"] is None


@pytest.mark.parametrize("backend", ["sim", "tcp"])
def test_a_database_with_no_entries_gets_no_frame(backend, monkeypatch, received_bodies):
    # P=1 against N=3 is one block, its base at database 0 and its probe at
    # database 1: database 2 holds no entry, so it is never sent a query
    served = []
    entity_servers = psi.entity_servers
    monkeypatch.setattr(psi, "entity_servers", lambda *args: served.append(entity_servers(*args)) or served[-1])
    e1 = EntityConfig(1, 10, 3, frozenset({3}))
    e2 = EntityConfig(2, 10, 3, frozenset({1, 3, 5, 7}))
    res = run_psi(e1, e2, backend=backend, seed_client=1, seed_cr=2)
    assert res.intersection == {3} and res.download_symbols == res.optimal_cost == 2
    assert [len(db_records) for db_records in res.transcript.records] == [1, 1, 0]
    (servers,) = served
    assert [len(received_bodies[srv]) for srv in servers] == [1, 1, 0] and not servers[2].query_served


def test_queries_do_not_depend_on_responder_set():
    # Same seed, two responder sets of the same public size but different
    # private contents: identical query bytes.
    e2a = EntityConfig(2, 10, 2, frozenset({0, 2, 4, 5, 6, 7}))
    e2b = EntityConfig(2, 10, 2, frozenset({1, 3, 4, 5, 8, 9}))
    ra = run_psi(FIG_E1, e2a, seed_client=5, seed_cr=6)
    rb = run_psi(FIG_E1, e2b, seed_client=5, seed_cr=6)
    queries_a = [[q for q, _ in db] for db in ra.transcript.records]
    queries_b = [[q for q, _ in db] for db in rb.transcript.records]
    assert queries_a == queries_b


def test_initiator_plan_matches_own_set_only():
    # The plan is a deterministic function of (set, seed): rebuilding it from
    # the entity's own data reproduces the query bytes in the transcript.
    res = run_psi(FIG_E1, FIG_E2, seed_client=11, seed_cr=22)
    params = SchemeParams(K=10, P=4, N=2, L=1, q=2)
    plan = block_scheme.plan_blocks(params, tuple(sorted(FIG_E1.elements)), domain_rng(11, DOMAIN_CLIENT))
    rebuilt = plan.wire_queries()
    recorded = [[q[4:] for q, _ in db] for db in res.transcript.records]
    assert [r[0] for r in recorded] == rebuilt


def test_correctness_sweep_small():
    rng = Random(42)
    for _ in range(150):
        K = rng.randrange(2, 17)
        qs = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
        s1 = generate_set(K, rng.choice(qs), Random(rng.randrange(1 << 30)))
        s2 = generate_set(K, rng.choice(qs), Random(rng.randrange(1 << 30)))
        e1 = EntityConfig(1, K, rng.choice([2, 3]), s1)
        e2 = EntityConfig(2, K, rng.choice([2, 3]), s2)
        res = run_psi(e1, e2, seed_client=rng.randrange(1 << 30), seed_cr=rng.randrange(1 << 30))
        assert res.intersection == s1 & s2
        assert res.download_symbols == res.optimal_cost


def test_responder_store_is_built_once_across_runs(monkeypatch, received_bodies):
    calls, sessions = [], []

    def counting_to_incidence(elements, K):
        calls.append(K)
        return to_incidence(elements, K)

    def recording_entity_servers(*args):
        servers = entity_servers(*args)
        sessions.append(servers)
        return servers

    entity_servers = psi.entity_servers
    monkeypatch.setattr(psi, "to_incidence", counting_to_incidence)
    monkeypatch.setattr(psi, "entity_servers", recording_entity_servers)
    e1 = EntityConfig(1, 10, 2, frozenset({0, 1, 2, 3}))
    e2 = EntityConfig(2, 10, 2, frozenset({0, 2, 4, 5, 6, 7}))
    first = run_psi(e1, e2, seed_client=11, seed_cr=22)
    second = run_psi(e1, e2, seed_client=12, seed_cr=23)
    assert first.intersection == second.intersection == frozenset({0, 2})
    assert calls == [10]
    a, b = sessions
    # One shared immutable store; the servers and their pools are per run, and each database got one body.
    assert all(srv.store is e2.store for srv in a + b)
    assert not {id(srv) for srv in a} & {id(srv) for srv in b}
    assert a[0].pool is not b[0].pool
    assert [len(received_bodies[srv]) for srv in a + b] == [1] * 4


@pytest.mark.parametrize("backend", ["sim", "tcp"])
def test_runs_against_a_cached_store_match_a_fresh_entity(backend):
    e1 = EntityConfig(1, 12, 2, frozenset({0, 3, 5, 9}))
    e2 = EntityConfig(2, 12, 3, frozenset({0, 1, 3, 4, 8, 9, 11}))
    for seed_client, seed_cr in ((1, 2), (3, 4)):
        cached = run_psi(e1, e2, backend=backend, seed_client=seed_client, seed_cr=seed_cr)
        fresh_e2 = EntityConfig(2, 12, 3, frozenset({0, 1, 3, 4, 8, 9, 11}))
        fresh = run_psi(e1, fresh_e2, backend=backend, seed_client=seed_client, seed_cr=seed_cr)
        assert cached.intersection == fresh.intersection == frozenset({0, 3, 9})
        assert cached.download_symbols == fresh.download_symbols
        assert wire.encode_transcript(cached.transcript.meta, cached.transcript.records) == wire.encode_transcript(
            fresh.transcript.meta, fresh.transcript.records
        )


def test_cached_store_stays_out_of_equality_hash_and_repr():
    e = EntityConfig(2, 10, 2, frozenset({0, 2, 4}))
    fresh = EntityConfig(2, 10, 2, frozenset({0, 2, 4}))
    assert e.store.flat == bytes([1, 0, 1, 0, 1, 0, 0, 0, 0, 0])
    assert "store" in vars(e) and "store" not in vars(fresh)
    assert e == fresh and hash(e) == hash(fresh) and repr(e) == repr(fresh)
    moved = dataclasses.replace(e, elements=frozenset({1, 9}))
    assert moved.store is not e.store
    assert moved.store.flat == bytes([0, 1, 0, 0, 0, 0, 0, 0, 0, 1])


def test_psi_is_the_only_module_that_builds_an_incidence_store():
    # One store recipe: EntityConfig.store.
    callers = set()
    for path in Path(privset.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "from_bits":
                callers.add(path.name)
    assert callers == {"psi.py"}


def test_psi_is_the_only_module_that_provisions_databases():
    # One responder stand-up: psi.entity_servers.
    callers = set()
    for path in Path(privset.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                if name == "provision_cr":
                    callers.add(path.name)
    assert callers == {"psi.py"}


def served_views(K, P, N, base_step=1, backend="sim"):
    """Each database's Counter of received frames per desired set of size P,
    over every strategy draw: every shuffle order with every tuple of base
    vectors from ``range(0, 2**K, base_step)``, each run once, so each draw of
    ``plan_blocks`` is equally likely when ``base_step`` is 1.  The frames are
    recorded where each database handles them, in process (``sim``) or
    behind a ``TcpServerPool`` on loopback (``tcp``)."""
    responder = EntityConfig(2, K, N, frozenset({0}))
    servers = psi.entity_servers(responder, psi_direction_cost(P, N, K) - P, 1)
    n_blocks = -(-P // (N - 1))
    draws = []  # the draw the next plan_blocks call lays out
    frames = {srv: [] for srv in servers}  # what each database has received in the current session
    build_plan, handle_client_frame = block_scheme.build_plan, transport.DatabaseServer.handle_client_frame

    def recording(self, msg_type, payload):
        frames[self].append((msg_type, payload))
        return handle_client_frame(self, msg_type, payload)

    views = {}
    with pytest.MonkeyPatch.context() as mp, connected(servers, backend) as link:
        mp.setattr(block_scheme, "plan_blocks", lambda params, desired, rng: build_plan(params, desired, *draws.pop()))
        mp.setattr(transport.DatabaseServer, "handle_client_frame", recording)
        for desired in combinations(range(K), P):
            views[desired] = [Counter() for _ in range(N)]
            for order, bases in product(permutations(range(P)), product(range(0, 1 << K, base_step), repeat=n_blocks)):
                draws.append((list(order), list(bases)))
                result = psi._intersect(EntityConfig(1, K, N, frozenset(desired)), link, 0)
                assert result.intersection == responder.elements & set(desired)
                for db, srv in enumerate(servers):
                    views[desired][db][tuple(frames[srv])] += 1
                    frames[srv].clear()
    return views, responder


def views_agree(views, responder) -> bool:
    """Every database's views are equal across desired sets, database 0's
    across desired sets with one intersection, the result it is forwarded."""
    groups = {}
    for desired, per_db in views.items():
        for db, counter in enumerate(per_db):
            key = (db, frozenset(desired) & responder.elements if db == 0 else None)
            groups.setdefault(key, []).append(counter)
    return all(all(c == counters[0] for c in counters) for counters in groups.values())


SERVED_VIEW_SHAPES = [(3, 1, 2), (3, 2, 2), (3, 1, 3), (4, 2, 2), (4, 1, 3), (4, 2, 3)]


@pytest.mark.parametrize("K,P,N", SERVED_VIEW_SHAPES)
def test_each_served_database_receives_bytes_independent_of_the_desired_set(K, P, N):
    # Exact user privacy of the deployed flow: a database's whole received byte
    # view (SETUP, query ids, which databases get a frame, bodies and, at database
    # 0, the forwarded result) has one distribution for every desired set.
    assert views_agree(*served_views(K, P, N))
    # Control: bases never setting bit 0 let a probe on coordinate 0 show through.
    assert not views_agree(*served_views(K, P, N, base_step=2))


@pytest.mark.parametrize("K,P,N", [(3, 1, 2), (3, 1, 3)])
def test_each_database_served_on_loopback_receives_bytes_independent_of_the_desired_set(K, P, N):
    # The same views, each frame recorded by the database a TcpServerPool
    # serves as it reads it off the connection.
    assert views_agree(*served_views(K, P, N, backend="tcp"))
    assert not views_agree(*served_views(K, P, N, base_step=2, backend="tcp"))


# ROADMAP item 1: a served database answers more than the paper's common
# randomness allows.  Each test below pins one leak and passes once every pool
# slot masks one answer per database.
ITEM_1 = pytest.mark.xfail(strict=True, reason="ROADMAP item 1c", raises=AssertionError)
LEAK_K, LEAK_SET = 12, frozenset({1, 4, 5, 9})


@ITEM_1
@pytest.mark.parametrize("backend", ["sim", "tcp"])
def test_a_served_database_answers_one_body_per_slot(backend):
    # Database 0 is sent a zero vector on slot 0, then each unit vector on
    # slot 0: each later answer XOR the first is one incidence bit of the set.
    servers = psi.entity_servers(EntityConfig(2, LEAK_K, 2, LEAK_SET), 1024, 6)
    vectors = [0, *(1 << j for j in range(LEAK_K))]
    bodies = [wire.encode_block_query(0, [to_lane_bytes(vec, LEAK_K, 2)], LEAK_K, 2) for vec in vectors]
    with connected(servers, backend) as link:
        replies = [link.roundtrip(0, wire.MSG_QUERY, wire.encode_query(i, body))[0] for i, body in enumerate(bodies)]
    assert replies == [wire.MSG_ANSWER] + [wire.MSG_ERROR] * LEAK_K


@ITEM_1
@pytest.mark.parametrize("backend", ["sim", "tcp"])
def test_two_honest_sessions_against_one_pool_pin_nothing_undesired(backend, received_bodies):
    # Two P=1 sessions against one provisioned pair: both mask their one
    # entry at each database with slot 0, so a database's two answers XOR to
    # <c1 + c2, W>, a functional outside both desired sets (W1 + W6 here).
    pool_size = psi_direction_cost(1, 2, LEAK_K) - 1
    servers = psi.entity_servers(EntityConfig(2, LEAK_K, 2, LEAK_SET), pool_size, 3)
    with connected(servers, backend) as link:
        for desired, seed_client in (({0}, 1), ({3}, 2)):
            psi._intersect(EntityConfig(1, LEAK_K, 2, frozenset(desired)), link, seed_client)
    bodies = [body for srv in servers for body in received_bodies[srv]]
    assert len(bodies) == 4
    # twice the pool's slots: room for the second session's run on slots of its own
    span = audit.recoverable_coordinates(bodies, LEAK_K, 2 * pool_size, 2, (0, 3))
    assert span.undesired == ()
