from itertools import combinations, product
from random import Random

import pytest

from conftest import answer_block
from privset import block_scheme
from privset.block_scheme import (
    answer_wire_query,
    build_plan,
    decode_blocks,
    entry_count,
    plan_blocks,
)
from privset.field import (
    DOMAIN_MESSAGES,
    domain_rng,
    lane_bits,
    pack,
    raise_lane,
    sample_symbols,
    sample_uniform,
    to_lane_bytes,
    unpack,
    vector_size,
)
from privset.params import InfeasibleError, ParamError, SchemeParams, lspir_cost
from privset.storage import CommonRandomnessPool, MessageStore
from privset.table_scheme import ProtocolFault
from privset.wire import parse_block_query


def run_once(K, P, N, L=1, q=2, desired=None, seed=0):
    params = SchemeParams(K=K, P=P, N=N, L=L, q=q)
    desired = tuple(range(P)) if desired is None else desired
    plan = plan_blocks(params, desired, Random(seed))
    store = MessageStore.generate(K, L, q, seed=seed + 1)
    pool = CommonRandomnessPool.generate(plan.n_blocks, q, seed=seed + 2)
    answers = [answer_wire_query(plan.wire_query(db), store, pool) for db in range(N)]
    return plan, store, pool, answers


def test_entry_count_is_the_plan_layout_in_closed_form():
    for N, P, L in product(range(2, 9), range(1, 40), range(1, 4)):
        plan = plan_blocks(SchemeParams(K=P + 1, P=P, N=N, L=L), range(P), Random(0))
        assert [entry_count(db, P, N, L) for db in range(N)] == [len(qs) for qs in plan.queries], (N, P, L)


def test_minimal_plan_shape():
    plan, *_ = run_once(3, 1, 2)
    assert plan.n_blocks == 1
    assert plan.total_queries == 2


def test_plan_shape_four_of_ten():
    plan, *_ = run_once(10, 4, 2)
    assert plan.n_blocks == 4
    assert plan.total_queries == 8


def test_plan_shape_wide():
    plan, *_ = run_once(4, 3, 4, L=5)
    assert plan.n_blocks == 5
    assert plan.total_queries == 20


def test_answer_zero_vector_returns_randomness():
    store = MessageStore.generate(3, 1, 2, seed=1)
    assert answer_block([0, 0, 0], store, 1) == 1


def test_answer_block_annihilator_and_selector():
    store = MessageStore(5, 1, [3, 1, 4])
    assert answer_block(bytes(3), store, 0) == 0
    for j in range(3):
        e = [1 if i == j else 0 for i in range(3)]
        assert answer_block(e, store, 0) == store.flat[j]
        assert answer_block(e, store, 2) == (store.flat[j] + 2) % 5


def test_answer_block_linear_random():
    # <a + b, W> + s = (<a, W> + s) + (<b, W> + s) - s over F_5: the decode relies on it.
    rng = Random(1)
    for _ in range(50):
        store = MessageStore(5, 2, [rng.randrange(5) for _ in range(6)])
        a, b = ([rng.randrange(5) for _ in range(6)] for _ in range(2))
        s = rng.randrange(5)
        ab = [(x + y) % 5 for x, y in zip(a, b)]
        assert answer_block(ab, store, s) == (answer_block(a, store, s) + answer_block(b, store, s) - s) % 5


def test_answer_telescoping_pair():
    store = MessageStore(2, 1, [1, 0, 1])
    base = bytes([1, 1, 0])
    probe = bytes([1, 1, 1])  # base + e_2
    cr = 1
    assert (answer_block(probe, store, cr) - answer_block(base, store, cr)) % 2 == store.flat[2]


def test_answer_hand_case():
    # q=2, W=(1,0,1), c=(1,1,0), cr=1: <c,W> = 1, plus cr -> 0
    store = MessageStore(2, 1, [1, 0, 1])
    assert answer_block([1, 1, 0], store, 1) == 0


def test_answer_rejects_wrong_length():
    store = MessageStore(2, 1, [1, 0])
    with pytest.raises(ParamError):
        answer_block([1], store, 0)


def test_decode_minimal():
    plan, store, _, answers = run_once(3, 1, 2)
    coords = decode_blocks(plan, answers)
    assert coords == {s: store.flat[s] for s in range(plan.params.L)}  # exactly message 0's coordinates


def test_decode_fig_instance_bits():
    # incidence bits 1010111100; desired positions {0,1,2,3} -> (1,0,1,0)
    bits = [1, 0, 1, 0, 1, 1, 1, 1, 0, 0]
    store = MessageStore.from_bits(bits)
    params = SchemeParams(K=10, P=4, N=2, L=1, q=2)
    plan = plan_blocks(params, (0, 1, 2, 3), Random(3))
    pool = CommonRandomnessPool.generate(plan.n_blocks, 2, seed=4)
    answers = [answer_wire_query(plan.wire_query(db), store, pool) for db in range(2)]
    coords = decode_blocks(plan, answers)
    assert [coords[j] for j in range(4)] == [1, 0, 1, 0]


def test_decode_random_grid():
    rng = Random(9)
    for _ in range(1000):
        K = rng.randrange(2, 5)
        P = rng.randrange(1, min(2, K - 1) + 1)
        L = rng.randrange(1, 3)
        N = rng.randrange(2, 4)
        desired = tuple(sorted(rng.sample(range(K), P)))
        plan, store, _, answers = run_once(K, P, N, L=L, desired=desired, seed=rng.randrange(1 << 30))
        coords = decode_blocks(plan, answers)
        assert coords == {m * L + s: store.flat[m * L + s] for m in desired for s in range(L)}


def test_cost_exactness_grid():
    for P, L, N in product(range(1, 7), range(1, 7), range(2, 6)):
        plan, _, _, answers = run_once(P + 1, P, N, L=L, seed=P * 100 + L * 10 + N)
        D, HS = lspir_cost(P, N, L)
        assert plan.total_queries == D
        assert sum(len(a) for a in answers) == D
        assert plan.n_blocks == HS


def test_per_database_marginal_uniformity_exact():
    # K*L <= 4, q=2: enumerate the client randomness and check each database's
    # received vector list hits every value tuple equally often.
    params = SchemeParams(K=3, P=1, N=2, L=1, q=2)
    desired = (1,)
    counts = [dict(), dict()]
    total = 0
    for values in product(range(2), repeat=3):  # the one block's base vector, coefficient by coefficient
        plan = build_plan(params, desired, (0,), [pack(values, 2)])
        for db in range(2):
            key = tuple(bq.vector for bq in plan.queries[db])
            counts[db][key] = counts[db].get(key, 0) + 1
        total += 1
    for db in range(2):
        assert len(counts[db]) == 8
        assert set(counts[db].values()) == {total // 8}


def test_plan_blocks_is_build_plan_of_a_draw_that_takes_no_desired_set():
    # the audits decide build_plan; a seeded plan is build_plan of the shuffle
    # order and base vectors drawn from an identically seeded stream, at every
    # desired set, and the stream ends where plan_blocks leaves it
    for K, N, L, q in product(range(2, 5), (2, 3), (1, 2), (2, 3, 5)):
        for P in range(1, K):
            params = SchemeParams(K=K, P=P, N=N, L=L, q=q)
            for s, desired in enumerate(combinations(range(K), P)):
                rng = Random(s)
                order = list(range(P * L))
                rng.shuffle(order)
                bases = [sample_uniform(rng, K * L, q) for _ in range(lspir_cost(P, N, L)[1])]
                seeded = Random(s)
                assert plan_blocks(params, desired, seeded) == build_plan(params, desired, order, bases), params
                assert seeded.getstate() == rng.getstate()


def test_build_plan_lays_out_its_order_and_bases():
    # desired coordinate order[i] takes block position i; block j's base is
    # bases[j], at database j mod N, and its probes follow that database
    plan = build_plan(SchemeParams(K=4, P=2, N=3, L=2, q=5), (1, 3), [3, 0, 2, 1], [7, 9])
    assert plan.coords == [[7, 2], [6, 3]]
    assert [[bq.probe_coord for bq in qs] for qs in plan.queries] == [[None, 3], [7, None], [2, 6]]
    vector = lambda bq: int.from_bytes(bq.vector, "little")  # noqa: E731
    assert vector(plan.queries[0][0]) == 7 and vector(plan.queries[1][1]) == 9


def test_build_plan_refuses_a_full_set_and_a_single_database():
    with pytest.raises(ParamError, match=r"^P == K is served by the download-all path, not by block queries$"):
        build_plan(SchemeParams(K=3, P=3, N=2), (0, 1, 2), [0, 1, 2], [0, 0, 0])
    with pytest.raises(InfeasibleError, match=r"^at least two databases are required$"):
        build_plan(SchemeParams(K=3, P=1, N=1), (0,), [0], [0])


def test_probe_is_base_plus_unit_vector():
    for q in (5, 2):
        plan, *_ = run_once(4, 2, 3, L=2, q=q, seed=2)
        for j, block_coords in enumerate(plan.coords):
            vecs = {qs[j].probe_coord: qs[j].vector for qs in plan.queries if len(qs) > j}
            base = vecs.pop(None)
            assert type(base) is bytes and len(base) == vector_size(8, q)
            base = int.from_bytes(base, "little")
            assert base >> (8 * lane_bits(q)) == 0
            base = unpack(base, 8, q)
            assert max(base) < q
            assert sorted(vecs) == sorted(block_coords)
            for t, vec in vecs.items():
                assert type(vec) is bytes and len(vec) == vector_size(8, q)
                vec = unpack(int.from_bytes(vec, "little"), 8, q)
                assert [(v - b) % q for v, b in zip(vec, base)] == [1 if i == t else 0 for i in range(8)]


def test_store_is_flattened_once():
    plan, store, pool, answers = run_once(4, 2, 2, L=2)
    flat = store.flat
    # row-major: the generator's stream, message after message (run_once seeds the store with 1)
    assert flat == bytes(sample_symbols(domain_rng(1, DOMAIN_MESSAGES), 4 * 2, 2))
    assert [answer_wire_query(plan.wire_query(db), store, pool) for db in range(2)] == answers
    assert store.flat is flat


def test_each_database_gets_at_most_one_vector_per_block():
    plan, *_ = run_once(5, 3, 3, L=2, seed=6)
    for j, block_coords in enumerate(plan.coords):
        block = [(db, qs[j]) for db, qs in enumerate(plan.queries) if len(qs) > j]
        holders = [db for db, _ in block]
        assert len(holders) == len(set(holders)) == 1 + len(block_coords)
        (base_db,) = [db for db, bq in block if bq.probe_coord is None]
        assert base_db not in [db for db, bq in block if bq.probe_coord is not None]


def test_entry_i_of_every_database_is_block_i():
    # What lets a body name one slot run: at every shape, each database's
    # entry i is block i, whose base sits at database i mod N and whose
    # probes are that base plus a unit vector of one of its coordinates.
    views = 0
    for N, P, L in product(range(2, 9), range(1, 40), range(1, 4)):
        plan = plan_blocks(SchemeParams(K=40, P=P, N=N, L=L), tuple(range(P)), Random(P))
        for db, qs in enumerate(plan.queries):
            assert len(qs) <= plan.n_blocks
            for j, bq in enumerate(qs):
                base = plan.queries[j % N][j]
                assert bq.probe_coord is None if db == j % N else bq.probe_coord in plan.coords[j]
                vector, base_vector = (int.from_bytes(v.vector, "little") for v in (bq, base))
                assert vector == base_vector ^ (0 if bq.probe_coord is None else 1 << bq.probe_coord)
            views += 1
    assert views == 4095


def int_plan(params, desired, order, bases):
    """Per database, the (packed int vector, probe coordinate) entries of the
    construction ``build_plan`` once used: block j's base at database j mod N,
    then base ^ 1 << t over F_2 (``raise_lane`` otherwise) at the databases after it."""
    L, N, q = params.L, params.N, params.q
    coords = [desired[i // L] * L + i % L for i in order]
    entries = [[] for _ in range(N)]
    for j, base in enumerate(bases):
        entries[j % N].append((base, None))
        for db, t in enumerate(coords[j * (N - 1) : (j + 1) * (N - 1)], j + 1):
            entries[db % N].append((base ^ 1 << t if q == 2 else raise_lane(base, t, q), t))
    return entries


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("K, L", [(7, 1), (8, 1), (4, 2), (10, 1), (5, 2), (64, 1), (32, 2)])
def test_planned_bytes_are_the_int_construction_converted(K, L, q):
    # K*L in {7, 8, 10, 64}: over F_2 the last byte of 7 and 10 coefficients is partial
    bits = K * L * lane_bits(q)
    size = -(-bits // 8)
    for N, seed in product((2, 3), range(6)):
        rng = Random(seed)
        P = rng.randrange(1, K)
        params, desired = SchemeParams(K=K, P=P, N=N, L=L, q=q), tuple(sorted(rng.sample(range(K), P)))
        order = list(range(P * L))
        rng.shuffle(order)
        bases = [sample_uniform(rng, K * L, q) for _ in range(lspir_cost(P, N, L)[1])]
        plan = build_plan(params, desired, order, bases)
        for db, entries in enumerate(int_plan(params, desired, order, bases)):
            assert [(bq.vector, bq.probe_coord) for bq in plan.queries[db]] == [
                (vec.to_bytes(size, "little"), t) for vec, t in entries
            ]
            first, vectors = parse_block_query(plan.wire_query(db), q, K * L, plan.n_blocks)
            assert first == 0 and vectors == [bq.vector for bq in plan.queries[db]]
            assert all(int.from_bytes(vec, "little") >> bits == 0 for vec in vectors)  # padding bits still 0


class RefusesIntProbes(int):
    """A base vector that refuses the arithmetic an int probe is built with."""

    def __xor__(self, other):
        raise AssertionError("a probe was built as an int")

    __rxor__ = __add__ = __radd__ = __rshift__ = __or__ = __xor__


@pytest.mark.parametrize("q", [2, 5])
def test_build_plan_converts_each_base_once_and_builds_no_int_probe(monkeypatch, q):
    # K=64 P=8 N=3: 4 blocks and 12 entries, so 4 int-to-bytes conversions, one per block
    calls = []

    def counted(vec, length, q):
        calls.append(vec)
        return to_lane_bytes(vec, length, q)

    monkeypatch.setattr(block_scheme, "to_lane_bytes", counted)
    params = SchemeParams(K=64, P=8, N=3, q=q)
    rng = Random(q)
    bases = [RefusesIntProbes(sample_uniform(rng, 64, q)) for _ in range(4)]
    plan = build_plan(params, tuple(range(8)), list(range(8)), bases)
    assert (plan.n_blocks, plan.total_queries) == (4, 12)
    assert calls == bases
    assert all(type(bq.vector) is bytes for qs in plan.queries for bq in qs)


def test_count_mismatch_detected():
    plan, _, _, answers = run_once(3, 1, 2)
    with pytest.raises(ProtocolFault):
        decode_blocks(plan, answers[:1])
    answers[0] = answers[0] + [0]
    with pytest.raises(ProtocolFault):
        decode_blocks(plan, answers)


def test_decode_refuses_a_symbol_outside_the_field_at_each_database():
    for q in (2, 3):
        plan, _, _, answers = run_once(4, 2, 3, q=q)  # one block: a base at database 0, a probe at 1 and at 2
        for db in range(3):
            for bad in (-1, q):
                tampered = [a[:] for a in answers]
                tampered[db][0] = bad
                with pytest.raises(ProtocolFault, match=rf"^answer symbol outside F_{q} at database {db}$"):
                    decode_blocks(plan, tampered)


def test_decode_names_the_database_whose_answer_has_the_wrong_length():
    plan, _, _, answers = run_once(4, 2, 3)  # one block: a base at database 0, a probe at 1 and at 2
    with pytest.raises(ProtocolFault, match=r"^expected 3 answer strings, got 2$"):
        decode_blocks(plan, answers[:2])
    for db in range(3):
        for tampered_db in (answers[db][:-1], answers[db] + [0]):
            tampered = [tampered_db if i == db else a for i, a in enumerate(answers)]
            with pytest.raises(ProtocolFault, match=rf"^answer of wrong length at database {db}$"):
                decode_blocks(plan, tampered)


def test_single_database_rejected():
    with pytest.raises(InfeasibleError):
        plan_blocks(SchemeParams(K=3, P=1, N=1), (0,), Random(0))


def test_a_repeated_desired_message_is_refused():
    # merged, (1, 1, 2) at P=2 would have laid out the blocks of {1, 2}
    params = SchemeParams(K=4, P=2, N=2)
    for desired in ((1, 1), (1, 1, 2), [3, 3]):
        with pytest.raises(ParamError, match="P=2 distinct messages"):
            build_plan(params, desired, [0, 1], [0, 0])
        with pytest.raises(ParamError, match="P=2 distinct messages"):
            plan_blocks(params, desired, Random(0))
