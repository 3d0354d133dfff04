from itertools import combinations, product
from random import Random

import pytest

from conftest import answer_block
from privset.block_scheme import (
    answer_wire_query,
    build_plan,
    decode_blocks,
    entry_count,
    plan_blocks,
)
from privset.field import DOMAIN_MESSAGES, domain_rng, lane_bits, pack, sample_symbols, sample_uniform, unpack
from privset.params import InfeasibleError, ParamError, SchemeParams, lspir_cost
from privset.storage import CommonRandomnessPool, MessageStore
from privset.table_scheme import ProtocolFault


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
    assert plan.queries[0][0].vector == 7 and plan.queries[1][1].vector == 9


def test_probe_is_base_plus_unit_vector():
    for q in (5, 2):
        plan, *_ = run_once(4, 2, 3, L=2, q=q, seed=2)
        for j, block_coords in enumerate(plan.coords):
            vecs = {qs[j].probe_coord: qs[j].vector for qs in plan.queries if len(qs) > j}
            base = vecs.pop(None)
            assert type(base) is int and base >> (8 * lane_bits(q)) == 0
            base = unpack(base, 8, q)
            assert max(base) < q
            assert sorted(vecs) == sorted(block_coords)
            for t, vec in vecs.items():
                assert type(vec) is int
                vec = unpack(vec, 8, q)
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
                assert bq.vector == base.vector ^ (0 if bq.probe_coord is None else 1 << bq.probe_coord)
            views += 1
    assert views == 4095


def test_count_mismatch_detected():
    plan, _, _, answers = run_once(3, 1, 2)
    with pytest.raises(ProtocolFault):
        decode_blocks(plan, answers[:1])
    answers[0] = answers[0] + [0]
    with pytest.raises(ProtocolFault):
        decode_blocks(plan, answers)


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
