from fractions import Fraction
from random import Random

import pytest

from privset.field import DOMAIN_CLIENT, domain_rng
from privset.params import InfeasibleError, ParamError, SchemeParams, psi_optimal_cost
from privset.psi import (
    EntityConfig,
    IncidenceVector,
    generate_set,
    run_psi,
    run_psi_remote,
    to_incidence,
)
from privset import block_scheme, transport
from privset.storage import MessageStore
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
    assert vec.weight == 2
    assert vec.elements() == frozenset({1, 3})
    assert IncidenceVector.from_string(vec.as_string()) == vec


def test_incidence_rejects_bad_input():
    with pytest.raises(ParamError):
        to_incidence({5}, 5)
    with pytest.raises(ParamError):
        IncidenceVector((0, 2))


def test_incidence_string_holds_only_zeros_and_ones():
    assert IncidenceVector.from_string(" 0110\n").bits == bytes([0, 1, 1, 0])
    for text in ("01x", "0 1", "012", "01\u0661"):
        with pytest.raises(ParamError):
            IncidenceVector.from_string(text)
    for bits in ((0, -1), (1, 256), ("0", "1")):
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
