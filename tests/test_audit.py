from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial
from random import Random

import pytest

from privset import audit, block_scheme, table_scheme, wire
from privset.params import SchemeParams, lspir_cost
from privset.storage import CommonRandomnessPool, MessageStore


class TestBlockUserPrivacy:
    # N=2 has one probe per block, N=3 (as psi-wide runs) two probes on two databases
    def test_passes_exactly(self):
        for P, N in product((1, 2), (2, 3)):
            v = audit.audit_block_user_privacy(SchemeParams(K=3, P=P, N=N, L=1, q=2))
            assert v.ok and v.distance == 0

    def test_negative_control_fails(self):
        for (P, distance), N in product(((1, 1), (2, Fraction(1, 2))), (2, 3)):
            v = audit.audit_block_user_privacy(
                SchemeParams(K=3, P=P, N=N, L=1, q=2), mutant=audit.BLOCK_MUTANT_NO_BASE_MASK
            )
            assert not v.ok and v.distance == distance

    def test_budget_refusal(self):
        with pytest.raises(audit.AuditBudgetExceeded):
            audit.audit_block_user_privacy(SchemeParams(K=4, P=2, N=2, L=3, q=2))

    def test_budget_counts_every_desired_set(self):
        # 32,768 atoms per desired set, C(4, 2) = 6 desired sets
        params = SchemeParams(K=4, P=2, N=2, L=1, q=2)
        assert audit._block_atoms(params) == 32768
        with pytest.raises(audit.AuditBudgetExceeded, match="196608 atoms"):
            audit.audit_block_user_privacy(params, budget=6 * 32768 - 1)


class TestBlockDbPrivacy:
    def test_passes_exactly(self):
        for P, N in product((1, 2), (2, 3)):
            v = audit.audit_block_db_privacy(SchemeParams(K=3, P=P, N=N, L=1, q=2))
            assert v.ok

    def test_q3_smoke(self):
        v = audit.audit_block_db_privacy(SchemeParams(K=2, P=1, N=2, L=1, q=3))
        assert v.ok
        v = audit.audit_block_user_privacy(SchemeParams(K=2, P=1, N=2, L=1, q=3))
        assert v.ok and v.distance == 0

    def test_negative_control_fails(self):
        for P, N in ((1, 2), (1, 3), (2, 3)):
            v = audit.audit_block_db_privacy(
                SchemeParams(K=3, P=P, N=N, L=1, q=2), mutant=audit.BLOCK_MUTANT_NO_CR
            )
            assert not v.ok


def enumerated_block_runs(params, desired, mutant):
    """Reference for the grouped enumeration: visit every strategy draw,
    message realization and randomness realization once, answering every
    database's query afresh each time.

    Yields ``(strategy, wires, w_flat, s_vals, answers)``: the strategy draw's
    index, its per-database wire queries, the flat message symbols, the pool
    symbols, and every database's answer.
    """
    K, P, L, N, q = params.K, params.P, params.L, params.N, params.q
    n_blocks = lspir_cost(P, N, L)[1]
    stores = [(w_flat, MessageStore(q, L, bytes(w_flat))) for w_flat in product(range(q), repeat=K * L)]
    pools = [(s_vals, audit._block_pool(params, s_vals, mutant)) for s_vals in product(range(q), repeat=n_blocks)]
    draws = product(permutations(range(P * L)), product(range(q), repeat=n_blocks * K * L))
    for strategy, (order, values) in enumerate(draws):
        rng = audit._ScriptedRandom([order], list(values))
        plan = audit._block_mutate(block_scheme.plan_blocks(params, desired, rng), mutant)
        assert rng.exhausted()
        wires = tuple(plan.wire_query(db) for db in range(N))
        for w_flat, store in stores:
            for s_vals, pool in pools:
                answers = tuple(tuple(block_scheme.answer_wire_query(w, store, pool)) for w in wires)
                yield strategy, wires, w_flat, s_vals, answers


def enumerated_block_user_dists(params, mutant):
    dists = []  # per desired set, per database
    for desired in combinations(range(params.K), params.P):
        per_db = [Counter() for _ in range(params.N)]
        for _, wires, w_flat, s_vals, answers in enumerated_block_runs(params, desired, mutant):
            for db, dist in enumerate(per_db):
                dist[wires[db], answers[db], w_flat, s_vals] += 1
        dists.append(per_db)
    return dists


def enumerated_block_db_groups(params, mutant):
    K, P, L = params.K, params.P, params.L
    undesired_coords = [m * L + s for m in range(P, K) for s in range(L)]
    groups = defaultdict(Counter)
    for strategy, wires, w_flat, _, answers in enumerated_block_runs(params, tuple(range(P)), mutant):
        groups[strategy, wires, answers][tuple(w_flat[c] for c in undesired_coords)] += 1
    return groups


GROUPED_BLOCK_INSTANCES = [
    SchemeParams(K=3, P=1, N=2, L=1, q=2),
    SchemeParams(K=3, P=2, N=2, L=1, q=2),
    SchemeParams(K=3, P=2, N=3, L=1, q=2),
    SchemeParams(K=2, P=1, N=2, L=1, q=3),
]


@pytest.mark.parametrize("mutant", [None, audit.BLOCK_MUTANT_NO_BASE_MASK, audit.BLOCK_MUTANT_NO_CR])
@pytest.mark.parametrize("params", GROUPED_BLOCK_INSTANCES, ids=lambda p: f"K{p.K}P{p.P}N{p.N}q{p.q}")
def test_grouped_enumeration_matches_every_run(params, mutant):
    assert audit._block_user_dists(params, mutant) == enumerated_block_user_dists(params, mutant)
    assert audit._block_db_groups(params, mutant) == enumerated_block_db_groups(params, mutant)


def test_block_audits_answer_each_body_once_per_realization(monkeypatch):
    parse, evaluate = wire.parse_block_query, block_scheme.answer_entries
    parsed, evaluated = [], []

    def counted_parse(body, *args):
        parsed.append(body)
        return parse(body, *args)

    def counted_evaluate(entries, store, pool):
        evaluated.append(tuple(entries))
        return evaluate(entries, store, pool)

    monkeypatch.setattr(wire, "parse_block_query", counted_parse)
    monkeypatch.setattr(block_scheme, "answer_entries", counted_evaluate)
    params = SchemeParams(K=3, P=2, N=2, L=1, q=2)
    # 64 distinct bodies, each parsed once and evaluated in the 8 message x 4
    # randomness realizations; answering every run afresh takes 3 x 128 x 32 x 2
    # and 128 x 32 x 2 evaluations, each after a parse of its own
    for verdict in (audit.audit_block_user_privacy, audit.audit_block_db_privacy):
        parsed.clear()
        evaluated.clear()
        assert verdict(params)
        assert len(parsed) == len(set(parsed)) == 64
        assert len(evaluated) == 2048 and len(set(evaluated)) == 64


class TestTableUserPrivacy:
    def test_passes_exactly(self):
        v = audit.audit_table_user_privacy(SchemeParams(K=3, P=1, N=2))
        assert v.ok and v.distance == 0

    def test_small_instance_passes(self):
        v = audit.audit_table_user_privacy(SchemeParams(K=2, P=1, N=2))
        assert v.ok and v.distance == 0

    def test_negative_controls_fail(self):
        for mutant in (audit.TABLE_MUTANT_NO_INDEX_PERM, audit.TABLE_MUTANT_NO_POOL_RELABEL):
            v = audit.audit_table_user_privacy(SchemeParams(K=3, P=1, N=2), mutant=mutant)
            assert not v.ok


def enumerated_component_tv(structs, size):
    """Reference for the closed form: the largest total variation between the
    image of ``structs[0]`` and of each other structure under a uniform
    permutation of ``range(size)``, over every permutation."""
    dists = [Counter() for _ in structs]
    for perm in permutations(range(size)):
        for dist, struct in zip(dists, structs):
            dist[tuple(map(perm.__getitem__, struct))] += 1
    return max(
        (audit.total_variation(dists[0], other, factorial(size)) for other in dists[1:]), default=Fraction(0)
    )


# Every table instance small enough to enumerate: max(L_store, pool size)! <= 8!.
ENUMERABLE_TABLES = [
    SchemeParams(K=2, P=1, N=2),
    SchemeParams(K=3, P=1, N=2),
    SchemeParams(K=3, P=2, N=2),
    SchemeParams(K=3, P=2, N=3),
    SchemeParams(K=2, P=1, N=2, q=3),
    SchemeParams(K=3, P=1, N=2, q=3),
]


@pytest.mark.parametrize("params", ENUMERABLE_TABLES, ids=lambda p: f"K{p.K}P{p.P}N{p.N}q{p.q}")
def test_closed_form_matches_enumerated_components(params):
    L_store, pool_size = audit._table_shape(params)
    assert factorial(max(L_store, pool_size)) <= 40320
    ident = audit._identity_orders(params.K, L_store, pool_size)
    for mutant in (None, audit.TABLE_MUTANT_NO_HIDDEN_CR):
        views = [
            audit._table_views(audit._table_build(params, desired, ident, mutant))
            for desired in combinations(range(params.K), params.P)
        ]
        worst = Fraction(0)
        for db in range(params.N):
            by_desired = [v[db] for v in views]
            for m in range(params.K):
                positions = [audit._msg_indices(v, m, L_store) for v in by_desired]
                worst = max(worst, enumerated_component_tv(positions, L_store))
            worst = max(worst, enumerated_component_tv([audit._visible_ids(v) for v in by_desired], pool_size))
        v = audit.audit_table_user_privacy(params, mutant=mutant)
        assert v.ok and worst == 0 and v.distance == worst
    for mutant in (audit.TABLE_MUTANT_NO_INDEX_PERM, audit.TABLE_MUTANT_NO_POOL_RELABEL):
        assert not audit.audit_table_user_privacy(params, mutant=mutant)


def enumerated_table_db_privacy(params, mutant=None, seeds=(0, 1, 2)):
    """Reference for the elimination verdict: the literal posterior check,
    enumerating every (W, S) pair for each strategy draw (the client knows its
    own draw, so the check conditions on it).  True iff every posterior of
    the undesired messages equals the uniform prior."""
    K, P, N, q = params.K, params.P, params.N, params.q
    L_store, pool_size = audit._table_shape(params)
    n_coords = K * L_store
    assert (q**n_coords) * (q**pool_size) * len(seeds) <= audit.DEFAULT_BUDGET
    undesired = range(P, K)
    for seed in seeds:
        table = table_scheme.build_query_table(params, tuple(range(P)), Random(seed))
        wires = table.wire_queries()
        hidden = audit._hidden_ids(table) if mutant == audit.TABLE_MUTANT_NO_HIDDEN_CR else []
        groups = defaultdict(Counter)
        for w_flat in product(range(q), repeat=n_coords):
            store = MessageStore(q, L_store, bytes(w_flat))
            for s_vals in product(range(q), repeat=pool_size):
                syms = list(s_vals)
                for pid in hidden:
                    syms[pid] = 0
                pool = CommonRandomnessPool(q, syms)
                answers = tuple(tuple(table_scheme.answer_wire_query(wires[db], store, pool)) for db in range(N))
                groups[answers][tuple(w_flat[m * L_store : (m + 1) * L_store] for m in undesired)] += 1
        if not audit._uniform_posteriors(groups, q ** (len(undesired) * L_store)):
            return False
    return True


class TestTableDbPrivacy:
    def test_elimination_verdict(self):
        v = audit.audit_table_db_privacy(SchemeParams(K=3, P=1, N=2))
        assert v.ok

    def test_enumerated_small_instance(self):
        assert enumerated_table_db_privacy(SchemeParams(K=2, P=1, N=2), seeds=(0, 1))

    def test_negative_control_fails_both_ways(self):
        v = audit.audit_table_db_privacy(
            SchemeParams(K=3, P=1, N=2), mutant=audit.TABLE_MUTANT_NO_HIDDEN_CR
        )
        assert not v.ok
        assert not enumerated_table_db_privacy(
            SchemeParams(K=2, P=1, N=2), seeds=(0,), mutant=audit.TABLE_MUTANT_NO_HIDDEN_CR
        )


class TestReliability:
    def test_table(self):
        v = audit.audit_reliability_table(SchemeParams(K=3, P=1, N=2), trials=25)
        assert v.ok

    def test_block(self):
        v = audit.audit_reliability_block(SchemeParams(K=4, P=2, N=3, L=2), trials=50)
        assert v.ok


class TestSymbolicLeakage:
    def test_worked_example_small(self):
        table = table_scheme.build_query_table(SchemeParams(K=3, P=1, N=3), (0,), Random(5))
        rep = audit.symbolic_leakage_table(table)
        assert rep.ok
        assert len(rep.recoverable) == 54
        assert all(c < 54 for c in rep.recoverable)  # message 0's coordinates only

    def test_worked_example_asymmetric(self):
        table = table_scheme.build_query_table(SchemeParams(K=5, P=3, N=2), (0, 1, 2), Random(5), reps=1)
        rep = audit.symbolic_leakage_table(table)
        assert rep.ok
        assert len(rep.recoverable) == 38

    def test_block_grid_point(self):
        plan = block_scheme.plan_blocks(SchemeParams(K=4, P=2, N=3, L=2), (1, 3), Random(4))
        rep = audit.symbolic_leakage_block(plan)
        assert rep.ok
        assert len(rep.recoverable) == 4

    def test_block_over_f5(self):
        # Elimination divides by pivots 2, 3 and 4 here, not only by 1 as over F_2.
        plan = block_scheme.plan_blocks(SchemeParams(K=4, P=2, N=3, L=2, q=5), (0, 2), Random(8))
        rep = audit.symbolic_leakage_block(plan)
        assert rep.ok
        assert len(rep.recoverable) == 4

    def test_exact_span_with_and_without_mask(self):
        import struct

        def block_payload(vectors_and_ids):
            # F_2 vectors of at most 8 coefficients: one packed byte each
            parts = [struct.pack("<B", block_scheme.BLOCK_QUERY_TAG), struct.pack("<I", len(vectors_and_ids))]
            for vec, cid in vectors_and_ids:
                parts.append(struct.pack("<I", cid))
                parts.append(struct.pack("<I", len(vec)) + bytes([sum(c << i for i, c in enumerate(vec))]))
            return b"".join(parts)

        base = [1, 1, 0]
        probe = [0, 1, 0]  # base + e_0 over F_2
        payloads = [block_payload([(base, 0)]), block_payload([(probe, 0)])]
        rec = audit.recoverable_coordinates(payloads, 3, 1, 2)
        assert rec == frozenset({0})
        # revealing the shared symbol (a synthetic plain download of pool id 0)
        # exposes the base combination and with it the undesired coordinate 1
        reveal = (
            struct.pack("<B", table_scheme.TABLE_QUERY_TAG)
            + struct.pack("<I", 1)
            + struct.pack("<I", 0)
            + struct.pack("<I", 0)
        )
        leaked = audit.recoverable_coordinates(payloads + [reveal], 3, 1, 2)
        assert leaked == frozenset({0, 1})
