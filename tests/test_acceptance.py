"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run ``pytest tests/test_acceptance.py -v`` for the per-criterion verdicts;
a summary block is also appended to the terminal report.
"""

import time
from fractions import Fraction
from functools import wraps
from random import Random

from conftest import record_acceptance

from privset import audit, block_scheme, table_scheme
from privset.params import (
    SchemeParams,
    alpha_profile,
    cost_ledger,
    lspir_cost,
    psi_optimal_cost,
    repetition_factor,
)
from privset.psi import EntityConfig, generate_set, run_psi
from privset.storage import CommonRandomnessPool, MessageStore

GRID = [(K, P, N) for K in range(2, 9) for P in range(1, K) for N in (2, 3, 4)]


def criterion(number: int, description: str, budget_s: float):
    def deco(fn):
        @wraps(fn)
        def wrapper():
            start = time.time()
            try:
                extra = fn()
            except BaseException:
                record_acceptance(f"criterion {number} FAIL - {description}")
                raise
            elapsed = time.time() - start
            note = f" [{extra}]" if extra else ""
            record_acceptance(
                f"criterion {number} PASS - {description} ({elapsed:.1f}s / budget {budget_s:.0f}s){note}"
            )
            assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"

        return wrapper

    return deco


@criterion(1, "stage-profile reproduction for both worked examples", 1.0)
def test_criterion_1_alpha_profiles():
    assert alpha_profile(3, 1, 3).alpha == (1, 2, 4)
    assert alpha_profile(5, 3, 2).alpha == (3, 1, 0, 0, 1)


@criterion(2, "K=3,P=1,N=3 end-to-end: 81 downloads, 54 desired, 27 shared, rate 2/3", 10.0)
def test_criterion_2_small_example_end_to_end():
    params = SchemeParams(K=3, P=1, N=3)
    checked = 0
    for seed in range(100):
        table = table_scheme.build_query_table(params, (seed % 3,), Random(seed))
        assert table.reps == 2
        assert table.total_downloads == 81
        assert table.total_desired_symbols == 54
        assert table.pool_size == 27
        assert table.rate == Fraction(2, 3)
        store = MessageStore.generate(3, table.L_store, 2, seed=seed * 3 + 1)
        pool = CommonRandomnessPool.generate(table.pool_size, 2, seed=seed * 3 + 2)
        answers = [table_scheme.answer(table.view(db), store, pool) for db in range(3)]
        decoded = table_scheme.decode(table, answers)
        m = seed % 3
        assert decoded == {m * 54 + s: store.flat[m * 54 + s] for s in range(54)}  # exactly message m
        checked += 1
    return f"{checked} seeds decoded"


@criterion(3, "K=5,P=3,N=2 single-pass run: 76 downloads, 38 desired (13/13/12), 38 shared, rate 1/2", 10.0)
def test_criterion_3_asymmetric_example_end_to_end():
    params = SchemeParams(K=5, P=3, N=2)
    table = table_scheme.build_query_table(params, (0, 1, 2), Random(7), reps=1)
    assert table.total_downloads == 76
    assert table.total_desired_symbols == 38
    assert sorted(table.msg_fresh[:3], reverse=True) == [13, 13, 12]
    assert table.pool_size == 38
    assert table.rate == Fraction(1, 2)
    store = MessageStore.generate(5, table.L_store, 2, seed=1)
    pool = CommonRandomnessPool.generate(table.pool_size, 2, seed=2)
    answers = [table_scheme.answer(table.view(db), store, pool) for db in range(2)]
    decoded = table_scheme.decode(table, answers)
    assert {c // table.L_store for c in decoded} == {0, 1, 2}
    for c, val in decoded.items():
        assert val == store.flat[c]


@criterion(4, "rate = 1-1/N and shared randomness = P*L/(N-1) exactly across the K<=8 grid", 300.0)
def test_criterion_4_capacity_identity_grid():
    # Full protocol execution below this download count; the largest grid
    # cells (up to 8.4e9 symbols at K=8,P=4,N=4) are verified through the
    # exact rational identities alone.
    build_budget = 250_000
    executed = 0
    for K, P, N in GRID:
        profile = alpha_profile(K, P, N)
        ledger = cost_ledger(K, P, N)
        nu = repetition_factor(K, P, N)
        mult = nu * profile.scale
        # exact rational identities on every grid point
        assert ledger.rate == 1 - Fraction(1, N), (K, P, N)
        l_batch = mult * N * (ledger.D1 - ledger.U1) / P
        total_cr = mult * N * (ledger.U1 + ledger.D2)
        assert total_cr == Fraction(P * l_batch, N - 1), (K, P, N)
        assert total_cr.denominator == 1 and l_batch.denominator == 1, (K, P, N)

        predicted_downloads = mult * N * (ledger.D1 + ledger.D2)
        if predicted_downloads > build_budget:
            continue
        # measured on an actual run
        table = table_scheme.build_query_table(SchemeParams(K=K, P=P, N=N), tuple(range(P)), Random(K * 100 + P * 10 + N))
        assert table.total_downloads == int(predicted_downloads), (K, P, N)
        measured_rate = Fraction(table.total_desired_symbols, table.total_downloads)
        assert measured_rate == 1 - Fraction(1, N), (K, P, N)
        measured_l_batch = Fraction(table.total_desired_symbols, P)
        assert table.pool_size == Fraction(P * measured_l_batch, N - 1), (K, P, N)
        store = MessageStore.generate(K, table.L_store, 2, seed=K + P + N)
        pool = CommonRandomnessPool.generate(table.pool_size, 2, seed=K * P * N)
        answers = [table_scheme.answer(table.view(db), store, pool) for db in range(N)]
        decoded = table_scheme.decode(table, answers)
        assert {c // table.L_store for c in decoded} == set(range(P)), (K, P, N)
        for c, val in decoded.items():
            assert val == store.flat[c]
        executed += 1
    return f"{len(GRID)} cells verified in rationals, {executed} also executed end-to-end"


@criterion(5, "fixed-length costs = ceil(NPL/(N-1)) downloads and ceil(PL/(N-1)) shared, exactly", 60.0)
def test_criterion_5_block_cost_grid():
    cells = 0
    for P in range(1, 7):
        for L in range(1, 7):
            for N in range(2, 6):
                K = P + 1
                params = SchemeParams(K=K, P=P, N=N, L=L)
                plan = block_scheme.plan_blocks(params, tuple(range(P)), Random(cells))
                D, HS = lspir_cost(P, N, L)
                store = MessageStore.generate(K, L, 2, seed=cells + 1)
                pool = CommonRandomnessPool.generate(plan.n_blocks, 2, seed=cells + 2)
                answers = [block_scheme.answer_wire_query(plan.wire_query(db), store, pool) for db in range(N)]
                assert sum(len(a) for a in answers) == D
                assert plan.n_blocks == HS
                coords = block_scheme.decode_blocks(plan, answers)
                assert coords == {c: store.flat[c] for c in range(P * L)}  # exactly messages 0..P-1
                cells += 1
    return f"{cells} cells executed"


@criterion(6, "flagship intersection: {a,c}, 8 symbols, initiator 1, identical over sim and tcp", 5.0)
def test_criterion_6_flagship_psi():
    e1 = EntityConfig(1, 10, 2, frozenset({0, 1, 2, 3}))
    e2 = EntityConfig(2, 10, 2, frozenset({0, 2, 4, 5, 6, 7}))
    res_sim = run_psi(e1, e2, backend="sim", seed_client=11, seed_cr=22)
    res_tcp = run_psi(e1, e2, backend="tcp", seed_client=11, seed_cr=22)
    for res in (res_sim, res_tcp):
        assert res.intersection == frozenset({0, 2})
        assert res.download_symbols == 8
        assert res.optimal_cost == 8
        assert res.initiator == 1
    assert res_sim.transcript.records == res_tcp.transcript.records


@criterion(7, "exhaustive privacy audits pass at distance zero; mutants fail", 600.0)
def test_criterion_7_privacy_audits():
    for P in (1, 2):
        v = audit.audit_block_user_privacy(SchemeParams(K=3, P=P, N=2, L=1, q=2))
        assert v.ok and v.distance == 0, f"block user privacy P={P}"
        v = audit.audit_block_db_privacy(SchemeParams(K=3, P=P, N=2, L=1, q=2))
        assert v.ok, f"block db privacy P={P}"
    v = audit.audit_table_user_privacy(SchemeParams(K=3, P=1, N=2))
    assert v.ok and v.distance == 0, "table user privacy"
    v = audit.audit_table_db_privacy(SchemeParams(K=3, P=1, N=2))
    assert v.ok, "table db privacy"
    n3 = SchemeParams(K=3, P=1, N=3)  # the paper's N=3 worked example
    v = audit.audit_table_user_privacy(n3)
    assert v.ok and v.distance == 0, "N=3 table user privacy"

    # negative controls must fail both audit kinds
    v = audit.audit_block_user_privacy(SchemeParams(K=3, P=1, N=2, L=1, q=2),
                                       mutant=audit.BLOCK_MUTANT_NO_BASE_MASK)
    assert not v.ok and v.distance > 0
    v = audit.audit_block_db_privacy(SchemeParams(K=3, P=1, N=2, L=1, q=2),
                                     mutant=audit.BLOCK_MUTANT_NO_CR)
    assert not v.ok
    v = audit.audit_table_user_privacy(SchemeParams(K=3, P=1, N=2),
                                       mutant=audit.TABLE_MUTANT_NO_INDEX_PERM)
    assert not v.ok
    for mutant in (audit.TABLE_MUTANT_NO_INDEX_PERM, audit.TABLE_MUTANT_NO_POOL_RELABEL):
        assert not audit.audit_table_user_privacy(n3, mutant=mutant), f"N=3 {mutant}"
    v = audit.audit_table_db_privacy(SchemeParams(K=3, P=1, N=2),
                                     mutant=audit.TABLE_MUTANT_NO_HIDDEN_CR)
    assert not v.ok


@criterion(8, "symbolic leakage: both worked-example transcripts pin exactly the desired coordinates", 30.0)
def test_criterion_8_symbolic_leakage():
    table3 = table_scheme.build_query_table(SchemeParams(K=3, P=1, N=3), (0,), Random(5))
    rep = audit.symbolic_leakage_table(table3)
    assert rep.ok and len(rep.recoverable) == 54

    table4 = table_scheme.build_query_table(SchemeParams(K=5, P=3, N=2), (0, 1, 2), Random(5), reps=1)
    rep = audit.symbolic_leakage_table(table4)
    assert rep.ok and len(rep.recoverable) == 38


@criterion(9, "1000 random intersections decode exactly at the optimal cost", 120.0)
def test_criterion_9_psi_sweep():
    rng = Random(2718)
    probs = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    for i in range(1000):
        K = rng.randrange(2, 17)
        s1 = generate_set(K, rng.choice(probs), Random(rng.randrange(1 << 30)))
        s2 = generate_set(K, rng.choice(probs), Random(rng.randrange(1 << 30)))
        e1 = EntityConfig(1, K, rng.choice([2, 3]), s1)
        e2 = EntityConfig(2, K, rng.choice([2, 3]), s2)
        res = run_psi(e1, e2, seed_client=rng.randrange(1 << 30), seed_cr=rng.randrange(1 << 30))
        assert res.intersection == s1 & s2, (K, s1, s2)
        assert res.download_symbols == res.optimal_cost, (K, len(s1), len(s2))
        # min(ceil(P1*N2/(N2-1)), ceil(P2*N1/(N1-1))), with empty and full sets priced too
        optimum = psi_optimal_cost(len(s1), e1.n_databases, len(s2), e2.n_databases, K)
        assert (res.download_symbols, res.initiator) == optimum, (K, len(s1), len(s2))
    return "1000 instances"
