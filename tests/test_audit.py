from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial
from random import Random

import pytest

from privset import audit, block_scheme, table_scheme
from privset.params import SchemeParams


class TestBlockUserPrivacy:
    def test_passes_exactly(self):
        for P in (1, 2):
            v = audit.audit_block_user_privacy(SchemeParams(K=3, P=P, N=2, L=1, q=2))
            assert v.ok and v.distance == 0

    def test_negative_control_fails(self):
        v = audit.audit_block_user_privacy(
            SchemeParams(K=3, P=1, N=2, L=1, q=2), mutant=audit.BLOCK_MUTANT_NO_BASE_MASK
        )
        assert not v.ok and v.distance == 1
        v = audit.audit_block_user_privacy(
            SchemeParams(K=3, P=2, N=2, L=1, q=2), mutant=audit.BLOCK_MUTANT_NO_BASE_MASK
        )
        assert not v.ok and v.distance == Fraction(1, 2)

    def test_budget_refusal(self):
        with pytest.raises(audit.AuditBudgetExceeded):
            audit.audit_block_user_privacy(SchemeParams(K=4, P=2, N=2, L=3, q=2))


class TestBlockDbPrivacy:
    def test_passes_exactly(self):
        for P in (1, 2):
            v = audit.audit_block_db_privacy(SchemeParams(K=3, P=P, N=2, L=1, q=2))
            assert v.ok

    def test_q3_smoke(self):
        v = audit.audit_block_db_privacy(SchemeParams(K=2, P=1, N=2, L=1, q=3))
        assert v.ok
        v = audit.audit_block_user_privacy(SchemeParams(K=2, P=1, N=2, L=1, q=3))
        assert v.ok and v.distance == 0

    def test_negative_control_fails(self):
        v = audit.audit_block_db_privacy(
            SchemeParams(K=3, P=1, N=2, L=1, q=2), mutant=audit.BLOCK_MUTANT_NO_CR
        )
        assert not v.ok


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


class TestTableDbPrivacy:
    def test_elimination_verdict(self):
        v = audit.audit_table_db_privacy(SchemeParams(K=3, P=1, N=2))
        assert v.ok

    def test_enumerated_small_instance(self):
        v = audit.audit_table_db_privacy_enumerated(SchemeParams(K=2, P=1, N=2), seeds=(0, 1))
        assert v.ok

    def test_negative_control_fails_both_ways(self):
        v = audit.audit_table_db_privacy(
            SchemeParams(K=3, P=1, N=2), mutant=audit.TABLE_MUTANT_NO_HIDDEN_CR
        )
        assert not v.ok
        v = audit.audit_table_db_privacy_enumerated(
            SchemeParams(K=2, P=1, N=2), seeds=(0,), mutant=audit.TABLE_MUTANT_NO_HIDDEN_CR
        )
        assert not v.ok


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
