from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import comb

import pytest

from privset import params
from privset.params import (
    AlphaProfile,
    InfeasibleError,
    ParamError,
    SchemeParams,
    alpha_profile,
    cost_ledger,
    lspir_cost,
    mm_spir_capacity,
    psi_optimal_cost,
    repetition_factor,
)
from privset.storage import MessageStore

GRID = [
    (K, P, N)
    for K in range(2, 9)
    for P in range(1, K)
    for N in (2, 3, 4)
]


def test_non_prime_modulus_rejected():
    # A symbol is one byte on the wire, so q must be a prime no larger than 256.
    for q in (0, 1, 4, 256, 257):
        with pytest.raises(ParamError, match="prime"):
            SchemeParams(K=3, P=1, N=2, q=q)
        with pytest.raises(ParamError, match="prime"):
            MessageStore(q, 1, [0, 1])
    for q in (2, 3, 251):
        assert SchemeParams(K=3, P=1, N=2, q=q).q == q
    # The store's one constructor refuses a message length below 1 and a flat
    # length that is not a whole number of messages.
    for L, flat in ((0, []), (0, [0, 1]), (-1, [0]), (2, [0, 1, 0]), (3, [1])):
        with pytest.raises(ParamError, match="messages of length"):
            MessageStore(2, L, flat)
    assert (MessageStore(2, 2, [0, 1, 1, 0]).K, MessageStore(2, 3, []).K) == (2, 0)


def test_scheme_params_refuse_a_desired_count_outside_1_to_K():
    for P in (0, 4):
        with pytest.raises(ParamError, match=r"^P must satisfy 1 <= P <= K$"):
            SchemeParams(K=3, P=P, N=2)


def test_alpha_worked_examples():
    assert alpha_profile(3, 1, 3).alpha == (1, 2, 4)
    assert alpha_profile(5, 3, 2).alpha == (3, 1, 0, 0, 1)


def test_alpha_derived_case():
    # Independent check: the returned profile must satisfy the balance identity
    # (N-1)*a_j = sum_p C(P,p)*a_{j+p} for j <= K-P with boundary a_K = (N-1)^(K-P).
    prof = alpha_profile(4, 2, 2)
    assert prof.alpha == (12, 5, 2, 1) and prof.scale == 1
    a = prof.rationals()
    assert a[3] == 1
    for j in (1, 2):
        assert (2 - 1) * a[j - 1] == sum(comb(2, p) * a[j - 1 + p] for p in range(1, min(2, 4 - j) + 1))


def test_alpha_rejects_degenerate():
    with pytest.raises(ParamError):
        alpha_profile(3, 3, 2)
    with pytest.raises(InfeasibleError):
        alpha_profile(3, 1, 1)


def test_cached_cost_functions_share_frozen_values_and_never_cache_a_fault(monkeypatch):
    for K, P, N in ((3, 1, 3), (5, 3, 2), (4, 2, 2)):
        profile = alpha_profile(K, P, N)
        assert alpha_profile(K, P, N) is profile
        assert cost_ledger(K, P, N) is cost_ledger(K, P, N)
        with pytest.raises(FrozenInstanceError):
            profile.alpha = (0,) * K
        with pytest.raises(FrozenInstanceError):
            cost_ledger(K, P, N).D1 = Fraction(0)
    assert alpha_profile(3, 1, 3).alpha == (1, 2, 4) and cost_ledger(3, 1, 3).D1 == 13
    malformed = AlphaProfile(K=3, P=1, N=3, alpha=(1, 2, 5), scale=1)
    for _ in range(3):  # a fault is raised afresh by every call, never cached
        with pytest.raises(ParamError, match="P == K"):
            alpha_profile(3, 3, 2)
        for fn in (alpha_profile, repetition_factor, cost_ledger):
            with pytest.raises(InfeasibleError):
                fn(3, 1, 1)
    # the ledger checks its identities on the profile it derives; the uncached
    # function, since (3, 1, 3)'s well-formed ledger is cached above
    monkeypatch.setattr(params, "alpha_profile", lambda K, P, N: malformed)
    with pytest.raises(ParamError, match="rate identity"):
        cost_ledger.__wrapped__(3, 1, 3)


def test_alpha_balance_identity_grid():
    for K, P, N in GRID:
        a = alpha_profile(K, P, N).rationals()
        assert a[K - 1] == (N - 1) ** (K - P)
        for j in range(1, K - P + 1):
            rhs = sum(comb(P, p) * a[j - 1 + p] for p in range(1, min(P, K - j) + 1))
            assert (N - 1) * a[j - 1] == rhs, (K, P, N, j)
        # forced zeros between the last balanced round and the top round
        if 2 * P > K:
            assert all(a[j - 1] == 0 for j in range(K - P + 1, K))


def test_repetition_factor_examples():
    assert repetition_factor(3, 1, 3) == 2
    assert repetition_factor(3, 1, 2) == 1
    assert repetition_factor(5, 3, 2) == 3


def test_cost_ledger_worked_examples():
    lg = cost_ledger(3, 1, 3)
    assert (lg.D1, lg.U1, lg.U2, lg.D2) == (13, 4, 1, Fraction(1, 2))
    # run anchors: nu=2, N=3 -> 81 downloads for 54 desired symbols
    nu = repetition_factor(3, 1, 3)
    assert 3 * nu * (lg.D1 + lg.D2) == 81
    assert 3 * nu * (lg.D1 - lg.U1) == 54
    assert 3 * nu * (lg.U1 + lg.D2) == 27

    lg = cost_ledger(5, 3, 2)
    assert (lg.D1, lg.U1, lg.D2) == (26, 7, 12)
    assert 2 * (lg.D1 + lg.D2) == 76
    assert 2 * (lg.D1 - lg.U1) == 38
    assert 2 * (lg.U1 + lg.D2) == 38


def test_rate_is_capacity_on_grid():
    for K, P, N in GRID:
        lg = cost_ledger(K, P, N)
        assert lg.rate == 1 - Fraction(1, N), (K, P, N)


def test_randomness_identity_on_grid():
    for K, P, N in GRID:
        lg = cost_ledger(K, P, N)
        l_rep = lg.message_length_per_rep
        assert N * (lg.U1 + lg.D2) == Fraction(P * l_rep, N - 1), (K, P, N)


def test_capacity_formula():
    assert mm_spir_capacity(4, 4, 1, 0) == 1
    assert mm_spir_capacity(3, 1, 1, 100) == 0
    assert mm_spir_capacity(3, 1, 3, Fraction(1, 2)) == Fraction(2, 3)
    assert mm_spir_capacity(3, 2, 2, Fraction(1)) == 0  # needs 2 per symbol
    assert mm_spir_capacity(3, 2, 2, Fraction(2)) == Fraction(1, 2)


def test_lspir_cost_examples():
    assert lspir_cost(1, 2, 1) == (2, 1)
    assert lspir_cost(4, 2, 1) == (8, 4)
    assert lspir_cost(3, 4, 5) == (20, 5)


def test_lspir_cost_monotone_in_databases():
    for PL in range(1, 30):
        prev = None
        for N in range(2, 8):
            d, _ = lspir_cost(PL, N, 1)
            if prev is not None:
                assert d <= prev
            prev = d


def test_lspir_rejects_single_database():
    with pytest.raises(InfeasibleError):
        lspir_cost(2, 1, 1)


def test_cost_formulas_refuse_arguments_outside_their_domain():
    for P, L in ((0, 1), (-1, 1), (1, 0)):
        with pytest.raises(ParamError, match=r"^need P >= 1 and L >= 1$"):
            lspir_cost(P, 2, L)
    for K, P, N in ((0, 1, 2), (3, 0, 2), (3, 4, 2), (3, 1, 0)):
        with pytest.raises(ParamError, match=r"^need K >= 1, 1 <= P <= K, N >= 1$"):
            mm_spir_capacity(K, P, N, 1)


def test_psi_optimal_cost_examples():
    assert psi_optimal_cost(4, 2, 6, 2) == (8, 1)
    assert psi_optimal_cost(5, 3, 5, 3) == (8, 1)  # tie broken toward entity 1
    assert psi_optimal_cost(1, 2, 1, 2) == (2, 1)


def test_psi_optimal_cost_directionality():
    # entity 2 initiates when that direction is strictly cheaper
    cost, initiator = psi_optimal_cost(9, 2, 2, 3)
    assert initiator == 2 and cost == -(-2 * 2 // 1)
    with pytest.raises(InfeasibleError):
        psi_optimal_cost(3, 1, 3, 1)


def test_psi_optimal_cost_empty_and_full_sets():
    # an empty set sends no query, so it needs no second database
    assert psi_optimal_cost(0, 1, 3, 1, K=5) == (0, 1)
    assert psi_optimal_cost(3, 1, 0, 1, K=5) == (0, 2)
    # a full set downloads all K bits from one database: 10 beats ceil(6*2/1) = 12
    assert psi_optimal_cost(10, 2, 6, 2, K=10) == (10, 1)
    assert psi_optimal_cost(10, 2, 6, 2) == (12, 2)  # without K no set is full
    with pytest.raises(InfeasibleError):
        psi_optimal_cost(2, 1, 3, 1, K=5)
