import hashlib
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from privset.params import ParamError, SchemeParams, alpha_profile, cost_ledger, repetition_factor
from privset.storage import CommonRandomnessPool, MessageStore
from privset.table_scheme import (
    CR_DOWNLOADED,
    CR_HIDDEN,
    CR_SIDEINFO,
    ProtocolFault,
    answer_download_all,
    answer_wire_query,
    build_query_table,
    decode,
    build_query_table as build,
    render_text,
)
from privset.wire import encode_download_all


def make_run(K, P, N, q=2, desired=None, seed=0, reps=None):
    params = SchemeParams(K=K, P=P, N=N, q=q)
    desired = tuple(range(P)) if desired is None else desired
    table = build_query_table(params, desired, Random(seed), reps=reps)
    store = MessageStore.generate(K, table.L_store, q, seed=seed + 1)
    pool = CommonRandomnessPool.generate(table.pool_size, q, seed=seed + 2)
    answers = [answer_wire_query(table.wire_query(db), store, pool) for db in range(N)]
    return table, store, pool, answers


class TestWorkedExampleSmall:
    """K=3, P=1, N=3: two stages of 1-sums, four of 2-sums, eight of 3-sums."""

    def test_structure_counts(self):
        table, *_ = make_run(3, 1, 3)
        assert table.reps == 2
        assert [table.reps * table.profile.alpha[k - 1] for k in (1, 2, 3)] == [2, 4, 8]
        for db in range(3):
            per_round = Counter(s.round_k for s in table.sums[db])
            assert per_round == {1: 6, 2: 12, 3: 8}
            assert len(table.plain_slots[db]) == 1
        assert table.total_downloads == 81
        assert table.total_desired_symbols == 54
        assert table.pool_size == 27
        assert table.rate == Fraction(2, 3)
        assert table.L_store == 54

    def test_decode_roundtrip(self):
        table, store, _, answers = make_run(3, 1, 3)
        got = decode(table, answers)
        assert got == {c: store.flat[c] for c in range(54)}  # exactly message 0's coordinates


class TestWorkedExampleAsymmetric:
    """K=5, P=3, N=2 without repetition: 76 downloads, 13/13/12 split."""

    def test_structure_counts(self):
        table, *_ = make_run(5, 3, 2, desired=(0, 1, 2), reps=1)
        assert [table.reps * table.profile.alpha[k - 1] for k in (1, 2, 3, 4, 5)] == [3, 1, 0, 0, 1]
        for db in range(2):
            # database db's plain slots mask the all-desired sums of the other database
            plain = set(table.plain_slots[db])
            rounds = [s.round_k for s in table.sums[1 - db] if s.cr_kind == CR_DOWNLOADED and s.cr_slot in plain]
            assert len(rounds) == len(plain)
            assert rounds.count(1) == 9 and rounds.count(2) == 3
        assert table.total_downloads == 76
        assert table.total_desired_symbols == 38
        assert sorted(table.msg_fresh[:3], reverse=True) == [13, 13, 12]
        assert table.pool_size == 38
        assert table.rate == Fraction(1, 2)

    def test_decode_partial_message(self):
        table, store, _, answers = make_run(5, 3, 2, desired=(0, 1, 2), reps=1)
        got = decode(table, answers)
        per_message = Counter(c // table.L_store for c in got)
        assert set(per_message) == {0, 1, 2}
        assert sorted(per_message.values()) == [12, 13, 13]
        for c, val in got.items():
            assert val == store.flat[c]

    def test_symmetric_repetition_balances_lengths(self):
        table, *_ = make_run(5, 3, 2, desired=(0, 1, 2))
        assert table.reps == 3
        assert table.msg_fresh[:3] == [38, 38, 38]
        assert table.total_downloads == 3 * 76


def test_structural_zero_rounds_emit_nothing():
    table, *_ = make_run(5, 3, 2, desired=(0, 1, 2), reps=1)
    for db in range(2):
        assert all(s.round_k not in (3, 4) for s in table.sums[db])


def test_single_stage_subtraction():
    # Minimal case: one desired 1-sum masked by a plainly served symbol.
    table, store, pool, answers = make_run(2, 1, 2)
    got = decode(table, answers)
    assert got == {c: store.flat[c] for c in range(table.L_store)}  # exactly message 0's coordinates


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("K,P,N", [(2, 1, 2), (3, 1, 2), (3, 2, 2), (4, 2, 3), (5, 2, 2), (4, 3, 2)])
def test_decode_grid(K, P, N, q):
    rng = Random(100 * K + 10 * P + N + q)
    for seed in range(5):
        desired = tuple(sorted(rng.sample(range(K), P)))
        table, store, _, answers = make_run(K, P, N, q=q, desired=desired, seed=seed)
        got = decode(table, answers)
        assert {c // table.L_store for c in got} == set(desired)
        for c, val in got.items():
            assert val == store.flat[c]


def test_all_zero_store_and_pool_give_zero_answers():
    params = SchemeParams(K=3, P=1, N=2)
    table = build_query_table(params, (0,), Random(0))
    store = MessageStore(2, table.L_store, bytes(3 * table.L_store))
    pool = CommonRandomnessPool(2, [0] * table.pool_size)
    for db in range(2):
        assert all(v == 0 for v in answer_wire_query(table.wire_query(db), store, pool))


def test_fresh_symbol_discipline():
    # No symbol position of any message appears twice at one database.
    for K, P, N in [(3, 1, 3), (4, 2, 2), (5, 3, 2)]:
        table, *_ = make_run(K, P, N)
        for db in range(N):
            seen = set()
            for s in table.sums[db]:
                for term in s.terms:
                    assert term not in seen, (K, P, N, db, term)
                    seen.add(term)


def test_randomness_tags_follow_the_rules():
    table, *_ = make_run(4, 2, 2)
    desired = set(table.desired)
    hidden_ids = set()
    for db in range(table.N):
        for s in table.sums[db]:
            kinds = {m for m, _ in s.terms}
            n_des = len(kinds & desired)
            if n_des == 0:
                assert s.cr_kind == CR_HIDDEN
                hidden_ids.add(s.cr_slot)
            elif kinds <= desired:
                assert s.cr_kind == CR_DOWNLOADED
            else:
                assert s.cr_kind == CR_SIDEINFO
                origin, pos = s.ref
                ref = table.sums[origin][pos]
                assert origin != db
                assert ref.cr_kind == CR_HIDDEN
                undesired_terms = tuple(t for t in s.terms if t[0] not in desired)
                assert undesired_terms == ref.terms
    # hidden ids never appear among plainly served slots
    served = {slot for slots in table.plain_slots for slot in slots}
    assert not (hidden_ids & served)


def test_each_pure_sum_consumed_once_per_other_database():
    table, *_ = make_run(3, 1, 3)
    consumers: dict[tuple[int, int], list[int]] = {}
    for db in range(table.N):
        for s in table.sums[db]:
            if s.cr_kind == CR_SIDEINFO:
                consumers.setdefault(s.ref, []).append(db)
    for (origin, _), dbs in consumers.items():
        assert sorted(dbs) == sorted(set(dbs))
        assert origin not in dbs
    # every pure sum is consumed exactly N-1 times
    for db in range(table.N):
        for pos, s in enumerate(table.sums[db]):
            if s.cr_kind == CR_HIDDEN:
                assert len(consumers.get((db, pos), [])) == table.N - 1


def test_plain_quota_matches_ledger():
    for K, P, N in [(3, 1, 3), (4, 2, 2), (5, 3, 2), (3, 2, 2)]:
        table, *_ = make_run(K, P, N)
        expected = table.reps * table.profile.scale * N * cost_ledger(K, P, N).D2
        assert expected.denominator == 1
        assert sum(len(p) for p in table.plain_slots) == int(expected)


def test_table_shape_is_desired_set_independent():
    # The multiset of (round, term-count) and the per-message reference counts
    # do not depend on which messages are desired.
    shapes = []
    refcounts = []
    for desired in [(0,), (1,), (2,)]:
        table, *_ = make_run(3, 1, 2, desired=desired)
        shapes.append([Counter((s.round_k, len(s.terms)) for s in table.sums[db]) for db in range(2)])
        refcounts.append(
            [Counter(m for s in table.sums[db] for m, _ in s.terms) for db in range(2)]
        )
    assert shapes[0] == shapes[1] == shapes[2]
    for db in range(2):
        counts = [rc[db] for rc in refcounts]
        assert all(len(set(c.values())) == 1 for c in counts)
        assert counts[0] == counts[1] == counts[2]


def test_inconsistent_answers_detected():
    table, store, pool, answers = make_run(3, 1, 2)
    with pytest.raises(ProtocolFault):
        decode(table, answers[:1])
    short = [a[:] for a in answers]
    short[0] = short[0][:-1]
    with pytest.raises(ProtocolFault):
        decode(table, short)
    bad = [a[:] for a in answers]
    bad[1][0] = 7  # outside F_2
    with pytest.raises(ProtocolFault):
        decode(table, bad)


def test_out_of_range_reference_is_a_fault():
    table, store, pool, _ = make_run(3, 1, 2)
    small_store = MessageStore(2, 1, bytes(3))
    with pytest.raises(ProtocolFault):
        answer_wire_query(table.wire_query(0), small_store, pool)
    small_pool = CommonRandomnessPool(2, [0])
    with pytest.raises(ProtocolFault):
        answer_wire_query(table.wire_query(0), store, small_pool)


@pytest.mark.parametrize("reps", [0, -1])
def test_repetition_count_below_one_is_refused(reps):
    with pytest.raises(ParamError, match="repetition count"):
        build_query_table(SchemeParams(K=3, P=1, N=2), (0,), Random(0), reps=reps)


def test_download_all_path():
    store = MessageStore.generate(2, 1, 2, seed=3)
    got = answer_download_all(encode_download_all(), store, CommonRandomnessPool(2, []))
    assert got == list(store.flat)  # K*L symbols, no randomness involved
    with pytest.raises(ParamError):
        build_query_table(SchemeParams(K=3, P=3, N=2), (0, 1, 2), Random(0))


def test_render_text_layout():
    table, *_ = make_run(3, 1, 2)
    text = render_text(table)
    assert "Database 1" in text and "Database 2" in text
    body = text.splitlines()[2:]
    # rows look like a3+s5 / b1+c2+s4; rounds separated by blank cells
    assert any("+s" in line for line in body)
    col0 = [line.split("|")[0].strip() for line in body]
    assert "" in col0


# SHA-256 over every criterion-4 grid cell with at most 20,000 predicted
# downloads (61 cells), built with that criterion's seed: each cell's
# (L_store, pool_size, msg_fresh, plain_slots, sums, msg_perm, pool_perm) and
# wire bytes.  A change to the builder that keeps its output keeps this value.
GOLDEN_BUILD_DIGEST = "9370ef7e91ddad0e6e1379e3e10d8c0f915c19604a670d81f904e27d1d47bbd8"


def test_grid_builds_match_the_golden_digest():
    from test_acceptance import GRID

    h, cells = hashlib.sha256(), 0
    for K, P, N in GRID:
        profile = alpha_profile(K, P, N)
        ledger = cost_ledger(K, P, N, profile)
        predicted = repetition_factor(K, P, N, profile) * profile.scale * N * (ledger.D1 + ledger.D2)
        if predicted > 20_000:
            continue
        table = build_query_table(SchemeParams(K=K, P=P, N=N), tuple(range(P)), Random(K * 100 + P * 10 + N))
        sums = [[tuple(spec) for spec in db_sums] for db_sums in table.sums]
        fields = (table.L_store, table.pool_size, table.msg_fresh, table.plain_slots, sums)
        h.update(repr(fields + (table.msg_perm, table.pool_perm)).encode())
        h.update(b"".join(table.wire_queries()))
        cells += 1
    assert cells == 61
    assert h.hexdigest() == GOLDEN_BUILD_DIGEST
