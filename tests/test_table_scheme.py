import hashlib
from collections import Counter
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from privset.params import ParamError, SchemeParams, alpha_profile, cost_ledger, repetition_factor
from privset.storage import CommonRandomnessPool, MessageStore
from privset.table_scheme import (
    ProtocolFault,
    answer,
    build_query_table,
    check_table_query,
    decode,
    build_query_table as build,
    draw,
    relabel,
    render_text,
    table_structure,
)
from privset.transport import answer_download_all
from privset.wire import encode_download_all


def make_run(K, P, N, q=2, desired=None, seed=0, reps=None):
    params = SchemeParams(K=K, P=P, N=N, q=q)
    desired = tuple(range(P)) if desired is None else desired
    table = build_query_table(params, desired, Random(seed), reps=reps)
    store = MessageStore.generate(K, table.L_store, q, seed=seed + 1)
    pool = CommonRandomnessPool.generate(table.pool_size, q, seed=seed + 2)
    answers = [answer(table.view(db), store, pool) for db in range(N)]
    return table, store, pool, answers


def plain_slots(table, db):
    """The slots database ``db`` serves plainly: those of its 0-sums."""
    return [s.cr_slot for s in table.sums[db] if not s.terms]


class TestWorkedExampleSmall:
    """K=3, P=1, N=3: two stages of 1-sums, four of 2-sums, eight of 3-sums."""

    def test_structure_counts(self):
        table, *_ = make_run(3, 1, 3)
        assert table.reps == 2
        assert [table.reps * table.profile.alpha[k - 1] for k in (1, 2, 3)] == [2, 4, 8]
        for db in range(3):
            per_round = Counter(len(s.terms) for s in table.sums[db])  # a k-sum is in round k
            assert per_round == {0: 1, 1: 6, 2: 12, 3: 8}  # one plain download, the 0-sum
            assert len(plain_slots(table, db)) == 1
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
            plain = set(plain_slots(table, db))
            rounds = [len(s.terms) for s in table.sums[1 - db] if s.cr_slot in plain]
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
        assert all(len(s.terms) not in (3, 4) for s in table.sums[db])


def test_single_stage_subtraction():
    # Minimal case: one desired 1-sum masked by a plainly served symbol.
    table, store, pool, answers = make_run(2, 1, 2)
    got = decode(table, answers)
    assert got == {c: store.flat[c] for c in range(table.L_store)}  # exactly message 0's coordinates


def decode_cell(K, P, N, reps=None):
    """A decode-grid cell, named K-P-N, plus -reps1 when the repetition count is overridden."""
    return pytest.param(K, P, N, reps, id=f"{K}-{P}-{N}" + (f"-reps{reps}" if reps else ""))


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize(
    "K,P,N,reps",
    [decode_cell(*cell) for cell in [(2, 1, 2), (3, 1, 2), (3, 2, 2), (4, 2, 3), (5, 2, 2), (4, 3, 2)]]
    # asymmetric tables: both cells default to 3 repetitions
    + [decode_cell(4, 3, 2, reps=1), decode_cell(5, 3, 2, reps=1)],
)
def test_decode_grid(K, P, N, reps, q):
    rng = Random(100 * K + 10 * P + N + q)
    for seed in range(5):
        desired = tuple(sorted(rng.sample(range(K), P)))
        table, store, _, answers = make_run(K, P, N, q=q, desired=desired, seed=seed, reps=reps)
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
        assert all(v == 0 for v in answer(table.view(db), store, pool))


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
    served = {slot: db for db in range(table.N) for slot in plain_slots(table, db)}
    pure = {s.cr_slot: (db, s) for db in range(table.N) for s in table.sums[db] if s.terms and s.fresh is None}
    for db in range(table.N):
        slot_uses = Counter(s.cr_slot for s in table.sums[db])
        for s in table.sums[db]:
            kinds = {m for m, _ in s.terms}
            if not s.terms:
                # a 0-sum, a plain download, yields nothing; its slot masks no
                # other sum at its database
                assert s.fresh is None and not s.reused
                assert slot_uses[s.cr_slot] == 1 and served[s.cr_slot] == db
                continue
            if not kinds & desired:
                # a pure sum yields nothing; its slot masks no other sum at its
                # database and is never served plainly
                assert s.fresh is None and not s.reused
                assert slot_uses[s.cr_slot] == 1 and s.cr_slot not in served
                continue
            # the fresh and reused symbols are exactly the desired terms
            assert {s.fresh, *s.reused} == {t for t in s.terms if t[0] in desired}
            if kinds <= desired:
                # an all-desired sum's slot is served plainly by another database
                assert s.cr_slot in served and served[s.cr_slot] != db
            else:
                # a mixed sum embeds the pure sum on its slot, from another database
                assert s.cr_slot in pure
                origin, embedded = pure[s.cr_slot]
                assert origin != db
                assert tuple(t for t in s.terms if t[0] not in desired) == embedded.terms


def test_each_pure_sum_consumed_once_per_other_database():
    table, *_ = make_run(3, 1, 3)
    uses = [Counter(s.cr_slot for s in table.sums[db] if s.fresh is not None) for db in range(table.N)]
    pure_sums = [(db, s) for db in range(table.N) for s in table.sums[db] if s.terms and s.fresh is None]
    assert pure_sums
    for db, s in pure_sums:
        assert [uses[c][s.cr_slot] for c in range(table.N)] == [int(c != db) for c in range(table.N)]


def test_plain_quota_matches_ledger():
    for K, P, N in [(3, 1, 3), (4, 2, 2), (5, 3, 2), (3, 2, 2)]:
        table, *_ = make_run(K, P, N)
        expected = table.reps * table.profile.scale * N * cost_ledger(K, P, N).D2
        assert expected.denominator == 1
        assert sum(len(plain_slots(table, db)) for db in range(N)) == int(expected)


@pytest.mark.parametrize("K, P, N, reps", [(3, 1, 2, None), (3, 1, 3, None), (5, 3, 2, 1), (4, 2, 2, 1)])
def test_build_is_a_draw_over_the_structure(K, P, N, reps):
    params = SchemeParams(K=K, P=P, N=N)
    for desired in [tuple(range(P)), tuple(range(K - P, K))]:
        structure = table_structure(params, desired, reps)
        for seed in (0, 7):
            table = build_query_table(params, desired, Random(seed), reps=reps)
            drawn = draw(structure, Random(seed))
            assert drawn == table  # every field, the permutations included
            assert vars(structure) == {name: getattr(table, name) for name in vars(structure)}
            assert [drawn.view(db) for db in range(N)] == [table.view(db) for db in range(N)]


@pytest.mark.parametrize("K, P, N, reps", [(3, 1, 2, None), (3, 2, 3, None), (5, 3, 2, 1), (4, 2, 2, 1)])
def test_draw_is_relabel_of_permutations_that_take_no_desired_set(K, P, N, reps):
    # the audits decide relabel; a seeded draw is relabel of K position
    # shuffles and a pool shuffle drawn from an identically seeded stream
    params = SchemeParams(K=K, P=P, N=N)
    for desired in combinations(range(K), P):
        structure = table_structure(params, desired, reps)
        for seed in (0, 7):
            rng = Random(seed)
            perms = [list(range(size)) for size in [structure.L_store] * K + [structure.pool_size]]
            for perm in perms:
                rng.shuffle(perm)
            seeded = Random(seed)
            assert draw(structure, seeded) == relabel(structure, perms[:K], perms[K])
            assert seeded.getstate() == rng.getstate()


def test_table_shape_is_desired_set_independent():
    # The multiset of term counts (each sum's round) and the per-message reference counts
    # do not depend on which messages are desired.
    shapes = []
    refcounts = []
    for desired in [(0,), (1,), (2,)]:
        table, *_ = make_run(3, 1, 2, desired=desired)
        shapes.append([Counter(len(s.terms) for s in table.sums[db]) for db in range(2)])
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


def test_decode_refuses_a_symbol_outside_the_field_at_each_database():
    for q in (2, 3):
        table, _, _, answers = make_run(3, 1, 2, q=q)
        for db in range(2):
            for pos in (0, -1):
                for bad in (-1, q):
                    tampered = [a[:] for a in answers]
                    tampered[db][pos] = bad
                    with pytest.raises(ProtocolFault, match=rf"^answer symbol outside F_{q} at database {db}$"):
                        decode(table, tampered)


def test_decode_names_the_database_whose_answer_has_the_wrong_length():
    table, _, _, answers = make_run(3, 1, 3)
    with pytest.raises(ProtocolFault, match=r"^expected 3 answer strings, got 4$"):
        decode(table, answers + [[]])
    for db in range(3):
        for tampered_db in (answers[db][:-1], answers[db] + [0]):
            tampered = [tampered_db if i == db else a for i, a in enumerate(answers)]
            with pytest.raises(ProtocolFault, match=rf"^answer of wrong length at database {db}$"):
                decode(table, tampered)


def test_the_bounds_check_names_the_same_value_as_before():
    # store coordinates are checked before pool ids; within each, the largest
    # value past the end is named before the smallest negative one
    n_coords, pool_size = 6, 4
    assert check_table_query((), n_coords, pool_size) == ()
    ok = (((), 3), ((0, 5), 0))
    assert check_table_query(ok, n_coords, pool_size) is ok
    coordinate = "query references missing symbol at coordinate {}"
    slot = "randomness slot {} outside the provisioned pool"
    for view, message in (
        ((((0, 7), 0), ((-1, 6), 1)), coordinate.format(7)),
        ((((0, -3), 0), ((-1,), 1)), coordinate.format(-3)),
        ((((0, 7), 9), ((-1,), -2)), coordinate.format(7)),
        ((((0,), 5), ((), -1), ((1,), 4)), slot.format(5)),
        ((((0,), -1), ((), -2), ((1,), 3)), slot.format(-2)),
        ((((), 4),), slot.format(4)),
    ):
        with pytest.raises(ProtocolFault) as exc:
            check_table_query(view, n_coords, pool_size)
        assert str(exc.value) == message, view


def test_out_of_range_reference_is_a_fault():
    table, store, pool, _ = make_run(3, 1, 2)
    small_store = MessageStore(2, 1, bytes(3))
    with pytest.raises(ProtocolFault):
        answer(table.view(0), small_store, pool)
    small_pool = CommonRandomnessPool(2, [0])
    with pytest.raises(ProtocolFault):
        answer(table.view(0), store, small_pool)


def test_answer_checks_the_bounds_of_its_store_and_pool():
    # a 0-sum on pool id 4, then terms (0, 1) and (2, 0) of a K=3, L=2 store,
    # coordinates 1 and 4, masked by pool id 1
    view = (((), 4), ((1, 4), 1))
    pool = CommonRandomnessPool(2, [0, 1, 0, 0, 1])
    assert answer(view, MessageStore(2, 2, bytes([0, 1, 0, 0, 0, 0])), pool) == [1, 0]  # pool 1 + W[1] + W[4]
    assert answer(view, MessageStore(2, 1, bytes(5)), pool) == [1, 1]  # K=5, L=1: coordinate 4 is the last
    with pytest.raises(ProtocolFault, match="missing symbol at coordinate 4"):
        answer(view, MessageStore(2, 2, bytes(4)), pool)  # K=2, L=2
    with pytest.raises(ProtocolFault, match="missing symbol at coordinate 4"):
        answer(view, MessageStore(2, 1, bytes(3)), pool)  # K=3, L=1
    with pytest.raises(ProtocolFault, match="randomness slot 4 outside the provisioned pool"):
        answer(view, MessageStore(2, 2, bytes(6)), CommonRandomnessPool(2, [0] * 4))
    # a negative coordinate or pool id would index from the end: refused too
    with pytest.raises(ProtocolFault, match="missing symbol at coordinate -1"):
        answer((((-1,), 0),), MessageStore(2, 2, bytes(6)), pool)
    for bad in ((((), -2),), (((0,), -2),)):
        with pytest.raises(ProtocolFault, match="randomness slot -2 outside the provisioned pool"):
            answer(bad, MessageStore(2, 2, bytes(6)), pool)


def test_a_repeated_desired_message_is_refused():
    # merged into one message, ``--desired 1 1`` at P=1 would have built a table for {1}
    params = SchemeParams(K=3, P=1, N=2)
    for desired in ((1, 1), [1, 1], (0, 0)):
        with pytest.raises(ParamError, match="P=1 distinct messages"):
            table_structure(params, desired)
    with pytest.raises(ParamError, match="P=2 distinct messages"):
        table_structure(SchemeParams(K=3, P=2, N=2), (1, 1, 2))


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
    # after the plain downloads, one block of rows per round, each row a k-sum plus its slot
    blocks = "\n".join(col0).strip().split("\n\n")
    assert [{row.count("+") for row in block.split("\n")} for block in blocks[1:]] == [{1}, {2}, {3}]


# SHA-256 over every criterion-4 grid cell with at most 20,000 predicted
# downloads (61 cells), built with that criterion's seed: each cell's
# (L_store, pool_size, msg_fresh, sums, msg_perm, pool_perm), each sum as
# (terms, cr_slot, fresh, reused), and each database's repr(view).  A change
# to the table build that keeps its output keeps this value.  It was
# recomputed when plain downloads became 0-sums, on the last commit that kept
# them apart, with each plain slot read as a leading ((), slot, None, ()) and
# each plain pool id as a leading ((), pid) view pair, so it pins the same 61
# builds.
GOLDEN_BUILD_DIGEST = "03a22c81345c717d0b862800437bd61a483ce450a0f9785f6129d7309c982ffc"


def test_grid_builds_match_the_golden_digest():
    from test_acceptance import GRID

    h, cells = hashlib.sha256(), 0
    for K, P, N in GRID:
        profile = alpha_profile(K, P, N)
        ledger = cost_ledger(K, P, N)
        predicted = repetition_factor(K, P, N) * profile.scale * N * (ledger.D1 + ledger.D2)
        if predicted > 20_000:
            continue
        table = build_query_table(SchemeParams(K=K, P=P, N=N), tuple(range(P)), Random(K * 100 + P * 10 + N))
        sums = [[tuple(spec) for spec in db_sums] for db_sums in table.sums]
        h.update(repr((table.L_store, table.pool_size, table.msg_fresh, sums, table.msg_perm, table.pool_perm)).encode())
        for db in range(N):
            h.update(repr(table.view(db)).encode())
        cells += 1
    assert cells == 61
    assert h.hexdigest() == GOLDEN_BUILD_DIGEST
