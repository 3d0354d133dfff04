import copy
import dataclasses
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privset import audit, block_scheme, field, table_scheme, wire
from privset.field import unpack
from privset.params import ParamError, SchemeParams, lspir_cost
from privset.storage import CommonRandomnessPool, MessageStore


K4_TWO_BLOCKS = SchemeParams(K=4, P=2, N=2, L=1, q=2)  # a base and a probe at each database


class TestBlockUserPrivacy:
    # N=2 has one probe per block, N=3 (as psi-wide runs) two probes on two databases
    def test_passes_exactly(self):
        for P, N in product((1, 2), (2, 3)):
            v = audit.audit_block_user_privacy(SchemeParams(K=3, P=P, N=N, L=1, q=2))
            assert v.ok and v.distance == 0
        v = audit.audit_block_user_privacy(K4_TWO_BLOCKS)
        assert v.ok and v.distance == 0
        v = audit.audit_block_user_privacy(K4_TWO_BLOCKS, mutant=audit.BLOCK_MUTANT_NO_CR)
        assert v.ok and v.distance == 0  # the shared symbols protect the databases, not the user

    def test_negative_control_fails(self):
        for (P, distance), N in product(((1, 1), (2, Fraction(1, 2))), (2, 3)):
            params = SchemeParams(K=3, P=P, N=N, L=1, q=2)
            assert body_count_distance(params, audit.BLOCK_MUTANT_NO_BASE_MASK) == distance
            v = audit.audit_block_user_privacy(params, mutant=audit.BLOCK_MUTANT_NO_BASE_MASK)
            assert not v.ok and v.distance == 1
        assert body_count_distance(K4_TWO_BLOCKS, audit.BLOCK_MUTANT_NO_BASE_MASK) == 1
        v = audit.audit_block_user_privacy(K4_TWO_BLOCKS, mutant=audit.BLOCK_MUTANT_NO_BASE_MASK)
        assert not v.ok and v.distance == 1

    def test_psi_serve_size(self, monkeypatch):
        # K=256 has C(256, 8) * 8! (desired set, shuffle order) pairs: the
        # premises are checked on sampled draws
        params = SchemeParams(K=256, P=8, N=2, L=1, q=2)
        v = audit.audit_block_user_privacy(params)
        assert v.ok and v.distance == 0
        assert v.detail == "max per-database total variation 0, premises checked on 40 sampled strategy draws"
        v = audit.audit_block_user_privacy(params, mutant=audit.BLOCK_MUTANT_NO_BASE_MASK)
        assert not v.ok and v.detail == "a vector at database 0 is not its slot's base plus a shift"
        # no_cr changes no query; its leak shows in the elimination of one draw with the pool public
        plan = block_scheme.plan_blocks(params, tuple(range(8)), Random(0))
        public = [wire.encode_block_query(0, [0] * plan.n_blocks, 256, 2)]  # a zero vector on every slot
        assert audit.recoverable_coordinates(plan.wire_queries() + public, 256, plan.n_blocks, 2, range(8)).undesired
        # every entry at database 0: its run of 16 passes the 8-slot pool, which the codec refuses
        monkeypatch.setattr(block_scheme.BlockPlan, "wire_query", base_and_probes_together)
        with pytest.raises(wire.ProtocolFault, match="slot 15 outside the provisioned pool"):
            audit.audit_block_user_privacy(params)


class TestBlockDbPrivacy:
    def test_passes_exactly(self):
        for P, N in product((1, 2), (2, 3)):
            v = audit.audit_block_db_privacy(SchemeParams(K=3, P=P, N=N, L=1, q=2))
            assert v.ok
        v = audit.audit_block_db_privacy(K4_TWO_BLOCKS)
        assert v.ok and v.detail == "8192 views checked, posterior uniform in all"

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
        for mutant in (audit.BLOCK_MUTANT_NO_BASE_MASK, audit.BLOCK_MUTANT_NO_CR):
            assert not audit.audit_block_db_privacy(K4_TWO_BLOCKS, mutant=mutant)


def block_draws_count(params):
    """Equally likely strategy draws of one desired set: a shuffle and one base vector per block."""
    K, P, L, N, q = params.K, params.P, params.L, params.N, params.q
    return factorial(P * L) * q ** (lspir_cost(P, N, L)[1] * K * L)


def block_strategies(params):
    """Every strategy draw ``(order, bases)`` of ``block_scheme.build_plan``,
    base j packed from coefficients j*K*L .. (j+1)*K*L - 1 of one value tuple."""
    K, P, L, N, q = params.K, params.P, params.L, params.N, params.q
    KL, n_blocks = K * L, lspir_cost(P, N, L)[1]  # one uniform base vector per block
    for order, values in product(permutations(range(P * L)), product(range(q), repeat=n_blocks * KL)):
        yield order, [field.pack(values[j * KL : (j + 1) * KL], q) for j in range(n_blocks)]


def block_draws(params, desired, mutant):
    """Every strategy draw's wire queries (``BlockPlan.wire_queries``), one tuple per draw."""
    for order, bases in block_strategies(params):
        plan = audit._block_mutate(block_scheme.build_plan(params, desired, order, bases), mutant)
        yield tuple(plan.wire_queries())


def per_draw_block_db_privacy(params, mutant):
    """The per-draw elimination oracle: every strategy draw of desired set
    (0..P-1) eliminated on its own, the pool made public under ``no_cr``.
    Returns whether no draw's view pins an undesired functional, and the
    number of views, q^rank for each draw."""
    K, P, L, N, q = params.K, params.P, params.L, params.N, params.q
    n_blocks = lspir_cost(P, N, L)[1]
    no_cr = mutant == audit.BLOCK_MUTANT_NO_CR
    public = [wire.encode_block_query(pid, [0], K * L, q) for pid in range(n_blocks)] if no_cr else []
    uniform, n_views = True, 0
    for wires in block_draws(params, tuple(range(P)), mutant):
        span = audit.recoverable_coordinates([*wires, *public], K * L, n_blocks, q, range(P * L))
        uniform &= not span.undesired
        n_views += q**span.rank
    return uniform, n_views


def uniform_posteriors(pairs: Counter, n_values: int) -> bool:
    """True iff, in counts of (view, undesired value) pairs, every view covers
    all ``n_values`` undesired values equally often."""
    views = [view for view, _ in pairs]
    spread = Counter(views)  # distinct undesired values seen with each view
    return set(spread.values()) == {n_values} and len(set(zip(views, pairs.values()))) == len(spread)


def block_pool(params, symbols, mutant):
    """The pool the literal enumeration answers with: all zero under ``no_cr``."""
    if mutant == audit.BLOCK_MUTANT_NO_CR:
        symbols = tuple(0 for _ in symbols)
    return CommonRandomnessPool(params.q, list(symbols))


def block_realizations(params, mutant):
    """Every (W, S) realization as ``(w_flat, s_vals, store, pool)``, messages outer, randomness inner."""
    K, P, L, N, q = params.K, params.P, params.L, params.N, params.q
    n_blocks = lspir_cost(P, N, L)[1]
    stores = [(w_flat, MessageStore(q, L, bytes(w_flat))) for w_flat in product(range(q), repeat=K * L)]
    pools = [(s_vals, block_pool(params, s_vals, mutant)) for s_vals in product(range(q), repeat=n_blocks)]
    return [(w_flat, s_vals, store, pool) for w_flat, store in stores for s_vals, pool in pools]


def enumerated_block_runs(params, desired, mutant):
    """Reference for the grouped enumeration: visit every strategy draw,
    message realization and randomness realization once, answering every
    database's query afresh each time.

    Yields ``(strategy, wires, w_flat, s_vals, answers)``: the strategy draw's
    index, its wire queries (``BlockPlan.wire_queries``), the flat message
    symbols, the pool symbols, and every query's answer.
    """
    realizations = block_realizations(params, mutant)
    for strategy, (order, bases) in enumerate(block_strategies(params)):
        plan = audit._block_mutate(block_scheme.build_plan(params, desired, order, bases), mutant)
        wires = tuple(plan.wire_queries())
        for w_flat, s_vals, store, pool in realizations:
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


def total_variation(p: Counter, q: Counter, atoms: int) -> Fraction:
    """Distance between two distributions given as counts of ``atoms`` equally likely atoms each."""
    return Fraction(sum(abs(p[key] - q[key]) for key in p.keys() | q.keys()), 2 * atoms)


def block_body_counts(params, mutant):
    """The body-count oracle: per desired set, each database's count of the
    strategy draws emitting each query body, over every draw."""
    return [
        [Counter(bodies) for bodies in zip(*block_draws(params, desired, mutant))]
        for desired in combinations(range(params.K), params.P)
    ]


def body_count_distance(params, mutant):
    """The largest per-database distance between the first desired set's body counts and another's."""
    first, *rest = block_body_counts(params, mutant)
    draws = block_draws_count(params)
    return max(total_variation(p, q, draws) for counts in rest for p, q in zip(first, counts))


def crossed_block_user_dists(params, mutant):
    """The oracle's body counts with each body crossed with every (W, S)
    realization into its literal atoms (body, answer, W, S); the answer is
    computed here afresh."""
    realizations = block_realizations(params, mutant)
    crossed = []
    for per_db in block_body_counts(params, mutant):
        crossed.append([])
        for dist in per_db:
            atoms = Counter()
            for (body, n), (w_flat, s_vals, store, pool) in product(dist.items(), realizations):
                atoms[body, tuple(block_scheme.answer_wire_query(body, store, pool)), w_flat, s_vals] += n
            assert len(atoms) == len(dist) * len(realizations)  # no two (body, W, S) name one atom
            crossed[-1].append(atoms)
    return crossed


def literal_block_db_privacy(params, mutant):
    """The literal posterior check over every run: whether every view leaves
    the undesired symbols uniform, and the number of distinct views."""
    groups = enumerated_block_db_groups(params, mutant)
    pairs = Counter({(view, value): n for view, counts in groups.items() for value, n in counts.items()})
    return uniform_posteriors(pairs, params.q ** ((params.K - params.P) * params.L)), len(groups)


def assert_db_verdict_is_literal(params, mutant=None):
    uniform, n_views = literal_block_db_privacy(params, mutant)
    v = audit.audit_block_db_privacy(params, mutant=mutant)
    assert v.ok == uniform
    if uniform:
        assert v.detail == f"{n_views} views checked, posterior uniform in all"
    return v


GROUPED_BLOCK_INSTANCES = [
    SchemeParams(K=3, P=1, N=2, L=1, q=2),
    SchemeParams(K=3, P=2, N=2, L=1, q=2),
    SchemeParams(K=3, P=2, N=3, L=1, q=2),
    SchemeParams(K=2, P=1, N=2, L=1, q=3),
]


@pytest.mark.parametrize("mutant", [None, audit.BLOCK_MUTANT_NO_BASE_MASK, audit.BLOCK_MUTANT_NO_CR])
@pytest.mark.parametrize("params", GROUPED_BLOCK_INSTANCES, ids=lambda p: f"K{p.K}P{p.P}N{p.N}q{p.q}")
def test_grouped_enumeration_matches_every_run(params, mutant):
    literal = enumerated_block_user_dists(params, mutant)
    assert crossed_block_user_dists(params, mutant) == literal
    atoms = block_draws_count(params) * len(block_realizations(params, mutant))
    first, *rest = literal
    assert body_count_distance(params, mutant) == max(
        total_variation(p, q, atoms) for per_db in rest for p, q in zip(first, per_db)
    )
    assert_db_verdict_is_literal(params, mutant)


# The instances the closed-form user-privacy verdict is checked against the
# body-count oracle on: every pair is listed in each.
CLOSED_FORM_BLOCK_INSTANCES = GROUPED_BLOCK_INSTANCES + [
    SchemeParams(K=3, P=1, N=3, L=1, q=2),
    K4_TWO_BLOCKS,
    SchemeParams(K=3, P=1, N=2, L=2, q=2),
    SchemeParams(K=5, P=2, N=2, L=1, q=2),
]


@pytest.mark.parametrize("mutant", [None, audit.BLOCK_MUTANT_NO_BASE_MASK, audit.BLOCK_MUTANT_NO_CR])
@pytest.mark.parametrize("params", CLOSED_FORM_BLOCK_INSTANCES, ids=lambda p: f"K{p.K}P{p.P}N{p.N}L{p.L}q{p.q}")
def test_closed_form_user_verdict_matches_the_body_count_oracle(params, mutant):
    distance = body_count_distance(params, mutant)
    v = audit.audit_block_user_privacy(params, mutant=mutant)
    assert v.ok == (distance == 0)
    assert v.distance == (distance if v.ok else 1)


@pytest.mark.parametrize("mutant", [None, audit.BLOCK_MUTANT_NO_BASE_MASK, audit.BLOCK_MUTANT_NO_CR])
@pytest.mark.parametrize("params", CLOSED_FORM_BLOCK_INSTANCES, ids=lambda p: f"K{p.K}P{p.P}N{p.N}L{p.L}q{p.q}")
def test_closed_form_db_verdict_matches_the_per_draw_oracle(params, mutant):
    uniform, n_views = per_draw_block_db_privacy(params, mutant)
    v = audit.audit_block_db_privacy(params, mutant=mutant)
    assert v.ok == uniform and v.distance == (0 if uniform else 1)
    if uniform:
        assert v.detail == f"{n_views} views checked, posterior uniform in all"


def base_and_probes_together(plan, db):
    """A tampered client: database 0 gets every entry, so it holds each block's base and its probes."""
    KL, q = plan.params.K * plan.params.L, plan.params.q
    return wire.encode_block_query(0, [bq.vector for qs in plan.queries for bq in qs] if db == 0 else [], KL, q)


def reversed_when_message_0_is_desired(plan, db):
    """A tampered client: each database lists its vectors backwards when message 0 is desired."""
    KL, q = plan.params.K * plan.params.L, plan.params.q
    vectors = [bq.vector for bq in plan.queries[db]]
    return wire.encode_block_query(0, vectors[::-1] if 0 in plan.desired else vectors, KL, q)


def entry_dropped_when_message_0_is_desired(plan, db):
    """A tampered client: database 0 drops its last entry when message 0 is desired."""
    KL, q = plan.params.K * plan.params.L, plan.params.q
    vectors = [bq.vector for bq in plan.queries[db]]
    return wire.encode_block_query(0, vectors[:-1] if db == 0 and 0 in plan.desired else vectors, KL, q)


# The first two ids are the ones these cases had when a body carried a pool
# id per entry, and name the premise each tamper reached then.  A slot run
# cannot repeat a slot, so the codec now refuses the first tamper.  It cannot
# reorder slots either: the reversed vectors sit on the honest slots, each
# under another block's mask, so no database's body distribution moves (the
# oracle reads 0) and the verdict still refuses the tamper on its vector
# premise, which is sufficient, not necessary.
@pytest.mark.parametrize(
    "tamper, outcome, oracle_fails",
    [
        pytest.param(
            base_and_probes_together, "randomness slot 3 outside the provisioned pool", True,
            id="base_and_probes_together-a slot appears twice at database 0",
        ),
        pytest.param(
            reversed_when_message_0_is_desired, "a vector at database 0 is not its slot's base plus a shift", False,
            id="reversed_when_message_0_is_desired-slot sequence differs at database 0",
        ),
        (entry_dropped_when_message_0_is_desired, "slot sequence differs at database 0", True),
    ],
)
def test_slot_tampers_fail_the_verdict_and_the_oracle(monkeypatch, tamper, outcome, oracle_fails):
    monkeypatch.setattr(block_scheme.BlockPlan, "wire_query", tamper)
    assert (body_count_distance(K4_TWO_BLOCKS, None) > 0) == oracle_fails
    if "outside the provisioned pool" in outcome:
        with pytest.raises(wire.ProtocolFault, match=outcome):
            audit.audit_block_user_privacy(K4_TWO_BLOCKS)
        return
    v = audit.audit_block_user_privacy(K4_TWO_BLOCKS)
    assert not v.ok and v.distance == 1 and v.detail == outcome


def slot_moved_wire_queries(a, b):
    """A tampered client: block ``b``'s entries move onto slot ``a``, so one mask covers two blocks.

    A body is one slot run and cannot name a slot twice, so the tampered
    client sends every entry as a body of its own."""
    def wire_queries(plan):
        KL, q = plan.params.K * plan.params.L, plan.params.q
        return [
            wire.encode_block_query(a if j == b else j, [bq.vector], KL, q)
            for qs in plan.queries for j, bq in enumerate(qs)
        ]

    return wire_queries


merged_slot_wire_queries = slot_moved_wire_queries(0, 1)  # block 1's entries reuse slot 0


@pytest.mark.parametrize("params", [GROUPED_BLOCK_INSTANCES[1], K4_TWO_BLOCKS], ids=lambda p: f"K{p.K}P{p.P}N{p.N}")
def test_merged_slot_tamper_fails_the_verdict_and_the_literal_check(monkeypatch, params):
    monkeypatch.setattr(block_scheme.BlockPlan, "wire_queries", merged_slot_wire_queries)
    v = assert_db_verdict_is_literal(params)
    assert not v.ok


# Randomness tightness: every instance has two blocks, and moving either one's
# slot onto the other's lets the view pin an undesired functional.  The same
# entries sent one body each, on their own slots, leak nothing.
@pytest.mark.parametrize(
    "params",
    [K4_TWO_BLOCKS, SchemeParams(K=5, P=2, N=2), SchemeParams(K=3, P=1, N=2, L=2), SchemeParams(K=3, P=2, N=2, q=3)],
    ids=lambda p: f"K{p.K}P{p.P}N{p.N}L{p.L}q{p.q}",
)
def test_every_slot_merge_fails_the_db_verdict_and_the_per_draw_oracle(monkeypatch, params):
    n_blocks = lspir_cost(params.P, params.N, params.L)[1]
    assert n_blocks == 2
    monkeypatch.setattr(block_scheme.BlockPlan, "wire_queries", slot_moved_wire_queries(0, 0))
    assert audit.audit_block_db_privacy(params) and per_draw_block_db_privacy(params, None)[0]
    for a, b in permutations(range(n_blocks), 2):
        monkeypatch.setattr(block_scheme.BlockPlan, "wire_queries", slot_moved_wire_queries(a, b))
        v = audit.audit_block_db_privacy(params)
        assert not v.ok and v.detail == "posterior of undesired symbols differs from prior", (a, b)
        assert not per_draw_block_db_privacy(params, None)[0], (a, b)


K3_ONE_BLOCK = SchemeParams(K=3, P=1, N=2)  # one block: its base at database 0, its probe at database 1


def probe_at_e2(plan):
    """Database 1's probe becomes base ^ e_2, so the two answers pin the undesired W2."""
    (base,), (probe,) = plan.queries
    plan.queries[1] = [probe._replace(vector=base.vector ^ (1 << 2))]


def probe_lowest_bit(plan):
    """Database 1's probe keeps only its lowest bit, so its base part is (base & 1)."""
    (probe,) = plan.queries[1]
    plan.queries[1] = [probe._replace(vector=probe.vector & 1)]


def base_repeated_when_nonzero(plan):
    """Database 0's first entry is sent twice when its base vector is nonzero."""
    first = plan.queries[0][0]
    if first.vector:
        plan.queries[0].insert(0, first)


def base_dropped_when_nonzero(plan):
    """Database 0's first entry is not sent when its base vector is nonzero."""
    if plan.queries[0][0].vector:
        del plan.queries[0][0]


@pytest.mark.parametrize(
    "edit, leaks, detail",
    [
        (probe_at_e2, True, "posterior of undesired symbols differs from prior"),
        (probe_lowest_bit, False, "a vector's base part is neither 0 nor one block's base"),
        # The id is the one this case had when a body carried a pool id per
        # entry and the duplicate sat on slot 0 again.  In a slot run it sits
        # on slot 1, past the one-slot pool, and the codec refuses it.
        pytest.param(
            base_repeated_when_nonzero, None, "randomness slot 1 outside the provisioned pool",
            id="base_repeated_when_nonzero-False-slot sequence differs between the zero-base and seeded builds",
        ),
        (base_dropped_when_nonzero, False, "slot sequence differs between the zero-base and seeded builds"),
    ],
)
def test_plan_tampers_reach_each_db_verdict_failure(monkeypatch, edit, leaks, detail):
    # the per-draw oracle finds a leak only in the first: the two-build
    # premises are sufficient, not necessary
    build_plan = block_scheme.build_plan

    def tampered(params, desired, order, bases):
        plan = build_plan(params, desired, order, bases)
        edit(plan)
        return plan

    monkeypatch.setattr(block_scheme, "build_plan", tampered)
    if leaks is None:  # the server refuses the tampered body, and so do both checks
        for check in (audit.audit_block_db_privacy, lambda params: per_draw_block_db_privacy(params, None)):
            with pytest.raises(wire.ProtocolFault, match=detail):
                check(K3_ONE_BLOCK)
        return
    v = audit.audit_block_db_privacy(K3_ONE_BLOCK)
    assert not v.ok and v.distance == 1 and v.detail == detail
    assert per_draw_block_db_privacy(K3_ONE_BLOCK, None)[0] == (not leaks)


def literal_posteriors_uniform(answer, queries, K, L, q, pool_size, desired, public=()):
    """The literal posterior check of one strategy draw: its ``queries``
    (block bodies or table views) answered by ``answer`` over every (W, S)
    pair, with the pool ids in ``public`` known to be 0.  True iff every
    posterior of the undesired messages equals the uniform prior."""
    undesired = [c for c in range(K * L) if c // L not in desired]
    pairs = Counter()  # (answers, undesired symbols)
    for w_flat in product(range(q), repeat=K * L):
        store = MessageStore(q, L, bytes(w_flat))
        for s_vals in product(range(q), repeat=pool_size):
            pool = CommonRandomnessPool(q, [0 if pid in public else s for pid, s in enumerate(s_vals)])
            answers = tuple(tuple(answer(query, store, pool)) for query in queries)
            pairs[answers, tuple(w_flat[c] for c in undesired)] += 1
    return uniform_posteriors(pairs, q ** len(undesired))


@pytest.mark.parametrize(
    "params, n_leaking, n_unit_blind",
    [(K4_TWO_BLOCKS, 145, 47), (SchemeParams(K=3, P=1, N=2, L=2, q=2), 184, 129)],
    ids=["K4P2N2", "K3P1N2L2"],
)
def test_symbolic_leakage_flags_every_merged_slot_plan_that_leaks(monkeypatch, params, n_leaking, n_unit_blind):
    # n_unit_blind of the leaking plans pin no undesired coordinate outright,
    # only sums of them, so a per-coordinate check would pass them
    monkeypatch.setattr(block_scheme.BlockPlan, "wire_queries", merged_slot_wire_queries)
    K, P, L, q = params.K, params.P, params.L, params.q
    leaking = unit_blind = 0
    for seed in range(200):
        plan = block_scheme.plan_blocks(params, tuple(range(P)), Random(seed))
        rep = audit.symbolic_leakage_block(plan)
        wires = plan.wire_queries()
        leaks = not literal_posteriors_uniform(block_scheme.answer_wire_query, wires, K, L, q, plan.n_blocks, range(P))
        assert rep.ok != leaks, seed
        leaking += leaks
        unit_blind += leaks and rep.recoverable == rep.expected
    assert (leaking, unit_blind) == (n_leaking, n_unit_blind)


def test_uniform_posteriors_need_every_value_equally_often_in_each_view():
    even = Counter({("v", 0): 2, ("v", 1): 2, ("w", 0): 1, ("w", 1): 1})  # views may differ in weight
    assert uniform_posteriors(even, 2)
    assert not uniform_posteriors(even + Counter({("v", 0): 1}), 2)  # v sees both values, unequally
    assert not uniform_posteriors(Counter({("v", 0): 2, ("w", 0): 1, ("w", 1): 1}), 2)  # v misses value 1


def test_block_audits_answer_each_body_once_per_realization(monkeypatch):
    parse, answer = wire.parse_block_query, block_scheme.answer_wire_query
    parsed, answered = [], []

    def counted_parse(body, *args):
        parsed.append(body)
        return parse(body, *args)

    def counted_answer(body, store, pool):
        answered.append(body)
        return answer(body, store, pool)

    monkeypatch.setattr(wire, "parse_block_query", counted_parse)
    monkeypatch.setattr(block_scheme, "answer_wire_query", counted_answer)
    params = SchemeParams(K=3, P=2, N=2, L=1, q=2)
    # Each audit parses each of its builds' bodies: two builds of N bodies for
    # each of the 3 x 2! (desired set, shuffle order) pairs of user privacy
    # and the 2! shuffle orders of db privacy.  Neither answers a body;
    # answering every run afresh takes 3 x 128 x 32 x 2 and 128 x 32 x 2
    # answers, each after a parse of its own.
    assert audit.audit_block_user_privacy(params)
    assert len(parsed) == 6 * 2 * params.N
    parsed.clear()
    assert audit.audit_block_db_privacy(params)
    assert len(parsed) == 2 * 2 * params.N
    assert answered == []


def test_block_audits_refuse_a_body_the_server_refuses(monkeypatch):
    def out_of_pool(plan, db):  # every run starts at slot n_blocks, one past the provisioned pool
        KL, q = plan.params.K * plan.params.L, plan.params.q
        return wire.encode_block_query(plan.n_blocks, [bq.vector for bq in plan.queries[db]], KL, q)

    monkeypatch.setattr(block_scheme.BlockPlan, "wire_query", out_of_pool)
    for verdict in (audit.audit_block_user_privacy, audit.audit_block_db_privacy):
        with pytest.raises(wire.ProtocolFault, match="outside the provisioned pool"):
            verdict(SchemeParams(K=3, P=1, N=2, L=1, q=2))


# The dense elimination the packed kernel in ``audit.recoverable_coordinates``
# replaced, kept as its oracle: one list of pool_size + n_coords coefficients
# per row, and a fresh unit vector re-reduced for every coordinate.


def dense_rows(query, n_coords: int, pool_size: int, q: int) -> list[list[int]]:
    """Coefficient rows over [pool ids | message coordinates] for one query:
    a table view, bounded as ``table_scheme.answer`` bounds it, or a block body,
    parsed with the server's bounds.  A query out of those bounds raises ProtocolFault."""
    width = pool_size + n_coords
    rows: list[list[int]] = []
    if isinstance(query, table_scheme.TableQuery):
        view = table_scheme.check_table_query(query, n_coords, pool_size)
        for pid in view.plain_ids:
            row = [0] * width
            row[pid] = 1
            rows.append(row)
        for terms, pid in view.sums:
            row = [0] * width
            row[pid] = 1
            for c in terms:
                row[pool_size + c] = (row[pool_size + c] + 1) % q
            rows.append(row)
    elif query[0] == wire.BLOCK_QUERY_TAG:
        first, vectors = wire.parse_block_query(query, q, n_coords, pool_size)
        for i, vec in enumerate(vectors):
            row = [0] * width
            row[first + i] = 1
            for c, coeff in enumerate(unpack(vec, n_coords, q)):
                row[pool_size + c] = coeff % q
            rows.append(row)
    else:
        raise ParamError(f"cannot derive coefficients for scheme tag {query[0]}")
    return rows


def packed_rows(query, n_coords: int, pool_size: int, q: int) -> list[int]:
    """``audit``'s packed rows of one query, a table view or a block body, under the bounds ``dense_rows`` applies."""
    if isinstance(query, table_scheme.TableQuery):
        return audit._rows_from_view(table_scheme.check_table_query(query, n_coords, pool_size), pool_size, q)
    return audit._rows_from_wire(query, n_coords, pool_size, q)


def dense_recoverable_coordinates(queries, n_coords: int, pool_size: int, q: int) -> frozenset[int]:
    """Gaussian elimination over the full client view.

    Unknowns are every message coordinate and every pool symbol.  A message
    coordinate is recoverable iff its indicator functional lies in the span
    of rows that eliminate all pool unknowns (pool columns are ordered first,
    so echelon rows pivoting past them carry no randomness).
    """
    rows: list[list[int]] = []
    for query in queries:
        rows.extend(dense_rows(query, n_coords, pool_size, q))

    width = pool_size + n_coords
    basis: list[list[int]] = []  # echelon rows, pivot column strictly increasing
    pivots: list[int] = []
    for row in rows:
        row = row[:]
        for b, pcol in zip(basis, pivots):
            if row[pcol]:
                factor = row[pcol] * pow(b[pcol], q - 2, q) % q
                row = [(r - factor * bb) % q for r, bb in zip(row, b)]
        lead = next((c for c in range(width) if row[c]), None)
        if lead is None:
            continue
        ins = 0
        while ins < len(pivots) and pivots[ins] < lead:
            ins += 1
        basis.insert(ins, row)
        pivots.insert(ins, lead)

    msg_rows = [b for b, p in zip(basis, pivots) if p >= pool_size]
    msg_pivots = [p - pool_size for p in pivots if p >= pool_size]
    coord_rows = [r[pool_size:] for r in msg_rows]

    recoverable = set()
    for t in range(n_coords):
        vec = [0] * n_coords
        vec[t] = 1
        for b, pcol in zip(coord_rows, msg_pivots):
            if vec[pcol]:
                factor = vec[pcol] * pow(b[pcol], q - 2, q) % q
                vec = [(v - factor * bb) % q for v, bb in zip(vec, b)]
        if not any(vec):
            recoverable.add(t)
    return frozenset(recoverable)


def dense_rank(rows: list[list[int]], q: int) -> int:
    basis: list[list[int]] = []  # each row zero at the leading column of every row before it
    for row in rows:
        row = [x % q for x in row]
        for b in basis:
            lead = next(c for c, x in enumerate(b) if x)
            if row[lead]:
                factor = row[lead] * pow(b[lead], q - 2, q) % q
                row = [(x - factor * y) % q for x, y in zip(row, b)]
        if any(row):
            basis.append(row)
    return len(basis)


def assert_packed_matches_dense(queries, n_coords, pool_size, q, desired):
    """The packed span of table views and block bodies against the dense
    oracle: its pinned coordinates, its rank, and the dimension of its meet
    with the undesired coordinates, which is rank(rows) - rank(rows with the
    undesired columns zeroed)."""
    packed = [row for query in queries for row in packed_rows(query, n_coords, pool_size, q)]
    span = audit._eliminate(packed, n_coords, pool_size, q, desired)
    assert span.coordinates == dense_recoverable_coordinates(queries, n_coords, pool_size, q)
    rows = [row for query in queries for row in dense_rows(query, n_coords, pool_size, q)]
    kept = set(range(pool_size)) | {pool_size + c for c in desired}
    projected = [[x if c in kept else 0 for c, x in enumerate(row)] for row in rows]
    assert span.rank == dense_rank(rows, q)
    assert len(span.undesired) == span.rank - dense_rank(projected, q)
    return span


def oracle_views():
    """(name, queries, n_coords, pool_size, q, hidden pool ids, desired coordinates) of seeded honest runs:
    each table database's view, or each block database's body."""
    for K, P, N, q, reps in ((3, 1, 2, 2, None), (3, 1, 3, 2, None), (5, 3, 2, 2, 1), (3, 1, 2, 3, None)):
        params = SchemeParams(K=K, P=P, N=N, q=q)
        table = table_scheme.build_query_table(params, tuple(range(P)), Random(3), reps=reps)
        name = f"table K{K}P{P}N{N}q{q}" + (f" reps={reps}" if reps else "")
        L = table.L_store
        views = [table.view(db) for db in range(N)]
        yield name, views, K * L, table.pool_size, q, audit._hidden_ids(table), range(P * L)
    for K, P, N, L, q, desired in ((64, 8, 3, 1, 2, tuple(range(3, 64, 8))), (4, 2, 3, 2, 5, (1, 2))):
        plan = block_scheme.plan_blocks(SchemeParams(K=K, P=P, N=N, L=L, q=q), desired, Random(3))
        n_blocks = plan.n_blocks
        coords = [m * L + s for m in desired for s in range(L)]
        yield f"block K{K}P{P}N{N}L{L}q{q}", plan.wire_queries(), K * L, n_blocks, q, list(range(n_blocks)), coords


ORACLE_VIEWS = {name: view for name, *view in oracle_views()}


@pytest.mark.parametrize("name", ORACLE_VIEWS)
def test_packed_elimination_matches_the_dense_oracle(name):
    queries, n_coords, pool_size, q, hidden, desired = ORACLE_VIEWS[name]
    honest = assert_packed_matches_dense(queries, n_coords, pool_size, q, desired)
    assert honest.undesired == ()
    # every hidden symbol published: a zero vector on its slot
    revealed = queries + [wire.encode_block_query(pid, [0], n_coords, q) for pid in hidden]
    leaked = assert_packed_matches_dense(revealed, n_coords, pool_size, q, desired)
    assert honest.coordinates <= leaked.coordinates and leaked.undesired


@pytest.mark.parametrize("name", ORACLE_VIEWS)
@settings(max_examples=10, derandomize=True, deadline=None)
@given(data=st.data())
def test_packed_elimination_matches_the_dense_oracle_with_extra_block_rows(name, data):
    queries, n_coords, pool_size, q, _, desired = ORACLE_VIEWS[name]
    # sparse vectors pin single coordinates once their masks cancel; any byte
    # is a legal lane over odd q, read mod q
    sparse = st.lists(st.integers(0, n_coords - 1), max_size=3).map(
        lambda coords: field.pack([coords.count(c) for c in range(n_coords)], q)
    )
    dense = st.lists(st.integers(0, 1 if q == 2 else 255), min_size=n_coords, max_size=n_coords).map(
        lambda coeffs: field.pack(coeffs, q)
    )
    # each extra body is a run of 1 to 3 entries within the pool; runs may overlap
    runs = st.integers(1, min(3, pool_size)).flatmap(
        lambda n: st.tuples(st.integers(0, pool_size - n), st.lists(sparse | dense, min_size=n, max_size=n))
    )
    bodies = data.draw(st.lists(runs, max_size=4))
    extra = [wire.encode_block_query(first, vectors, n_coords, q) for first, vectors in bodies]
    assert_packed_matches_dense(queries + extra, n_coords, pool_size, q, desired)


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

    @pytest.mark.parametrize("tamper, fault", [("pool id", "outside the provisioned pool"), ("coordinate", "missing symbol")])
    def test_refuses_what_the_server_refuses(self, monkeypatch, tamper, fault):
        # database 0's view gains a plain pool id one past the pool, or its
        # first sum a term one past the store's last coordinate: the audit
        # refuses it by the rule ``table_scheme.answer`` applies to the same
        # view over a store and a pool of the table's size
        view = table_scheme.QueryTable.view
        tampered_views = []  # database 0's tampered views, with the store and pool sizes the audit checks them by

        def tampered(table, db):
            plain, sums = view(table, db)
            if db == 0:
                n_coords = table.K * table.L_store
                if tamper == "pool id":
                    plain += (table.pool_size,)
                else:
                    (terms, pid), *rest = sums
                    sums = (((*terms, n_coords), pid), *rest)
                tampered_views.append((table_scheme.TableQuery(plain, sums), n_coords, table.pool_size))
            return table_scheme.TableQuery(plain, sums)

        monkeypatch.setattr(table_scheme.QueryTable, "view", tampered)
        with pytest.raises(wire.ProtocolFault, match=fault) as raised:
            audit.audit_table_user_privacy(SchemeParams(K=3, P=1, N=2))
        last, n_coords, pool_size = tampered_views[-1]
        store, pool = MessageStore(2, 1, bytes(n_coords)), CommonRandomnessPool(2, [0] * pool_size)
        with pytest.raises(wire.ProtocolFault) as answered:
            table_scheme.answer(last, store, pool)
        assert str(answered.value) == str(raised.value)

    def test_draws_leave_their_structure_unchanged(self):
        # the verdict draws many tables over one structure per desired set
        # and edits some of them as a mutant; none may reach the structure
        structure = table_scheme.table_structure(SchemeParams(K=3, P=1, N=2), (1,))
        before = copy.deepcopy(structure)
        first = table_scheme.draw(structure, Random(1))
        views = audit._table_views(first)
        table_scheme.draw(structure, Random(2))
        orders = [list(range(structure.L_store))] * 3 + [list(range(structure.pool_size))]
        for mutant in (audit.TABLE_MUTANT_NO_INDEX_PERM, audit.TABLE_MUTANT_NO_POOL_RELABEL):
            audit._table_views(audit._table_build(structure, orders, mutant))
        assert structure == before
        assert audit._table_views(first) == views

    def test_a_structure_that_changes_between_builds_fails(self, monkeypatch):
        # premise 4's replay builds its structure afresh: a build that
        # depends on anything but the public parameters and desired set shows
        built = Counter()
        table_structure = table_scheme.table_structure

        def drifting(params, desired, reps=None):
            structure = table_structure(params, desired, reps)
            built[desired] += 1
            if built[desired] > 1:  # the second build of one desired set reverses database 0's sums
                structure.sums[0].reverse()
            return structure

        monkeypatch.setattr(table_scheme, "table_structure", drifting)
        v = audit.audit_table_user_privacy(SchemeParams(K=3, P=1, N=2))
        assert not v.ok and v.detail == "query generation is not deterministic in the strategy draw"


def message_positions(view, m, L):
    """Positions of message ``m`` in the order the view's terms name them."""
    return tuple(c % L for terms, _ in view.sums for c in terms if c // L == m)


def enumerated_component_tv(structs, size):
    """Reference for the closed form: the largest total variation between the
    image of ``structs[0]`` and of each other structure under a uniform
    permutation of ``range(size)``, over every permutation."""
    dists = [Counter() for _ in structs]
    for perm in permutations(range(size)):
        for dist, struct in zip(dists, structs):
            dist[tuple(map(perm.__getitem__, struct))] += 1
    return max(
        (total_variation(dists[0], other, factorial(size)) for other in dists[1:]), default=Fraction(0)
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


def enumerated_table_user_leak(params, mutant=None):
    """Reference for the closed form, over the identity builds of every
    desired set's structure: whether a skeleton differs at some database, and
    the largest enumerated total variation over (database, component), a
    component being one message's positions or the pool ids."""
    structures = [table_scheme.table_structure(params, desired) for desired in combinations(range(params.K), params.P)]
    L_store, pool_size = structures[0].L_store, structures[0].pool_size
    assert factorial(max(L_store, pool_size)) <= 40320
    ident = [list(range(L_store))] * params.K + [list(range(pool_size))]
    views = [audit._table_views(audit._table_build(structure, ident, mutant)) for structure in structures]
    skeletons_differ, worst = False, Fraction(0)
    for db in range(params.N):
        by_desired = [v[db] for v in views]
        skeletons_differ |= len({audit._skeleton(v, L_store) for v in by_desired}) > 1
        for m in range(params.K):
            positions = [message_positions(v, m, L_store) for v in by_desired]
            worst = max(worst, enumerated_component_tv(positions, L_store))
        worst = max(worst, enumerated_component_tv([audit._visible_ids(v) for v in by_desired], pool_size))
    return skeletons_differ, worst


@pytest.mark.parametrize("params", ENUMERABLE_TABLES, ids=lambda p: f"K{p.K}P{p.P}N{p.N}q{p.q}")
def test_closed_form_matches_enumerated_components(params):
    for mutant in (None, audit.TABLE_MUTANT_NO_HIDDEN_CR):
        skeletons_differ, worst = enumerated_table_user_leak(params, mutant)
        v = audit.audit_table_user_privacy(params, mutant=mutant)
        assert v.ok and not skeletons_differ and worst == 0 and v.distance == worst
    for mutant in (audit.TABLE_MUTANT_NO_INDEX_PERM, audit.TABLE_MUTANT_NO_POOL_RELABEL):
        assert not audit.audit_table_user_privacy(params, mutant=mutant)


def single_sum_tampers(sums, K):
    """Tampers of one of ``sums`` (one database's), as (sum index, replacement)
    pairs: per term, the term pointed at another position its message has on
    that database, and moved to the next message; per sum, the next sum's
    pool slot."""
    positions = defaultdict(set)
    for spec in sums:
        for m, idx in spec.terms:
            positions[m].add(idx)
    for i, spec in enumerate(sums):
        for j, (m, idx) in enumerate(spec.terms):
            others = sorted(positions[m] - {idx})
            for term in [(m, p) for p in others[:1]] + [((m + 1) % K, idx)]:
                yield i, spec._replace(terms=(*spec.terms[:j], term, *spec.terms[j + 1:]))
        yield i, spec._replace(cr_slot=sums[(i + 1) % len(sums)].cr_slot)


# Per shape: tampers, then (premise-1/2 detail, tampers failing with it).
SUM_TAMPER_SHAPES = [
    (SchemeParams(K=2, P=1, N=2), 11, {
        "query skeleton differs at database 0": 4,
        "repeated position of message 0 at database 0": 2,
        "repeated position of message 1 at database 0": 2,
        "repeated randomness id at database 0": 3,
    }),
    (SchemeParams(K=3, P=2, N=2), 16, {
        "query skeleton differs at database 0": 6,
        "repeated position of message 0 at database 0": 2,
        "repeated position of message 1 at database 0": 2,
        "repeated position of message 2 at database 0": 2,
        "repeated randomness id at database 0": 4,
    }),
]


@pytest.mark.parametrize("params, n_tampers, failures", SUM_TAMPER_SHAPES, ids=["K2P1N2", "K3P2N2"])
def test_single_sum_tampers_fail_the_user_verdict_wherever_the_enumeration_leaks(
    monkeypatch, params, n_tampers, failures
):
    # Each tamper edits one sum of database 0 in the first desired set's
    # structure, on every build of it (premise 4's replay included).  A leak
    # is a skeleton that differs or a nonzero component distance; a verdict
    # that fails without one is a false alarm, counted: the premises are
    # sufficient, not necessary.
    honest = table_scheme.table_structure
    first = tuple(range(params.P))
    misses, false_alarms, details = [], 0, Counter()
    tampers = list(single_sum_tampers(honest(params, first).sums[0], params.K))
    for i, spec in tampers:
        def tampered(params, desired, reps=None, i=i, spec=spec):
            structure = honest(params, desired, reps)
            if structure.desired != first:
                return structure
            db0 = [*structure.sums[0][:i], spec, *structure.sums[0][i + 1:]]  # a new list: draws share the lists
            return dataclasses.replace(structure, sums=[db0, *structure.sums[1:]])

        monkeypatch.setattr(table_scheme, "table_structure", tampered)
        skeletons_differ, worst = enumerated_table_user_leak(params)
        v = audit.audit_table_user_privacy(params)
        leak = skeletons_differ or worst > 0
        if leak and v.ok:
            misses.append((i, spec))
        false_alarms += not leak and not v.ok
        details[v.detail] += not v.ok
    assert (len(tampers), misses, false_alarms) == (n_tampers, [], 0)
    assert +details == failures


def literal_table_posteriors_uniform(table, public=()):
    views = [table.view(db) for db in range(table.N)]
    K, L, q, pool_size = table.K, table.L_store, table.q, table.pool_size
    return literal_posteriors_uniform(table_scheme.answer, views, K, L, q, pool_size, table.desired, public)


LITERAL_TABLE_BUDGET = 2**24  # (W, S) realizations the literal table check may visit


def enumerated_table_db_privacy(params, mutant=None, seeds=(0, 1, 2), desired=None):
    """Reference for the elimination verdict: the literal posterior check of
    each strategy draw of ``desired`` (by default 0..P-1) from ``seeds`` (the
    client knows its own draw, so the check conditions on it)."""
    desired = tuple(range(params.P)) if desired is None else desired
    structure = table_scheme.table_structure(params, desired)
    L_store, pool_size = structure.L_store, structure.pool_size
    assert params.q ** (params.K * L_store + pool_size) * len(seeds) <= LITERAL_TABLE_BUDGET
    for seed in seeds:
        table = table_scheme.build_query_table(params, desired, Random(seed))
        hidden = audit._hidden_ids(table) if mutant == audit.TABLE_MUTANT_NO_HIDDEN_CR else []
        if not literal_table_posteriors_uniform(table, hidden):
            return False
    return True


def merged_hidden_tables(params):
    """Seed-0 tables of every desired set with two hidden masks moved onto one pool id, every pair."""
    for desired in combinations(range(params.K), params.P):
        hidden = audit._hidden_ids(table_scheme.build_query_table(params, desired, Random(0)))
        for a, b in combinations(hidden, 2):
            table = table_scheme.build_query_table(params, desired, Random(0))
            table.pool_perm[table.pool_perm.index(b)] = a
            yield table


def test_merged_hidden_ids_are_pinned_jointly():
    # the two masked sums' difference is a functional of undesired symbols
    # that pins none of them on its own: a per-coordinate check passes it
    for params, n_merged in ((SchemeParams(K=2, P=1, N=2), 2), (SchemeParams(K=3, P=1, N=2), 45)):
        tables = list(merged_hidden_tables(params))
        assert len(tables) == n_merged
        for table in tables:
            rep = audit.symbolic_leakage_table(table)
            assert rep.recoverable == rep.expected and rep.undesired and not rep.ok
            if params.K == 2:  # small enough for the literal posterior check
                assert not literal_table_posteriors_uniform(table)


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


def view_sum_tampers(params):
    """Single-sum tampers of one database's view, as (kind, database, sum index),
    over the first desired set's structure: each sum moved onto the next sum's
    pool id, each pure sum's hidden mask also served there as a plain
    download, and each sum's first term repeated within it."""
    structure = table_scheme.table_structure(params, tuple(range(params.P)))
    for db, db_sums in enumerate(structure.sums):
        for i, spec in enumerate(db_sums):
            yield "moved onto another sum's pool id", db, i
            if spec.fresh is None:
                yield "hidden mask served plainly", db, i
            yield "term repeated", db, i


def tampered_view(honest, kind, db, i):
    """``honest`` (``QueryTable.view``) with sum ``i`` of database ``db``'s view tampered as ``kind`` says."""

    def view(table, d):
        plain, sums = honest(table, d)
        if d != db:
            return table_scheme.TableQuery(plain, sums)
        terms, pid = sums[i]
        if kind == "moved onto another sum's pool id":
            sums = (*sums[:i], (terms, sums[(i + 1) % len(sums)][1]), *sums[i + 1:])
        elif kind == "hidden mask served plainly":
            plain += (pid,) if table.sums[d][i].fresh is None else ()  # a sum that is pure in this build
        else:
            sums = (*sums[:i], ((*terms, terms[0]), pid), *sums[i + 1:])
        return table_scheme.TableQuery(plain, sums)

    return view


def test_single_sum_tampers_fail_the_db_verdict_wherever_the_enumeration_leaks(monkeypatch):
    # Each tamper edits one sum of one database's view on every build.  The
    # verdict and the literal oracle both take the seed-0 draw of every
    # desired set.  A verdict that fails without a leak is a false alarm,
    # counted.  Over F_2 a repeated term cancels, so none of those six
    # tampers leaks, and the verdict must pass them.
    params = SchemeParams(K=2, P=1, N=2)
    honest = table_scheme.QueryTable.view
    tampers = list(view_sum_tampers(params))
    misses, false_alarms, leaks = [], 0, Counter()
    for kind, db, i in tampers:
        monkeypatch.setattr(table_scheme.QueryTable, "view", tampered_view(honest, kind, db, i))
        leak = any(
            not enumerated_table_db_privacy(params, seeds=(0,), desired=desired)
            for desired in combinations(range(params.K), params.P)
        )
        v = audit.audit_table_db_privacy(params, seeds=(0,))
        if leak and v.ok:
            misses.append((kind, db, i))
        false_alarms += not leak and not v.ok
        leaks[kind] += leak
    assert (len(tampers), misses, false_alarms) == (14, [], 0)
    assert leaks == {"moved onto another sum's pool id": 4, "hidden mask served plainly": 2, "term repeated": 0}


# scheme -> (module answering and decoding, its answer's and its decoder's names, the reliability verdict)
RELIABILITY = {
    "block": (block_scheme, "answer_wire_query", "decode_blocks", audit.audit_reliability_block),
    "table": (table_scheme, "answer", "decode", audit.audit_reliability_table),
}
# audit-exact's two reliability shapes, and a small block shape
RELIABILITY_SHAPES = [
    ("block", SchemeParams(K=64, P=8, N=3)),
    ("table", SchemeParams(K=3, P=1, N=2)),
    ("block", SchemeParams(K=3, P=2, N=2)),
]
SHAPE_IDS = [f"{scheme} K={p.K} P={p.P} N={p.N}" for scheme, p in RELIABILITY_SHAPES]


class TrialRecorder:
    """Each reliability trial's (desired set, store symbols, pool symbols), read off
    the scheme's answer and decode calls.

    With ``fires``, a predicate on the recorder after each trial is recorded,
    the decoder flips the smallest returned coordinate of every trial on
    which it holds.
    """

    def __init__(self, monkeypatch, scheme, fires=None):
        module, answer_name, decode_name, self.verdict = RELIABILITY[scheme]
        answer, decode = getattr(module, answer_name), getattr(module, decode_name)
        self.trials, self.fired, self.flipped = [], [], None

        def recording_answer(query, store, pool):
            self.store, self.pool = store, pool
            return answer(query, store, pool)

        def tampered_decode(plan, answers):
            out = decode(plan, answers)
            self.trials.append((plan.desired, self.store.flat, bytes(self.pool.symbols)))
            self.fired.append(fires is not None and fires(self))
            if self.fired[-1]:
                self.flipped = min(out)
                out[self.flipped] = (out[self.flipped] + 1) % self.store.q
            return out

        monkeypatch.setattr(module, answer_name, recording_answer)
        monkeypatch.setattr(module, decode_name, tampered_decode)


RELIABILITY_TAMPERS = {
    "desired set holds message K-1": lambda rec: rec.store.K - 1 in rec.trials[-1][0],
    "store differs from the first trial's": lambda rec: rec.trials[-1][1] != rec.trials[0][1],
    "pool differs from the first trial's": lambda rec: rec.trials[-1][2] != rec.trials[0][2],
}


class TestReliability:
    def test_table(self):
        v = audit.audit_reliability_table(SchemeParams(K=3, P=1, N=2), trials=25)
        assert v.ok

    def test_block(self):
        v = audit.audit_reliability_block(SchemeParams(K=4, P=2, N=3, L=2), trials=50)
        assert v.ok

    @pytest.mark.parametrize("scheme, params", RELIABILITY_SHAPES, ids=SHAPE_IDS)
    @pytest.mark.parametrize("tamper", RELIABILITY_TAMPERS)
    def test_negative_controls_fail(self, monkeypatch, scheme, params, tamper):
        # each tamper fires on some trials only; the store and pool ones fire only if trials draw fresh ones
        rec = TrialRecorder(monkeypatch, scheme, RELIABILITY_TAMPERS[tamper])
        v = rec.verdict(params, trials=20)
        assert not v.ok and v.distance == 1
        assert v.detail == f"decode mismatch at coordinate {rec.flipped}"
        assert rec.fired[-1] and not any(rec.fired[:-1])  # the verdict stops at the first tampered trial

    @pytest.mark.parametrize("scheme, params", RELIABILITY_SHAPES[:2], ids=SHAPE_IDS[:2])
    def test_one_stream_per_randomness_domain_whatever_the_trials(self, monkeypatch, scheme, params):
        seeded, domains = [], []
        original_seed, domain_rng = Random.seed, audit.domain_rng

        def counted_seed(self, *args, **kwargs):
            seeded.append(self)
            return original_seed(self, *args, **kwargs)

        def recorded_domain_rng(s, domain):
            domains.append((s, domain))
            return domain_rng(s, domain)

        monkeypatch.setattr(Random, "seed", counted_seed)  # every generator built, whoever builds it
        monkeypatch.setattr(audit, "domain_rng", recorded_domain_rng)
        for trials in (1, 50):
            seeded.clear()
            domains.clear()
            assert RELIABILITY[scheme][3](params, trials=trials, seed=11).ok
            assert len(seeded) == 3
            assert domains == [(11, field.DOMAIN_MESSAGES), (11, field.DOMAIN_COMMON_RANDOMNESS)]

    @pytest.mark.parametrize("scheme, params", RELIABILITY_SHAPES, ids=SHAPE_IDS)
    def test_trials_replay_from_the_seed(self, monkeypatch, scheme, params):
        rec = TrialRecorder(monkeypatch, scheme)

        def trials_at(seed):
            rec.trials = []
            assert rec.verdict(params, trials=20, seed=seed).ok
            return rec.trials

        first = trials_at(5)
        assert trials_at(5) == first and trials_at(6) != first
        # every trial draws its store and its pool from the seed's stream of that domain, in turn
        stores, pools = b"".join(t[1] for t in first), b"".join(t[2] for t in first)
        assert stores == field.sample_symbols(field.domain_rng(5, field.DOMAIN_MESSAGES), len(stores), params.q)
        assert pools == field.sample_symbols(field.domain_rng(5, field.DOMAIN_COMMON_RANDOMNESS), len(pools), params.q)


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

        def block_payload(first, vectors):
            # F_2 vectors of at most 8 coefficients: one packed byte each
            parts = [struct.pack("<BII", block_scheme.BLOCK_QUERY_TAG, first, len(vectors))]
            for vec in vectors:
                parts.append(bytes([sum(c << i for i, c in enumerate(vec))]))
            return b"".join(parts)

        base = [1, 1, 0]
        probe = [0, 1, 0]  # base + e_0 over F_2
        payloads = [block_payload(0, [base]), block_payload(0, [probe])]
        span = audit.recoverable_coordinates(payloads, 3, 1, 2, (0,))
        assert span.coordinates == frozenset({0}) and span.undesired == ()
        # revealing the shared symbol (a zero vector on pool slot 0) exposes
        # the base combination and with it the undesired coordinate 1
        leaked = audit.recoverable_coordinates(payloads + [block_payload(0, [[0, 0, 0]])], 3, 1, 2, (0,))
        assert leaked.coordinates == frozenset({0, 1}) and leaked.undesired == (field.pack([0, 1, 0], 2),)

    def test_a_sum_of_undesired_messages_is_pinned_jointly(self):
        # K=4 over two slots: database 0 gets e_0 and e_2 + e_3, database 1
        # the zero vector on both slots, so the view pins W0 and W2 + W3 and
        # no undesired message on its own
        e = [field.pack([int(c == t) for c in range(4)], 2) for t in range(4)]
        payloads = [
            wire.encode_block_query(0, [e[0], e[2] ^ e[3]], 4, 2),
            wire.encode_block_query(0, [0, 0], 4, 2),
        ]
        span = audit.recoverable_coordinates(payloads, 4, 2, 2, (0,))
        assert span.coordinates == frozenset({0})  # all a per-coordinate check would see
        assert span.undesired == (e[2] ^ e[3],) and span.rank == 4

    def test_empty_payload_is_a_protocol_fault(self):
        with pytest.raises(wire.ProtocolFault, match="empty query body"):
            audit.recoverable_coordinates([b""], 3, 2, 2, ())
        for tag in (1, 9):  # as the server refuses them; tag 1 is the reserved table tag
            with pytest.raises(wire.ProtocolFault, match=f"unknown scheme tag {tag}"):
                audit.recoverable_coordinates([bytes([tag])], 3, 2, 2, ())

    def test_download_all_reads_as_every_coordinate(self):
        # a database without a pool answers download-all with every stored symbol;
        # one with a pool refuses it, and so does the audit
        span = audit.recoverable_coordinates([wire.encode_download_all()], 3, 0, 2, ())
        assert span.coordinates == frozenset({0, 1, 2})
        with pytest.raises(wire.ProtocolFault, match="download-all is not served"):
            audit.recoverable_coordinates([wire.encode_download_all()], 3, 2, 2, ())

    def test_refuses_what_the_server_refuses(self):
        # n_coords 3 over a 2-slot pool: a run far past the pool, e_0 on the
        # slot one past it (which must not read as an unmasked query for
        # coordinate 0), and a run of three from slot 0
        for payload in (
            wire.encode_block_query(9, [0], 3, 2),
            wire.encode_block_query(2, [1], 3, 2),
            wire.encode_block_query(0, [1, 2, 4], 3, 2),
        ):
            with pytest.raises(wire.ProtocolFault, match="outside the provisioned pool"):
                audit.recoverable_coordinates([payload], 3, 2, 2, ())
