import copy
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
        public = [wire.encode_table_query(range(plan.n_blocks), [])]
        assert audit.recoverable_coordinates(plan.wire_queries() + public, 256, plan.n_blocks, 2, range(8)).undesired
        monkeypatch.setattr(block_scheme.BlockPlan, "wire_query", base_and_probes_together)
        v = audit.audit_block_user_privacy(params)
        assert not v.ok and v.detail == "a slot appears twice at database 0"


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


def block_draws(params, desired, mutant):
    """Every strategy draw's per-database wire queries, one tuple per draw."""
    K, P, L, N, q = params.K, params.P, params.L, params.N, params.q
    n_values = lspir_cost(P, N, L)[1] * K * L  # one uniform base vector per block
    for order, values in product(permutations(range(P * L)), product(range(q), repeat=n_values)):
        rng = audit._ScriptedRandom([order], values)
        plan = audit._block_mutate(block_scheme.plan_blocks(params, desired, rng), mutant)
        assert rng.exhausted()
        yield tuple(plan.wire_queries())


def per_draw_block_db_privacy(params, mutant):
    """The per-draw elimination oracle: every strategy draw of desired set
    (0..P-1) eliminated on its own, the pool made public under ``no_cr``.
    Returns whether no draw's view pins an undesired functional, and the
    number of views, q^rank for each draw."""
    K, P, L, N, q = params.K, params.P, params.L, params.N, params.q
    n_blocks = lspir_cost(P, N, L)[1]
    no_cr = mutant == audit.BLOCK_MUTANT_NO_CR
    public = [wire.encode_table_query([pid], []) for pid in range(n_blocks)] if no_cr else []
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
    index, its per-database wire queries, the flat message symbols, the pool
    symbols, and every database's answer.
    """
    K, P, L, N, q = params.K, params.P, params.L, params.N, params.q
    n_blocks = lspir_cost(P, N, L)[1]
    realizations = block_realizations(params, mutant)
    draws = product(permutations(range(P * L)), product(range(q), repeat=n_blocks * K * L))
    for strategy, (order, values) in enumerate(draws):
        rng = audit._ScriptedRandom([order], list(values))
        plan = audit._block_mutate(block_scheme.plan_blocks(params, desired, rng), mutant)
        assert rng.exhausted()
        wires = tuple(plan.wire_query(db) for db in range(N))
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
    entries = [(bq.block, KL, bq.vector) for qs in plan.queries for bq in qs] if db == 0 else []
    return wire.encode_block_query(entries, q)


def reversed_when_message_0_is_desired(plan, db):
    """A tampered client: each database lists its entries backwards when message 0 is desired."""
    KL, q = plan.params.K * plan.params.L, plan.params.q
    entries = [(bq.block, KL, bq.vector) for bq in plan.queries[db]]
    return wire.encode_block_query(entries[::-1] if 0 in plan.desired else entries, q)


@pytest.mark.parametrize(
    "tamper, premise",
    [
        (base_and_probes_together, "a slot appears twice at database 0"),
        (reversed_when_message_0_is_desired, "slot sequence differs at database 0"),
    ],
)
def test_slot_tampers_fail_the_verdict_and_the_oracle(monkeypatch, tamper, premise):
    monkeypatch.setattr(block_scheme.BlockPlan, "wire_query", tamper)
    assert body_count_distance(K4_TWO_BLOCKS, None) > 0
    v = audit.audit_block_user_privacy(K4_TWO_BLOCKS)
    assert not v.ok and v.distance == 1 and v.detail == premise


def merged_slot_wire_query(plan, db):
    """A tampered client: block 1's entries reuse slot 0, so one mask covers two blocks."""
    KL, q = plan.params.K * plan.params.L, plan.params.q
    return wire.encode_block_query([(0 if bq.block == 1 else bq.block, KL, bq.vector) for bq in plan.queries[db]], q)


@pytest.mark.parametrize("params", [GROUPED_BLOCK_INSTANCES[1], K4_TWO_BLOCKS], ids=lambda p: f"K{p.K}P{p.P}N{p.N}")
def test_merged_slot_tamper_fails_the_verdict_and_the_literal_check(monkeypatch, params):
    monkeypatch.setattr(block_scheme.BlockPlan, "wire_query", merged_slot_wire_query)
    v = assert_db_verdict_is_literal(params)
    assert not v.ok


def slot_moved_wire_query(a, b):
    """A tampered client: slot ``b``'s entries move onto slot ``a``, so one mask covers two blocks."""
    def wire_query(plan, db):
        KL, q = plan.params.K * plan.params.L, plan.params.q
        entries = [(a if bq.block == b else bq.block, KL, bq.vector) for bq in plan.queries[db]]
        return wire.encode_block_query(entries, q)

    return wire_query


# Randomness tightness: every instance has two blocks, and moving either one's
# slot onto the other's lets the view pin an undesired functional.
@pytest.mark.parametrize(
    "params",
    [K4_TWO_BLOCKS, SchemeParams(K=5, P=2, N=2), SchemeParams(K=3, P=1, N=2, L=2), SchemeParams(K=3, P=2, N=2, q=3)],
    ids=lambda p: f"K{p.K}P{p.P}N{p.N}L{p.L}q{p.q}",
)
def test_every_slot_merge_fails_the_db_verdict_and_the_per_draw_oracle(monkeypatch, params):
    n_blocks = lspir_cost(params.P, params.N, params.L)[1]
    assert n_blocks == 2
    for a, b in permutations(range(n_blocks), 2):
        monkeypatch.setattr(block_scheme.BlockPlan, "wire_query", slot_moved_wire_query(a, b))
        v = audit.audit_block_db_privacy(params)
        assert not v.ok and v.detail == "posterior of undesired symbols differs from prior", (a, b)
        assert not per_draw_block_db_privacy(params, None)[0], (a, b)


def literal_posteriors_uniform(answer, wires, K, L, q, pool_size, desired, public=()):
    """The literal posterior check of one strategy draw: its ``wires``
    answered by ``answer`` over every (W, S) pair, with the pool ids in
    ``public`` known to be 0.  True iff every posterior of the undesired
    messages equals the uniform prior."""
    undesired = [c for c in range(K * L) if c // L not in desired]
    pairs = Counter()  # (answers, undesired symbols)
    for w_flat in product(range(q), repeat=K * L):
        store = MessageStore(q, L, bytes(w_flat))
        for s_vals in product(range(q), repeat=pool_size):
            pool = CommonRandomnessPool(q, [0 if pid in public else s for pid, s in enumerate(s_vals)])
            answers = tuple(tuple(answer(body, store, pool)) for body in wires)
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
    monkeypatch.setattr(block_scheme.BlockPlan, "wire_query", merged_slot_wire_query)
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
    def out_of_pool(plan, db):  # every entry names slot n_blocks, one past the provisioned pool
        KL, q = plan.params.K * plan.params.L, plan.params.q
        return wire.encode_block_query([(plan.n_blocks, KL, bq.vector) for bq in plan.queries[db]], q)

    monkeypatch.setattr(block_scheme.BlockPlan, "wire_query", out_of_pool)
    for verdict in (audit.audit_block_user_privacy, audit.audit_block_db_privacy):
        with pytest.raises(wire.ProtocolFault, match="outside the provisioned pool"):
            verdict(SchemeParams(K=3, P=1, N=2, L=1, q=2))


# The dense elimination the packed kernel in ``audit.recoverable_coordinates``
# replaced, kept as its oracle: one list of pool_size + n_coords coefficients
# per row, and a fresh unit vector re-reduced for every coordinate.


def dense_rows_from_wire(payload: bytes, n_coords: int, pool_size: int, q: int) -> list[list[int]]:
    """Coefficient rows over [pool ids | message coordinates] for one query payload,
    parsed with the server's bounds, so a payload the server refuses raises ProtocolFault."""
    tag = payload[0]
    width = pool_size + n_coords
    rows: list[list[int]] = []
    if tag == wire.TABLE_QUERY_TAG:
        view = wire.parse_table_query(payload, n_coords, pool_size)
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
    elif tag == wire.BLOCK_QUERY_TAG:
        for cr_id, length, vec in wire.parse_block_query(payload, q, n_coords, pool_size):
            row = [0] * width
            row[cr_id] = 1
            for c, coeff in enumerate(unpack(vec, length, q)):
                row[pool_size + c] = coeff % q
            rows.append(row)
    else:
        raise ParamError(f"cannot derive coefficients for scheme tag {tag}")
    return rows


def dense_recoverable_coordinates(
    wire_payloads: list[bytes], n_coords: int, pool_size: int, q: int
) -> frozenset[int]:
    """Gaussian elimination over the full client view.

    Unknowns are every message coordinate and every pool symbol.  A message
    coordinate is recoverable iff its indicator functional lies in the span
    of rows that eliminate all pool unknowns (pool columns are ordered first,
    so echelon rows pivoting past them carry no randomness).
    """
    rows: list[list[int]] = []
    for payload in wire_payloads:
        rows.extend(dense_rows_from_wire(payload, n_coords, pool_size, q))

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


def assert_packed_matches_dense(payloads, n_coords, pool_size, q, desired):
    """The packed span against the dense oracle: its pinned coordinates, its
    rank, and the dimension of its meet with the undesired coordinates, which
    is rank(rows) - rank(rows with the undesired columns zeroed)."""
    span = audit.recoverable_coordinates(payloads, n_coords, pool_size, q, desired)
    assert span.coordinates == dense_recoverable_coordinates(payloads, n_coords, pool_size, q)
    rows = [row for payload in payloads for row in dense_rows_from_wire(payload, n_coords, pool_size, q)]
    kept = set(range(pool_size)) | {pool_size + c for c in desired}
    projected = [[x if c in kept else 0 for c, x in enumerate(row)] for row in rows]
    assert span.rank == dense_rank(rows, q)
    assert len(span.undesired) == span.rank - dense_rank(projected, q)
    return span


def oracle_views():
    """(name, payloads, n_coords, pool_size, q, hidden pool ids, desired coordinates) of seeded honest runs."""
    for K, P, N, q, reps in ((3, 1, 2, 2, None), (3, 1, 3, 2, None), (5, 3, 2, 2, 1), (3, 1, 2, 3, None)):
        params = SchemeParams(K=K, P=P, N=N, q=q)
        table = table_scheme.build_query_table(params, tuple(range(P)), Random(3), reps=reps)
        name = f"table K{K}P{P}N{N}q{q}" + (f" reps={reps}" if reps else "")
        L = table.L_store
        yield name, table.wire_queries(), K * L, table.pool_size, q, audit._hidden_ids(table), range(P * L)
    for K, P, N, L, q, desired in ((64, 8, 3, 1, 2, tuple(range(3, 64, 8))), (4, 2, 3, 2, 5, (1, 2))):
        plan = block_scheme.plan_blocks(SchemeParams(K=K, P=P, N=N, L=L, q=q), desired, Random(3))
        n_blocks = plan.pool_size_required()
        coords = [m * L + s for m in desired for s in range(L)]
        yield f"block K{K}P{P}N{N}L{L}q{q}", plan.wire_queries(), K * L, n_blocks, q, list(range(n_blocks)), coords


ORACLE_VIEWS = {name: view for name, *view in oracle_views()}


@pytest.mark.parametrize("name", ORACLE_VIEWS)
def test_packed_elimination_matches_the_dense_oracle(name):
    payloads, n_coords, pool_size, q, hidden, desired = ORACLE_VIEWS[name]
    honest = assert_packed_matches_dense(payloads, n_coords, pool_size, q, desired)
    assert honest.undesired == ()
    revealed = payloads + [wire.encode_table_query(hidden, [])]  # every hidden symbol as a plain download
    leaked = assert_packed_matches_dense(revealed, n_coords, pool_size, q, desired)
    assert honest.coordinates <= leaked.coordinates and leaked.undesired


@pytest.mark.parametrize("name", ORACLE_VIEWS)
@settings(max_examples=10, derandomize=True, deadline=None)
@given(data=st.data())
def test_packed_elimination_matches_the_dense_oracle_with_extra_block_rows(name, data):
    payloads, n_coords, pool_size, q, _, desired = ORACLE_VIEWS[name]
    # sparse vectors pin single coordinates once their masks cancel; any byte
    # is a legal lane over odd q, read mod q
    sparse = st.lists(st.integers(0, n_coords - 1), max_size=3).map(
        lambda coords: field.pack([coords.count(c) for c in range(n_coords)], q)
    )
    dense = st.lists(st.integers(0, 1 if q == 2 else 255), min_size=n_coords, max_size=n_coords).map(
        lambda coeffs: field.pack(coeffs, q)
    )
    entries = st.tuples(st.integers(0, pool_size - 1), st.just(n_coords), sparse | dense)
    bodies = data.draw(st.lists(st.lists(entries, min_size=1, max_size=3), max_size=4))
    extra = [wire.encode_block_query(body, q) for body in bodies]
    assert_packed_matches_dense(payloads + extra, n_coords, pool_size, q, desired)


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
        # database 0's body gains a plain pool id one past the pool, or its
        # first sum a term one past the store's last coordinate: the server
        # answers either with ERR_BAD_QUERY
        wire_query = table_scheme.QueryTable.wire_query

        def tampered(table, db):
            view = wire.parse_table_query(wire_query(table, db))
            plain, sums = list(view.plain_ids), list(view.sums)
            if db == 0 and tamper == "pool id":
                plain.append(table.pool_size)
            elif db == 0:
                (terms, pid), *rest = sums
                sums = [((*terms, table.K * table.L_store), pid), *rest]
            return wire.encode_table_query(plain, sums)

        monkeypatch.setattr(table_scheme.QueryTable, "wire_query", tampered)
        with pytest.raises(wire.ProtocolFault, match=fault):
            audit.audit_table_user_privacy(SchemeParams(K=3, P=1, N=2))

    def test_draws_leave_their_structure_unchanged(self):
        # the verdict draws many tables over one structure per desired set
        # and edits some of them as a mutant; none may reach the structure
        structure = table_scheme.table_structure(SchemeParams(K=3, P=1, N=2), (1,))
        before = copy.deepcopy(structure)
        first = table_scheme.draw(structure, Random(1))
        wires = first.wire_queries()
        table_scheme.draw(structure, Random(2))
        orders = audit._identity_orders(3, structure.L_store, structure.pool_size)
        for mutant in (audit.TABLE_MUTANT_NO_INDEX_PERM, audit.TABLE_MUTANT_NO_POOL_RELABEL):
            audit._table_build(structure, orders, mutant).wire_queries()
        assert structure == before
        assert first.wire_queries() == wires

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


@pytest.mark.parametrize("params", ENUMERABLE_TABLES, ids=lambda p: f"K{p.K}P{p.P}N{p.N}q{p.q}")
def test_closed_form_matches_enumerated_components(params):
    structures = [table_scheme.table_structure(params, desired) for desired in combinations(range(params.K), params.P)]
    L_store, pool_size = structures[0].L_store, structures[0].pool_size
    assert factorial(max(L_store, pool_size)) <= 40320
    ident = audit._identity_orders(params.K, L_store, pool_size)
    for mutant in (None, audit.TABLE_MUTANT_NO_HIDDEN_CR):
        views = [audit._table_views(audit._table_build(structure, ident, mutant)) for structure in structures]
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


def literal_table_posteriors_uniform(table, public=()):
    wires = table.wire_queries()
    K, L, q, pool_size = table.K, table.L_store, table.q, table.pool_size
    return literal_posteriors_uniform(table_scheme.answer_wire_query, wires, K, L, q, pool_size, table.desired, public)


LITERAL_TABLE_BUDGET = 2**24  # (W, S) realizations the literal table check may visit


def enumerated_table_db_privacy(params, mutant=None, seeds=(0, 1, 2)):
    """Reference for the elimination verdict: the literal posterior check of
    each strategy draw (the client knows its own draw, so the check
    conditions on it)."""
    structure = table_scheme.table_structure(params, tuple(range(params.P)))
    L_store, pool_size = structure.L_store, structure.pool_size
    assert params.q ** (params.K * L_store + pool_size) * len(seeds) <= LITERAL_TABLE_BUDGET
    for seed in seeds:
        table = table_scheme.build_query_table(params, tuple(range(params.P)), Random(seed))
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
        span = audit.recoverable_coordinates(payloads, 3, 1, 2, (0,))
        assert span.coordinates == frozenset({0}) and span.undesired == ()
        # revealing the shared symbol (a synthetic plain download of pool id 0)
        # exposes the base combination and with it the undesired coordinate 1
        reveal = (
            struct.pack("<B", table_scheme.TABLE_QUERY_TAG)
            + struct.pack("<I", 1)
            + struct.pack("<I", 0)
            + struct.pack("<I", 0)
        )
        leaked = audit.recoverable_coordinates(payloads + [reveal], 3, 1, 2, (0,))
        assert leaked.coordinates == frozenset({0, 1}) and leaked.undesired == (field.pack([0, 1, 0], 2),)

    def test_a_sum_of_undesired_messages_is_pinned_jointly(self):
        # K=4 over two slots: database 0 gets e_0 and e_2 + e_3, database 1
        # the zero vector on both slots, so the view pins W0 and W2 + W3 and
        # no undesired message on its own
        e = [field.pack([int(c == t) for c in range(4)], 2) for t in range(4)]
        payloads = [
            wire.encode_block_query([(0, 4, e[0]), (1, 4, e[2] ^ e[3])], 2),
            wire.encode_block_query([(0, 4, 0), (1, 4, 0)], 2),
        ]
        span = audit.recoverable_coordinates(payloads, 4, 2, 2, (0,))
        assert span.coordinates == frozenset({0})  # all a per-coordinate check would see
        assert span.undesired == (e[2] ^ e[3],) and span.rank == 4

    def test_empty_payload_is_a_protocol_fault(self):
        with pytest.raises(wire.ProtocolFault, match="empty query body"):
            audit.recoverable_coordinates([b""], 3, 2, 2, ())
        with pytest.raises(wire.ProtocolFault, match="unknown scheme tag 9"):  # as the server refuses it
            audit.recoverable_coordinates([b"\x09"], 3, 2, 2, ())

    def test_download_all_reads_as_every_coordinate(self):
        # the server answers download-all with every stored symbol and no pool symbol
        span = audit.recoverable_coordinates([wire.encode_download_all()], 3, 2, 2, ())
        assert span.coordinates == frozenset({0, 1, 2})

    def test_refuses_what_the_server_refuses(self):
        # n_coords 3 over a 2-slot pool: a pool id far past the pool, a plain
        # table id past it, and e_0 on the slot one past it (which must not
        # read as an unmasked query for coordinate 0)
        for payload in (
            wire.encode_block_query([(9, 3, 0)], 2),
            wire.encode_table_query([5], []),
            wire.encode_block_query([(2, 3, 1)], 2),
        ):
            with pytest.raises(wire.ProtocolFault, match="outside the provisioned pool"):
                audit.recoverable_coordinates([payload], 3, 2, 2, ())
