"""Exact verification of the privacy and reliability guarantees at desk scale.

Three kinds of checks, all in exact arithmetic (zero means zero):

* reliability: decode output equals the stored symbols, every trial;
* user privacy: the view of each single database - query, answer, messages,
  shared randomness - has identical distribution whichever messages are
  desired;
* database privacy: the querying side's whole view leaves the posterior of
  every undesired symbol exactly uniform.

Every enumerated atom (a strategy draw, message realization and randomness
realization) is equally likely, so a distribution is a ``Counter`` of
integer atom counts and a distance is one exact ``Fraction``.

The linear one-round scheme is small enough to enumerate outright: every
strategy draw, message realization and randomness realization is an atom of
the joint distributions compared.  Each distinct query body is parsed once
per audit call and evaluated in every (message, randomness) realization by
the server's own evaluator; its atoms are weighted by the number of strategy
draws that emit it, so the distributions are the ones a literal visit of
every atom would count.

The query-table scheme's strategy space (one permutation per message plus a
pool relabeling) is astronomically large, so its user-privacy audit is
factored: the factorization premises (identical skeletons across desired
sets, distinct indices within each structure, the emitted query being the
component draw applied to a fixed pattern, queries independent of messages
and randomness) are verified mechanically, and the first two give every
component's distance in closed form, so nothing is enumerated.  Database
privacy for instances too large to enumerate uses exact Gaussian
elimination over the wire coefficient matrix: for a linear scheme the
posterior is uniform on the complement of the recoverable span, so
posterior-equals-prior is equivalent to the span containing no undesired
coordinate functional.

Mutated schemes (negative controls) are first-class: an audit that cannot
fail them is itself broken, and the test suite insists they fail.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial
from random import Random

from . import block_scheme, table_scheme, wire
from .field import lane_bits, unpack
from .params import ParamError, SchemeParams, lspir_cost
from .storage import CommonRandomnessPool, MessageStore

DEFAULT_BUDGET = 2**24
_MECHANISM_SAMPLES = 40  # sampled component draws checked against the factorization


class AuditBudgetExceeded(RuntimeError):
    """The instance is not exhaustively enumerable within budget; refusing to sample."""


@dataclass
class Verdict:
    ok: bool
    distance: Fraction
    detail: str

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class LeakageReport:
    recoverable: frozenset[int]
    expected: frozenset[int]

    @property
    def ok(self) -> bool:
        return self.recoverable == self.expected


class _ScriptedRandom:
    """Replays prescribed outcomes for shuffle/randrange/getrandbits so
    strategy spaces can be enumerated exactly instead of sampled."""

    def __init__(self, shuffle_orders: list[tuple[int, ...]], randrange_values: list[int]):
        self._orders = list(shuffle_orders)
        self._values = list(randrange_values)

    def shuffle(self, x: list) -> None:
        order = self._orders.pop(0)
        if len(order) != len(x):
            raise ValueError("scripted shuffle length mismatch")
        x[:] = [x[i] for i in order]

    def randrange(self, n: int) -> int:
        v = self._values.pop(0)
        if not 0 <= v < n:
            raise ValueError("scripted randrange value out of range")
        return v

    def getrandbits(self, k: int) -> int:
        """k scripted ``randrange(2)`` values; value i gives bit i."""
        return sum(self.randrange(2) << i for i in range(k))

    def exhausted(self) -> bool:
        return not self._orders and not self._values


def _check_budget(atoms: int, budget: int) -> None:
    if atoms > budget:
        raise AuditBudgetExceeded(f"{atoms} atoms exceed the {budget} budget; refusing to sample")


def total_variation(p: Counter, q: Counter, atoms: int) -> Fraction:
    """Distance between two distributions given as counts of ``atoms`` equally likely atoms each."""
    return Fraction(sum(abs(p[k] - q[k]) for k in p.keys() | q.keys()), 2 * atoms)


def _uniform_posteriors(groups: dict[object, Counter], n_values: int) -> bool:
    """True iff every view's counts cover all ``n_values`` undesired values equally often."""
    return all(len(counts) == n_values and len(set(counts.values())) == 1 for counts in groups.values())


# ---------------------------------------------------------------------------
# Linear (block) scheme: full enumeration
# ---------------------------------------------------------------------------

BLOCK_MUTANT_NO_BASE_MASK = "no_base_mask"
BLOCK_MUTANT_NO_CR = "no_cr"


def _block_mutate(plan: block_scheme.BlockPlan, mutant: str | None) -> block_scheme.BlockPlan:
    if mutant is None:
        return plan
    if mutant == BLOCK_MUTANT_NO_BASE_MASK:
        lane = lane_bits(plan.params.q)
        for qs in plan.queries:  # each probe becomes the bare unit vector of its coordinate
            qs[:] = [bq if bq.probe_coord is None else bq._replace(vector=1 << (bq.probe_coord * lane)) for bq in qs]
        return plan
    if mutant == BLOCK_MUTANT_NO_CR:
        return plan  # handled at pool construction
    raise ParamError(f"unknown block mutant {mutant!r}")


def _block_pool(params: SchemeParams, symbols: tuple[int, ...], mutant: str | None) -> CommonRandomnessPool:
    if mutant == BLOCK_MUTANT_NO_CR:
        symbols = tuple(0 for _ in symbols)
    return CommonRandomnessPool(params.q, list(symbols))


def _block_atoms(params: SchemeParams) -> int:
    """Equally likely (strategy, messages, randomness) atoms of one desired set."""
    K, P, L, N, q = params.K, params.P, params.L, params.N, params.q
    n_blocks = lspir_cost(P, N, L)[1]
    return factorial(P * L) * q ** (n_blocks * K * L) * q ** (K * L) * q**n_blocks


def _block_draws(params: SchemeParams, desired: tuple[int, ...], mutant: str | None):
    """Every strategy draw's per-database wire queries, one tuple per draw."""
    K, P, L, N, q = params.K, params.P, params.L, params.N, params.q
    n_values = lspir_cost(P, N, L)[1] * K * L  # one uniform base vector per block
    for order, values in product(permutations(range(P * L)), product(range(q), repeat=n_values)):
        rng = _ScriptedRandom([order], list(values))
        plan = block_scheme.plan_blocks(params, desired, rng)
        assert rng.exhausted()
        yield tuple(_block_mutate(plan, mutant).wire_queries())


def _block_answerer(params: SchemeParams, mutant: str | None):
    """Every (W, S) realization, and a function giving a wire body's answer in each.

    A body is parsed once and evaluated once per realization however many
    strategy draws emit it; the cache lives only as long as the audit call
    that built it.
    """
    K, P, L, N, q = params.K, params.P, params.L, params.N, params.q
    stores = [(w_flat, MessageStore(q, L, bytes(w_flat))) for w_flat in product(range(q), repeat=K * L)]
    n_blocks = lspir_cost(P, N, L)[1]
    pools = [(s, _block_pool(params, s, mutant)) for s in product(range(q), repeat=n_blocks)]
    realizations = [(w_flat, s_vals, store, pool) for w_flat, store in stores for s_vals, pool in pools]
    cache: dict[bytes, tuple[tuple[int, ...], ...]] = {}

    def answers(body: bytes) -> tuple[tuple[int, ...], ...]:
        if body not in cache:  # parsed as the server parses it, so a body it would refuse raises here
            entries = wire.parse_block_query(body, q, K * L, n_blocks)
            cache[body] = tuple(tuple(block_scheme.answer_entries(entries, st, pl)) for _, _, st, pl in realizations)
        return cache[body]

    return realizations, answers


def _block_user_dists(params: SchemeParams, mutant: str | None) -> list[list[Counter]]:
    """Per desired set, per database: atom counts of (Q_n, A_n, W, S), each body's
    atoms weighted by the number of strategy draws that emit it there."""
    realizations, answers = _block_answerer(params, mutant)
    keys: dict[bytes, list[tuple]] = {}  # body -> its (body, answer, W, S) key in each realization
    dists: list[list[Counter]] = []
    for desired in combinations(range(params.K), params.P):
        emitted = [Counter() for _ in range(params.N)]
        for wires in _block_draws(params, desired, mutant):
            for db, body in enumerate(wires):
                emitted[db][body] += 1
        dists.append([Counter() for _ in emitted])
        for dist, bodies in zip(dists[-1], emitted):
            for body, draws in bodies.items():
                if body not in keys:
                    keys[body] = [(body, a, w, s) for (w, s, _, _), a in zip(realizations, answers(body))]
                dist.update(dict.fromkeys(keys[body], draws))
    return dists


def audit_block_user_privacy(
    params: SchemeParams, mutant: str | None = None, budget: int = DEFAULT_BUDGET
) -> Verdict:
    """Exact distributional equality of (Q_n, A_n, W, S) across all desired sets."""
    atoms = _block_atoms(params)
    _check_budget(comb(params.K, params.P) * atoms, budget)  # every desired set is enumerated
    dists = _block_user_dists(params, mutant)
    worst = max(
        (total_variation(dists[0][db], other[db], atoms) for other in dists[1:] for db in range(params.N)),
        default=Fraction(0),
    )
    return Verdict(worst == 0, worst, f"max per-database total variation {worst}")


def _block_db_groups(params: SchemeParams, mutant: str | None) -> defaultdict[tuple, Counter]:
    """Per querying-side view (strategy, wires, answers): counts of the undesired symbols."""
    K, P, L = params.K, params.P, params.L
    undesired_coords = [m * L + s for m in range(P, K) for s in range(L)]
    realizations, answers = _block_answerer(params, mutant)
    undesired = [tuple(w_flat[c] for c in undesired_coords) for w_flat, _, _, _ in realizations]
    groups: defaultdict[tuple, Counter] = defaultdict(Counter)
    for strategy, wires in enumerate(_block_draws(params, tuple(range(P)), mutant)):
        for symbols, answer in zip(undesired, zip(*map(answers, wires))):
            groups[strategy, wires, answer][symbols] += 1
    return groups


def audit_block_db_privacy(
    params: SchemeParams, mutant: str | None = None, budget: int = DEFAULT_BUDGET
) -> Verdict:
    """Posterior of the undesired symbols given the querying side's whole view
    must equal the uniform prior, for every view of nonzero probability."""
    _check_budget(_block_atoms(params), budget)
    groups = _block_db_groups(params, mutant)
    if not _uniform_posteriors(groups, params.q ** ((params.K - params.P) * params.L)):
        return Verdict(False, Fraction(1), "posterior of undesired symbols differs from prior")
    return Verdict(True, Fraction(0), f"{len(groups)} views checked, posterior uniform in all")


# ---------------------------------------------------------------------------
# Table scheme: factored user-privacy audit
# ---------------------------------------------------------------------------

TABLE_MUTANT_NO_INDEX_PERM = "no_index_permutation"
TABLE_MUTANT_NO_POOL_RELABEL = "no_pool_relabel"
TABLE_MUTANT_NO_HIDDEN_CR = "no_hidden_cr"
_TABLE_MUTANTS = (TABLE_MUTANT_NO_INDEX_PERM, TABLE_MUTANT_NO_POOL_RELABEL, TABLE_MUTANT_NO_HIDDEN_CR)


def _check_table_mutant(mutant: str | None) -> None:
    if mutant is not None and mutant not in _TABLE_MUTANTS:
        raise ParamError(f"unknown table mutant {mutant!r}")


def _identity_orders(K: int, L: int, pool: int) -> list[tuple[int, ...]]:
    return [tuple(range(L)) for _ in range(K)] + [tuple(range(pool))]


def _table_build(params: SchemeParams, desired, orders, mutant: str | None):
    rng = _ScriptedRandom(list(orders), [])
    table = table_scheme.build_query_table(params, desired, rng)
    if mutant == TABLE_MUTANT_NO_INDEX_PERM:
        table.msg_perm = [list(range(table.L_store)) for _ in range(params.K)]
    elif mutant == TABLE_MUTANT_NO_POOL_RELABEL:
        table.pool_perm = list(range(table.pool_size))
    return table


def _table_shape(params: SchemeParams) -> tuple[int, int]:
    """L_store and pool size, which no strategy draw or desired set changes."""
    probe = table_scheme.build_query_table(params, tuple(range(params.P)), Random(0))
    return probe.L_store, probe.pool_size


def _skeleton(view: wire.TableQuery, L: int):
    return (len(view.plain_ids), tuple(tuple(c // L for c in terms) for terms, _ in view.sums))


def _msg_indices(view: wire.TableQuery, msg: int, L: int) -> tuple[int, ...]:
    """Positions of message ``msg`` in the order the view's terms name them."""
    return tuple(c % L for terms, _ in view.sums for c in terms if c // L == msg)


def _visible_ids(view: wire.TableQuery) -> tuple[int, ...]:
    return view.plain_ids + tuple(pid for _, pid in view.sums)


def _table_views(table: table_scheme.QueryTable) -> list[wire.TableQuery]:
    """The per-database wire queries, parsed: the audit works on wire bytes only."""
    return [wire.parse_table_query(payload) for payload in table.wire_queries()]


def audit_table_user_privacy(params: SchemeParams, mutant: str | None = None) -> Verdict:
    """Exact equality of each database's query distribution across desired sets.

    The query factorizes as (fixed skeleton, per-message position draws, pool
    relabeling draw).  The structural premises (identical skeletons,
    per-database distinctness, query independence of messages and randomness
    via the scripted build being data-free) are checked, the factorization is
    verified on sampled draws, and each factor's distance then follows in
    closed form from premises 1-2 instead of being enumerated.
    """
    _check_table_mutant(mutant)
    K, P, N = params.K, params.P, params.N
    L_store, pool_size = _table_shape(params)

    desired_sets = list(combinations(range(K), P))
    ident = _identity_orders(K, L_store, pool_size)
    views: dict[tuple, list[wire.TableQuery]] = {}
    for desired in desired_sets:
        views[desired] = _table_views(_table_build(params, desired, ident, mutant))

    # Premise 1: identical skeletons and counts across desired sets.
    base = views[desired_sets[0]]
    for desired in desired_sets[1:]:
        for db in range(N):
            if _skeleton(views[desired][db], L_store) != _skeleton(base[db], L_store):
                return Verdict(False, Fraction(1), f"query skeleton differs at database {db}")

    # Premise 2: within one database every position reference is distinct per
    # message and every randomness id is seen at most once.
    for desired in desired_sets:
        for db in range(N):
            v = views[desired][db]
            for m in range(K):
                idxs = _msg_indices(v, m, L_store)
                if len(set(idxs)) != len(idxs):
                    return Verdict(False, Fraction(1), f"repeated position of message {m} at database {db}")
            ids = _visible_ids(v)
            if len(set(ids)) != len(ids):
                return Verdict(False, Fraction(1), f"repeated randomness id at database {db}")

    # Premise 3 (mechanism): the emitted query equals the component draw
    # applied to the identity-build structure, for sampled draws.
    check_rng = Random(2024)
    for _ in range(_MECHANISM_SAMPLES):
        comp = check_rng.randrange(K + 1)
        orders = list(ident)
        size = L_store if comp < K else pool_size
        perm = list(range(size))
        check_rng.shuffle(perm)
        orders[comp] = tuple(perm)
        desired = desired_sets[check_rng.randrange(len(desired_sets))]
        got = _table_views(_table_build(params, desired, orders, mutant))
        ref = views[desired]
        for db in range(N):
            if comp < K:
                want = tuple(perm[i] for i in _msg_indices(ref[db], comp, L_store))
                if _msg_indices(got[db], comp, L_store) != want:
                    return Verdict(False, Fraction(1), f"message {comp} positions do not follow the drawn permutation")
                for other in range(K):
                    if other != comp and _msg_indices(got[db], other, L_store) != _msg_indices(ref[db], other, L_store):
                        return Verdict(False, Fraction(1), "component draws are not independent")
                if _visible_ids(got[db]) != _visible_ids(ref[db]):
                    return Verdict(False, Fraction(1), "pool labels changed under a message draw")
            else:
                want_ids = tuple(perm[i] for i in _visible_ids(ref[db]))
                if _visible_ids(got[db]) != want_ids:
                    return Verdict(False, Fraction(1), "randomness ids do not follow the drawn relabeling")

    # Premise 4: the scripted build never touched messages or randomness, so
    # queries are independent of (W, S) by construction; re-assert by replay.
    if _table_views(_table_build(params, desired_sets[0], ident, mutant)) != base:
        return Verdict(False, Fraction(1), "query generation is not deterministic in the strategy draw")

    # Every component distance is 0 in closed form: a uniform permutation maps
    # a structure of distinct indices (premise 2) to the uniform distribution
    # on injective tuples of its length, and equal skeletons (premise 1) fix
    # each length (a message's position count, the randomness id count).
    # This is the index-permutation argument of Banawan & Ulukus.
    return Verdict(True, Fraction(0), "max component total variation 0")


# ---------------------------------------------------------------------------
# Database privacy via exact linear algebra (any linear scheme)
# ---------------------------------------------------------------------------


def _rows_from_wire(payload: bytes, n_coords: int, pool_size: int, q: int) -> list[list[int]]:
    """Coefficient rows over [pool ids | message coordinates] for one query payload."""
    tag = payload[0]
    width = pool_size + n_coords
    rows: list[list[int]] = []
    if tag == wire.TABLE_QUERY_TAG:
        view = wire.parse_table_query(payload)
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
        for cr_id, length, vec in wire.parse_block_query(payload, q):
            row = [0] * width
            row[cr_id] = 1
            for c, coeff in enumerate(unpack(vec, length, q)):
                row[pool_size + c] = coeff % q
            rows.append(row)
    else:
        raise ParamError(f"cannot derive coefficients for scheme tag {tag}")
    return rows


def recoverable_coordinates(wire_payloads: list[bytes], n_coords: int, pool_size: int, q: int) -> frozenset[int]:
    """Gaussian elimination over the full client view.

    Unknowns are every message coordinate and every pool symbol.  A message
    coordinate is recoverable iff its indicator functional lies in the span
    of rows that eliminate all pool unknowns (pool columns are ordered first,
    so echelon rows pivoting past them carry no randomness).
    """
    rows: list[list[int]] = []
    for payload in wire_payloads:
        rows.extend(_rows_from_wire(payload, n_coords, pool_size, q))

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


def _retrieved_coordinates(table: table_scheme.QueryTable) -> frozenset[int]:
    """The message coordinates a table run is meant to reveal: its desired fresh symbols."""
    return frozenset(
        m * table.L_store + table.msg_perm[m][idx]
        for m in table.desired
        for idx in range(table.msg_fresh[m])
    )


def _hidden_ids(table: table_scheme.QueryTable) -> list[int]:
    """Pool ids of the hidden masking symbols, over every database."""
    return [
        table.pool_perm[spec.cr_slot]
        for db_sums in table.sums
        for spec in db_sums
        if spec.cr_kind == table_scheme.CR_HIDDEN
    ]


def symbolic_leakage_table(table: table_scheme.QueryTable) -> LeakageReport:
    """Recoverable coordinates of a table run must be exactly the retrieved ones."""
    n_coords = table.K * table.L_store
    payloads = table.wire_queries()
    rec = recoverable_coordinates(payloads, n_coords, table.pool_size, table.q)
    return LeakageReport(rec, _retrieved_coordinates(table))


def symbolic_leakage_block(plan: block_scheme.BlockPlan) -> LeakageReport:
    params = plan.params
    n_coords = params.K * params.L
    payloads = plan.wire_queries()
    rec = recoverable_coordinates(payloads, n_coords, plan.pool_size_required(), params.q)
    expected = frozenset(c for blk in plan.coords for c in blk)
    return LeakageReport(rec, expected)


def audit_table_db_privacy(
    params: SchemeParams, mutant: str | None = None, seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
) -> Verdict:
    """Posterior-equals-prior for undesired symbols, via exact elimination.

    For every sampled strategy draw (the client knows its own draw, so the
    check conditions on it), a zero-leakage span certifies the exact
    uniformity of the posterior: the view pins message functionals only
    inside the desired span, and fibers of a linear map all have one size.
    Hidden-randomness removal is modeled by giving the undesired sums'
    masking symbols publicly known (zero) values, which adds their rows to
    the recoverable span.
    """
    _check_table_mutant(mutant)
    K, P = params.K, params.P
    for seed in seeds:
        for desired in combinations(range(K), P):
            table = table_scheme.build_query_table(params, desired, Random(seed))
            payloads = table.wire_queries()
            if mutant == TABLE_MUTANT_NO_HIDDEN_CR:
                # Hidden symbols made public: a synthetic plain download of each.
                payloads += [wire.encode_table_query([pid], []) for pid in _hidden_ids(table)]
            rec = recoverable_coordinates(payloads, K * table.L_store, table.pool_size, params.q)
            expected = _retrieved_coordinates(table)
            if rec != expected:
                return Verdict(
                    False,
                    Fraction(1),
                    f"client view pins {len(rec - expected)} coordinates outside the desired set",
                )
    return Verdict(True, Fraction(0), "posterior of undesired symbols equals the prior (zero leakage span)")


# ---------------------------------------------------------------------------
# Reliability
# ---------------------------------------------------------------------------


def audit_reliability_table(params: SchemeParams, trials: int, seed: int = 0) -> Verdict:
    if trials < 1:
        raise ParamError(f"a reliability audit needs at least one trial, got {trials}")
    rng = Random(seed)
    K, P, N, q = params.K, params.P, params.N, params.q
    for _ in range(trials):
        desired = tuple(sorted(rng.sample(range(K), P)))
        table = table_scheme.build_query_table(params, desired, Random(rng.randrange(1 << 30)))
        store = MessageStore.generate(K, table.L_store, q, seed=rng.randrange(1 << 30))
        pool = CommonRandomnessPool.generate(table.pool_size, q, seed=rng.randrange(1 << 30))
        answers = [table_scheme.answer_wire_query(table.wire_query(db), store, pool) for db in range(N)]
        for c, val in table_scheme.decode(table, answers).items():
            if val != store.flat[c]:
                return Verdict(False, Fraction(1), f"decode mismatch at coordinate {c}")
    return Verdict(True, Fraction(0), f"{trials} trials decoded exactly")


def audit_reliability_block(params: SchemeParams, trials: int, seed: int = 0) -> Verdict:
    if trials < 1:
        raise ParamError(f"a reliability audit needs at least one trial, got {trials}")
    rng = Random(seed)
    K, P, N, L, q = params.K, params.P, params.N, params.L, params.q
    for _ in range(trials):
        desired = tuple(sorted(rng.sample(range(K), P)))
        plan = block_scheme.plan_blocks(params, desired, Random(rng.randrange(1 << 30)))
        store = MessageStore.generate(K, L, q, seed=rng.randrange(1 << 30))
        pool = CommonRandomnessPool.generate(plan.pool_size_required(), q, seed=rng.randrange(1 << 30))
        answers = [block_scheme.answer_wire_query(plan.wire_query(db), store, pool) for db in range(N)]
        for c, val in block_scheme.decode_blocks(plan, answers).items():
            if val != store.flat[c]:
                return Verdict(False, Fraction(1), f"decode mismatch at coordinate {c}")
    return Verdict(True, Fraction(0), f"{trials} trials decoded exactly")
