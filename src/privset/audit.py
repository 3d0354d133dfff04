"""Exact verification of the privacy and reliability guarantees at desk scale.

Three kinds of checks, all in exact arithmetic (zero means zero):

* reliability: decode output equals the stored symbols, every trial;
* user privacy: the view of each single database - query, answer, messages,
  shared randomness - has identical distribution whichever messages are
  desired;
* database privacy: the querying side's whole view and all undesired
  messages together have zero mutual information.

A database's answer is a function of its query, the messages and the
randomness, which are uniform and independent of the strategy draw, so both
user-privacy audits compare query distributions only, and both are factored:
premises checked mechanically on the parsed wire bodies of scripted builds,
each body parsed with the server's bounds, then the distance in closed form.
Nothing is enumerated and no answer is evaluated.

The linear one-round scheme's premises, per database: one slot sequence for
every (desired set, shuffle order) pair, no slot twice, and each emitted
vector equal to its slot's base vector plus the vector the all-zero base
draw emits at that position.  Each database then sees independent uniform
vectors on fixed slots (the argument of Chor, Goldreich, Kushilevitz &
Sudan, *Private Information Retrieval*).  Every pair is checked while there
are at most ``_MECHANISM_SAMPLES`` of them; past that, that many sampled
pairs are.

The query-table scheme's strategy space is one permutation per message plus
a pool relabeling.  Its premises (identical skeletons across desired sets,
distinct indices within each structure, the emitted query being the
component draw applied to a fixed pattern, queries independent of messages
and randomness) give every component's distance in closed form.  The
scheme's rng-free structure (``table_scheme.table_structure``) is built once
per desired set within each verdict, and premise 3 is checked on the draw
applied to it; only the determinism replay builds a structure again.

Database privacy, for both schemes, is exact Gaussian elimination over the
wire coefficient matrix of a strategy draw.  For a linear scheme with
uniform W and S, the view is independent of the undesired messages jointly
iff the message span it pins, once the pool symbols are eliminated, meets
the undesired coordinates only in 0, since the fibers of a linear map all
have one size (the argument of Sun & Jafar, *The Capacity of Symmetric
Private Information Retrieval*).  The table scheme's check runs on sampled
draws.  The linear scheme's decides every base draw of one shuffle order
from two builds: with every base vector 0, and with distinct nonzero seeded
bases.  Each row's base part (seeded minus zero-base vector) must be 0 or
one block's base.  If two rows on one pool slot have different base parts,
their difference is free of pool symbols and some base draw makes it an
undesired unit vector, so the check fails.  Otherwise each slot's base part
cancels against its pool symbol, every base draw pins the zero-base view's
span with its rank, and one elimination decides them all.  Each wire row is
one packed int in ``field.lane_bits(q)`` lanes, pool ids first and message
coordinates after them, so a row operation is one XOR over F_2.  Rows are
keyed on their first nonzero lane in the order pool, desired coordinates,
undesired coordinates, so the rows keyed on undesired lanes span that meet;
the rows left without a pool lane are brought to reduced form, and a
coordinate is pinned outright iff its reduced row is its unit vector.

Mutated schemes (negative controls) are first-class: an audit that cannot
fail them is itself broken, and the test suite insists they fail.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial
from random import Random
from typing import NamedTuple

from . import block_scheme, table_scheme, wire
from .field import lane_bits, pack, sample_uniform, unpack
from .params import ParamError, SchemeParams, lspir_cost
from .storage import CommonRandomnessPool, MessageStore

_MECHANISM_SAMPLES = 40  # sampled draws checked against a factorization's premises


@dataclass
class Verdict:
    ok: bool
    distance: Fraction
    detail: str

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class LeakageReport:
    recoverable: frozenset[int]  # the coordinates the view pins outright
    expected: frozenset[int]  # the coordinates the run retrieves
    undesired: tuple[int, ...]  # ``PinnedSpan.undesired``: what the view pins of undesired messages

    @property
    def ok(self) -> bool:
        return self.recoverable == self.expected and not self.undesired


class _ScriptedRandom:
    """Replays prescribed outcomes for shuffle/randrange/getrandbits so
    strategy draws can be chosen instead of sampled."""

    def __init__(self, shuffle_orders: list[tuple[int, ...]], randrange_values):
        self._orders = deque(shuffle_orders)
        self._values = deque(randrange_values)

    def shuffle(self, x: list) -> None:
        order = self._orders.popleft()
        if len(order) != len(x):
            raise ValueError("scripted shuffle length mismatch")
        x[:] = [x[i] for i in order]

    def randrange(self, n: int) -> int:
        v = self._values.popleft()
        if not 0 <= v < n:
            raise ValueError("scripted randrange value out of range")
        return v

    def getrandbits(self, k: int) -> int:
        """k scripted ``randrange(2)`` values; value i gives bit i."""
        bits = [self._values.popleft() for _ in range(k)]
        if not set(bits) <= {0, 1}:
            raise ValueError("scripted randrange value out of range")
        return pack(bits, 2)

    def exhausted(self) -> bool:
        return not self._orders and not self._values


# ---------------------------------------------------------------------------
# Linear (block) scheme: two scripted builds per checked shuffle order
# ---------------------------------------------------------------------------

BLOCK_MUTANT_NO_BASE_MASK = "no_base_mask"
BLOCK_MUTANT_NO_CR = "no_cr"
_BLOCK_MUTANTS = (BLOCK_MUTANT_NO_BASE_MASK, BLOCK_MUTANT_NO_CR)


def _check_block_mutant(mutant: str | None) -> None:
    if mutant is not None and mutant not in _BLOCK_MUTANTS:
        raise ParamError(f"unknown block mutant {mutant!r}")


def _block_mutate(plan: block_scheme.BlockPlan, mutant: str | None) -> block_scheme.BlockPlan:
    if mutant == BLOCK_MUTANT_NO_BASE_MASK:
        lane = lane_bits(plan.params.q)
        for qs in plan.queries:  # each probe becomes the bare unit vector of its coordinate
            qs[:] = [bq if bq.probe_coord is None else bq._replace(vector=1 << (bq.probe_coord * lane)) for bq in qs]
    return plan  # no_cr changes no query: the database-privacy audit makes the pool public


def _block_builds(params: SchemeParams, mutant: str | None, desired: tuple[int, ...] | None = None):
    """The checked (desired set, shuffle order) pairs, each built twice.

    The pairs are ``desired`` (every desired set if None) with every shuffle
    order while there are at most ``_MECHANISM_SAMPLES`` of them, else that
    many sampled pairs.  Returns the builds and the scope said in a passing
    detail.  A build is ``(bases, zero, seeded)``: seeded base vectors that
    are distinct and nonzero (redrawn until they are; there are fewer blocks
    than nonzero vectors), then each database's parsed wire entries of the
    plan with every base vector 0 and of the plan with ``bases``.
    """
    K, P, L, N, q = params.K, params.P, params.L, params.N, params.q
    n_coords, n_blocks = K * L, lspir_cost(P, N, L)[1]
    rng, scope = Random(2024), ""
    if (comb(K, P) if desired is None else 1) * factorial(P * L) <= _MECHANISM_SAMPLES:
        pairs = product(combinations(range(K), P) if desired is None else [desired], permutations(range(P * L)))
    else:
        pairs = [
            (sorted(rng.sample(range(K), P)) if desired is None else desired, rng.sample(range(P * L), P * L))
            for _ in range(_MECHANISM_SAMPLES)
        ]
        scope = f", premises checked on {_MECHANISM_SAMPLES} sampled strategy draws"

    def views(desired, order, values) -> list[list[tuple[int, int, int]]]:
        """The parsed bodies of the draw of shuffle ``order`` and the base vectors' scripted symbols ``values``."""
        rng = _ScriptedRandom([order], values)
        plan = _block_mutate(block_scheme.plan_blocks(params, desired, rng), mutant)
        assert rng.exhausted()
        return [wire.parse_block_query(body, q, n_coords, n_blocks) for body in plan.wire_queries()]

    def builds():
        for desired, order in pairs:
            bases = [0]
            while 0 in bases or len(set(bases)) < n_blocks:
                bases = [sample_uniform(rng, n_coords, q) for _ in range(n_blocks)]
            zero = views(desired, order, bytes(n_blocks * n_coords))
            yield bases, zero, views(desired, order, b"".join(unpack(base, n_coords, q) for base in bases))

    return builds(), scope


def audit_block_user_privacy(params: SchemeParams, mutant: str | None = None) -> Verdict:
    """Exact distributional equality of each database's query across desired sets.

    The premises in the module docstring are checked on the parsed bodies of
    every build of ``_block_builds``; a failure names its premise.
    """
    _check_block_mutant(mutant)
    n_coords, q = params.K * params.L, params.q
    builds, scope = _block_builds(params, mutant)
    slots: dict[int, list[int]] = {}  # each database's slot sequence, fixed by its first build
    for bases, shifts, drawn in builds:
        for db in range(params.N):
            for got in ([pid for pid, _, _ in shifts[db]], [pid for pid, _, _ in drawn[db]]):
                if slots.setdefault(db, got) != got:
                    return Verdict(False, Fraction(1), f"slot sequence differs at database {db}")
                if len(set(got)) != len(got):
                    return Verdict(False, Fraction(1), f"a slot appears twice at database {db}")
            for (pid, _, shift), (_, _, vec) in zip(shifts[db], drawn[db]):
                if vec != _combine(shift, 1, bases[pid], n_coords, q):
                    return Verdict(False, Fraction(1), f"a vector at database {db} is not its slot's base plus a shift")
    return Verdict(True, Fraction(0), f"max per-database total variation 0{scope}")


def audit_block_db_privacy(params: SchemeParams, mutant: str | None = None) -> Verdict:
    """Posterior of the undesired symbols given the querying side's whole view
    must equal the uniform prior, for every view of nonzero probability.

    Each shuffle order of desired set (0..P-1) that ``_block_builds`` checks
    is decided exactly for every base draw at once, by the two-build argument
    in the module docstring.  The ``no_cr`` mutant is modeled as the pool made
    public: one plain download, vector 0, of each pool id.
    """
    _check_block_mutant(mutant)
    K, P, L, N, q = params.K, params.P, params.L, params.N, params.q
    n_coords, n_blocks, lane = K * L, lspir_cost(P, N, L)[1], lane_bits(q)
    public = [(pid, n_coords, 0) for pid in range(n_blocks)] if mutant == BLOCK_MUTANT_NO_CR else []
    builds, scope = _block_builds(params, mutant, tuple(range(P)))
    n_views = 0
    for bases, zero, seeded in builds:
        zero_rows, seeded_rows = [e for v in zero for e in v] + public, [e for v in seeded for e in v] + public
        if [pid for pid, _, _ in zero_rows] != [pid for pid, _, _ in seeded_rows]:
            return Verdict(False, Fraction(1), "slot sequence differs between the zero-base and seeded builds")
        parts: dict[int, int] = {}  # pool slot -> the base part of its rows
        for (pid, _, vec), (_, _, seeded_vec) in zip(zero_rows, seeded_rows):
            part = _combine(seeded_vec, q - 1, vec, n_coords, q)
            if part and part not in bases:
                return Verdict(False, Fraction(1), "a vector's base part is neither 0 nor one block's base")
            if parts.setdefault(pid, part) != part:
                return Verdict(False, Fraction(1), "posterior of undesired symbols differs from prior")
        rows = [vec << n_blocks * lane | 1 << pid * lane for pid, _, vec in zero_rows]
        span = _eliminate(rows, n_coords, n_blocks, q, range(P * L))
        if span.undesired:
            return Verdict(False, Fraction(1), "posterior of undesired symbols differs from prior")
        n_views += q ** (n_blocks * n_coords + span.rank)
    detail = f"posterior uniform in all views{scope}" if scope else f"{n_views} views checked, posterior uniform in all"
    return Verdict(True, Fraction(0), detail)


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


def _table_build(structure: table_scheme.TableStructure, orders, mutant: str | None):
    """The draw of scripted shuffle ``orders`` over ``structure``, edited as ``mutant`` says."""
    rng = _ScriptedRandom(list(orders), [])
    table = table_scheme.draw(structure, rng)
    if mutant == TABLE_MUTANT_NO_INDEX_PERM:
        table.msg_perm = [list(range(table.L_store)) for _ in range(table.K)]
    elif mutant == TABLE_MUTANT_NO_POOL_RELABEL:
        table.pool_perm = list(range(table.pool_size))
    return table


def _skeleton(view: wire.TableQuery, L: int):
    return (len(view.plain_ids), tuple(tuple(c // L for c in terms) for terms, _ in view.sums))


def _msg_indices(view: wire.TableQuery, msg: int, L: int) -> tuple[int, ...]:
    """Positions of message ``msg`` in the order the view's terms name them."""
    return tuple(c % L for terms, _ in view.sums for c in terms if c // L == msg)


def _visible_ids(view: wire.TableQuery) -> tuple[int, ...]:
    return view.plain_ids + tuple(pid for _, pid in view.sums)


def _table_views(table: table_scheme.QueryTable) -> list[wire.TableQuery]:
    """The per-database wire queries, parsed with the server's bounds: the audit works on wire bytes only."""
    return [wire.parse_table_query(body, table.K * table.L_store, table.pool_size) for body in table.wire_queries()]


def audit_table_user_privacy(params: SchemeParams, mutant: str | None = None) -> Verdict:
    """Exact equality of each database's query distribution across desired sets.

    The query factorizes as (fixed skeleton, per-message position draws, pool
    relabeling draw).  The structural premises (identical skeletons,
    per-database distinctness, query independence of messages and randomness
    via the scripted build being data-free) are checked, the factorization is
    verified on sampled draws, and each factor's distance then follows in
    closed form from premises 1-2 instead of being enumerated.  Each desired
    set's structure is built once, and premise 3 is checked on draws over
    it; premise 4's replay builds its structure afresh.
    """
    _check_table_mutant(mutant)
    K, P, N = params.K, params.P, params.N
    desired_sets = list(combinations(range(K), P))
    structures = {desired: table_scheme.table_structure(params, desired) for desired in desired_sets}
    first = structures[desired_sets[0]]  # its L_store and pool size, which no desired set changes
    L_store, pool_size = first.L_store, first.pool_size
    ident = _identity_orders(K, L_store, pool_size)
    views: dict[tuple, list[wire.TableQuery]] = {}
    for desired in desired_sets:
        views[desired] = _table_views(_table_build(structures[desired], ident, mutant))

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
        got = _table_views(_table_build(structures[desired], orders, mutant))
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
    # queries are independent of (W, S) by construction; re-assert by replay
    # of a freshly built structure.
    replay = _table_build(table_scheme.table_structure(params, desired_sets[0]), ident, mutant)
    if _table_views(replay) != base:
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


def _rows_from_wire(payload: bytes, n_coords: int, pool_size: int, q: int) -> list[int]:
    """Packed coefficient rows, in ``lane_bits(q)`` lanes, of one query payload:
    pool id p in lane p, message coordinate c in lane ``pool_size + c``.

    Each body is parsed with the server's bounds, so a payload the server
    refuses raises ProtocolFault.  A download-all body reads as one plain row
    per coordinate, the symbols the server answers it with.  A block lane may
    hold any byte over odd q: each row's lowest lane is its pool id's, with
    coefficient 1, so elimination combines it before storing it, and
    ``_combine`` reads every lane mod q.
    """
    if not payload:
        raise wire.ProtocolFault("empty query body")
    lane = lane_bits(q)
    if payload[0] == wire.TABLE_QUERY_TAG:
        view = wire.parse_table_query(payload, n_coords, pool_size)
        rows = [1 << pid * lane for pid in view.plain_ids]
        for terms, pid in view.sums:
            row = 1 << pid * lane
            for c in terms:
                shift = (pool_size + c) * lane
                if q == 2:
                    row ^= 1 << shift
                else:  # raise lane c by 1 mod q
                    v = row >> shift & 0xFF
                    row += ((v + 1) % q - v) << shift
            rows.append(row)
        return rows
    if payload[0] == wire.BLOCK_QUERY_TAG:
        entries = wire.parse_block_query(payload, q, n_coords, pool_size)
        return [vec << pool_size * lane | 1 << pid * lane for pid, _, vec in entries]
    if payload[0] == wire.DOWNLOAD_ALL_TAG:
        wire.parse_download_all(payload)
        return [1 << (pool_size + c) * lane for c in range(n_coords)]
    raise wire.ProtocolFault(f"unknown scheme tag {payload[0]}")


def _combine(row: int, coeff: int, other: int, width: int, q: int) -> int:
    """row + coeff * other over F_q, lane by lane; over F_2 (coeff 1) one XOR."""
    if q == 2:
        return row ^ other
    return pack([(a + coeff * b) % q for a, b in zip(unpack(row, width, q), unpack(other, width, q))], q)


class PinnedSpan(NamedTuple):
    """The message functionals a view pins once every pool symbol is eliminated."""

    coordinates: frozenset[int]  # the message coordinates pinned outright
    undesired: tuple[int, ...]  # reduced basis of the pinned functionals of undesired coordinates alone, packed
    rank: int  # rank of the view's rows over the pool symbols and the coordinates


def _eliminate(rows, n_coords: int, pool_size: int, q: int, desired) -> PinnedSpan:
    """Exact elimination of packed rows (``_rows_from_wire``) over pool and coordinate lanes.

    Each basis row is keyed on its first nonzero lane, scaled to 1 there,
    in the order pool lanes, ``desired`` coordinate lanes, the other
    (undesired) coordinate lanes.  The rows keyed past the pool lanes span
    the pinned span V, and those keyed on undesired lanes span V's meet with
    the undesired coordinates.  Back-substitution brings the pool-free rows
    to reduced form, and coordinate t is pinned iff its reduced row is e_t.
    """
    lane = lane_bits(q)
    full = (1 << lane) - 1
    width = pool_size + n_coords
    first = (1 << pool_size * lane) - 1 | sum(full << (pool_size + c) * lane for c in desired)
    pivots: dict[int, int] = {}  # first nonzero lane -> basis row, coefficient 1 there
    for row in rows:
        while row:
            low = row & first or row
            lead = ((low & -low).bit_length() - 1) // lane
            coeff = row >> lead * lane & full
            if lead not in pivots:
                pivots[lead] = _combine(0, pow(coeff, q - 2, q), row, width, q)
                break
            row = _combine(row, q - coeff, pivots[lead], width, q)

    def undesired(lead: int) -> bool:
        return not first >> lead * lane & 1

    free = sorted((lead for lead in pivots if lead >= pool_size), key=lambda b: (undesired(b), b), reverse=True)
    free_lanes = sum(full << lead * lane for lead in free)
    reduced: dict[int, int] = {}  # pool-free rows, zero at every other pool-free pivot
    for lead in free:  # every pivot after this one in that order is already reduced
        row = pivots[lead]
        hits = (row & free_lanes) ^ (1 << lead * lane)  # the other pool-free pivots the row still holds
        while hits:
            b = ((hits & -hits).bit_length() - 1) // lane
            coeff = hits >> b * lane & full
            hits ^= coeff << b * lane
            row = _combine(row, q - coeff, reduced[b], width, q)
        reduced[lead] = row
    return PinnedSpan(
        frozenset(lead - pool_size for lead, row in reduced.items() if row == 1 << lead * lane),
        tuple(row >> pool_size * lane for lead, row in reduced.items() if undesired(lead)),
        len(pivots),
    )


def recoverable_coordinates(wire_payloads: list[bytes], n_coords: int, pool_size: int, q: int, desired) -> PinnedSpan:
    """What the whole client view pins of the messages, by exact elimination.

    Unknowns are every pool symbol and every message coordinate.  For a
    linear scheme with uniform messages and randomness, the view leaves the
    undesired messages jointly independent iff ``undesired`` is empty: the
    pinned span meets the coordinates outside ``desired`` only in 0 (the
    argument of Sun & Jafar, *The Capacity of Symmetric Private Information
    Retrieval*).
    """
    rows = [row for payload in wire_payloads for row in _rows_from_wire(payload, n_coords, pool_size, q)]
    return _eliminate(rows, n_coords, pool_size, q, desired)


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


def _table_leakage(table: table_scheme.QueryTable, payloads: list[bytes]) -> LeakageReport:
    L = table.L_store
    desired = [m * L + i for m in table.desired for i in range(L)]
    span = recoverable_coordinates(payloads, table.K * L, table.pool_size, table.q, desired)
    return LeakageReport(span.coordinates, _retrieved_coordinates(table), span.undesired)


def symbolic_leakage_table(table: table_scheme.QueryTable) -> LeakageReport:
    """A table run must pin exactly the retrieved coordinates and nothing of the undesired messages."""
    return _table_leakage(table, table.wire_queries())


def symbolic_leakage_block(plan: block_scheme.BlockPlan) -> LeakageReport:
    params = plan.params
    n_coords, pool_size = params.K * params.L, plan.pool_size_required()
    expected = frozenset(c for blk in plan.coords for c in blk)  # every coordinate of the desired messages
    span = recoverable_coordinates(plan.wire_queries(), n_coords, pool_size, params.q, expected)
    return LeakageReport(span.coordinates, expected, span.undesired)


def audit_table_db_privacy(
    params: SchemeParams, mutant: str | None = None, seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
) -> Verdict:
    """Posterior-equals-prior for undesired symbols, via exact elimination.

    For every sampled strategy draw (the client knows its own draw, so the
    check conditions on it), a pinned span that meets the undesired
    coordinates only in 0 certifies the exact uniformity of the posterior:
    fibers of a linear map all have one size.  Hidden-randomness removal is
    modeled by giving the undesired sums' masking symbols publicly known
    values: a synthetic plain download of each.
    """
    _check_table_mutant(mutant)
    structures: dict[tuple[int, ...], table_scheme.TableStructure] = {}  # per desired set, built on first use
    for seed in seeds:
        for desired in combinations(range(params.K), params.P):
            if desired not in structures:
                structures[desired] = table_scheme.table_structure(params, desired)
            table = table_scheme.draw(structures[desired], Random(seed))
            payloads = table.wire_queries()
            if mutant == TABLE_MUTANT_NO_HIDDEN_CR:
                payloads += [wire.encode_table_query([pid], []) for pid in _hidden_ids(table)]
            report = _table_leakage(table, payloads)
            if report.undesired:
                outside = len(report.recoverable - report.expected)
                what = f"{outside} coordinates" if outside else f"{len(report.undesired)} functionals"
                return Verdict(False, Fraction(1), f"client view pins {what} outside the desired set")
    return Verdict(True, Fraction(0), "posterior of undesired symbols equals the prior (zero leakage span)")


# ---------------------------------------------------------------------------
# Reliability
# ---------------------------------------------------------------------------


def audit_reliability_table(params: SchemeParams, trials: int, seed: int = 0) -> Verdict:
    if trials < 1:
        raise ParamError(f"a reliability audit needs at least one trial, got {trials}")
    rng = Random(seed)
    K, P, N, q = params.K, params.P, params.N, params.q
    structures: dict[tuple[int, ...], table_scheme.TableStructure] = {}  # per desired set, built on first use
    for _ in range(trials):
        desired = tuple(sorted(rng.sample(range(K), P)))
        if desired not in structures:
            structures[desired] = table_scheme.table_structure(params, desired)
        table = table_scheme.draw(structures[desired], Random(rng.randrange(1 << 30)))
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
