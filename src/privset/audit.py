"""Exact verification of the privacy and reliability guarantees at desk scale.

Three kinds of checks, all in exact arithmetic (zero means zero):

* reliability: decode output equals the stored symbols, every trial; each
  verdict opens one stream per randomness domain (client, messages, common
  randomness) from its seed, and every trial draws its desired set,
  strategy, store and pool from them in turn;
* user privacy: the view of each single database - query, answer, messages,
  shared randomness - has identical distribution whichever messages are
  desired;
* database privacy: the querying side's whole view and all undesired
  messages together have zero mutual information.

A database's answer is a function of its query, the messages and the
randomness, which are uniform and independent of the strategy draw, so both
user-privacy audits compare query distributions only, and both are factored:
premises checked mechanically on the queries of chosen strategy draws, then
the distance in closed form.  The audits decide the rng-free maps from a draw
to the queries, ``block_scheme.build_plan`` and ``table_scheme.relabel``;
``plan_blocks`` and ``table_scheme.draw`` are those maps applied to a uniform
draw that takes no desired set, as the conformance tests pin.  A block query
is its wire body, parsed with the server's bounds.  A table query is its
database's in-process view (``QueryTable.view``), checked by the bounds
``table_scheme.answer`` applies.  Nothing is enumerated and no answer is
evaluated.

The linear one-round scheme's premises, per database: one slot run (first
slot, entry count; the codec puts entry i on slot first + i) for every
(desired set, shuffle order) pair, and each emitted vector equal to its slot's
base vector plus the vector the all-zero base draw emits at that position.
Each database then sees independent uniform vectors on fixed slots (the
argument of Chor, Goldreich, Kushilevitz & Sudan, *Private Information
Retrieval*).  Every pair is checked while there are at most
``_MECHANISM_SAMPLES`` of them; past that, that many sampled pairs are.

The query-table scheme's strategy space is one permutation per message plus
a pool relabeling.  Its premises, on each desired set's identity view (every
permutation the identity): (1) identical skeletons across desired sets;
(2) no store coordinate and no pool id twice within one database's view, in
one pass over it; (3) on sampled draws of one component, each database's
emitted view equals its identity view with that draw applied, one equality
that also pins the skeleton and the components not drawn; (4) a replay from
a fresh structure gives the same identity views.  They give every
component's distance in closed form.  The scheme's rng-free structure
(``table_scheme.table_structure``) is built once per desired set within each
verdict; only premise 4's replay builds one again.

Database privacy, for both schemes, is exact Gaussian elimination over the
coefficient matrix of a strategy draw's queries.  For a linear scheme with
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
span with its rank, and one elimination decides them all.  Each row is
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

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial
from random import Random
from typing import NamedTuple

from . import block_scheme, table_scheme, wire
from .field import (
    DOMAIN_COMMON_RANDOMNESS,
    DOMAIN_MESSAGES,
    domain_rng,
    lane_bits,
    pack,
    raise_lane,
    sample_symbols,
    sample_uniform,
    unpack,
)
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


# ---------------------------------------------------------------------------
# Linear (block) scheme: two builds per checked shuffle order
# ---------------------------------------------------------------------------

BLOCK_MUTANT_NO_BASE_MASK = "no_base_mask"
BLOCK_MUTANT_NO_CR = "no_cr"
_BLOCK_MUTANTS = (BLOCK_MUTANT_NO_BASE_MASK, BLOCK_MUTANT_NO_CR)


def _check_block_mutant(mutant: str | None) -> None:
    if mutant is not None and mutant not in _BLOCK_MUTANTS:
        raise ParamError(f"unknown block mutant {mutant!r}")


def _block_mutate(plan: block_scheme.BlockPlan, mutant: str | None) -> block_scheme.BlockPlan:
    if mutant == BLOCK_MUTANT_NO_BASE_MASK:
        q = plan.params.q
        for qs in plan.queries:  # each probe becomes the bare unit vector of its coordinate
            qs[:] = [bq if bq.probe_coord is None else bq._replace(vector=raise_lane(0, bq.probe_coord, q)) for bq in qs]
    return plan  # no_cr changes no query: the database-privacy audit makes the pool public


def _block_builds(params: SchemeParams, mutant: str | None, desired: tuple[int, ...] | None = None):
    """The checked (desired set, shuffle order) pairs, each built twice.

    The pairs are ``desired`` (every desired set if None) with every shuffle
    order while there are at most ``_MECHANISM_SAMPLES`` of them, else that
    many sampled pairs.  Returns the builds and the scope said in a passing
    detail.  A build is ``(bases, zero, seeded)``: seeded base vectors that
    are distinct and nonzero (redrawn until they are; there are fewer blocks
    than nonzero vectors), then each database's parsed (first slot, vectors)
    body of ``block_scheme.build_plan`` with every base vector 0 and with
    ``bases``: the map ``plan_blocks`` applies to a uniform draw.
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

    def views(desired, order, bases) -> list[tuple[int, list[int]]]:
        """The parsed bodies of the draw of shuffle ``order`` and base vectors ``bases``."""
        plan = _block_mutate(block_scheme.build_plan(params, desired, order, bases), mutant)
        return [wire.parse_block_query(body, q, n_coords, n_blocks) for body in plan.wire_queries()]

    def builds():
        for desired, order in pairs:
            bases = [0]
            while 0 in bases or len(set(bases)) < n_blocks:
                bases = [sample_uniform(rng, n_coords, q) for _ in range(n_blocks)]
            yield bases, views(desired, order, [0] * n_blocks), views(desired, order, bases)

    return builds(), scope


def audit_block_user_privacy(params: SchemeParams, mutant: str | None = None) -> Verdict:
    """Exact distributional equality of each database's query across desired sets.

    The premises in the module docstring are checked on the parsed bodies of
    every build of ``_block_builds``; a failure names its premise.
    """
    _check_block_mutant(mutant)
    n_coords, q = params.K * params.L, params.q
    builds, scope = _block_builds(params, mutant)
    runs: dict[int, tuple[int, int]] = {}  # each database's (first slot, entry count), fixed by its first build
    for bases, shifts, drawn in builds:
        for db in range(params.N):
            for first, vectors in (shifts[db], drawn[db]):
                if runs.setdefault(db, (first, len(vectors))) != (first, len(vectors)):
                    return Verdict(False, Fraction(1), f"slot sequence differs at database {db}")
            for (slot, shift), vec in zip(_slot_entries([shifts[db]]), drawn[db][1]):
                if vec != _combine(shift, 1, bases[slot], n_coords, q):
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
    public = [(pid, 0) for pid in range(n_blocks)] if mutant == BLOCK_MUTANT_NO_CR else []
    builds, scope = _block_builds(params, mutant, tuple(range(P)))
    n_views = 0
    for bases, zero, seeded in builds:
        if [(first, len(vectors)) for first, vectors in zero] != [(first, len(vectors)) for first, vectors in seeded]:
            return Verdict(False, Fraction(1), "slot sequence differs between the zero-base and seeded builds")
        zero_rows = [*_slot_entries(zero), *public]
        parts: dict[int, int] = {}  # pool slot -> the base part of its rows
        for (pid, vec), (_, seeded_vec) in zip(zero_rows, [*_slot_entries(seeded), *public]):
            part = _combine(seeded_vec, q - 1, vec, n_coords, q)
            if part and part not in bases:
                return Verdict(False, Fraction(1), "a vector's base part is neither 0 nor one block's base")
            if parts.setdefault(pid, part) != part:
                return Verdict(False, Fraction(1), "posterior of undesired symbols differs from prior")
        rows = [vec << n_blocks * lane | 1 << pid * lane for pid, vec in zero_rows]
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


def _table_build(structure: table_scheme.TableStructure, perms, mutant: str | None):
    """``table_scheme.relabel`` of ``structure`` by ``perms``, one permutation
    per message and then the pool's; ``mutant`` sets the ones it drops to the identity."""
    *msg_perm, pool_perm = perms
    if mutant == TABLE_MUTANT_NO_INDEX_PERM:
        msg_perm = [list(range(structure.L_store))] * structure.K
    elif mutant == TABLE_MUTANT_NO_POOL_RELABEL:
        pool_perm = list(range(structure.pool_size))
    return table_scheme.relabel(structure, msg_perm, pool_perm)


def _skeleton(view: table_scheme.TableQuery, L: int):
    return (len(view.plain_ids), tuple(tuple(c // L for c in terms) for terms, _ in view.sums))


def _relabel(view: table_scheme.TableQuery, comp: int, perm, L: int, K: int) -> table_scheme.TableQuery:
    """``view`` under one component draw: message ``comp``'s positions through
    ``perm`` for ``comp < K``, every pool id through ``perm`` for ``comp == K``."""
    if comp == K:
        return table_scheme.TableQuery(
            tuple(perm[pid] for pid in view.plain_ids), tuple((terms, perm[pid]) for terms, pid in view.sums)
        )
    lo = comp * L
    return view._replace(sums=tuple(
        (tuple(lo + perm[c - lo] if c // L == comp else c for c in terms), pid) for terms, pid in view.sums
    ))


def _visible_ids(view: table_scheme.TableQuery) -> tuple[int, ...]:
    return view.plain_ids + tuple(pid for _, pid in view.sums)


def _table_views(table: table_scheme.QueryTable) -> list[table_scheme.TableQuery]:
    """Each database's view (``QueryTable.view``), checked against the store
    and the pool by the bounds ``table_scheme.answer`` applies."""
    n_coords = table.K * table.L_store
    return [table_scheme.check_table_query(table.view(db), n_coords, table.pool_size) for db in range(table.N)]


def audit_table_user_privacy(params: SchemeParams, mutant: str | None = None) -> Verdict:
    """Exact equality of each database's query distribution across desired sets.

    The query factorizes as (fixed skeleton, per-message position draws, pool
    relabeling draw).  The premises in the module docstring are checked on
    each desired set's identity view: premise 2 in one pass over each view's
    store coordinates and one over its pool ids, premise 3 as one comparison
    per database and sampled draw with ``_relabel`` of the identity view.
    Each factor's distance then follows in closed form from premises 1-2.
    """
    _check_table_mutant(mutant)
    K, P, N = params.K, params.P, params.N
    desired_sets = list(combinations(range(K), P))
    structures = {desired: table_scheme.table_structure(params, desired) for desired in desired_sets}
    first = structures[desired_sets[0]]  # its L_store and pool size, which no desired set changes
    L_store, pool_size = first.L_store, first.pool_size
    ident = [list(range(L_store))] * K + [list(range(pool_size))]  # every permutation the identity
    views: dict[tuple, list[table_scheme.TableQuery]] = {}
    for desired in desired_sets:
        views[desired] = _table_views(_table_build(structures[desired], ident, mutant))

    # Premise 1: identical skeletons and counts across desired sets.
    base = views[desired_sets[0]]
    for desired in desired_sets[1:]:
        for db in range(N):
            if _skeleton(views[desired][db], L_store) != _skeleton(base[db], L_store):
                return Verdict(False, Fraction(1), f"query skeleton differs at database {db}")

    # Premise 2: within one database every store coordinate (message, position)
    # and every randomness id is seen at most once.
    for desired in desired_sets:
        for db in range(N):
            v = views[desired][db]
            coords = [c for terms, _ in v.sums for c in terms]
            if len(set(coords)) != len(coords):
                m = min(c // L_store for c, n in Counter(coords).items() if n > 1)
                return Verdict(False, Fraction(1), f"repeated position of message {m} at database {db}")
            ids = _visible_ids(v)
            if len(set(ids)) != len(ids):
                return Verdict(False, Fraction(1), f"repeated randomness id at database {db}")

    # Premise 3 (mechanism): for sampled draws of one component, the emitted
    # view is the identity view with the draw applied, skeleton and all.
    check_rng = Random(2024)
    for _ in range(_MECHANISM_SAMPLES):
        comp = check_rng.randrange(K + 1)
        perms = list(ident)
        perm = list(range(L_store if comp < K else pool_size))
        check_rng.shuffle(perm)
        perms[comp] = perm
        desired = desired_sets[check_rng.randrange(len(desired_sets))]
        got = _table_views(_table_build(structures[desired], perms, mutant))
        for db in range(N):
            if got[db] != _relabel(views[desired][db], comp, perm, L_store, K):
                if comp < K:
                    return Verdict(False, Fraction(1), f"message {comp} positions do not follow the drawn permutation")
                return Verdict(False, Fraction(1), "randomness ids do not follow the drawn relabeling")

    # Premise 4: the build never touched messages or randomness, so
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
    """Packed coefficient rows, in ``lane_bits(q)`` lanes, of one query body:
    pool id p in lane p, message coordinate c in lane ``pool_size + c``.

    Each body is parsed with the server's bounds, so a body the server
    refuses raises ProtocolFault, an unknown or reserved scheme tag included.
    A download-all body, which the server answers only over an empty pool,
    reads as one plain row per coordinate.  A block lane may hold any byte
    over odd q: each row's lowest lane is its pool id's, with coefficient 1,
    so elimination combines it before storing it, and ``_combine`` reads
    every lane mod q.
    """
    if not payload:
        raise wire.ProtocolFault("empty query body")
    lane = lane_bits(q)
    if payload[0] == wire.BLOCK_QUERY_TAG:
        entries = _slot_entries([wire.parse_block_query(payload, q, n_coords, pool_size)])
        return [vec << pool_size * lane | 1 << pid * lane for pid, vec in entries]
    if payload[0] == wire.DOWNLOAD_ALL_TAG:
        wire.parse_download_all(payload, pool_size)
        return [1 << (pool_size + c) * lane for c in range(n_coords)]
    raise wire.ProtocolFault(f"unknown scheme tag {payload[0]}")


def _rows_from_view(view: table_scheme.TableQuery, pool_size: int, q: int) -> list[int]:
    """Packed coefficient rows of a table view, laid out as ``_rows_from_wire``'s:
    one per plain pool id, then one per sum."""
    lane = lane_bits(q)
    rows = [1 << pid * lane for pid in view.plain_ids]
    for terms, pid in view.sums:
        row = 1 << pid * lane
        for c in terms:
            row = raise_lane(row, pool_size + c, q)
        rows.append(row)
    return rows


def _slot_entries(bodies) -> list[tuple[int, int]]:
    """(pool slot, vector) of every entry of parsed block bodies, entry i of a body on slot first + i."""
    return [(first + i, vec) for first, vectors in bodies for i, vec in enumerate(vectors)]


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
    """Pool ids of the pure sums' masking slots, over every database."""
    return [
        table.pool_perm[spec.cr_slot]
        for db_sums in table.sums
        for spec in db_sums
        if spec.fresh is None
    ]


def _table_leakage(table: table_scheme.QueryTable, views: list[table_scheme.TableQuery]) -> LeakageReport:
    """What ``views`` pin of the messages by exact elimination, as ``recoverable_coordinates`` says."""
    L, pool_size, q = table.L_store, table.pool_size, table.q
    desired = [m * L + i for m in table.desired for i in range(L)]
    rows = [row for view in views for row in _rows_from_view(view, pool_size, q)]
    span = _eliminate(rows, table.K * L, pool_size, q, desired)
    return LeakageReport(span.coordinates, _retrieved_coordinates(table), span.undesired)


def symbolic_leakage_table(table: table_scheme.QueryTable) -> LeakageReport:
    """A table run must pin exactly the retrieved coordinates and nothing of the undesired messages."""
    return _table_leakage(table, _table_views(table))


def symbolic_leakage_block(plan: block_scheme.BlockPlan) -> LeakageReport:
    params = plan.params
    n_coords, pool_size = params.K * params.L, plan.n_blocks
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
            views = _table_views(table)
            if mutant == TABLE_MUTANT_NO_HIDDEN_CR:
                views += [table_scheme.TableQuery((pid,), ()) for pid in _hidden_ids(table)]
            report = _table_leakage(table, views)
            if report.undesired:
                outside = len(report.recoverable - report.expected)
                what = f"{outside} coordinates" if outside else f"{len(report.undesired)} functionals"
                return Verdict(False, Fraction(1), f"client view pins {what} outside the desired set")
    return Verdict(True, Fraction(0), "posterior of undesired symbols equals the prior (zero leakage span)")


# ---------------------------------------------------------------------------
# Reliability
# ---------------------------------------------------------------------------


def _reliability_streams(seed: int) -> tuple[Random, Random, Random]:
    """One reliability verdict's streams, each opened once from ``seed``: ``Random(seed)``
    for desired sets and strategies, ``domain_rng(seed, DOMAIN_MESSAGES)`` for
    stores and ``domain_rng(seed, DOMAIN_COMMON_RANDOMNESS)`` for pools, so
    the three randomness domains stay apart as they do in a run.  ``seed``
    must be an ``int``: ``domain_rng`` refuses anything else."""
    return Random(seed), domain_rng(seed, DOMAIN_MESSAGES), domain_rng(seed, DOMAIN_COMMON_RANDOMNESS)


def audit_reliability_table(params: SchemeParams, trials: int, seed: int = 0) -> Verdict:
    """Decode output equals the stored symbols on ``trials`` sampled runs of the query-table scheme.

    A trial is one run: a uniform desired set and permutation draw, a fresh
    uniform store of K messages of ``L_store`` symbols and a fresh uniform
    pool, every database answering its view (``table_scheme.answer``).
    ``seed``, an ``int``, opens the three streams of ``_reliability_streams``
    once per verdict, and every trial draws from each in turn.
    """
    if trials < 1:
        raise ParamError(f"a reliability audit needs at least one trial, got {trials}")
    rng, messages, shared = _reliability_streams(seed)
    K, P, N, q = params.K, params.P, params.N, params.q
    structures: dict[tuple[int, ...], table_scheme.TableStructure] = {}  # per desired set, built on first use
    for _ in range(trials):
        desired = tuple(sorted(rng.sample(range(K), P)))
        if desired not in structures:
            structures[desired] = table_scheme.table_structure(params, desired)
        table = table_scheme.draw(structures[desired], rng)
        store = MessageStore(q, table.L_store, sample_symbols(messages, K * table.L_store, q))
        pool = CommonRandomnessPool(q, sample_symbols(shared, table.pool_size, q))
        answers = [table_scheme.answer(table.view(db), store, pool) for db in range(N)]
        for c, val in table_scheme.decode(table, answers).items():
            if val != store.flat[c]:
                return Verdict(False, Fraction(1), f"decode mismatch at coordinate {c}")
    return Verdict(True, Fraction(0), f"{trials} trials decoded exactly")


def audit_reliability_block(params: SchemeParams, trials: int, seed: int = 0) -> Verdict:
    """Decode output equals the stored symbols on ``trials`` sampled runs of the linear one-round scheme.

    A trial is one run: a uniform desired set and strategy, a fresh uniform
    store of K messages of L symbols and a fresh uniform pool of one symbol
    per block, every database answering its query body.  ``seed``, an
    ``int``, opens the three streams of ``_reliability_streams`` once per
    verdict, and every trial draws from each in turn.
    """
    if trials < 1:
        raise ParamError(f"a reliability audit needs at least one trial, got {trials}")
    rng, messages, shared = _reliability_streams(seed)
    K, P, N, L, q = params.K, params.P, params.N, params.L, params.q
    for _ in range(trials):
        desired = tuple(sorted(rng.sample(range(K), P)))
        plan = block_scheme.plan_blocks(params, desired, rng)
        store = MessageStore(q, L, sample_symbols(messages, K * L, q))
        pool = CommonRandomnessPool(q, sample_symbols(shared, plan.n_blocks, q))
        answers = [block_scheme.answer_wire_query(plan.wire_query(db), store, pool) for db in range(N)]
        for c, val in block_scheme.decode_blocks(plan, answers).items():
            if val != store.flat[c]:
                return Verdict(False, Fraction(1), f"decode mismatch at coordinate {c}")
    return Verdict(True, Fraction(0), f"{trials} trials decoded exactly")
