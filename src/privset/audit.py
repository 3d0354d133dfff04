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
is its wire body, read by ``wire.parse_body`` with the server's bounds.  A
table query is its database's in-process view (``QueryTable.view``), checked
by the bounds ``table_scheme.answer`` applies.  Nothing is enumerated and no
answer is evaluated.

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
permutation the identity): (1) identical skeletons across desired sets, a
skeleton being each sum's messages in order, a plain download the empty sum;
(2) no store coordinate and no pool id twice within one database's view, in
one pass over its sums; (3) on sampled draws of one component, each database's
emitted view equals its identity view with that draw applied, one equality
that also pins the skeleton and the components not drawn; (4) a replay from
a fresh structure gives the same identity views.  They give every
component's distance in closed form.  The scheme's rng-free structure
(``table_scheme.table_structure``) is built once per desired set within each
verdict; only premise 4's replay builds one again.  Both table verdicts read
the same identity views.

Database privacy, for both schemes, is exact Gaussian elimination over the
coefficient matrix of a strategy draw's queries.  For a linear scheme with
uniform W and S, the view is independent of the undesired messages jointly
iff the message span it pins, once the pool symbols are eliminated, meets
the undesired coordinates only in 0, since the fibers of a linear map all
have one size (the argument of Sun & Jafar, *The Capacity of Symmetric
Private Information Retrieval*).  The table scheme's check eliminates each
desired set's identity view once: a draw only relabels positions within each
message and pool ids, which maps the pinned span onto the draw's and the
undesired coordinates onto undesired ones, so that one elimination decides
every draw.  That the code's draws are such relabelings is checked on the
draws of given seeds.  The linear scheme's check decides every base draw of
one shuffle order from two builds: with every base vector 0, and with
distinct nonzero seeded bases.  Each row's base part (seeded minus zero-base
vector) must be 0 or one block's base.  If two rows on one pool slot have
different base parts, their difference is free of pool symbols and some base
draw makes it an undesired unit vector, so the check fails.  Otherwise each
slot's base part cancels against its pool symbol, every base draw pins the
zero-base view's span with its rank, and one elimination decides them all.
Each row is one packed int in ``field.lane_bits(q)`` lanes, pool ids first
and message coordinates after them, so a row operation is one XOR over F_2.
Over F_2 the elimination has a branch of its own: a lane is one bit, a row's
lead is its lowest set bit, and no lane is unpacked or scaled.  Rows are
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
from functools import cache, partial
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
    raise_lane_bytes,
    sample_symbols,
    sample_uniform,
    unpack,
    vector_size,
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


BLOCK_MUTANT_NO_BASE_MASK = "no_base_mask"
BLOCK_MUTANT_NO_CR = "no_cr"
TABLE_MUTANT_NO_INDEX_PERM = "no_index_permutation"
TABLE_MUTANT_NO_POOL_RELABEL = "no_pool_relabel"
TABLE_MUTANT_NO_HIDDEN_CR = "no_hidden_cr"
_MUTANTS = {
    "block": (BLOCK_MUTANT_NO_BASE_MASK, BLOCK_MUTANT_NO_CR),
    "table": (TABLE_MUTANT_NO_INDEX_PERM, TABLE_MUTANT_NO_POOL_RELABEL, TABLE_MUTANT_NO_HIDDEN_CR),
}


def _check_mutant(mutant: str | None, scheme: str) -> None:
    if mutant is not None and mutant not in _MUTANTS[scheme]:
        raise ParamError(f"unknown {scheme} mutant {mutant!r}")


# ---------------------------------------------------------------------------
# Linear (block) scheme: two builds per checked shuffle order
# ---------------------------------------------------------------------------


def _block_mutate(plan: block_scheme.BlockPlan, mutant: str | None) -> block_scheme.BlockPlan:
    if mutant == BLOCK_MUTANT_NO_BASE_MASK:
        q = plan.params.q
        zero = bytes(vector_size(plan.params.K * plan.params.L, q))
        for qs in plan.queries:  # each probe becomes the bare unit vector of its coordinate
            qs[:] = [bq if bq.probe_coord is None else bq._replace(vector=raise_lane_bytes(zero, bq.probe_coord, q))
                     for bq in qs]
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

    def views(desired, order, bases) -> list[tuple[int, list[bytes]]]:
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
    _check_mutant(mutant, "block")
    n_coords, q = params.K * params.L, params.q
    builds, scope = _block_builds(params, mutant)
    runs: dict[int, tuple[int, int]] = {}  # each database's (first slot, entry count), fixed by its first build
    for bases, shifts, drawn in builds:
        for db in range(params.N):
            for first, vectors in (shifts[db], drawn[db]):
                if runs.setdefault(db, (first, len(vectors))) != (first, len(vectors)):
                    return Verdict(False, Fraction(1), f"slot sequence differs at database {db}")
            for (slot, shift), vec in zip(_slot_entries([shifts[db]]), drawn[db][1]):
                if int.from_bytes(vec, "little") != _combine(shift, 1, bases[slot], n_coords, q):
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
    _check_mutant(mutant, "block")
    K, P, L, N, q = params.K, params.P, params.L, params.N, params.q
    n_coords, n_blocks = K * L, lspir_cost(P, N, L)[1]
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
        span = _eliminate(_pack_rows(zero_rows, n_blocks, q), n_coords, n_blocks, q, range(P * L))
        if span.undesired:
            return Verdict(False, Fraction(1), "posterior of undesired symbols differs from prior")
        n_views += q ** (n_blocks * n_coords + span.rank)
    detail = f"posterior uniform in all views{scope}" if scope else f"{n_views} views checked, posterior uniform in all"
    return Verdict(True, Fraction(0), detail)


# ---------------------------------------------------------------------------
# Table scheme: identity builds and the factored user-privacy audit
# ---------------------------------------------------------------------------


def _table_build(structure: table_scheme.TableStructure, perms, mutant: str | None):
    """``table_scheme.relabel`` of ``structure`` by ``perms``, one permutation
    per message and then the pool's; ``mutant`` sets the ones it drops to the identity."""
    *msg_perm, pool_perm = perms
    if mutant == TABLE_MUTANT_NO_INDEX_PERM:
        msg_perm = [list(range(structure.L_store))] * structure.K
    elif mutant == TABLE_MUTANT_NO_POOL_RELABEL:
        pool_perm = list(range(structure.pool_size))
    return table_scheme.relabel(structure, msg_perm, pool_perm)


def _identity_build(structure: table_scheme.TableStructure, mutant: str | None):
    """``structure``'s table with every permutation the identity, and its checked views."""
    ident = [list(range(structure.L_store))] * structure.K + [list(range(structure.pool_size))]
    table = _table_build(structure, ident, mutant)
    return table, _table_views(table)


def _skeleton(view: table_scheme.TableQuery, L: int):
    return tuple(tuple(c // L for c in terms) for terms, _ in view)


def _relabel(views: list[table_scheme.TableQuery], msg_perm, pool_perm, L: int) -> list[table_scheme.TableQuery]:
    """Identity ``views`` under a draw: store coordinate m*L + i to m*L +
    ``msg_perm[m][i]`` and pool id p to ``pool_perm[p]``, by one map each."""
    at = [m * L + p for m, perm in enumerate(msg_perm) for p in perm].__getitem__
    return [tuple([(tuple(map(at, terms)), pool_perm[pid]) for terms, pid in view]) for view in views]


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
    per sampled draw with ``_relabel`` of the identity views.
    Each factor's distance then follows in closed form from premises 1-2.
    """
    _check_mutant(mutant, "table")
    K, P, N = params.K, params.P, params.N
    desired_sets = list(combinations(range(K), P))
    structures = {desired: table_scheme.table_structure(params, desired) for desired in desired_sets}
    views = {desired: _identity_build(structures[desired], mutant)[1] for desired in desired_sets}
    first = structures[desired_sets[0]]  # its L_store and pool size, which no desired set changes
    L_store, pool_size = first.L_store, first.pool_size

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
            coords = [c for terms, _ in v for c in terms]
            if len(set(coords)) != len(coords):
                m = min(c // L_store for c, n in Counter(coords).items() if n > 1)
                return Verdict(False, Fraction(1), f"repeated position of message {m} at database {db}")
            if len({pid for _, pid in v}) != len(v):
                return Verdict(False, Fraction(1), f"repeated randomness id at database {db}")

    # Premise 3 (mechanism): for sampled draws of one component, the emitted
    # view is the identity view with the draw applied, skeleton and all.
    check_rng = Random(2024)
    for _ in range(_MECHANISM_SAMPLES):
        comp = check_rng.randrange(K + 1)
        perm = list(range(L_store if comp < K else pool_size))
        check_rng.shuffle(perm)
        perms = [list(range(L_store))] * K + [list(range(pool_size))]
        perms[comp] = perm
        desired = desired_sets[check_rng.randrange(len(desired_sets))]
        got = _table_views(_table_build(structures[desired], perms, mutant))
        if got != _relabel(views[desired], perms[:K], perms[K], L_store):
            if comp < K:
                return Verdict(False, Fraction(1), f"message {comp} positions do not follow the drawn permutation")
            return Verdict(False, Fraction(1), "randomness ids do not follow the drawn relabeling")

    # Premise 4: the build never touched messages or randomness, so
    # queries are independent of (W, S) by construction; re-assert by replay
    # of a freshly built structure.
    if _identity_build(table_scheme.table_structure(params, desired_sets[0]), mutant)[1] != base:
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


def _pack_rows(entries, pool_size: int, q: int) -> list[int]:
    """Packed coefficient rows, in ``lane_bits(q)`` lanes, of (pool id, packed
    coordinate vector) entries: pool id p in lane p, with coefficient 1, and
    message coordinate c in lane ``pool_size + c``."""
    lane = lane_bits(q)
    return [vec << pool_size * lane | 1 << pid * lane for pid, vec in entries]


def _rows_from_wire(payload: bytes, n_coords: int, pool_size: int, q: int) -> list[int]:
    """Packed coefficient rows (``_pack_rows``) of one query body.

    The body is read by ``wire.parse_body`` with the server's bounds, so a
    body the server refuses raises its ProtocolFault.  A download-all body,
    which the server answers only over an empty pool, reads as one plain row
    per coordinate.  A block lane may hold any byte over odd q: each row's
    lowest lane is its pool id's, with coefficient 1, so elimination
    combines it before storing it, and ``_combine`` reads every lane mod q.
    """
    read = wire.parse_body(payload, n_coords, q, pool_size)
    if read is None:
        return [1 << (pool_size + c) * lane_bits(q) for c in range(n_coords)]
    return _pack_rows(_slot_entries([read]), pool_size, q)


def _view_entries(view: table_scheme.TableQuery, q: int) -> list[tuple[int, int]]:
    """(pool id, packed coordinate vector) of each sum of a table view, a
    0-sum's vector 0.  A repeated term adds again, so over F_2 it cancels."""
    entries = []
    for terms, pid in view:
        vec = 0
        if q == 2:
            for c in terms:
                vec ^= 1 << c
        else:
            for c in terms:
                vec = raise_lane(vec, c, q)
        entries.append((pid, vec))
    return entries


def _slot_entries(bodies) -> list[tuple[int, int]]:
    """(pool slot, packed vector) of every entry of parsed block bodies, entry i of a body on slot first + i."""
    return [(first + i, int.from_bytes(vec, "little")) for first, vectors in bodies for i, vec in enumerate(vectors)]


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
    """Exact elimination of packed rows (``_pack_rows``) over pool and coordinate lanes.

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
    if q == 2:  # a lane is one bit: the lead is the lowest set bit, every row operation one XOR
        for row in rows:
            while row:
                low = row & first or row
                lead = (low & -low).bit_length() - 1
                if lead not in pivots:
                    pivots[lead] = row
                    break
                row ^= pivots[lead]
    else:
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
            low = hits & -hits
            if q == 2:
                hits ^= low
                row ^= reduced[low.bit_length() - 1]
                continue
            b = (low.bit_length() - 1) // lane
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


def _hidden_ids(table: table_scheme.QueryTable) -> list[int]:
    """Pool ids of the pure sums' masking slots, over every database."""
    return [
        table.pool_perm[spec.cr_slot]
        for db_sums in table.sums
        for spec in db_sums
        if spec.terms and spec.fresh is None
    ]


def _table_leakage(table: table_scheme.QueryTable, views: list[table_scheme.TableQuery]) -> LeakageReport:
    """What ``views`` pin of the messages by exact elimination, as ``recoverable_coordinates`` says."""
    L, pool_size, q = table.L_store, table.pool_size, table.q
    desired = [m * L + i for m in table.desired for i in range(L)]
    rows = _pack_rows([entry for view in views for entry in _view_entries(view, q)], pool_size, q)
    span = _eliminate(rows, table.K * L, pool_size, q, desired)
    return LeakageReport(span.coordinates, frozenset(table.retrieved()), span.undesired)


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

    Each desired set is decided by one elimination of its identity views, as
    the module docstring argues: a pinned span that meets the undesired
    coordinates only in 0 certifies the exact uniformity of the posterior for
    every strategy draw (the client knows its own draw, so the check
    conditions on it), since fibers of a linear map all have one size.  For
    each of ``seeds`` the views of ``table_scheme.draw`` must be the identity
    views under that draw's maps; an empty ``seeds`` checks no draw and is
    refused.  Hidden-randomness removal is modeled by giving the pure sums'
    masking symbols publicly known values: a synthetic 0-sum of each.
    """
    _check_mutant(mutant, "table")
    if not seeds:
        raise ParamError("a database-privacy audit needs at least one strategy draw, got no seeds")
    for desired in combinations(range(params.K), params.P):
        structure = table_scheme.table_structure(params, desired)
        table, views = _identity_build(structure, mutant)
        hidden = [(((), pid),) for pid in _hidden_ids(table)] if mutant == TABLE_MUTANT_NO_HIDDEN_CR else []
        report = _table_leakage(table, views + hidden)
        if report.undesired:
            outside = len(report.recoverable - report.expected)
            what = f"{outside} coordinates" if outside else f"{len(report.undesired)} functionals"
            return Verdict(False, Fraction(1), f"client view pins {what} outside the desired set")
        for seed in seeds:
            drawn = table_scheme.draw(structure, Random(seed))
            if _table_views(drawn) != _relabel(views, drawn.msg_perm, drawn.pool_perm, table.L_store):
                return Verdict(False, Fraction(1), "a drawn view is not the identity view relabeled")
    return Verdict(True, Fraction(0), "posterior of undesired symbols equals the prior (zero leakage span)")


# ---------------------------------------------------------------------------
# Reliability
# ---------------------------------------------------------------------------


def _reliability(params: SchemeParams, trials: int, seed: int, draw, answer, decode) -> Verdict:
    """Decode output equals the stored symbols on ``trials`` sampled runs.

    ``seed``, an ``int``, opens one stream per randomness domain once per
    verdict: ``Random(seed)`` for desired sets and strategies,
    ``domain_rng(seed, DOMAIN_MESSAGES)`` for stores and
    ``domain_rng(seed, DOMAIN_COMMON_RANDOMNESS)`` for pools, so the three
    domains stay apart as they do in a run (``domain_rng`` refuses a
    non-``int`` seed).  A trial is one run, drawing in turn a uniform desired
    set, the strategy ``draw(desired, rng)`` (its plan, each database's
    query, the message length and the pool size), a fresh uniform store of K
    messages and a fresh uniform pool; every database answers its query and
    ``decode`` reads the plan's coordinates off the answers.
    """
    if trials < 1:
        raise ParamError(f"a reliability audit needs at least one trial, got {trials}")
    rng, messages, shared = Random(seed), domain_rng(seed, DOMAIN_MESSAGES), domain_rng(seed, DOMAIN_COMMON_RANDOMNESS)
    K, q = params.K, params.q
    for _ in range(trials):
        plan, queries, L, pool_size = draw(tuple(sorted(rng.sample(range(K), params.P))), rng)
        store = MessageStore(q, L, sample_symbols(messages, K * L, q))
        pool = CommonRandomnessPool(q, sample_symbols(shared, pool_size, q))
        for c, val in decode(plan, [answer(query, store, pool) for query in queries]).items():
            if val != store.flat[c]:
                return Verdict(False, Fraction(1), f"decode mismatch at coordinate {c}")
    return Verdict(True, Fraction(0), f"{trials} trials decoded exactly")


def audit_reliability_table(params: SchemeParams, trials: int, seed: int = 0) -> Verdict:
    """``_reliability`` of the query-table scheme: a uniform permutation draw,
    ``L_store`` symbols per message, every database answering its view."""
    structure = cache(partial(table_scheme.table_structure, params))  # per desired set, built on first use

    def draw(desired, rng):
        table = table_scheme.draw(structure(desired), rng)
        return table, [table.view(db) for db in range(table.N)], table.L_store, table.pool_size

    return _reliability(params, trials, seed, draw, table_scheme.answer, table_scheme.decode)


def audit_reliability_block(params: SchemeParams, trials: int, seed: int = 0) -> Verdict:
    """``_reliability`` of the linear one-round scheme: a uniform strategy, L
    symbols per message, one pool symbol per block, every database answering
    its query body."""

    def draw(desired, rng):
        plan = block_scheme.plan_blocks(params, desired, rng)
        return plan, plan.wire_queries(), params.L, plan.n_blocks

    return _reliability(params, trials, seed, draw, block_scheme.answer_wire_query, block_scheme.decode_blocks)
