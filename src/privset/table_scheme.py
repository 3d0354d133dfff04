"""Capacity-achieving joint retrieval via per-database k-sum query tables.

A k-sum is one downloaded symbol formed by adding one symbol from each of k
distinct messages, plus one shared-randomness symbol.  Round k downloads
k-sums; the stage profile (how many full combinatorial sweeps each round
gets) comes from :func:`privset.params.alpha_profile`.

Construction rules, per database:

* every k-subset of messages appears once per stage of round k;
* a sum with no desired message is *pure*: all its symbols are fresh and it
  is masked by its own randomness slot, which the querying side never sees
  on its own;
* a sum with a desired message carries one fresh desired symbol and reuses
  already-recovered symbols for its other desired members.  Made only of
  desired messages, it is masked by a slot another database serves plainly;
  mixing in undesired messages, it embeds, verbatim, a pure sum downloaded
  at another database, slot included.

Either way the querying side knows one value on the sum's slot (the plain
download, or the pure sum's answer), and subtracting it and the reused
symbols unmasks the fresh symbol.  Each pure sum is consumed exactly once at
each of the other N-1 databases, which is what the stage profile's balance
identity guarantees is possible.

A table is built in two steps.  :func:`table_structure` lays out the sums
above; it takes no randomness, so its output is a function of the public
parameters and the desired set alone.  :func:`draw` then applies the querying
side's private randomness: one uniform permutation of symbol positions per
message plus one uniform relabeling of the randomness pool.  These make the
per-database view independent of which messages are desired.
:func:`build_query_table` is the two steps in turn; a structure may be drawn
any number of times, and its draws share its lists, which nothing mutates.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, filterfalse
from math import comb
from random import Random
from typing import NamedTuple

from .params import (
    AlphaProfile,
    ParamError,
    SchemeParams,
    alpha_profile,
    cost_ledger,
    repetition_factor,
)
from .storage import CommonRandomnessPool, MessageStore
from .wire import TABLE_QUERY_TAG  # noqa: F401  (the scheme's tag, looked up here by callers)
from .wire import ProtocolFault, TableQuery, encode_table_query, parse_table_query

class SumSpec(NamedTuple):
    """One downloaded k-sum (k = ``len(terms)``, its round), masked by one randomness slot.

    A pure sum has no ``fresh`` symbol.  Any other sum is decoded by one rule:
    its answer minus the one known value on ``cr_slot`` (a plain download or
    a pure sum's answer) minus its ``reused`` symbols is its ``fresh`` symbol.
    """

    terms: tuple[tuple[int, int], ...]  # (message, structural index), sorted by message
    cr_slot: int
    fresh: tuple[int, int] | None = None  # the desired symbol this sum yields; None for a pure sum
    reused: tuple[tuple[int, int], ...] = ()  # recovered in earlier rounds, subtracted to decode


@dataclass
class TableStructure:
    """The rng-free half of a query table: which sums each database downloads,
    by structural index and canonical pool slot."""

    K: int
    P: int
    N: int
    q: int
    desired: tuple[int, ...]
    reps: int  # effective stage multiplier (repetition factor or override)
    profile: AlphaProfile
    plain_slots: list[list[int]]  # per database, canonical pool slots served plainly
    sums: list[list[SumSpec]]  # per database, in round/stage/subset order
    msg_fresh: list[int]  # fresh symbol count per message
    L_store: int
    pool_size: int


@dataclass
class QueryTable(TableStructure):
    """Full client-side plan for one protocol run plus the wire randomization."""

    msg_perm: list[list[int]]  # structural index -> store position, per message
    pool_perm: list[int]  # canonical slot -> pool id

    @property
    def total_downloads(self) -> int:
        return sum(len(p) + len(s) for p, s in zip(self.plain_slots, self.sums))

    @property
    def total_desired_symbols(self) -> int:
        return sum(self.msg_fresh[m] for m in self.desired)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.total_desired_symbols, self.total_downloads)

    def view(self, db: int) -> TableQuery:
        """Database ``db``'s query, built in process: plain slots relabeled to
        pool ids, each term's structural index permuted to its store coordinate
        msg*L_store + position, each sum's slot relabeled."""
        L, msg_perm, pool_perm = self.L_store, self.msg_perm, self.pool_perm
        return TableQuery(
            tuple([pool_perm[slot] for slot in self.plain_slots[db]]),
            tuple([
                (tuple([msg * L + msg_perm[msg][idx] for msg, idx in s.terms]), pool_perm[s.cr_slot])
                for s in self.sums[db]
            ]),
        )

    def wire_query(self, db: int) -> bytes:
        """Binary query payload for one database: its view, encoded."""
        return encode_table_query(*self.view(db))

    def wire_queries(self) -> list[bytes]:
        return [self.wire_query(db) for db in range(self.N)]


def build_query_table(
    params: SchemeParams,
    desired: set[int] | tuple[int, ...] | list[int],
    rng: Random,
    reps: int | None = None,
) -> QueryTable:
    """Construct the per-database query tables for one retrieval run.

    ``params.L`` is ignored: this scheme fixes the message length itself
    (``table.L_store`` symbols per message).  ``reps`` overrides the
    repetition factor; the default restores per-message symmetry, while
    e.g. ``reps=1`` gives the smallest (possibly asymmetric) run.
    """
    return draw(table_structure(params, desired, reps), rng)


def table_structure(
    params: SchemeParams,
    desired: set[int] | tuple[int, ...] | list[int],
    reps: int | None = None,
) -> TableStructure:
    """The sums of every database for one desired set, before any strategy draw
    (``build_query_table``'s arguments, less the rng)."""
    K, P, N, q = params.K, params.P, params.N, params.q
    if P == K:
        raise ParamError("P == K is served by the download-all path, not by query tables")
    desired = tuple(sorted(set(desired)))
    if len(desired) != P or any(not 0 <= m < K for m in desired):
        raise ParamError(f"desired must be P={P} distinct messages in [0, {K})")

    profile = alpha_profile(K, P, N)
    if reps is None:
        reps = repetition_factor(K, P, N)
    if reps < 1:
        raise ParamError(f"the repetition count must be at least 1, got {reps}")
    is_desired = set(desired).__contains__
    others = [[c for c in range(N) if c != db] for db in range(N)]  # each database's peers

    plain_slots: list[list[int]] = [[] for _ in range(N)]
    sums: list[list[SumSpec]] = [[] for _ in range(N)]
    msg_fresh = [0] * K
    fresh_count = msg_fresh.__getitem__
    next_slot = 0

    # pure_supply[(consumer, subset)] -> deque of pure sums over subset at other
    # databases; each pure sum is consumable once at each other database.
    pure_supply: defaultdict[tuple[int, tuple[int, ...]], deque] = defaultdict(deque)
    # reuse[(consumer, msg)] -> deque of structural indices recovered at other
    # databases in earlier rounds, not yet reused at this one.
    reuse: defaultdict[tuple[int, int], deque] = defaultdict(deque)

    for k in range(1, K + 1):
        n_stages = reps * profile.alpha[k - 1]
        if n_stages == 0:
            continue

        # Plainly served randomness for this round's all-desired sums.
        plain_queue: list[deque] = [deque() for _ in range(N)]
        if k <= min(P, K - P):
            quota_num = reps * comb(P, k) * profile.alpha[k - 1]
            if quota_num % (N - 1):
                raise ParamError(
                    f"round {k} randomness quota {quota_num}/{N - 1} is not an integer; "
                    "increase the repetition count"
                )
            quota = quota_num // (N - 1)
            round_plain = []
            for db in range(N):
                ids = range(next_slot, next_slot + quota)
                next_slot += quota
                plain_slots[db].extend(ids)
                round_plain.append(ids)
            for consumer in range(N):
                for m in others[consumer]:
                    plain_queue[consumer].extend(round_plain[m])

        round_fresh: list[tuple[int, int, int]] = []  # (origin db, msg, idx)
        # Each k-subset split into its desired and undesired members, once per round.
        splits = [
            (subset, tuple(filter(is_desired, subset)), tuple(filterfalse(is_desired, subset)))
            for subset in combinations(range(K), k)
        ]

        for db in range(N):
            db_sums, peers = sums[db], others[db]
            for _ in range(n_stages):
                for subset, des, und in splits:
                    if not des:
                        # Pure sum: all fresh, masked by its own slot.
                        pure = SumSpec(tuple(zip(subset, map(fresh_count, subset))), next_slot)
                        for m in subset:
                            msg_fresh[m] += 1
                        for consumer in peers:
                            pure_supply[consumer, subset].append(pure)
                        db_sums.append(pure)
                        next_slot += 1
                        continue

                    fresh_msg = min(des, key=fresh_count)  # fewest fresh symbols, then lowest index
                    fresh = (fresh_msg, msg_fresh[fresh_msg])
                    msg_fresh[fresh_msg] += 1
                    round_fresh.append((db, fresh_msg, fresh[1]))
                    reused = []
                    for m in des:
                        if m == fresh_msg:
                            continue
                        queue = reuse.get((db, m))
                        if not queue:
                            raise ProtocolFault(
                                f"no recovered symbol of message {m} available for reuse at database {db}"
                            )
                        reused.append((m, queue.popleft()))
                    terms = [fresh, *reused]
                    if und:
                        supply = pure_supply.get((db, und))
                        if not supply:
                            raise ProtocolFault(
                                f"no pure sum over {und} available for database {db} in round {k}"
                            )
                        pure = supply.popleft()
                        terms += pure.terms
                        slot = pure.cr_slot
                    else:
                        queue = plain_queue[db]
                        if not queue:
                            raise ProtocolFault(
                                f"no plainly served randomness left for database {db} in round {k}"
                            )
                        slot = queue.popleft()
                    terms.sort()
                    db_sums.append(SumSpec(tuple(terms), slot, fresh, tuple(reused)))

        # Symbols recovered this round become reusable side information at the
        # other databases from the next round on.
        for origin, msg, idx in round_fresh:
            for consumer in others[origin]:
                reuse[consumer, msg].append(idx)

    L_store = max(msg_fresh)
    pool_size = next_slot
    # The stage counts are reps * alpha with the integerized profile, so the
    # integerization scale multiplies the ledger's randomness budget too.
    expected_pool = reps * profile.scale * N * cost_ledger(K, P, N).randomness
    if expected_pool.denominator != 1:
        raise ParamError("repetition count does not yield an integer randomness budget")
    if pool_size != expected_pool:
        raise ProtocolFault(f"allocated {pool_size} randomness slots, ledger says {expected_pool}")

    return TableStructure(
        K=K, P=P, N=N, q=q, desired=desired, reps=reps, profile=profile,
        plain_slots=plain_slots, sums=sums,
        msg_fresh=msg_fresh, L_store=L_store, pool_size=pool_size,
    )


def draw(structure: TableStructure, rng: Random) -> QueryTable:
    """One strategy draw over ``structure``: K position shuffles, one per
    message in order, then the pool shuffle.  The table shares the
    structure's lists."""
    msg_perm = []
    for _ in range(structure.K):
        perm = list(range(structure.L_store))
        rng.shuffle(perm)
        msg_perm.append(perm)
    pool_perm = list(range(structure.pool_size))
    rng.shuffle(pool_perm)
    return QueryTable(**vars(structure), msg_perm=msg_perm, pool_perm=pool_perm)


def answer_wire_query(payload: bytes, store: MessageStore, pool: CommonRandomnessPool) -> list[int]:
    """Evaluate one database's answer: plain slots first, then one symbol per sum."""
    query = parse_table_query(payload, len(store.flat), len(pool.symbols))
    flat, symbols, q = store.flat, pool.symbols, store.q
    out = [symbols[pid] for pid in query.plain_ids]
    for terms, pid in query.sums:
        acc = symbols[pid]
        for c in terms:
            acc += flat[c]
        out.append(acc % q)
    return out


def decode(table: QueryTable, answers: list[list[int]]) -> dict[int, int]:
    """Recover every desired symbol from the N answer strings, keyed by its
    store coordinate msg*L_store + position.

    Every plain download and every pure sum's answer is the known value on
    its slot.  Each other sum, in round order, yields its fresh symbol: its
    answer minus the known value on its slot minus its reused symbols.
    Structural inconsistencies (wrong lengths, out-of-range symbols) raise
    ProtocolFault; they indicate a transport or replication fault.
    """
    q = table.q
    if len(answers) != table.N:
        raise ProtocolFault(f"expected {table.N} answer strings, got {len(answers)}")
    known: dict[int, int] = {}  # pool slot -> its plain download or its pure sum's answer
    masked: list[tuple[SumSpec, int]] = []  # sums with a fresh symbol, with their answers
    for db in range(table.N):
        ans, plain, db_sums = answers[db], table.plain_slots[db], table.sums[db]
        if len(ans) != len(plain) + len(db_sums):
            raise ProtocolFault(f"answer length mismatch at database {db}")
        if any(not 0 <= v < q for v in ans):
            raise ProtocolFault(f"answer symbol outside F_{q} at database {db}")
        known.update(zip(plain, ans))
        for spec, v in zip(db_sums, ans[len(plain):]):
            if spec.fresh is None:
                known[spec.cr_slot] = v
            else:
                masked.append((spec, v))

    decoded: dict[tuple[int, int], int] = {}
    masked.sort(key=lambda sv: len(sv[0].terms))  # stable: round order, then database and position
    for spec, v in masked:
        v -= known[spec.cr_slot]
        for term in spec.reused:
            v -= decoded[term]
        decoded[spec.fresh] = v % q

    L = table.L_store
    return {
        msg * L + table.msg_perm[msg][idx]: decoded[(msg, idx)]
        for msg in table.desired
        for idx in range(table.msg_fresh[msg])
    }


def render_text(table: QueryTable) -> str:
    """Human-readable table: one column per database, blank line between rounds.

    Rows look like ``a7+b3+s8``; symbol and slot numbers are 1-based.  Plain
    randomness downloads are listed first, mirroring the run's answer layout.
    """

    def letter(msg: int) -> str:
        return chr(ord("a") + msg) if table.K <= 26 else f"m{msg}."

    def sum_text(spec: SumSpec) -> str:
        parts = [f"{letter(m)}{table.msg_perm[m][i] + 1}" for m, i in spec.terms]
        parts.append(f"s{table.pool_perm[spec.cr_slot] + 1}")
        return "+".join(parts)

    columns: list[list[str]] = []
    for db in range(table.N):
        rows = [f"s{table.pool_perm[slot] + 1}" for slot in table.plain_slots[db]]
        if rows:
            rows.append("")
        last_k = None
        for spec in table.sums[db]:
            if last_k is not None and len(spec.terms) != last_k:
                rows.append("")
            last_k = len(spec.terms)
            rows.append(sum_text(spec))
        columns.append(rows)

    height = max(len(c) for c in columns)
    for c in columns:
        c.extend([""] * (height - len(c)))
    widths = [max(12, max(len(r) for r in c)) for c in columns]
    header = " | ".join(f"Database {db + 1}".ljust(widths[db]) for db in range(table.N))
    sep = "-+-".join("-" * w for w in widths)
    lines = [header, sep]
    for i in range(height):
        lines.append(" | ".join(columns[db][i].ljust(widths[db]) for db in range(table.N)))
    return "\n".join(lines)
