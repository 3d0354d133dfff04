"""Capacity-achieving joint retrieval via per-database k-sum query tables.

A k-sum is one downloaded symbol formed by adding one symbol from each of k
distinct messages, plus one shared-randomness symbol.  Round k downloads
k-sums; the stage profile (how many full combinatorial sweeps each round
gets) comes from :func:`privset.params.alpha_profile`.

Construction rules, per database:

* every k-subset of messages appears once per stage of round k;
* a randomness symbol served plainly is the 0-sum of its slot: the sum of no
  message symbols, listed before every round;
* a k-sum with no desired message is *pure*: all its symbols are fresh and
  it is masked by its own randomness slot, which the querying side never
  sees on its own;
* a sum with a desired message carries one fresh desired symbol and reuses
  already-recovered symbols for its other desired members.  Made only of
  desired messages, it is masked by the slot of a 0-sum another database
  serves; mixing in undesired messages, it embeds, verbatim, a pure sum
  downloaded at another database, slot included.

A 0-sum's or a pure sum's answer is the known value on its slot, and every
other sum is decoded by one rule: subtracting that value and the reused
symbols unmasks the fresh symbol.  Each pure sum is consumed exactly once at
each of the other N-1 databases, which is what the stage profile's balance
identity guarantees is possible.  :func:`decode` passes the sums as they are
to that rule, :func:`unmask`, behind the one answer check :func:`check_answer`.

A table is built in two steps.  :func:`table_structure` lays out the sums
above; it takes no randomness, so its output is a function of the public
parameters and the desired set alone.  :func:`draw` then applies the querying
side's private randomness: one uniform permutation of symbol positions per
message plus one uniform relabeling of the randomness pool, applied by the
rng-free :func:`relabel`.  These make the per-database view independent of
which messages are desired.  :func:`build_query_table` is the two steps in
turn; a structure may be drawn any number of times, and its draws share its
lists, which nothing mutates.

A table query never crosses a network: one table body could mask every store
coordinate with one plainly served symbol, so a served database refuses its
tag.  Each database's query is an in-process view (:meth:`QueryTable.view`):
its sums, 0-sums included, in answer order, each relabeled to its store
coordinates and pool id.  :func:`answer` evaluates it.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, filterfalse
from math import comb
from operator import itemgetter
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
from .wire import TABLE_QUERY_TAG  # noqa: F401  (reserved and never served; perfbench/tracing.py looks it up here)
from .wire import ProtocolFault


# One database's query, built in process: per sum, in answer order, the store
# coordinates of its terms (none for a plain download) and its pool id.
TableQuery = tuple[tuple[tuple[int, ...], int], ...]


def check_table_query(query: TableQuery, n_coords: int, pool_size: int) -> TableQuery:
    """``query``, once every term's coordinate is checked to lie in [0, n_coords)
    and every pool id in [0, pool_size).  Coordinates are checked first, and
    within each kind the largest value past the end before the smallest
    negative one."""
    terms, ids = zip(*query) if query else ((), ())
    coords = [*chain.from_iterable(terms)]
    if coords:
        top, low = max(coords), min(coords)
        if top >= n_coords or low < 0:
            raise ProtocolFault(f"query references missing symbol at coordinate {top if top >= n_coords else low}")
    if ids:
        top, low = max(ids), min(ids)
        if top >= pool_size or low < 0:
            raise ProtocolFault(f"randomness slot {top if top >= pool_size else low} outside the provisioned pool")
    return query


class SumSpec(NamedTuple):
    """One downloaded k-sum (k = ``len(terms)``, its round), masked by one randomness slot.

    A 0-sum is a plain download of its slot.  A 0-sum and a pure sum have no
    ``fresh`` symbol; :func:`unmask` decodes each sum.
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
    sums: list[list[SumSpec]]  # per database, in answer order: its 0-sums, then round/stage/subset order
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
        return sum(map(len, self.sums))

    @property
    def total_desired_symbols(self) -> int:
        return sum(self.msg_fresh[m] for m in self.desired)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.total_desired_symbols, self.total_downloads)

    def retrieved(self) -> dict[int, tuple[int, int]]:
        """What a run retrieves: the store coordinate msg*L_store + position of
        each desired fresh symbol, mapped to its (message, structural index)."""
        L = self.L_store
        return {
            msg * L + self.msg_perm[msg][idx]: (msg, idx)
            for msg in self.desired
            for idx in range(self.msg_fresh[msg])
        }

    def view(self, db: int) -> TableQuery:
        """Database ``db``'s query, built in process: per sum, each term's
        structural index permuted to its store coordinate msg*L_store +
        position, and its slot relabeled to a pool id."""
        L, msg_perm, pool_perm = self.L_store, self.msg_perm, self.pool_perm
        return tuple([
            (tuple([msg * L + msg_perm[msg][idx] for msg, idx in s.terms]), pool_perm[s.cr_slot])
            for s in self.sums[db]
        ])


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
    desired = params.check_desired(desired)

    profile = alpha_profile(K, P, N)
    if reps is None:
        reps = repetition_factor(K, P, N)
    if reps < 1:
        raise ParamError(f"the repetition count must be at least 1, got {reps}")
    is_desired = set(desired).__contains__
    others = [[c for c in range(N) if c != db] for db in range(N)]  # each database's peers

    plain: list[list[SumSpec]] = [[] for _ in range(N)]  # per database, the 0-sums it serves
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
                plain[db].extend(SumSpec((), slot) for slot in ids)
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
        sums=[db_plain + db_sums for db_plain, db_sums in zip(plain, sums)],
        msg_fresh=msg_fresh, L_store=L_store, pool_size=pool_size,
    )


def draw(structure: TableStructure, rng: Random) -> QueryTable:
    """One strategy draw over ``structure``, which takes no desired set: K
    position shuffles, one per message in order, then the pool shuffle."""
    msg_perm = []
    for _ in range(structure.K):
        perm = list(range(structure.L_store))
        rng.shuffle(perm)
        msg_perm.append(perm)
    pool_perm = list(range(structure.pool_size))
    rng.shuffle(pool_perm)
    return relabel(structure, msg_perm, pool_perm)


def relabel(structure: TableStructure, msg_perm, pool_perm) -> QueryTable:
    """``structure`` with message m's structural indices sent through
    ``msg_perm[m]`` and its canonical slots through ``pool_perm``; no
    randomness is drawn here.  The table shares the structure's lists."""
    return QueryTable(**vars(structure), msg_perm=msg_perm, pool_perm=pool_perm)


def answer(view: TableQuery, store: MessageStore, pool: CommonRandomnessPool) -> list[int]:
    """Evaluate one database's answer to its view (``QueryTable.view``), once
    ``check_table_query`` bounds it by the store and the pool: one symbol per
    sum, in the view's order, a 0-sum's being its pool symbol."""
    query = check_table_query(view, len(store.flat), len(pool.symbols))
    flat, symbols, q = store.flat, pool.symbols, store.q
    out = []
    for terms, pid in query:
        acc = symbols[pid]
        for c in terms:
            acc += flat[c]
        out.append(acc % q)
    return out


# The name perfbench/workloads.py::AnswerCounter and perfbench/tracing.py patch;
# ROADMAP item 14 moves them to ``answer`` and deletes this alias.
answer_wire_query = answer


def check_answer(db: int, ans, count: int, q: int) -> None:
    """Refuse database ``db``'s answer unless it is ``count`` symbols of F_q: a transport or replication fault."""
    if len(ans) != count:
        raise ProtocolFault(f"answer of wrong length at database {db}")
    if ans and (min(ans) < 0 or max(ans) >= q):
        raise ProtocolFault(f"answer symbol outside F_{q} at database {db}")


def unmask(downloads, answers, q: int) -> dict:
    """The one decoding rule of both schemes, once each database ``db``'s answer
    string passes ``check_answer``: {fresh: symbol} from ``downloads[db]``, its
    downloads in answer order, each a ``(terms, slot, fresh, reused)`` as a
    ``SumSpec`` is.  A download with no fresh symbol answers the known value on
    its slot; every other one, in round order (term count, stable), yields its
    answer minus that value minus its reused symbols, mod q."""
    if len(answers) != len(downloads):
        raise ProtocolFault(f"expected {len(downloads)} answer strings, got {len(answers)}")
    known = {}  # slot -> the answer of the download with no fresh symbol on it
    masked = []  # (round, download, answer) of every download with a fresh symbol
    for db, (specs, ans) in enumerate(zip(downloads, answers)):
        check_answer(db, ans, len(specs), q)
        for spec, v in zip(specs, ans):
            if spec[2] is None:  # no fresh symbol
                known[spec[1]] = v
            else:
                masked.append((len(spec[0]), spec, v))
    masked.sort(key=itemgetter(0))  # stable: round order, then database and position
    decoded = {}
    for _, (_, slot, fresh, reused), v in masked:
        if reused:
            v -= sum(map(decoded.__getitem__, reused))
        decoded[fresh] = (v - known[slot]) % q
    return decoded


def decode(table: QueryTable, answers: list[list[int]]) -> dict[int, int]:
    """Recover every desired symbol from the N answer strings, keyed by its
    store coordinate msg*L_store + position: ``unmask`` of the table's sums,
    mapped through ``QueryTable.retrieved()``."""
    decoded = unmask(table.sums, answers, table.q)
    return {c: decoded[symbol] for c, symbol in table.retrieved().items()}


def render_text(table: QueryTable) -> str:
    """Human-readable table: one column per database, blank line between rounds.

    Rows look like ``a7+b3+s8``; symbol and slot numbers are 1-based.  A
    0-sum, a plain randomness download, reads ``s8``; the 0-sums come first,
    in the run's answer order.
    """

    def letter(msg: int) -> str:
        return chr(ord("a") + msg) if table.K <= 26 else f"m{msg}."

    def sum_text(spec: SumSpec) -> str:
        parts = [f"{letter(m)}{table.msg_perm[m][i] + 1}" for m, i in spec.terms]
        parts.append(f"s{table.pool_perm[spec.cr_slot] + 1}")
        return "+".join(parts)

    columns: list[list[str]] = []
    for db in range(table.N):
        rows: list[str] = []
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
