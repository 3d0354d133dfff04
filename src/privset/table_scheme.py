"""Capacity-achieving joint retrieval via per-database k-sum query tables.

A k-sum is one downloaded symbol formed by adding one symbol from each of k
distinct messages, plus one shared-randomness symbol.  Round k downloads
k-sums; the stage profile (how many full combinatorial sweeps each round
gets) comes from :func:`privset.params.alpha_profile`.

Construction rules, per database:

* every k-subset of messages appears once per stage of round k;
* a sum with no desired message is *pure*: all its symbols are fresh and it
  is masked by a hidden randomness symbol the querying side never sees;
* a sum made only of desired messages carries one fresh symbol, reuses
  already-recovered symbols for the other members, and is masked by a
  randomness symbol served plainly by another database;
* a sum mixing desired and undesired messages carries one fresh desired
  symbol (plus already-recovered desired ones) and embeds, verbatim, a pure
  sum downloaded at another database - subtracting that download unmasks the
  fresh symbol.

Each pure sum is consumed exactly once at each of the other N-1 databases,
which is what the stage profile's balance identity guarantees is possible.

The querying side's private randomness is one uniform permutation of symbol
positions per message plus one uniform relabeling of the randomness pool;
these make the per-database view independent of which messages are desired.
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
from .wire import ProtocolFault, encode_table_query, parse_download_all, parse_table_query

CR_DOWNLOADED = "downloaded"
CR_HIDDEN = "hidden"
CR_SIDEINFO = "sideinfo"


class SumSpec(NamedTuple):
    """One downloaded sum: its terms, randomness slot, and decode bookkeeping."""

    round_k: int
    terms: tuple[tuple[int, int], ...]  # (message, structural index), sorted by message
    cr_slot: int
    cr_kind: str
    ref: tuple[int, int] | None = None  # (database, sum position) of the embedded pure sum
    fresh: tuple[int, int] | None = None
    reused: tuple[tuple[int, int], ...] = ()


@dataclass
class QueryTable:
    """Full client-side plan for one protocol run plus the wire randomization."""

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

    def wire_query(self, db: int) -> bytes:
        """Binary query payload for one database: each term's structural index
        permuted to its store coordinate msg*L_store + position, slots relabeled."""
        L, msg_perm, pool_perm = self.L_store, self.msg_perm, self.pool_perm
        return encode_table_query(
            [pool_perm[slot] for slot in self.plain_slots[db]],
            [
                ([msg * L + msg_perm[msg][idx] for msg, idx in s.terms], pool_perm[s.cr_slot])
                for s in self.sums[db]
            ],
        )

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
    K, P, N, q = params.K, params.P, params.N, params.q
    if P == K:
        raise ParamError("P == K is served by the download-all path, not by query tables")
    desired = tuple(sorted(set(desired)))
    if len(desired) != P or any(not 0 <= m < K for m in desired):
        raise ParamError(f"desired must be P={P} distinct messages in [0, {K})")

    profile = alpha_profile(K, P, N)
    if reps is None:
        reps = repetition_factor(K, P, N, profile)
    if reps < 1:
        raise ParamError(f"the repetition count must be at least 1, got {reps}")
    is_desired = set(desired).__contains__
    others = [[c for c in range(N) if c != db] for db in range(N)]  # each database's peers

    plain_slots: list[list[int]] = [[] for _ in range(N)]
    sums: list[list[SumSpec]] = [[] for _ in range(N)]
    msg_fresh = [0] * K
    fresh_count = msg_fresh.__getitem__
    next_slot = 0

    # pure_supply[(consumer, subset)] -> deque of (origin db, position); each pure
    # sum is consumable once at each other database.
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
                        # Pure sum: all fresh, hidden randomness.
                        terms = tuple(zip(subset, map(fresh_count, subset)))
                        for m in subset:
                            msg_fresh[m] += 1
                        for consumer in peers:
                            pure_supply[consumer, subset].append((db, len(db_sums)))
                        db_sums.append(SumSpec(k, terms, next_slot, CR_HIDDEN))
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
                        origin, pos = supply.popleft()
                        ref_spec = sums[origin][pos]
                        terms += ref_spec.terms
                        terms.sort()
                        spec = SumSpec(
                            k, tuple(terms), ref_spec.cr_slot, CR_SIDEINFO, (origin, pos), fresh, tuple(reused)
                        )
                    else:
                        queue = plain_queue[db]
                        if not queue:
                            raise ProtocolFault(
                                f"no plainly served randomness left for database {db} in round {k}"
                            )
                        terms.sort()
                        spec = SumSpec(k, tuple(terms), queue.popleft(), CR_DOWNLOADED, None, fresh, tuple(reused))
                    db_sums.append(spec)

        # Symbols recovered this round become reusable side information at the
        # other databases from the next round on.
        for origin, msg, idx in round_fresh:
            for consumer in others[origin]:
                reuse[consumer, msg].append(idx)

    L_store = max(msg_fresh)
    pool_size = next_slot
    # The stage counts are reps * alpha with the integerized profile, so the
    # integerization scale multiplies the ledger's randomness budget too.
    expected_pool = reps * profile.scale * N * cost_ledger(K, P, N, profile).randomness
    if expected_pool.denominator != 1:
        raise ParamError("repetition count does not yield an integer randomness budget")
    if pool_size != expected_pool:
        raise ProtocolFault(f"allocated {pool_size} randomness slots, ledger says {expected_pool}")

    msg_perm = []
    for _ in range(K):
        perm = list(range(L_store))
        rng.shuffle(perm)
        msg_perm.append(perm)
    pool_perm = list(range(pool_size))
    rng.shuffle(pool_perm)

    return QueryTable(
        K=K, P=P, N=N, q=q, desired=desired, reps=reps, profile=profile,
        plain_slots=plain_slots, sums=sums,
        msg_fresh=msg_fresh, L_store=L_store, pool_size=pool_size,
        msg_perm=msg_perm, pool_perm=pool_perm,
    )


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

    Walks rounds in order, subtracting plainly downloaded randomness,
    embedded pure sums, and previously recovered symbols.  Structural
    inconsistencies (wrong lengths, out-of-range symbols) raise
    ProtocolFault; they indicate a transport or replication fault.
    """
    q = table.q
    if len(answers) != table.N:
        raise ProtocolFault(f"expected {table.N} answer strings, got {len(answers)}")
    plain_vals: dict[int, int] = {}
    sum_vals: list[list[int]] = []
    for db in range(table.N):
        ans = answers[db]
        n_plain = len(table.plain_slots[db])
        if len(ans) != n_plain + len(table.sums[db]):
            raise ProtocolFault(f"answer length mismatch at database {db}")
        if any(not 0 <= v < q for v in ans):
            raise ProtocolFault(f"answer symbol outside F_{q} at database {db}")
        for slot, v in zip(table.plain_slots[db], ans[:n_plain]):
            plain_vals[slot] = v
        sum_vals.append(list(ans[n_plain:]))

    decoded: dict[tuple[int, int], int] = {}
    order = sorted(
        ((db, pos) for db in range(table.N) for pos in range(len(table.sums[db]))),
        key=lambda t: (table.sums[t[0]][t[1]].round_k, t[0], t[1]),
    )
    for db, pos in order:
        spec = table.sums[db][pos]
        if spec.cr_kind == CR_HIDDEN:
            continue
        v = sum_vals[db][pos]
        if spec.cr_kind == CR_DOWNLOADED:
            v = (v - plain_vals[spec.cr_slot]) % q
        else:
            ref_db, ref_pos = spec.ref
            v = (v - sum_vals[ref_db][ref_pos]) % q
        for term in spec.reused:
            v = (v - decoded[term]) % q
        decoded[spec.fresh] = v

    L = table.L_store
    return {
        msg * L + table.msg_perm[msg][idx]: decoded[(msg, idx)]
        for msg in table.desired
        for idx in range(table.msg_fresh[msg])
    }


def answer_download_all(payload: bytes, store: MessageStore, pool: CommonRandomnessPool) -> list[int]:
    """P = K degenerate path: every stored symbol from one database, no shared randomness."""
    parse_download_all(payload)
    return list(store.flat)


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
        last_round = None
        for spec in table.sums[db]:
            if last_round is not None and spec.round_k != last_round:
                rows.append("")
            last_round = spec.round_k
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
