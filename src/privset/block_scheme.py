"""One-round linear retrieval for fixed message length (the layer PSI runs).

The desired coordinates of the flattened K*L store are split into
ceil(P*L/(N-1)) blocks of width at most N-1.  For block j the querying side
draws one fresh uniform base vector c_j; one database answers
<c_j, W> + s_j while each of the block's probe databases answers
<c_j + e_t, W> + s_j for its assigned desired coordinate t.  Subtracting the
base answer from a probe answer yields W[t]; the shared symbol s_j (one per
block, never revealed) blocks everything else.

Costs are exact: P*L + #blocks = ceil(N*P*L/(N-1)) answers downloaded and
#blocks = ceil(P*L/(N-1)) shared symbols consumed.  Every vector any single
database sees is uniform, so its view is independent of the desired set.

A plan is built in two steps, as a query table is.  :func:`plan_blocks`
draws the querying side's strategy, which takes no desired set: a uniform
shuffle of the P*L block positions, then one uniform base vector per block.
:func:`build_plan` lays out that draw's blocks for one desired set and draws
nothing, so the privacy audits decide it on draws they choose.

Every block but the last, partial one reaches every database, so entry i of
each database's list is block i's.  On the wire the list is one slot run from
slot 0 (``wire.encode_block_query``): entry i is masked by pool slot i.

Vectors are packed ints (``field.lane_bits``).  Over F_2, the intersection
protocol's field, a probe is c_j ^ (1 << t) and an answer is one AND and one
popcount against the store's packed vector: the XOR retrieval of Chor,
Goldreich, Kushilevitz and Sudan with the shared symbol added.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from random import Random
from typing import NamedTuple

from .field import raise_lane, sample_uniform, unpack
from .params import InfeasibleError, ParamError, SchemeParams, lspir_cost
from .storage import CommonRandomnessPool, MessageStore
from .wire import BLOCK_QUERY_TAG  # noqa: F401  (the scheme's tag, looked up here by callers)
from .wire import ProtocolFault, encode_block_query, parse_block_query


class BlockQuery(NamedTuple):
    """One packed query vector over F_q; entry i of a database's list is block i's, on pool slot first + i."""

    vector: int
    probe_coord: int | None  # desired coordinate this probe targets; None for the base


@dataclass
class BlockPlan:
    """Client-side plan: block layout, per-database query lists, decode map."""

    params: SchemeParams
    desired: tuple[int, ...]  # message indices
    coords: list[list[int]]  # per block, the desired global coordinates covered
    queries: list[list[BlockQuery]]  # per database, entry i of block i

    @property
    def n_blocks(self) -> int:
        return len(self.coords)

    @property
    def total_queries(self) -> int:
        return sum(len(qs) for qs in self.queries)

    def wire_query(self, db: int) -> bytes:
        """Database ``db``'s entries as one slot run from slot 0."""
        KL, q = self.params.K * self.params.L, self.params.q
        return encode_block_query(0, [bq.vector for bq in self.queries[db]], KL, q)

    def wire_queries(self) -> list[bytes]:
        return [self.wire_query(db) for db in range(self.params.N)]


def plan_blocks(params: SchemeParams, desired, rng: Random) -> BlockPlan:
    """``build_plan`` of one uniform strategy draw, which takes no desired set:
    a shuffle of the P*L block positions, then one base vector per block."""
    K, P, N, L, q = params.K, params.P, params.N, params.L, params.q
    order = list(range(P * L))
    rng.shuffle(order)
    bases = [sample_uniform(rng, K * L, q) for _ in range(lspir_cost(P, N, L)[1])]
    return build_plan(params, desired, order, bases)


def build_plan(params: SchemeParams, desired, order, bases) -> BlockPlan:
    """Lay out the blocks of one strategy draw; no randomness is drawn here.

    Desired coordinate ``order[i]`` (message-major) takes block position i,
    and block j's base vector is ``bases[j]``.  Which database serves each
    base rotates round-robin so downloads stay balanced.
    """
    K, P, N, L, q = params.K, params.P, params.N, params.L, params.q
    if N < 2:
        raise InfeasibleError("at least two databases are required")
    desired = params.check_desired(desired)
    if P == K:
        raise ParamError("P == K is served by the download-all path, not by block queries")

    coords_flat = [m * L + sym for m in desired for sym in range(L)]
    coords_flat = [coords_flat[i] for i in order]

    width = N - 1
    coords = [coords_flat[i : i + width] for i in range(0, len(coords_flat), width)]
    queries: list[list[BlockQuery]] = [[] for _ in range(N)]
    for j, (block_coords, base_vec) in enumerate(zip(coords, bases, strict=True)):
        base = j % N
        queries[base].append(BlockQuery(base_vec, None))
        probes = [(base + 1 + i) % N for i in range(len(block_coords))]
        for db, t in zip(probes, block_coords):
            queries[db].append(BlockQuery(raise_lane(base_vec, t, q), t))

    plan = BlockPlan(params=params, desired=desired, coords=coords, queries=queries)
    D, HS = lspir_cost(P, N, L)
    assert plan.total_queries == D and plan.n_blocks == HS
    return plan


def entry_count(db: int, P: int, N: int, L: int = 1) -> int:
    """How many entries ``build_plan`` lays out for database ``db``, in closed form (P >= 1, N >= 2).

    Each of the n - 1 full blocks reaches every database once; the last
    block, of r coordinates, reaches its base database (n - 1) mod N and the
    r databases after it.
    """
    n = -(-P * L // (N - 1))
    r = P * L - (n - 1) * (N - 1)
    return n - 1 + ((db - (n - 1)) % N <= r)


def answer_wire_query(payload: bytes, store: MessageStore, pool: CommonRandomnessPool) -> list[int]:
    """One symbol per block-query entry: <vector, flattened store> + its slot's pool symbol."""
    KL, q, symbols = store.K * store.L, store.q, pool.symbols
    first, vectors = parse_block_query(payload, q, KL, len(symbols))
    masks = symbols[first : first + len(vectors)]
    if q == 2:
        w = store.packed
        return [((vec & w).bit_count() + s) & 1 for vec, s in zip(vectors, masks)]
    flat = store.flat
    return [(sum(map(mul, unpack(vec, KL, q), flat)) + s) % q for vec, s in zip(vectors, masks)]


def decode_blocks(plan: BlockPlan, answers: list[list[int]]) -> dict[int, int]:
    """Recover the desired coordinates: probe answer minus base answer, per block.

    Returns {global coordinate: symbol}.  Answer strings must contain one
    symbol per issued query, in issue order.
    """
    N, q = plan.params.N, plan.params.q
    if len(answers) != N:
        raise ProtocolFault(f"expected {N} answer strings, got {len(answers)}")
    for db in range(N):
        if len(answers[db]) != len(plan.queries[db]):
            raise ProtocolFault(f"answer count mismatch at database {db}")
        if any(not 0 <= v < q for v in answers[db]):
            raise ProtocolFault(f"answer symbol outside F_{q} at database {db}")

    base: dict[int, int] = {}  # block -> base answer
    probes: list[tuple[int, int, int]] = []  # (block, coordinate, probe answer)
    for db in range(N):
        for j, (bq, v) in enumerate(zip(plan.queries[db], answers[db])):
            if bq.probe_coord is None:
                base[j] = v
            else:
                probes.append((j, bq.probe_coord, v))
    out = {t: (v - base[j]) % q for j, t, v in probes}
    assert len(out) == plan.params.P * plan.params.L
    return out
