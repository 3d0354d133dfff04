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

Vectors are packed ints (``field.lane_bits``).  Over F_2, the intersection
protocol's field, a probe is c_j ^ (1 << t) and an answer is one AND and one
popcount against the store's packed vector: the XOR retrieval of Chor,
Goldreich, Kushilevitz and Sudan with the shared symbol added.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from random import Random
from typing import Sequence

from .field import lane_bits, sample_uniform, unpack
from .params import InfeasibleError, ParamError, SchemeParams, lspir_cost
from .storage import CommonRandomnessPool, MessageStore
from .wire import BLOCK_QUERY_TAG  # noqa: F401  (the scheme's tag, looked up here by callers)
from .wire import ProtocolFault, encode_block_query, parse_block_query


@dataclass(frozen=True)
class BlockQuery:
    """One query vector for one database: a packed vector over F_q, plus the block's pool slot."""

    block: int
    db: int
    vector: int
    cr_id: int
    probe_coord: int | None  # desired coordinate this probe targets; None for the base


@dataclass
class BlockPlan:
    """Client-side plan: block layout, per-database query lists, decode map."""

    params: SchemeParams
    desired: tuple[int, ...]  # message indices
    coords: list[list[int]]  # per block, the desired global coordinates covered
    queries: list[list[BlockQuery]]  # per database, in block order

    @property
    def n_blocks(self) -> int:
        return len(self.coords)

    @property
    def total_queries(self) -> int:
        return sum(len(qs) for qs in self.queries)

    def pool_size_required(self) -> int:
        return self.n_blocks

    def wire_query(self, db: int) -> bytes:
        KL, q = self.params.K * self.params.L, self.params.q
        return encode_block_query([(bq.cr_id, KL, bq.vector) for bq in self.queries[db]], q)

    def wire_queries(self) -> list[bytes]:
        return [self.wire_query(db) for db in range(self.params.N)]


def plan_blocks(params: SchemeParams, desired, rng: Random) -> BlockPlan:
    """Lay out blocks and draw the query vectors for one retrieval run.

    The assignment of the P*L desired coordinates to block slots is uniformly
    shuffled (part of the private strategy); which database serves each base
    rotates round-robin so downloads stay balanced.
    """
    K, P, N, L, q = params.K, params.P, params.N, params.L, params.q
    if N < 2:
        raise InfeasibleError("at least two databases are required")
    desired = tuple(sorted(set(desired)))
    if len(desired) != P or any(not 0 <= m < K for m in desired):
        raise ParamError(f"desired must be P={P} distinct messages in [0, {K})")
    if P == K:
        raise ParamError("P == K is served by the download-all path, not by block queries")

    coords_flat = [m * L + sym for m in desired for sym in range(L)]
    rng.shuffle(coords_flat)

    width = N - 1
    lane = lane_bits(q)
    coords = [coords_flat[i : i + width] for i in range(0, len(coords_flat), width)]
    queries: list[list[BlockQuery]] = [[] for _ in range(N)]
    for j, block_coords in enumerate(coords):
        base = j % N
        base_vec = sample_uniform(rng, K * L, q)
        queries[base].append(BlockQuery(j, base, base_vec, j, None))
        probes = [(base + 1 + i) % N for i in range(len(block_coords))]
        for db, t in zip(probes, block_coords):
            if q == 2:
                probe = base_vec ^ (1 << t)
            else:  # raise lane t by 1 mod q
                c = base_vec >> (t * lane) & 0xFF
                probe = base_vec + (((c + 1) % q - c) << (t * lane))
            queries[db].append(BlockQuery(j, db, probe, j, t))

    plan = BlockPlan(params=params, desired=desired, coords=coords, queries=queries)
    D, HS = lspir_cost(P, N, L)
    assert plan.total_queries == D and plan.n_blocks == HS
    return plan


def answer_block(vector: Sequence[int], store: MessageStore, cr_symbol: int) -> int:
    """<vector, flattened store> + cr, in F_q, over unpacked coefficients: the explicit-loop reference."""
    if len(vector) != store.K * store.L:
        raise ParamError(f"query vector length {len(vector)} != K*L = {store.K * store.L}")
    acc = cr_symbol
    for c, w in zip(vector, store.flat):
        acc += c * w
    return acc % store.q


def answer_wire_query(payload: bytes, store: MessageStore, pool: CommonRandomnessPool) -> list[int]:
    """One symbol per block-query entry: <vector, flattened store> + its pool symbol."""
    KL, q, symbols = store.K * store.L, store.q, pool.symbols
    entries = parse_block_query(payload, q, KL, len(symbols))
    if q == 2:
        w = store.packed
        return [((vec & w).bit_count() + symbols[cr_id]) & 1 for cr_id, _, vec in entries]
    flat = store.flat
    return [(sum(map(mul, unpack(vec, KL, q), flat)) + symbols[cr_id]) % q for cr_id, _, vec in entries]


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
        for bq, v in zip(plan.queries[db], answers[db]):
            if bq.probe_coord is None:
                base[bq.block] = v
            else:
                probes.append((bq.block, bq.probe_coord, v))
    out = {t: (v - base[j]) % q for j, t, v in probes}
    assert len(out) == plan.params.P * plan.params.L
    return out


def decoded_messages(plan: BlockPlan, coords: dict[int, int]) -> dict[int, list[int]]:
    """Regroup decoded coordinates into per-message symbol lists."""
    L = plan.params.L
    return {m: [coords[m * L + s] for s in range(L)] for m in plan.desired}
