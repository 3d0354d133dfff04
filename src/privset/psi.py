"""Set intersection over replicated databases without revealing anything else.

Each entity stores its set as a length-K incidence vector over F_2,
replicated across its databases.  The cheaper side initiates: it privately
retrieves the bit X_other(j) for every j in its own set via the one-round
linear scheme (message length 1), and keeps exactly the positions that came
back 1.  Neither side learns anything beyond the intersection: the
initiator's queries hide its set from every single database, and the masked
answers pin down only the probed bits.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from random import Random

from . import block_scheme, transport, wire
from .field import DOMAIN_CLIENT, domain_rng, sample_below
from .params import ParamError, SchemeParams, psi_direction_cost, psi_optimal_cost
from .storage import CommonRandomnessPool, MessageStore
from .table_scheme import check_answer


@dataclass(frozen=True)
class EntityConfig:
    """One participant: its public shape and its private elements.

    The set size is public; the elements are private.  The entity stores its
    set once: ``store`` is built on first use and shared by every later
    intersection against this entity, while each run still gets fresh
    servers and a fresh pool.
    """

    entity_id: int  # 1 or 2
    K: int
    n_databases: int
    elements: frozenset[int]

    def __post_init__(self):
        if self.entity_id not in (1, 2):
            raise ParamError("entity_id must be 1 or 2")
        if self.K < 1:
            raise ParamError("K must be >= 1")
        if self.elements and not (0 <= min(self.elements) and max(self.elements) < self.K):
            raise ParamError("set elements must lie in [0, K)")
        if self.n_databases < 1:
            raise ParamError("need at least one database")

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def store(self) -> MessageStore:
        """The incidence vector as K one-bit messages, what each of the entity's databases holds.

        Cached in the instance ``__dict__``, outside ``repr``, ``==`` and ``hash``.
        """
        return MessageStore.from_bits(to_incidence(self.elements, self.K).bits)


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class IncidenceVector:
    """Length-K bit vector marking set membership, one byte per element; a sufficient statistic for the set."""

    bits: bytes

    def __post_init__(self):
        try:
            bits = bytes(self.bits)
        except (TypeError, ValueError):
            raise ParamError("incidence bits must be 0 or 1") from None
        if bits.translate(None, b"\x00\x01"):
            raise ParamError("incidence bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @property
    def K(self) -> int:
        return len(self.bits)

    def as_string(self) -> str:
        return self.bits.translate(_BIT_DIGITS).decode()


def to_incidence(elements, K: int) -> IncidenceVector:
    bits = bytearray(K)
    try:
        for e in elements:
            if e < 0:  # a negative index would wrap; one past K raises IndexError itself
                raise IndexError
            bits[e] = 1
    except IndexError:
        raise ParamError("set elements must lie in [0, K)") from None
    return IncidenceVector(bytes(bits))


def generate_set(K: int, prob, rng: Random) -> frozenset[int]:
    """Each field element joins independently with the given probability.

    The probability is handled as an exact rational so generation stays
    integer-only and reproducible: element j joins when the j-th
    ``rng.randrange(denominator)`` falls below the numerator.  The K draws
    come in one ``field.sample_below`` batch, turned into inclusion flags in
    one pass.
    """
    if K < 1:
        raise ParamError("K must be >= 1")
    prob = Fraction(prob).limit_denominator(10**6)
    if not 0 < prob < 1:
        raise ParamError("inclusion probability must lie strictly between 0 and 1")
    num, den = prob.numerator, prob.denominator
    draws = sample_below(rng, K, den)
    flags = draws.translate(bytes(v < num for v in range(256))) if den <= 255 else map(num.__gt__, draws)
    return frozenset(compress(range(K), flags))


@dataclass
class PsiResult:
    """Outcome of one intersection run."""

    intersection: frozenset[int]
    initiator: int
    optimal_cost: int
    transcript: transport.Transcript

    @property
    def cardinality(self) -> int:
        return len(self.intersection)

    @property
    def download_symbols(self) -> int:
        return self.transcript.downloaded_symbols


def entity_servers(entity: EntityConfig, pool_size: int, seed_cr: int | None) -> list[transport.DatabaseServer]:
    """The one responder stand-up: fresh databases, each holding the entity's
    store, provisioned with one shared pool of ``pool_size`` symbols.

    ``run_psi``, ``psi serve`` and ``check_transcript``'s replay all stand
    the responder up here.  The pool is drawn from ``seed_cr``, or from
    ``secrets`` when it is None.
    """
    info = {"entity": entity.entity_id, "K": entity.K, "P": entity.size, "N": entity.n_databases}
    servers = transport.make_entity_servers(entity.store, entity.n_databases, info)
    transport.provision_cr(servers, CommonRandomnessPool.generate(pool_size, 2, seed_cr), 0)
    return servers


def run_psi(
    e1: EntityConfig,
    e2: EntityConfig,
    *,
    backend: str = "sim",
    seed_client: int = 0,
    seed_cr: int = 0,
) -> PsiResult:
    """Execute one full intersection run over the chosen backend (``psi run``).

    The responder is stood up by ``entity_servers``, as ``psi serve`` stands
    it up: fresh databases, provisioned before the first frame with the
    direction's D - P shared symbols drawn from ``seed_cr``.  That pool is
    empty for an empty or full set, and only an empty pool answers a full
    set's download-all.  ``sim`` queries them in process and ``tcp`` serves
    them on loopback to ``run_psi_remote``: one flow, one result for the
    same seeds.  The initiator's queries depend on its own set and
    ``seed_client`` alone, and it forwards the result to database 0.
    """
    if e1.K != e2.K:
        raise ParamError("entities must agree on the field size K")
    if backend not in ("sim", "tcp"):
        raise ParamError(f"unknown backend {backend!r}")
    optimal_cost, initiator_id = psi_optimal_cost(e1.size, e1.n_databases, e2.size, e2.n_databases, e1.K)
    init, resp = (e1, e2) if initiator_id == 1 else (e2, e1)
    servers = entity_servers(resp, optimal_cost - init.size, seed_cr)

    if backend == "sim":
        result = _intersect(init, transport.SimBackend(servers), seed_client)
    else:
        with transport.TcpServerPool(servers) as pool:
            result = run_psi_remote(init, pool.addresses, seed_client=seed_client)
    result.transcript.meta["seed_cr"] = seed_cr
    return result


def run_psi_remote(
    initiator: EntityConfig,
    addresses: list[tuple[str, int]],
    *,
    seed_client: int | None = None,
) -> PsiResult:
    """Intersect against databases served elsewhere (``psi connect`` against ``psi serve``).

    The local entity always initiates; the responder must have provisioned a
    pool large enough for ceil(P*1/(N-1)) shared symbols, else its databases
    refuse the queries.  A full-set initiator downloads all from database 0,
    which answers only if its pool is empty (``psi serve --pool-size 0``).
    The responder's public shape comes from the setup exchange.  A repeated
    address is refused: it would get two query shares.
    Without ``seed_client`` the query strategy is drawn from ``secrets``: a
    seed the databases could guess would let each of them recompute the base
    vectors and read the desired set off its own query share.
    """
    if len(set(addresses)) != len(addresses):
        raise ParamError("each database must be addressed once: a repeated address would receive two query shares")
    backend = transport.TcpBackend(addresses)
    try:
        return _intersect(initiator, backend, seed_client)
    finally:
        backend.close()


def _intersect(
    init: EntityConfig,
    backend: transport.SimBackend | transport.TcpBackend,
    seed_client: int | None,
) -> PsiResult:
    """The initiator's side of one intersection against the responder's provisioned databases.

    The strategy comes from ``domain_rng(seed_client, DOMAIN_CLIENT)``, or
    from ``secrets`` when ``seed_client`` is None.  The pool seed is the
    responder's, so the transcript meta leaves ``seed_cr`` unknown (None);
    ``run_psi``, which provisioned the pool, fills it in.
    """
    optimal_cost = psi_direction_cost(init.size, backend.n_databases, init.K)
    client = transport.Client(backend)
    info = client.setup_info()
    if info.get("K") != init.K:
        raise ParamError("setup exchange reports a different field size")

    K = init.K
    desired = tuple(sorted(init.elements))
    meta = {
        "scheme": "psi",
        "K": K,
        "initiator": init.entity_id,
        "P_initiator": len(desired),
        "N_responder": backend.n_databases,
        "seed_client": seed_client,
        "seed_cr": None,
        "q": 2,
    }

    if len(desired) == 0:
        bits: dict[int, int] = {}
    elif len(desired) == K:
        symbols = client.query(0, wire.encode_download_all())
        check_answer(0, symbols, K, 2)
        bits = dict(enumerate(symbols))
    else:
        if info.get("N") != backend.n_databases:  # one share per database the responder runs, no more, no fewer
            raise ParamError(f"setup exchange reports N={info.get('N')}, not the {backend.n_databases} databases queried")
        params = SchemeParams(K=K, P=len(desired), N=backend.n_databases, L=1, q=2)
        rng = secrets.SystemRandom() if seed_client is None else domain_rng(seed_client, DOMAIN_CLIENT)
        plan = block_scheme.plan_blocks(params, desired, rng)
        # A database with no entries (P < N - 1) gets no frame at all.
        bodies = [body if qs else b"" for body, qs in zip(plan.wire_queries(), plan.queries)]
        bits = block_scheme.decode_blocks(plan, client.query_all(bodies))

    intersection = frozenset(j for j in desired if bits.get(j, 0) == 1)
    client.forward_result(wire.encode_result(intersection))

    return PsiResult(
        intersection=intersection,
        initiator=init.entity_id,
        optimal_cost=optimal_cost,
        transcript=transport.Transcript(meta=meta, records=client.records),
    )


def check_transcript(transcript: transport.Transcript, responder_set=None) -> list[str]:
    """The one check of a run: how ``transcript`` differs from an honest run of
    the shape its metadata names (integer K, P_initiator from 0 to K and
    N_responder, at least 2 if 0 < P < K, and q=2), or [] if it does not.

    Bad metadata is named alone.  Otherwise the run must download
    ``psi_direction_cost(P, N, K)`` symbols, and each database's record,
    read as the client reads it, must hold what ``_intersect`` sends; a
    record that does not read is its database's one problem.  Nothing is
    sized by the metadata.  With ``responder_set``, the responder's elements,
    the queries are also replayed against the responder as ``run_psi`` stood
    it up, which needs the metadata's ``seed_cr`` and shape, else ParamError.
    """
    meta, records, keys = transcript.meta, transcript.records, ("K", "P_initiator", "N_responder")
    K, P, N, q, seed_cr = map(meta.get, (*keys, "q", "seed_cr"))
    problems = [f"transcript metadata has no integer {key}" for key in keys if type(meta.get(key)) is not int]
    if not problems and not 0 <= P <= K:
        problems.append(f"transcript metadata has P_initiator={P} outside 0 to K={K}")
    elif not problems and 0 < P < K and N < 2:
        problems.append(f"transcript metadata has N_responder={N}; P_initiator={P} of K={K} needs at least two databases")
    if type(q) is not int or q != 2:  # what _intersect records: the intersection runs over F_2
        problems.append(f"transcript metadata has q={q!r}, not the 2 of F_2")
    if responder_set is not None and (seed_cr is None or problems):
        raise ParamError("answer replay needs " + (
            "the pool seed, which the transcript of a remote session does not carry" if seed_cr is None
            else f"the run's integer K, P_initiator and N_responder (P from 0 to K) and q=2: {'; '.join(problems)}"
        ))
    if problems:
        return problems
    unreplayed = []
    if responder_set is not None:  # one database per record; replay sends only queries, never the entity id
        responder = EntityConfig(2, K, len(records), frozenset(responder_set))
        servers = entity_servers(responder, psi_direction_cost(P, N, K) - P, seed_cr)
        if not transport.replay_answers(transcript, servers):
            unreplayed.append("recorded answers do not replay against the given store")
    if N != len(records):
        return [f"the transcript records {len(records)} databases, not N_responder={N}"] + unreplayed
    cost, measured = psi_direction_cost(P, N, K), transcript.downloaded_symbols
    if measured != cost:
        problems.append(f"downloaded {measured} symbols, not the {cost} of P_initiator={P} against N_responder={N}")
    got = {}  # database -> its record read: "no body", "a download-all body" or (first slot, entry count)
    for db, db_records in enumerate(records):
        if len(db_records) > 1:
            problems.append(f"database {db} got {len(db_records)} bodies, not at most one")
            continue
        got[db] = "no body"
        for qry, ans in db_records:
            what = "a query that does not parse"
            try:
                qid, body = wire.parse_query(qry)
                what = f"a body that does not parse at K={K}, q=2"
                block = wire.parse_body(body, K, 2)
                got[db] = "a download-all body" if block is None else (block[0], len(block[1]))
                what = "an answer the client refuses"
                check_answer(db, wire.parse_answer(ans, qid)[1], K if block is None else len(block[1]), 2)
            except wire.ProtocolFault as exc:
                problems.append(f"database {db} got {what}: {exc}")
                del got[db]
    first = next((read[0] for read in got.values() if type(read) is tuple), 0)  # the lowest database's run's

    def text(read):
        return read if type(read) is str else f"{read[1]} entries from slot {read[0]}"

    for db, read in got.items():
        n = block_scheme.entry_count(db, P, N) if 0 < P < K else 0
        want = (first, n) if n else ("a download-all body" if 0 < P == K and db == 0 else "no body")
        if read != want:
            problems.append(f"database {db} got {text(read)}; the run's shape lays out {text(want)}")
    return problems + unreplayed
