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

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable

from . import block_scheme, transport, wire
from .field import DOMAIN_CLIENT, domain_rng
from .params import ParamError, SchemeParams, psi_direction_cost, psi_optimal_cost
from .storage import CommonRandomnessPool, MessageStore


@dataclass(frozen=True)
class EntityConfig:
    """One participant: its public shape and its private elements.

    The set size is public; the elements are private.
    """

    entity_id: int  # 1 or 2
    K: int
    n_databases: int
    elements: frozenset[int]

    def __post_init__(self):
        if self.entity_id not in (1, 2):
            raise ParamError("entity_id must be 1 or 2")
        if any(not 0 <= e < self.K for e in self.elements):
            raise ParamError("set elements must lie in [0, K)")
        if self.n_databases < 1:
            raise ParamError("need at least one database")

    @property
    def size(self) -> int:
        return len(self.elements)


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


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

    @property
    def weight(self) -> int:
        return self.bits.count(1)

    def elements(self) -> frozenset[int]:
        return frozenset(j for j, b in enumerate(self.bits) if b)

    def as_string(self) -> str:
        return self.bits.translate(_BIT_DIGITS).decode()

    @classmethod
    def from_string(cls, s: str) -> "IncidenceVector":
        s = s.strip()
        if not set(s) <= {"0", "1"}:
            raise ParamError("an incidence string holds only the characters 0 and 1")
        return cls(s.encode().translate(_DIGIT_BITS))


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
    integer-only and reproducible.
    """
    prob = Fraction(prob).limit_denominator(10**6)
    if not 0 < prob < 1:
        raise ParamError("inclusion probability must lie strictly between 0 and 1")
    return frozenset(
        j for j in range(K) if rng.randrange(prob.denominator) < prob.numerator
    )


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


def entity_servers(entity: EntityConfig) -> list[transport.DatabaseServer]:
    """The entity's databases, each holding its incidence vector as K one-bit messages."""
    store = MessageStore.from_bits(to_incidence(entity.elements, entity.K).bits)
    info = {"entity": entity.entity_id, "K": entity.K, "P": entity.size, "N": entity.n_databases}
    return transport.make_entity_servers(store, entity.n_databases, info)


def run_psi(
    e1: EntityConfig,
    e2: EntityConfig,
    *,
    backend: str = "sim",
    seed_client: int = 0,
    seed_cr: int = 0,
    forward_result: bool = True,
    faults: transport.FaultPlan | None = None,
) -> PsiResult:
    """Execute one full intersection run over the chosen backend.

    The initiator's queries are a deterministic function of its own set and
    ``seed_client`` alone; the responder's set enters only through the
    answers.  The result is identical across the simulated and TCP backends
    for the same seeds.
    """
    if e1.K != e2.K:
        raise ParamError("entities must agree on the field size K")
    optimal_cost, initiator_id = psi_optimal_cost(e1.size, e1.n_databases, e2.size, e2.n_databases, e1.K)
    init, resp = (e1, e2) if initiator_id == 1 else (e2, e1)
    servers = entity_servers(resp)

    def install_pool(required: int) -> None:
        transport.provision_cr(servers, CommonRandomnessPool.generate(required, 2, seed_cr), required)

    def run(net: transport.SimBackend | transport.TcpBackend) -> PsiResult:
        return _intersect(init, net, install_pool, seed_client, seed_cr, optimal_cost, forward_result)

    if backend == "sim":
        return run(transport.SimBackend(servers, faults))
    if backend == "tcp":
        if faults is not None:
            raise ParamError("fault injection is only supported on the simulated backend")
        with transport.TcpServerPool(servers) as pool:
            tcp = transport.TcpBackend(pool.addresses)
            try:
                return run(tcp)
            finally:
                tcp.close()
    raise ParamError(f"unknown backend {backend!r}")


def run_psi_remote(
    initiator: EntityConfig,
    addresses: list[tuple[str, int]],
    *,
    seed_client: int = 0,
    forward_result: bool = True,
) -> PsiResult:
    """Intersect against databases served elsewhere (see the ``psi serve`` CLI).

    The local entity always initiates; the responder must have provisioned a
    pool large enough for ceil(P*1/(N-1)) shared symbols, else its databases
    refuse the queries.  The responder's public shape comes from the setup
    exchange.
    """
    cost = psi_direction_cost(initiator.size, len(addresses), initiator.K)
    backend = transport.TcpBackend(addresses)
    try:
        return _intersect(initiator, backend, None, seed_client, None, cost, forward_result)
    finally:
        backend.close()


def _intersect(
    init: EntityConfig,
    backend: transport.SimBackend | transport.TcpBackend,
    install_pool: Callable[[int], None] | None,
    seed_client: int,
    seed_cr: int | None,
    optimal_cost: int,
    forward_result: bool,
) -> PsiResult:
    """The initiator's side of one intersection against the responder's databases.

    ``install_pool(required)`` provisions the responder's shared randomness
    once the plan says how much it needs; it is None when the responder
    already holds a pool (and ``seed_cr`` is then unknown to the initiator).
    """
    client = transport.Client(backend)
    if client.setup_info().get("K") != init.K:
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
        "seed_cr": seed_cr,
        "q": 2,
    }

    if len(desired) == 0:
        bits: dict[int, int] = {}
    elif len(desired) == K:
        symbols = client.query(0, wire.encode_download_all())
        if len(symbols) != K:
            raise wire.ProtocolFault("download-all answer has wrong length")
        bits = dict(enumerate(symbols))
    else:
        params = SchemeParams(K=K, P=len(desired), N=backend.n_databases, L=1, q=2)
        plan = block_scheme.plan_blocks(params, desired, domain_rng(seed_client, DOMAIN_CLIENT))
        if install_pool is not None:
            install_pool(plan.pool_size_required())
        bits = block_scheme.decode_blocks(plan, client.query_all(plan.wire_queries()))

    intersection = frozenset(j for j in desired if bits.get(j, 0) == 1)
    if forward_result:
        client.forward_result(",".join(str(j) for j in sorted(intersection)).encode())

    return PsiResult(
        intersection=intersection,
        initiator=init.entity_id,
        optimal_cost=optimal_cost,
        transcript=transport.Transcript(meta=meta, records=client.records),
    )
