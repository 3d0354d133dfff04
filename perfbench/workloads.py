"""The three benchmark workloads: inputs from a seed, one op, and its correctness gate.

Every input an op needs is generated in ``setup`` from the seed, outside the
timed loop.  The inputs come in passes over a fixed deck of op shapes: each
pass holds every shape once, in seeded order and with freshly drawn elements,
so every pass does the same work whatever the seed.  An op is a tuple whose
first item is its shape, the parameters its cost depends on; the runner
keeps each shape's best time (see ``run.py``).
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from privset import audit, block_scheme, psi, table_scheme, transport
from privset.params import SchemeParams, lspir_cost, psi_optimal_cost
from privset.storage import CommonRandomnessPool, MessageStore


def check_psi(result, expected: frozenset, optimum: int) -> str | None:
    """Why an intersection op is wrong, or None when it is right."""
    if result.intersection != expected:
        return f"wrong intersection: {len(result.intersection)} elements, expected {len(expected)}"
    if result.download_symbols != optimum:
        return f"downloaded {result.download_symbols} symbols, optimum is {optimum}"
    return None


def check_verdict(verdict, expect_ok: bool) -> str | None:
    """Why an audit op is wrong, or None: honest audits pass at distance 0, mutants fail."""
    if bool(verdict.ok) != expect_ok:
        return "honest audit failed" if expect_ok else "mutant passed its audit"
    if expect_ok and getattr(verdict, "distance", 0) != 0:
        return f"honest audit passed at nonzero distance {verdict.distance}"
    return None


def query_bytes(result) -> int:
    """Query payload bytes the client sent in one intersection."""
    return sum(len(qry) for db_records in result.transcript.records for qry, _ in db_records)


class PsiWide:
    """``psi.run_psi`` on the simulated backend against a large, half-dense responder."""

    name = "psi-wide"
    K = 16384
    # Initiator sizes 8, 10, ..., 32 once per pass, with both sides on 2 and 3
    # databases in turn, so every pass costs the same; 13 shapes keep a pass
    # short enough for each shape to recur eight times in a run.
    SHAPES = [(p, 2 + i % 2) for i, p in enumerate(range(8, 33, 2))]
    PASSES = 8  # distinct passes generated; the loop cycles through them

    def setup(self, seed: int) -> None:
        rng = Random(f"{self.name}:{seed}")
        responder = psi.generate_set(self.K, Fraction(1, 2), rng)
        resp = {n: psi.EntityConfig(2, self.K, n, responder) for _, n in self.SHAPES}
        shapes = list(self.SHAPES)
        self.deck = len(shapes)
        self.inputs = []
        for _ in range(self.PASSES):
            rng.shuffle(shapes)
            for p, n in shapes:
                init = frozenset(rng.sample(range(self.K), p))
                optimum = psi_optimal_cost(p, n, len(responder), n)[0]
                self.inputs.append((
                    (p, n), psi.EntityConfig(1, self.K, n, init), resp[n], init & responder, optimum,
                    rng.randrange(1 << 30), rng.randrange(1 << 30),
                ))

    def run(self, op):
        _, e1, e2, _, _, seed_client, seed_cr = op
        return psi.run_psi(e1, e2, backend="sim", seed_client=seed_client, seed_cr=seed_cr)

    def check(self, op, result) -> str | None:
        return check_psi(result, op[3], op[4])

    def traffic(self, op, result) -> tuple[int, int]:
        return query_bytes(result), result.download_symbols

    def retained_servers(self) -> list:
        return []  # run_psi builds and drops its servers inside every op

    def close(self) -> None:
        pass


class PsiServe:
    """Sequential ``psi.run_psi_remote`` sessions against one long-lived TCP pool on loopback."""

    name = "psi-serve"
    K = 256
    N = 2
    POOL = 1024
    SIZES = range(1, 9)
    PASSES = 64

    def setup(self, seed: int) -> None:
        rng = Random(f"{self.name}:{seed}")
        responder = psi.generate_set(self.K, Fraction(1, 2), rng)
        # The same public calls ``privset psi serve`` makes.
        store = MessageStore.from_bits(list(psi.to_incidence(responder, self.K).bits))
        info = {"entity": 2, "K": self.K, "P": len(responder), "N": self.N}
        self.servers = transport.make_entity_servers(store, self.N, info)
        pool = CommonRandomnessPool.generate(self.POOL, 2, rng.randrange(1 << 30))
        transport.provision_cr(self.servers, pool, 0)
        self.pool = transport.TcpServerPool(self.servers)
        self.pool.start()
        sizes = list(self.SIZES)
        self.deck = len(sizes)
        self.inputs = []
        for _ in range(self.PASSES):
            rng.shuffle(sizes)
            for p in sizes:
                init = frozenset(rng.sample(range(self.K), p))
                self.inputs.append((
                    p, psi.EntityConfig(1, self.K, 1, init), init & responder,
                    lspir_cost(p, self.N, 1)[0], rng.randrange(1 << 30),
                ))

    def run(self, op):
        _, entity, _, _, seed_client = op
        return psi.run_psi_remote(entity, self.pool.addresses, seed_client=seed_client)

    def check(self, op, result) -> str | None:
        return check_psi(result, op[2], op[3])

    def traffic(self, op, result) -> tuple[int, int]:
        return query_bytes(result), result.download_symbols

    def retained_servers(self) -> list:
        return self.servers

    def close(self) -> None:
        self.pool.stop()


class AnswerCounter:
    """Counts the wire queries the audits evaluate and the answer symbols they compute.

    Installed for the whole audit-exact run, traced or not, so that
    ``upload_bytes_per_op`` and ``download_symbols_per_op`` have a value per verdict.
    """

    def __init__(self):
        self.bytes = 0
        self.symbols = 0
        self._undo = []
        for module in (block_scheme, table_scheme):
            orig = module.answer_wire_query

            def counted(payload, store, pool, _orig=orig):
                out = _orig(payload, store, pool)
                self.bytes += len(payload)
                self.symbols += len(out)
                return out

            self._undo.append((module, orig))
            module.answer_wire_query = counted

    def close(self) -> None:
        for module, orig in self._undo:
            module.answer_wire_query = orig
        self._undo = []


class AuditExact:
    """The acceptance suite's exact audits, honest and mutant, in a fixed order."""

    name = "audit-exact"
    TRIALS = 20

    def setup(self, seed: int) -> None:
        rng = Random(f"{self.name}:{seed}")
        k3 = lambda p, n=2: SchemeParams(K=3, P=p, N=n, L=1, q=2)  # noqa: E731
        wide = SchemeParams(K=64, P=8, N=3)
        table3 = table_scheme.build_query_table(SchemeParams(K=3, P=1, N=3), (rng.randrange(3),), Random(rng.randrange(1 << 30)))
        table5 = table_scheme.build_query_table(SchemeParams(K=5, P=3, N=2), (0, 1, 2), Random(rng.randrange(1 << 30)), reps=1)
        plan = block_scheme.plan_blocks(wide, tuple(sorted(rng.sample(range(64), 8))), Random(rng.randrange(1 << 30)))
        db_seeds = tuple(rng.randrange(1 << 30) for _ in range(5))
        rel_seeds = (rng.randrange(1 << 30), rng.randrange(1 << 30))
        a = audit
        # (label, verdict call, expected outcome); a closure per op fixes its inputs here.
        self.inputs = [
            ("block_user_privacy P=1", lambda: a.audit_block_user_privacy(k3(1)), True),
            ("block_user_privacy P=2", lambda: a.audit_block_user_privacy(k3(2)), True),
            ("block_db_privacy P=1", lambda: a.audit_block_db_privacy(k3(1)), True),
            ("block_db_privacy P=2", lambda: a.audit_block_db_privacy(k3(2)), True),
            ("table_user_privacy", lambda: a.audit_table_user_privacy(k3(1)), True),
            ("table_db_privacy", lambda: a.audit_table_db_privacy(k3(1), seeds=db_seeds), True),
            ("symbolic_leakage table K=3", lambda: a.symbolic_leakage_table(table3), True),
            ("symbolic_leakage table K=5", lambda: a.symbolic_leakage_table(table5), True),
            ("symbolic_leakage block K=64", lambda: a.symbolic_leakage_block(plan), True),
            ("reliability table", lambda: a.audit_reliability_table(k3(1), self.TRIALS, seed=rel_seeds[0]), True),
            ("reliability block", lambda: a.audit_reliability_block(wide, self.TRIALS, seed=rel_seeds[1]), True),
            ("mutant no_base_mask", lambda: a.audit_block_user_privacy(k3(1), mutant=a.BLOCK_MUTANT_NO_BASE_MASK), False),
            ("mutant no_cr", lambda: a.audit_block_db_privacy(k3(1), mutant=a.BLOCK_MUTANT_NO_CR), False),
            ("mutant no_index_permutation",
             lambda: a.audit_table_user_privacy(k3(1), mutant=a.TABLE_MUTANT_NO_INDEX_PERM), False),
            ("mutant no_hidden_cr",
             lambda: a.audit_table_db_privacy(k3(1), mutant=a.TABLE_MUTANT_NO_HIDDEN_CR, seeds=db_seeds), False),
        ]
        self.deck = len(self.inputs)
        self.counter = AnswerCounter()
        self._seen = (0, 0)

    def run(self, op):
        return op[1]()

    def check(self, op, verdict) -> str | None:
        err = check_verdict(verdict, op[2])
        return err and f"{op[0]}: {err}"

    def traffic(self, op, verdict) -> tuple[int, int]:
        now = (self.counter.bytes, self.counter.symbols)
        delta = (now[0] - self._seen[0], now[1] - self._seen[1])
        self._seen = now
        return delta

    def retained_servers(self) -> list:
        return []

    def close(self) -> None:
        self.counter.close()


WORKLOADS = {w.name: w for w in (PsiWide, PsiServe, AuditExact)}
