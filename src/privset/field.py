"""Exact arithmetic over the prime field F_q and fixed-length symbol vectors.

Everything on the protocol path is an integer in [0, q); there is no floating
point anywhere.  Elements are plain ints, the modulus lives in a Field context
object.  Randomness comes from seedable, domain-separated streams so that
client randomness, database common randomness, and message generation are
independent by construction and reproducible in tests.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Iterator, Sequence


class FieldError(ValueError):
    """Raised on modulus mismatches or out-of-range elements."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Prime field F_q. q defaults to 2, the incidence-bit field."""

    def __init__(self, q: int = 2):
        if not _is_prime(q):
            raise FieldError(f"field modulus must be prime, got {q}")
        self.q = q

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise FieldError(f"{a!r} is not an element of F_{self.q}")
        return a

    def add(self, a: int, b: int) -> int:
        return (self.check(a) + self.check(b)) % self.q

    def sub(self, a: int, b: int) -> int:
        return (self.check(a) - self.check(b)) % self.q

    def neg(self, a: int) -> int:
        return (-self.check(a)) % self.q

    def mul(self, a: int, b: int) -> int:
        return (self.check(a) * self.check(b)) % self.q

    def inv(self, a: int) -> int:
        if self.check(a) == 0:
            raise FieldError("0 has no multiplicative inverse")
        return pow(a, self.q - 2, self.q)

    def elements(self) -> range:
        return range(self.q)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("Field", self.q))

    def __repr__(self) -> str:
        return f"Field(q={self.q})"


def add(a: int, b: int, field: Field) -> int:
    """(a + b) mod q."""
    return field.add(a, b)


class SymbolVector:
    """Immutable fixed-length vector of F_q elements.

    Componentwise add/sub require equal lengths and the same field.
    """

    __slots__ = ("field", "elems")

    def __init__(self, field: Field, elems: Iterable[int]):
        self.field = field
        self.elems = tuple(field.check(e) for e in elems)

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elems)

    def __getitem__(self, i: int) -> int:
        return self.elems[i]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SymbolVector)
            and other.field == self.field
            and other.elems == self.elems
        )

    def __hash__(self) -> int:
        return hash((self.field.q, self.elems))

    def _check_peer(self, other: "SymbolVector") -> None:
        if not isinstance(other, SymbolVector):
            raise FieldError("expected a SymbolVector")
        if other.field != self.field:
            raise FieldError("field modulus mismatch")
        if len(other) != len(self):
            raise FieldError(f"length mismatch: {len(self)} vs {len(other)}")

    def __add__(self, other: "SymbolVector") -> "SymbolVector":
        self._check_peer(other)
        q = self.field.q
        return SymbolVector(self.field, ((a + b) % q for a, b in zip(self.elems, other.elems)))

    def __sub__(self, other: "SymbolVector") -> "SymbolVector":
        self._check_peer(other)
        q = self.field.q
        return SymbolVector(self.field, ((a - b) % q for a, b in zip(self.elems, other.elems)))

    def __repr__(self) -> str:
        return f"SymbolVector(q={self.field.q}, {list(self.elems)})"


def inner_product(a: SymbolVector, b: SymbolVector) -> int:
    """Sum a[i]*b[i] over F_q. Lengths must match."""
    a._check_peer(b)
    q = a.field.q
    acc = 0
    for x, y in zip(a.elems, b.elems):
        acc += x * y
    return acc % q


# Domain labels for the three independent randomness sources.
DOMAIN_CLIENT = "client"
DOMAIN_COMMON_RANDOMNESS = "common-randomness"
DOMAIN_MESSAGES = "messages"


def domain_rng(seed: int, domain: str) -> random.Random:
    """Deterministic RNG for one randomness domain.

    Streams for distinct (seed, domain) pairs are seeded from unrelated
    SHA-256 digests, so the client strategy, the databases' shared
    randomness, and message generation never share a stream.
    """
    digest = hashlib.sha256(f"privset:{domain}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest, "little"))


def sample_uniform(rng: random.Random, length: int, field: Field) -> SymbolVector:
    """Vector of i.i.d. uniform F_q symbols; deterministic given the rng state."""
    if length < 0:
        raise FieldError("length must be non-negative")
    q = field.q
    return SymbolVector(field, (rng.randrange(q) for _ in range(length)))


def sample_symbols(rng: random.Random, length: int, q: int) -> list[int]:
    """Plain-list variant of sample_uniform for bulk store/pool generation."""
    return [rng.randrange(q) for _ in range(length)]
