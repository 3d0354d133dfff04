"""Replicated message stores and the randomness pool shared by one entity's databases."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .field import DOMAIN_COMMON_RANDOMNESS, DOMAIN_MESSAGES, domain_rng, sample_uniform
from .params import check_modulus


@dataclass
class MessageStore:
    """K messages of L symbols each over F_q; every database of an entity holds a replica."""

    q: int
    messages: list[list[int]]

    def __post_init__(self):
        check_modulus(self.q)  # answers are sums mod q, sent one byte each

    @property
    def K(self) -> int:
        return len(self.messages)

    @property
    def L(self) -> int:
        return len(self.messages[0]) if self.messages else 0

    @cached_property
    def flat(self) -> tuple[int, ...]:
        """Row-major flattening, built on first use; global coordinate of (msg, sym) is msg*L + sym."""
        return tuple(chain.from_iterable(self.messages))

    @classmethod
    def generate(cls, K: int, L: int, q: int, seed: int) -> "MessageStore":
        rng = domain_rng(seed, DOMAIN_MESSAGES)
        return cls(q=q, messages=[sample_uniform(rng, L, q) for _ in range(K)])

    @classmethod
    def from_bits(cls, bits: list[int]) -> "MessageStore":
        """K one-bit messages (the incidence-vector layout)."""
        return cls(q=2, messages=[[b] for b in bits])


@dataclass
class CommonRandomnessPool:
    """Randomness shared identically by all N databases of one entity.

    Never sent to the querying side except mixed into sums or served at the
    protocol's explicitly downloaded slots.
    """

    q: int
    symbols: list[int]

    def __len__(self) -> int:
        return len(self.symbols)

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(bytes([self.q % 251]))
        h.update(b"".join(s.to_bytes(4, "little") for s in self.symbols))
        return h.hexdigest()

    @classmethod
    def generate(cls, size: int, q: int, seed: int) -> "CommonRandomnessPool":
        rng = domain_rng(seed, DOMAIN_COMMON_RANDOMNESS)
        return cls(q=q, symbols=sample_uniform(rng, size, q))
