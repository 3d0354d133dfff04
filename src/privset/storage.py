"""Replicated message stores and the randomness pool shared by one entity's databases."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .field import DOMAIN_COMMON_RANDOMNESS, DOMAIN_MESSAGES, domain_rng, pack, sample_symbols
from .params import check_modulus


class MessageStore:
    """K messages of L symbols each over F_q; every database of an entity holds a replica.

    Built from the nested ``messages`` lists or, by ``from_bits``, from the
    flat symbols; the other layout and the packed vector are derived on
    first use and cached.
    """

    def __init__(self, q: int, messages: list[list[int]]):
        check_modulus(q)  # answers are sums mod q, sent one byte each
        self.q = q
        self.K = len(messages)
        self.L = len(messages[0]) if messages else 0
        self.messages = messages

    @cached_property
    def messages(self) -> list[list[int]]:
        flat, L = self.flat, self.L
        return [list(flat[i : i + L]) for i in range(0, len(flat), L)]

    @cached_property
    def flat(self) -> bytes:
        """Row-major flattening, one byte per symbol; global coordinate of (msg, sym) is msg*L + sym."""
        return bytes(chain.from_iterable(self.messages))

    @cached_property
    def packed(self) -> int:
        """The flattening as one packed vector (``field.pack``), what an F_2 answer ANDs with."""
        return pack(self.flat, self.q)

    @classmethod
    def generate(cls, K: int, L: int, q: int, seed: int) -> "MessageStore":
        rng = domain_rng(seed, DOMAIN_MESSAGES)
        return cls(q=q, messages=[sample_symbols(rng, L, q) for _ in range(K)])

    @classmethod
    def from_bits(cls, bits) -> "MessageStore":
        """K one-bit messages (the incidence-vector layout), from a sequence of 0/1 values."""
        store = cls.__new__(cls)
        store.q, store.K, store.L = 2, len(bits), 1
        store.flat = bytes(bits)
        return store


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
        return cls(q=q, symbols=sample_symbols(rng, size, q))
