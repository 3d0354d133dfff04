"""Replicated message stores and the randomness pool shared by one entity's databases."""

from __future__ import annotations

import secrets
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from .field import DOMAIN_COMMON_RANDOMNESS, DOMAIN_MESSAGES, domain_rng, pack, sample_symbols
from .params import ParamError, check_modulus


class MessageStore:
    """K messages of L symbols each over F_q; every database of an entity holds a replica.

    ``flat`` holds the K*L symbols row-major, one byte each: symbol s of
    message m sits at global coordinate m*L + s, the one address that the
    query bodies, the decoders and the audits use.  The packed vector is
    derived on first use and cached.
    """

    def __init__(self, q: int, L: int, flat):
        check_modulus(q)  # answers are sums mod q, sent one byte each
        if L < 1 or len(flat) % L:
            raise ParamError(f"{len(flat)} symbols do not split into messages of length L={L} >= 1")
        self.q, self.L, self.flat = q, L, bytes(flat)
        self.K = len(self.flat) // L

    @cached_property
    def packed(self) -> int:
        """The flattening as one packed vector (``field.pack``), what an F_2 answer ANDs with."""
        return pack(self.flat, self.q)

    @classmethod
    def generate(cls, K: int, L: int, q: int, seed: int) -> "MessageStore":
        check_modulus(q)
        if K < 0:
            raise ParamError(f"a store holds K >= 0 messages, got K={K}")
        return cls(q, L, sample_symbols(domain_rng(seed, DOMAIN_MESSAGES), K * L, q))

    @classmethod
    def from_bits(cls, bits) -> "MessageStore":
        """K one-bit messages (the incidence-vector layout), from a sequence of 0/1 values."""
        return cls(2, 1, bits)


@dataclass
class CommonRandomnessPool:
    """Randomness shared identically by all N databases of one entity.

    Never sent to the querying side except mixed into sums or served at the
    protocol's explicitly downloaded slots.  ``symbols`` holds one symbol per
    slot; a generated pool holds them as ``bytes``.
    """

    q: int
    symbols: Sequence[int]

    def __len__(self) -> int:
        return len(self.symbols)

    @classmethod
    def generate(cls, size: int, q: int, seed: int | None = None) -> "CommonRandomnessPool":
        """``size`` uniform symbols of F_q from the seeded stream, or without a seed from ``secrets``.

        ``secrets.SystemRandom`` returns uniform bits, so its batched symbols are uniform too.
        """
        check_modulus(q)
        if size < 0:
            raise ParamError(f"a pool holds size >= 0 symbols, got {size}")
        rng = secrets.SystemRandom() if seed is None else domain_rng(seed, DOMAIN_COMMON_RANDOMNESS)
        return cls(q=q, symbols=sample_symbols(rng, size, q))
