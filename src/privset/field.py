"""Domain-separated deterministic randomness, uniform F_q sampling, packed vectors.

Every symbol on the protocol path is a plain int in [0, q); the modulus is
checked in one place, ``params.check_modulus``.  Randomness comes from seedable,
domain-separated streams so that client randomness, database common
randomness, and message generation are independent by construction and
reproducible in tests.

A query vector of ``length`` coefficients is one Python int with coefficient
i in lane i: the lane is ``lane_bits(q)`` bits wide, one bit over F_2 (so an
inner product is an AND and a popcount) and one byte otherwise.
"""

from __future__ import annotations

import hashlib
import random

# Domain labels for the three independent randomness sources.
DOMAIN_CLIENT = "client"
DOMAIN_COMMON_RANDOMNESS = "common-randomness"
DOMAIN_MESSAGES = "messages"

_PARITY_DIGITS = bytes(ord("0") + (b & 1) for b in range(256))  # byte -> ASCII digit of its parity
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def domain_rng(seed: int, domain: str) -> random.Random:
    """Deterministic RNG for one randomness domain.

    Streams for distinct (seed, domain) pairs are seeded from unrelated
    SHA-256 digests, so the client strategy, the databases' shared
    randomness, and message generation never share a stream.
    """
    digest = hashlib.sha256(f"privset:{domain}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest, "little"))


def lane_bits(q: int) -> int:
    """Width of one coefficient's lane in a packed vector."""
    return 1 if q == 2 else 8


def sample_symbols(rng: random.Random, length: int, q: int) -> list[int]:
    """``length`` i.i.d. uniform symbols of F_q, one ``rng.randrange(q)`` each, in order."""
    return [rng.randrange(q) for _ in range(length)]


def sample_uniform(rng: random.Random, length: int, q: int) -> int:
    """A uniform packed vector of ``length`` coefficients over F_q.

    Over F_2 it is one ``rng.getrandbits(length)``; otherwise the draws of
    ``sample_symbols``, one byte each.
    """
    if q == 2:
        return rng.getrandbits(length)
    return int.from_bytes(bytes(sample_symbols(rng, length, q)), "little")


def pack(coeffs, q: int) -> int:
    """The packed vector of a coefficient sequence (values in [0, 256)); over F_2 each value counts mod 2."""
    if q == 2:
        return int(bytes(coeffs).translate(_PARITY_DIGITS)[::-1] or b"0", 2)
    return int.from_bytes(bytes(coeffs), "little")


def unpack(vec: int, length: int, q: int) -> bytes:
    """The first ``length`` coefficients of a packed vector, one byte each."""
    if q == 2:
        return f"{vec:0{length}b}"[::-1][:length].encode().translate(_DIGIT_VALUES)
    return vec.to_bytes(length, "little")
