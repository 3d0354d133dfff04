"""Domain-separated deterministic randomness and uniform F_q symbol sampling.

Every symbol on the protocol path is a plain int in [0, q); the modulus is
checked in one place, ``params.check_modulus``.  Randomness comes from seedable,
domain-separated streams so that client randomness, database common
randomness, and message generation are independent by construction and
reproducible in tests.
"""

from __future__ import annotations

import hashlib
import random

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


def sample_uniform(rng: random.Random, length: int, q: int) -> list[int]:
    """``length`` i.i.d. uniform symbols of F_q, one ``rng.randrange(q)`` each, in order."""
    return [rng.randrange(q) for _ in range(length)]
