"""Domain-separated deterministic randomness, uniform F_q sampling, packed vectors.

Every symbol on the protocol path is a plain int in [0, q); the modulus is
checked in one place, ``params.check_modulus``.  Randomness comes from seedable,
domain-separated streams so that client randomness, database common
randomness, and message generation are independent by construction and
reproducible in tests.

Bulk draws (message stores, pools, generated sets) come from ``sample_below``
in whole-word batches: one ``getrandbits`` per round instead of one
``randrange`` per value, with exactly ``randrange``'s values, in order, and
the generator left in the same state.

A query vector of ``length`` coefficients has coefficient i in lane i: the
lane is ``lane_bits(q)`` bits wide, one bit over F_2 (so an inner product is
an AND and a popcount) and one byte otherwise.  The server's F_2 answer and
an audit's rows hold a vector as one Python int; everywhere else it is the
``vector_size`` little-endian bytes the wire carries, lane t in bit ``t & 7``
of byte ``t >> 3`` over F_2 and in byte t otherwise.
"""

from __future__ import annotations

import hashlib
import random
from functools import cache

from .params import ParamError

# Domain labels for the three independent randomness sources.
DOMAIN_CLIENT = "client"
DOMAIN_COMMON_RANDOMNESS = "common-randomness"
DOMAIN_MESSAGES = "messages"

_PARITY_DIGITS = bytes(ord("0") + (b & 1) for b in range(256))  # byte -> ASCII digit of its parity
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
_BYTE = [bytes((b,)) for b in range(256)]  # value -> the one byte holding it


def domain_rng(seed: int, domain: str) -> random.Random:
    """Deterministic RNG for one randomness domain.

    Streams for distinct (seed, domain) pairs are seeded from unrelated
    SHA-256 digests, so the client strategy, the databases' shared
    randomness, and message generation never share a stream.
    """
    if type(seed) is not int:
        raise ParamError(f"a stream seed must be an int, got {seed!r}")
    digest = hashlib.sha256(f"privset:{domain}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest, "little"))


def lane_bits(q: int) -> int:
    """Width of one coefficient's lane in a packed vector."""
    return 1 if q == 2 else 8


def vector_size(length: int, q: int) -> int:
    """Bytes of a packed vector of ``length`` coefficients; over F_2 the last byte may be partial."""
    return (length * lane_bits(q) + 7) // 8


@cache
def _attempts(bound: int) -> tuple[bytes, bytes]:
    """(table, reject) turning a word's top byte into one ``randrange(bound)`` attempt.

    The attempt is the top ``bound.bit_length()`` bits of the word; ``reject``
    lists the top bytes whose attempt is ``>= bound``.
    """
    shift = 8 - bound.bit_length()
    return bytes(t >> shift for t in range(256)), bytes(t for t in range(256) if t >> shift >= bound)


def sample_below(rng: random.Random, length: int, bound: int) -> bytes | list[int]:
    """The next ``length`` values of ``rng.randrange(bound)``, leaving ``rng`` where those calls would.

    CPython's ``randrange(bound)`` takes the top ``bound.bit_length()`` bits
    of one 32-bit word per attempt and retries while the value is ``>= bound``,
    and ``getrandbits(32 * n)`` holds the next n words, word i in bits
    32i..32i+31.  So for ``bound <= 255`` each round draws one word per value
    still missing, keeps the top byte of each and maps the accepted ones to
    their values: ``bytes``, a C-speed pass per round, never an attempt that
    ``randrange`` would not make.  A larger bound takes one ``randrange`` per
    value and returns a list.
    """
    if bound < 1:
        raise ValueError(f"empty range for randrange({bound})")
    if bound > 255:
        return [rng.randrange(bound) for _ in range(length)]
    table, reject = _attempts(bound)
    out = b""
    while len(out) < length:
        n = length - len(out)
        out += rng.getrandbits(32 * n).to_bytes(4 * n, "little")[3::4].translate(table, reject)
    return out


def sample_symbols(rng: random.Random, length: int, q: int) -> bytes:
    """``length`` i.i.d. uniform symbols of F_q (``q <= 255``), one byte each: ``sample_below``'s batches."""
    return sample_below(rng, length, q)


def sample_uniform(rng: random.Random, length: int, q: int) -> int:
    """A uniform packed vector of ``length`` coefficients over F_q.

    Over F_2 it is one ``rng.getrandbits(length)``.  Otherwise it is
    ``sample_symbols``' batch, one byte per coefficient: the values of one
    ``rng.randrange(q)`` per coefficient, with ``rng`` left where those calls
    would leave it.
    """
    if q == 2:
        return rng.getrandbits(length)
    return int.from_bytes(sample_symbols(rng, length, q), "little")


def pack(coeffs, q: int) -> int:
    """The packed vector of a coefficient sequence (values in [0, 256)); over F_2 each value counts mod 2."""
    if q == 2:
        return int(bytes(coeffs).translate(_PARITY_DIGITS)[::-1] or b"0", 2)
    return int.from_bytes(bytes(coeffs), "little")


def raise_lane(vec: int, t: int, q: int) -> int:
    """The packed vector with coefficient t raised by 1 mod q; over F_2 one XOR."""
    if q == 2:
        return vec ^ (1 << t)
    shift = t * 8
    c = vec >> shift & 0xFF
    return vec + (((c + 1) % q - c) << shift)


def to_lane_bytes(vec: int, length: int, q: int) -> bytes:
    """The wire bytes of a packed vector of ``length`` coefficients."""
    return vec.to_bytes(vector_size(length, q), "little")


def raise_lane_bytes(lanes: bytes, t: int, q: int) -> bytes:
    """A copy of a vector's wire bytes with coefficient t raised by 1 mod q:
    over F_2 one bit flipped, otherwise one byte raised."""
    if q == 2:
        i = t >> 3
        return lanes[:i] + _BYTE[lanes[i] ^ 1 << (t & 7)] + lanes[i + 1 :]
    return lanes[:t] + _BYTE[(lanes[t] + 1) % q] + lanes[t + 1 :]


def unpack(vec: int, length: int, q: int) -> bytes:
    """The first ``length`` coefficients of a packed vector, one byte each."""
    if q == 2:
        return f"{vec:0{length}b}"[::-1][:length].encode().translate(_DIGIT_VALUES)
    return vec.to_bytes(length, "little")
