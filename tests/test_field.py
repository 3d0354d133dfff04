from random import Random

import pytest

from conftest import answer_block
from privset.field import domain_rng, pack, raise_lane, sample_symbols, sample_uniform, unpack
from privset.params import ParamError
from privset.storage import MessageStore


def test_sample_uniform_empty_and_deterministic():
    assert sample_uniform(Random(3), 0, 2) == 0
    a = sample_uniform(domain_rng(99, "client"), 32, 2)
    b = sample_uniform(domain_rng(99, "client"), 32, 2)
    assert a == b
    c = sample_uniform(domain_rng(99, "messages"), 32, 2)
    assert a != c  # domains are separated


def test_sample_uniform_statistics():
    # 10^4 Bernoulli(1/2) draws: |ones - 5000| within 3 sigma = 150.
    v = sample_uniform(domain_rng(7, "stats"), 10_000, 2)
    assert v >> 10_000 == 0
    assert abs(v.bit_count() - 5000) <= 150


def test_sample_uniform_packs_one_draw_per_coefficient():
    # F_2: one getrandbits; other fields: the symbol draws in order, one byte each
    assert sample_uniform(Random(4), 37, 2) == Random(4).getrandbits(37)
    for q in (3, 5, 251):
        symbols = sample_symbols(Random(4), 9, q)
        assert unpack(sample_uniform(Random(4), 9, q), 9, q) == bytes(symbols)


def test_pack_and_unpack_are_inverse():
    rng = Random(8)
    for q in (2, 3, 5):
        for length in (0, 1, 7, 8, 9, 64):
            coeffs = bytes(rng.randrange(q) for _ in range(length))
            assert unpack(pack(coeffs, q), length, q) == coeffs
    assert pack([1, 0, 1, 1], 2) == 0b1101  # coefficient i in bit i
    assert pack([1, 2], 3) == 0x0201  # coefficient i in byte i


def test_raise_lane_adds_one_to_one_coefficient_mod_q():
    rng = Random(9)
    for q in (2, 3, 5):
        coeffs = bytes(rng.randrange(q) for _ in range(9)) + bytes([q - 1])
        for t in range(len(coeffs)):
            raised = bytearray(coeffs)
            raised[t] = (raised[t] + 1) % q
            assert unpack(raise_lane(pack(coeffs, q), t, q), len(coeffs), q) == raised


def test_inner_product_hand_case():
    # q=2: (1,1,0).(1,0,1) = 1*1 + 1*0 + 0*1 = 1; a zero randomness symbol leaves the bare product
    store = MessageStore(2, 1, [1, 0, 1])
    assert answer_block(bytes([1, 1, 0]), store, 0) == 1


def test_vector_length_mismatch():
    # a 2-symbol query vector against a 1-message store
    store = MessageStore(2, 1, [1])
    with pytest.raises(ParamError):
        answer_block(bytes([1, 0]), store, 0)
