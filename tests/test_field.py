from random import Random

import pytest

from privset.block_scheme import answer_block
from privset.field import domain_rng, sample_uniform
from privset.params import ParamError
from privset.storage import MessageStore


def test_sample_uniform_empty_and_deterministic():
    assert sample_uniform(Random(3), 0, 2) == []
    a = sample_uniform(domain_rng(99, "client"), 32, 2)
    b = sample_uniform(domain_rng(99, "client"), 32, 2)
    assert a == b
    c = sample_uniform(domain_rng(99, "messages"), 32, 2)
    assert a != c  # domains are separated


def test_sample_uniform_statistics():
    # 10^4 Bernoulli(1/2) draws: |ones - 5000| within 3 sigma = 150.
    v = sample_uniform(domain_rng(7, "stats"), 10_000, 2)
    assert set(v) == {0, 1}
    assert abs(sum(v) - 5000) <= 150


def test_inner_product_hand_case():
    # q=2: (1,1,0).(1,0,1) = 1*1 + 1*0 + 0*1 = 1; a zero randomness symbol leaves the bare product
    store = MessageStore(2, [[1], [0], [1]])
    assert answer_block(bytes([1, 1, 0]), store, 0) == 1


def test_vector_length_mismatch():
    # a 2-symbol query vector against a 1-message store
    store = MessageStore(2, [[1]])
    with pytest.raises(ParamError):
        answer_block(bytes([1, 0]), store, 0)
