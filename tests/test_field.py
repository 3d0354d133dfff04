from random import Random

import pytest

from privset.field import (
    Field,
    FieldError,
    SymbolVector,
    domain_rng,
    inner_product,
    sample_uniform,
)


def test_characteristic_two_cancellation():
    f = Field(2)
    assert f.add(1, 1) == 0


def test_modular_addition_q3():
    f = Field(3)
    assert f.add(2, 2) == 1


def test_additive_identity():
    f = Field(2)
    for x in f.elements():
        assert f.add(x, 0) == x


@pytest.mark.parametrize("q", [2, 3, 5])
def test_field_axioms_exhaustive(q):
    f = Field(q)
    for a in f.elements():
        assert f.add(a, f.neg(a)) == 0
        for b in f.elements():
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in f.elements():
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1


def test_non_prime_modulus_rejected():
    with pytest.raises(FieldError):
        Field(4)
    with pytest.raises(FieldError):
        Field(1)


def test_out_of_range_element_rejected():
    f = Field(3)
    with pytest.raises(FieldError):
        f.add(3, 0)


def test_vector_length_mismatch():
    f = Field(2)
    with pytest.raises(FieldError):
        SymbolVector(f, [1, 0]) + SymbolVector(f, [1])
    with pytest.raises(FieldError):
        inner_product(SymbolVector(f, [1, 0]), SymbolVector(f, [1]))


def test_inner_product_annihilator_and_selector():
    f = Field(5)
    b = SymbolVector(f, [3, 1, 4])
    zero = SymbolVector(f, [0, 0, 0])
    assert inner_product(zero, b) == 0
    for j in range(3):
        e = SymbolVector(f, [1 if i == j else 0 for i in range(3)])
        assert inner_product(e, b) == b[j]


def test_inner_product_hand_case():
    # q=2: (1,1,0).(1,0,1) = 1*1 + 1*0 + 0*1 = 1
    f = Field(2)
    assert inner_product(SymbolVector(f, [1, 1, 0]), SymbolVector(f, [1, 0, 1])) == 1


def test_inner_product_bilinear_random():
    f = Field(5)
    rng = Random(1)
    for _ in range(50):
        a, b, c = (SymbolVector(f, [rng.randrange(5) for _ in range(6)]) for _ in range(3))
        assert inner_product(a + b, c) == f.add(inner_product(a, c), inner_product(b, c))


def test_sample_uniform_empty_and_deterministic():
    f = Field(2)
    assert len(sample_uniform(Random(3), 0, f)) == 0
    a = sample_uniform(domain_rng(99, "client"), 32, f)
    b = sample_uniform(domain_rng(99, "client"), 32, f)
    assert a == b
    c = sample_uniform(domain_rng(99, "messages"), 32, f)
    assert a != c  # domains are separated


def test_sample_uniform_statistics():
    # 10^4 Bernoulli(1/2) draws: |ones - 5000| within 3 sigma = 150.
    f = Field(2)
    v = sample_uniform(domain_rng(7, "stats"), 10_000, f)
    ones = sum(v.elems)
    assert abs(ones - 5000) <= 150
