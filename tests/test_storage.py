import pytest

from privset.params import ParamError
from privset.storage import CommonRandomnessPool, MessageStore


@pytest.mark.parametrize("q", [4, 256, 1000])
def test_pool_generator_refuses_a_non_field(q):
    with pytest.raises(ParamError):
        CommonRandomnessPool.generate(4, q, 0)


def test_pool_generator_refuses_a_negative_size():
    with pytest.raises(ParamError):
        CommonRandomnessPool.generate(-3, 2, 0)


def test_store_generator_refuses_a_negative_message_count():
    with pytest.raises(ParamError):
        MessageStore.generate(-2, 1, 2, 0)


def test_unseeded_pool_draws_uniform_bits_from_secrets():
    pool = CommonRandomnessPool.generate(256, 2)
    assert len(pool) == 256 and set(pool.symbols) <= {0, 1}
    # Two unseeded pools of 256 uniform bits agree with probability 2**-256.
    assert CommonRandomnessPool.generate(256, 2).symbols != pool.symbols
