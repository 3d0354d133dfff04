import ast
import hashlib
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import privset
from conftest import answer_block
from privset.field import domain_rng, pack, raise_lane, sample_below, sample_symbols, sample_uniform, unpack
from privset.params import ParamError
from privset.psi import generate_set, to_incidence
from privset.storage import CommonRandomnessPool, MessageStore


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
    # F_2: one getrandbits; other fields: the symbol draws in order, one byte
    # each, which are one randrange(q) per coefficient and leave the same state
    assert sample_uniform(Random(4), 37, 2) == Random(4).getrandbits(37)
    for q in (3, 5, 251):
        symbols = sample_symbols(Random(4), 9, q)
        rng, twin = Random(4), Random(4)
        assert unpack(sample_uniform(rng, 9, q), 9, q) == bytes(symbols)
        assert list(symbols) == [twin.randrange(q) for _ in range(9)]
        assert rng.getstate() == twin.getstate()


@settings(max_examples=300, deadline=None)
@given(
    bound=st.one_of(st.integers(1, 255), st.sampled_from([256, 257, 1000, 10**6 + 3])),
    length=st.integers(0, 512),
    seed=st.integers(),
)
def test_sample_below_matches_randrange_and_leaves_the_same_state(bound, length, seed):
    # The reference is this interpreter's randrange: if a CPython version drew
    # differently, this fails instead of every seeded output changing silently.
    rng, twin = Random(seed), Random(seed)
    got = sample_below(rng, length, bound)
    assert list(got) == [twin.randrange(bound) for _ in range(length)]
    assert isinstance(got, bytes) == (bound <= 255)
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("bound", [0, -1, -256])
def test_sample_below_refuses_an_empty_range(bound):
    for length in (0, 3):
        with pytest.raises(ValueError):
            sample_below(Random(0), length, bound)


def test_domain_rng_refuses_a_seed_that_is_not_an_int():
    # str(None) would seed one fixed stream shared by every caller that forgot its seed
    for seed in (None, "3", 3.0, True):
        with pytest.raises(ParamError):
            domain_rng(seed, "x")


def stream_digest(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()


# SHA-256 of seeded bulk draws, captured before the draws were batched through
# ``field.sample_below`` (one randrange per value then).  Batching is pure speed:
# none of these values may change.  Sets are hashed as their incidence bits,
# stores as their flat symbols, pools as their symbols, one byte each.
GOLDEN_STREAM_DIGESTS = {
    "generate_set K=16384 p=1/2": "af2c9a55866ffc8ccc267996af039e4c15b3ce3e4b2c6d731372f0e0f07c7e54",
    "generate_set K=16384 p=3/10": "2bc320ba1d41e7500c1d1c182b1b10ffbb80873e4d604ccef6bfca975c5aadea",
    "generate_set K=1000 p=123/1000": "f2df092b0a062012799cebd2f830efc53add5ea53bd3bb2cddb4d029f25b023e",
    "MessageStore.generate(7, 5000, 2, 5)": "65d132e271cef456f5ea9a7fd1eb543bc94d1b285086f25538d789bcc283d608",
    "MessageStore.generate(3, 400, 251, 5)": "90ec381aa0c4e3ba23f75306b599d0fd9d35bfe391dba49ebeed5b6777a7a6e3",
    "CommonRandomnessPool.generate(1024, 2, 9)": "515ca40253829089acd8aece5ed1fb00a12a9bf6548bc1e86ca40e3a8a1a4969",
    "CommonRandomnessPool.generate(300, 251, 3)": "1c9c2660b4c7df2ea02f0fef29248c9a8eb5d21670a650810494bcd3db540316",
}


def test_seeded_bulk_draws_match_the_golden_digests():
    got = {}
    for K, p, seed in ((16384, Fraction(1, 2), 1), (16384, Fraction(3, 10), 2), (1000, Fraction(123, 1000), 3)):
        got[f"generate_set K={K} p={p}"] = stream_digest(to_incidence(generate_set(K, p, Random(seed)), K).bits)
    for args in ((7, 5000, 2, 5), (3, 400, 251, 5)):
        got[f"MessageStore.generate{args}"] = stream_digest(MessageStore.generate(*args).flat)
    for args in ((1024, 2, 9), (300, 251, 3)):
        got[f"CommonRandomnessPool.generate{args}"] = stream_digest(CommonRandomnessPool.generate(*args).symbols)
    assert got == GOLDEN_STREAM_DIGESTS


def test_field_is_the_only_module_that_draws_one_value_per_element():
    # Bulk draws go through field.sample_below; a randrange or randbelow call
    # inside a comprehension or generator expression elsewhere is a per-value loop.
    loops = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = set()
    for path in Path(privset.__file__).parent.glob("*.py"):
        if path.name == "field.py":
            continue
        for loop in ast.walk(ast.parse(path.read_text())):
            if not isinstance(loop, loops):
                continue
            for node in ast.walk(loop):
                func = node.func if isinstance(node, ast.Call) else None
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in ("randrange", "randbelow"):
                    found.add(f"{path.name}:{node.lineno}")
    assert not found


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


def test_no_module_defines_a_fake_random_generator():
    # Strategy draws are chosen by calling the schemes' rng-free builds
    # (block_scheme.build_plan, table_scheme.relabel), never by a stand-in
    # generator that replays a scheme's rng calls in order.
    found = set()
    for path in Path(privset.__file__).parent.glob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and node.name in ("shuffle", "randrange", "getrandbits"):
                        found.add(f"{path.name}:{cls.name}.{node.name}")
    assert not found
