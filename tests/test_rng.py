import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deqpocs import rng
from deqpocs.rng import RandomStream, derive_seed
from deqpocs.tensors import gaussian_tensor
from oracles import ScalarGaussians


def test_reference_values_are_stable():
    # frozen from this implementation; guards the documented stream spec
    s = RandomStream(0)
    assert [s.next_u64() for _ in range(3)] == [
        5987356902031041503,
        7051070477665621255,
        6633766593972829180,
    ]


def test_reference_gaussians_are_stable():
    # frozen from the scalar draw loop; the lane path must keep them
    assert RandomStream(0).gaussians(4).tolist() == [
        -1.1079085986338313,
        1.0114416320093496,
        1.4264823081293443,
        0.10285171497849974,
    ]


# Counts around 128 (and 8192, 65537) end draws both inside a lane and at a
# lane's end; odd counts leave a second variate pending for the next call.
GAUSSIAN_COUNTS = [0, 1, 2, 127, 128, 129, 2 * 128 + 1, 8192, 65537]


@pytest.mark.parametrize("seed", range(20))
def test_gaussians_match_scalar_reference(seed):
    lanes, ref = RandomStream(seed), ScalarGaussians(RandomStream(seed))
    for i, n in enumerate(GAUSSIAN_COUNTS):
        if i % 3 == 0:
            assert lanes.uniform() == ref.stream.uniform()
        elif i % 3 == 1:
            assert lanes.randint(1000 + i) == ref.stream.randint(1000 + i)
        else:
            assert lanes.gaussians(1)[0] == ref.gaussians(1)[0]
        got = lanes.gaussians(n)
        assert got.dtype == np.float64
        assert got.tolist() == ref.gaussians(n)
        assert lanes.next_u64() == ref.stream.next_u64()


def test_gaussian_tensor_on_threads_with_cold_tables():
    # the harness pool draws concurrently, possibly while jump tables are built
    shape = (32, 32, 8)
    rng._jump_table.cache_clear()
    start = threading.Barrier(4, timeout=30)

    def draw(seed):
        start.wait()
        return gaussian_tensor(shape, RandomStream(seed))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            drawn = list(pool.map(draw, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for seed, x in enumerate(drawn):
        ref = ScalarGaussians(RandomStream(seed)).gaussians(2 * x.size)
        assert x.shape == shape
        assert x.ravel().tolist() == [complex(a, b) for a, b in zip(ref[0::2], ref[1::2])]


def test_uniform_range_and_determinism():
    a = RandomStream(42)
    b = RandomStream(42)
    va = [a.uniform() for _ in range(1000)]
    vb = [b.uniform() for _ in range(1000)]
    assert va == vb
    assert all(0.0 <= v < 1.0 for v in va)


def test_different_seeds_differ():
    assert [RandomStream(1).next_u64() for _ in range(4)] != [
        RandomStream(2).next_u64() for _ in range(4)
    ]


def test_gaussian_moments():
    s = RandomStream(7)
    vals = np.array(s.gaussians(40000))
    assert abs(vals.mean()) < 0.02
    assert abs(vals.std() - 1.0) < 0.02


@given(st.integers(min_value=1, max_value=500))
@settings(max_examples=20, deadline=None)
def test_randint_in_range(n):
    s = RandomStream(123)
    for _ in range(50):
        assert 0 <= s.randint(n) < n


def test_randint_refuses_counts_it_cannot_draw():
    s = RandomStream(4)
    assert 0 <= s.randint(2**53) < 2**53
    # above 2**53 no 53-bit draw would be accepted
    for n in (0, -1, 2**53 + 1, 2**64):
        with pytest.raises(ValueError):
            s.randint(n)


def test_shuffle_is_permutation():
    s = RandomStream(5)
    items = list(range(100))
    s.shuffle(items)
    assert sorted(items) == list(range(100))
    assert items != list(range(100))


def test_choice_without_replacement_distinct():
    s = RandomStream(9)
    picks = s.choice_without_replacement(50, 20)
    assert len(set(picks)) == 20
    assert all(0 <= p < 50 for p in picks)


def test_derive_seed_path_sensitivity():
    assert derive_seed(1, 0, 0) != derive_seed(1, 0, 1)
    assert derive_seed(1, 0) != derive_seed(2, 0)
    assert derive_seed(3, 4, 5) == derive_seed(3, 4, 5)


def test_box_muller_pairing():
    # consecutive draws come from one (cos, sin) pair sharing the radius
    s = RandomStream(11)
    z0, z1 = s.gaussians(1)[0], s.gaussians(1)[0]
    t = RandomStream(11)
    u1 = ((t.next_u64() >> 11) + 1) * 2.0**-53
    u2 = (t.next_u64() >> 11) * 2.0**-53
    r = math.sqrt(-2 * math.log(u1))
    assert z0 == r * math.cos(2 * math.pi * u2)
    assert z1 == r * math.sin(2 * math.pi * u2)
