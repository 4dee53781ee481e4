"""Corrupt-container fuzzing: every reader either parses cleanly or raises
InvalidInputError, never another exception."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deqpocs.errors import InvalidInputError
from deqpocs.network import (
    certified_lipschitz,
    init_params,
    pack_params,
    read_ck01_bytes,
    write_ck01_bytes,
)
from deqpocs.rng import RandomStream
from deqpocs.sampling import make_mask, read_mk01_bytes, write_mk01_bytes
from deqpocs.tensors import gaussian_tensor, read_ct01_bytes, write_ct01_bytes

CONTAINERS = {
    "ct01": (write_ct01_bytes(gaussian_tensor((3, 2, 2), RandomStream(1))), read_ct01_bytes),
    "mk01": (write_mk01_bytes(make_mask("2d-calibrated", 6, 5, 2, seed=1)), read_mk01_bytes),
    # a tiny hybrid model keeps the certification run by every parse cheap
    "ck01": (
        write_ck01_bytes(init_params("hybrid", 1, 1, 1, seed=0, grid=(3, 3))),
        read_ck01_bytes,
    ),
}
NAMES = sorted(CONTAINERS)


@pytest.mark.parametrize("name", NAMES)
def test_intact_container_parses(name):
    raw, read = CONTAINERS[name]
    read(raw)


@pytest.mark.parametrize("name", NAMES)
@given(cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=30, deadline=None)
def test_truncated_container_rejected(name, cut):
    raw, read = CONTAINERS[name]
    with pytest.raises(InvalidInputError):
        read(raw[: int(cut * len(raw))])


@pytest.mark.parametrize("name", NAMES)
@given(tail=st.binary(min_size=1, max_size=16))
@settings(max_examples=10, deadline=None)
def test_trailing_bytes_rejected(name, tail):
    raw, read = CONTAINERS[name]
    with pytest.raises(InvalidInputError):
        read(raw + tail)


@pytest.mark.parametrize("name", NAMES)
@given(where=st.floats(min_value=0.0, max_value=1.0, exclude_max=True), value=st.integers(0, 255))
@settings(max_examples=60, deadline=None)
def test_mutated_byte_parses_or_rejected(name, where, value):
    raw, read = CONTAINERS[name]
    data = bytearray(raw)
    data[int(where * len(raw))] = value
    try:
        read(bytes(data))
    except InvalidInputError:
        pass


@pytest.mark.parametrize(
    "name, offset, value",
    [("ck01", 4, 7), ("mk01", 12 + 30, 9), ("mk01", 12, 2)],
    ids=["ck01-variant", "mk01-kind", "mk01-cell"],
)
def test_out_of_range_enum_byte_rejected(name, offset, value):
    raw, read = CONTAINERS[name]
    data = bytearray(raw)
    data[offset] = value
    with pytest.raises(InvalidInputError):
        read(bytes(data))


@pytest.mark.parametrize("offset", [17, 21], ids=["height", "width"])
def test_ck01_certification_grid_is_ignored(offset):
    """The grid field is recorded, not used: a header declaring 4e9 on a
    side loads with the same certificate and kernels as the original."""
    raw = CONTAINERS["ck01"][0]
    data = bytearray(raw)
    struct.pack_into("<I", data, offset, 4_000_000_000)
    (want, want_l), (got, got_l) = read_ck01_bytes(raw), read_ck01_bytes(bytes(data))
    assert got.cert_grid == tuple(4_000_000_000 if o == offset else 3 for o in (17, 21))
    assert got_l == want_l
    assert certified_lipschitz(got) == certified_lipschitz(want)
    assert np.array_equal(pack_params(got), pack_params(want))


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_ct01_non_finite_payload_rejected(value):
    data = bytearray(CONTAINERS["ct01"][0])
    struct.pack_into("<f", data, 16 + 4 * 3, value)  # the imaginary part of entry 1
    with pytest.raises(InvalidInputError, match="non-finite"):
        read_ct01_bytes(bytes(data))


@pytest.mark.parametrize("offset", [5, 9, 13], ids=["blocks", "features", "coils"])
def test_ck01_zero_count_rejected(offset):
    data = bytearray(CONTAINERS["ck01"][0])
    struct.pack_into("<I", data, offset, 0)
    with pytest.raises(InvalidInputError, match="header out of range"):
        read_ck01_bytes(bytes(data))


@pytest.mark.parametrize("offset", [-16, -12, -8, -4], ids=["alpha", "c_k", "c_i", "L"])
@pytest.mark.parametrize("value", [float("nan"), float("-inf")], ids=["nan", "-inf"])
def test_ck01_non_finite_scalar_rejected(offset, value):
    """A one-block model ends with its float32 alpha, c_k, c_i and stored L."""
    data = bytearray(CONTAINERS["ck01"][0])
    struct.pack_into("<f", data, len(data) + offset, value)
    with pytest.raises(InvalidInputError, match="not finite"):
        read_ck01_bytes(bytes(data))
