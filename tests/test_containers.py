"""Corrupt-container fuzzing: every reader either parses cleanly or raises
InvalidInputError, never another exception."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deqpocs.errors import InvalidInputError
from deqpocs.network import init_params, read_ck01_bytes, write_ck01_bytes
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
def test_ck01_certification_grid_beyond_limit_rejected(offset):
    """A header may not declare a grid that init_params would refuse, so
    training never writes a checkpoint that loading refuses."""
    data = bytearray(CONTAINERS["ck01"][0])
    struct.pack_into("<I", data, offset, 257)
    with pytest.raises(InvalidInputError, match="certification grid"):
        read_ck01_bytes(bytes(data))
