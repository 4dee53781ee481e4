import hashlib
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deqpocs.errors import ConfigurationError, InvalidInputError, ShapeError
from deqpocs.rng import RandomStream
from deqpocs.sampling import (
    MASK_KINDS,
    Measurement,
    add_noise,
    apply_sampling,
    default_acs_lines,
    make_mask,
    mask_complement_multiply,
    project_data_consistency,
    read_mk01_bytes,
    write_mk01_bytes,
)
from deqpocs.tensors import frob, gaussian_tensor


class TestMakeMask:
    def test_no_acceleration_gives_full_mask(self):
        m = make_mask("1d-calibrated", 32, 32, 1, acs=4, seed=0)
        assert m.grid.all()

    def test_2d_free_point_count(self):
        m = make_mask("2d-free", 32, 32, 4, seed=7)
        assert int(m.grid.sum()) == 256
        assert m.acs == (0, 0)

    def test_paper_scale_1d_calibrated(self):
        m = make_mask("1d-calibrated", 384, 384, 4, acs=16, seed=3)
        c0 = 384 // 2 - 8
        assert m.grid[:, c0 : c0 + 16].all()
        assert 0.225 <= m.fraction_sampled() <= 0.275

    def test_columns_fully_sampled_for_1d(self):
        m = make_mask("1d-free", 24, 24, 3, seed=1)
        col_any = m.grid.any(axis=0)
        col_all = m.grid.all(axis=0)
        assert np.array_equal(col_any, col_all)

    def test_reproducible(self):
        a = make_mask("2d-calibrated", 32, 32, 4, seed=5)
        b = make_mask("2d-calibrated", 32, 32, 4, seed=5)
        assert np.array_equal(a.grid, b.grid)

    def test_acs_infeasible(self):
        with pytest.raises(ConfigurationError):
            make_mask("1d-calibrated", 32, 32, 32, acs=8, seed=0)

    @pytest.mark.parametrize("kind, acs", [
        ("2d-cal", (2,)), ("2d-cal", (2, 2, 2)), ("2d-cal", 2.0), ("2d-cal", "2"),
        ("1d-cal", 2.7), ("1d-cal", (2, 0)),
    ])
    def test_malformed_acs_rejected(self, kind, acs):
        with pytest.raises(ConfigurationError, match="acs must be an integer"):
            make_mask(kind, 12, 10, 2, acs=acs)

    @pytest.mark.parametrize("kind, acs, same", [
        ("2d-cal", np.int64(2), 2), ("2d-cal", (np.int64(4), 2), (4, 2)),
        ("1d-cal", np.int32(3), 3),
    ])
    def test_numpy_integer_acs_accepted(self, kind, acs, same):
        got, want = make_mask(kind, 12, 10, 2, acs=acs), make_mask(kind, 12, 10, 2, acs=same)
        assert write_mk01_bytes(got) == write_mk01_bytes(want)

    def test_acceleration_below_one_rejected(self):
        for R in (0.5, float("inf"), float("nan")):
            with pytest.raises(ConfigurationError):
                make_mask("1d-free", 32, 32, R, seed=0)

    def test_default_acs_scaling(self):
        assert default_acs_lines(384) == 16
        assert default_acs_lines(32) == 2

    def test_free_kind_has_no_forced_center(self):
        # free draws with different seeds should not always include the center
        hits = 0
        for seed in range(12):
            m = make_mask("1d-free", 32, 32, 4, seed=seed)
            hits += int(m.grid[:, 16].all())
        assert hits < 12

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=15, deadline=None)
    def test_fraction_close_to_budget(self, seed):
        m = make_mask("2d-free", 32, 32, 4, seed=seed)
        assert abs(m.fraction_sampled() - 0.25) <= 0.025


# SHA-256 of write_mk01_bytes(make_mask(kind, H, W, 3, acs, seed=7)), captured
# from the two-path draw that preceded the one-row cell grid; free kinds
# ignore ``acs``, so their two digests per grid agree.
MASK_DIGESTS = {
    ("1d-calibrated", 16, 16, None): "b9dad719585d1377dc6dc17529e97feb55791b76334321ade08bd3263ffdc2cd",
    ("1d-calibrated", 16, 16, 3): "e2cd1817db0d69d4fc0907557879fe296366b23d3356a4a3c66413e326d44f4d",
    ("1d-calibrated", 9, 15, None): "8935e2089e53799ca2ef01b4c38e834851f70eb1e7685241a560745191954aa0",
    ("1d-calibrated", 9, 15, 3): "faa1c811544271dbb2cb6519a714f15cf23bc98681befc0eb006bdc60642489c",
    ("2d-calibrated", 16, 16, None): "9b42f35de1cbe7caac2e2f6392816f2d5ebfbda35cb75d74342b31bded2cef6a",
    ("2d-calibrated", 16, 16, (4, 2)): "6fcddf843ff92aaa8ef2d7cef311fd9068f4cb90176dba1d9079c63f93574877",
    ("2d-calibrated", 9, 15, None): "beb448c1155f1bd123ee6d8dd531235650ee1c326b0714c4a8c6bbdb6945715d",
    ("2d-calibrated", 9, 15, (4, 2)): "9707e1e97e6f4a328eb7c242e77c8c41e641d61a28eec3224f95ef6cfb92bf4e",
    ("1d-free", 16, 16, None): "38c1ce2260f875fadeaf95ba80447cdd46a5ec23919396e6583bc928cb596e35",
    ("1d-free", 16, 16, 3): "38c1ce2260f875fadeaf95ba80447cdd46a5ec23919396e6583bc928cb596e35",
    ("1d-free", 9, 15, None): "9dc57fa5c14f922dcafb187c8bc9b5ee2384d2e12ee587824077431febbba4b6",
    ("1d-free", 9, 15, 3): "9dc57fa5c14f922dcafb187c8bc9b5ee2384d2e12ee587824077431febbba4b6",
    ("2d-free", 16, 16, None): "d15fadf01ce0eed1ef752d4b5ae511e1c6b5575a7e9468fb14d7ecf6200877be",
    ("2d-free", 16, 16, (4, 2)): "d15fadf01ce0eed1ef752d4b5ae511e1c6b5575a7e9468fb14d7ecf6200877be",
    ("2d-free", 9, 15, None): "d6b7fd2cb08128785da3bcff15bb1702da7603274830236d230ceb92a3f0d5c8",
    ("2d-free", 9, 15, (4, 2)): "d6b7fd2cb08128785da3bcff15bb1702da7603274830236d230ceb92a3f0d5c8",
}
ACS_SLICES = {
    ("1d-calibrated", 16, 16, None): (slice(0, 16), slice(8, 9)),
    ("1d-calibrated", 16, 16, 3): (slice(0, 16), slice(7, 10)),
    ("1d-calibrated", 9, 15, None): (slice(0, 9), slice(7, 8)),
    ("1d-calibrated", 9, 15, 3): (slice(0, 9), slice(6, 9)),
    ("2d-calibrated", 16, 16, None): (slice(6, 10), slice(6, 10)),
    ("2d-calibrated", 16, 16, (4, 2)): (slice(6, 10), slice(7, 9)),
    ("2d-calibrated", 9, 15, None): (slice(3, 5), slice(5, 9)),
    ("2d-calibrated", 9, 15, (4, 2)): (slice(2, 6), slice(6, 8)),
}


class TestMaskKnownAnswers:
    @pytest.mark.parametrize("kind, H, W, acs", list(MASK_DIGESTS))
    def test_mk01_digest(self, kind, H, W, acs):
        raw = write_mk01_bytes(make_mask(kind, H, W, 3, acs=acs, seed=7))
        assert hashlib.sha256(raw).hexdigest() == MASK_DIGESTS[kind, H, W, acs]

    @pytest.mark.parametrize("kind, H, W, acs", list(ACS_SLICES))
    def test_acs_slices(self, kind, H, W, acs):
        m = make_mask(kind, H, W, 3, acs=acs, seed=7)
        assert m.acs_slices() == ACS_SLICES[kind, H, W, acs]
        rows, cols = m.acs_slices()
        assert m.grid[rows, cols].all()


class TestApplySampling:
    def test_full_mask_identity(self, rand_tensor):
        x = rand_tensor((16, 16, 3), 1)
        m = make_mask("1d-calibrated", 16, 16, 1, acs=2, seed=0)
        y = apply_sampling(x, m)
        assert np.array_equal(y.y, x)
        assert y.delta == 0.0

    def test_single_column_mask(self, rand_tensor):
        x = rand_tensor((8, 8, 3), 2)
        grid = np.zeros((8, 8), dtype=bool)
        grid[:, 4] = True
        from deqpocs.sampling import SamplingMask

        m = SamplingMask(grid=grid, kind="1d-free", accel=8.0, acs=(0, 0))
        y = apply_sampling(x, m)
        assert int(np.count_nonzero(y.y)) == 8 * 3

    def test_idempotent_and_contractive(self, rand_tensor):
        x = rand_tensor((16, 16, 2), 3)
        m = make_mask("1d-calibrated", 16, 16, 4, acs=2, seed=9)
        y = apply_sampling(x, m)
        again = apply_sampling(y.y, m)
        assert np.array_equal(again.y, y.y)
        assert frob(y.y) <= frob(x)

    def test_shape_mismatch(self, rand_tensor):
        m = make_mask("1d-free", 8, 8, 2, seed=0)
        with pytest.raises(ShapeError):
            apply_sampling(rand_tensor((9, 8, 2), 0), m)


class TestMeasurement:
    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -1.0])
    def test_delta_not_finite_nonnegative_refused(self, delta):
        m = make_mask("1d-free", 8, 8, 2, seed=0)
        with pytest.raises(InvalidInputError, match="noise level"):
            Measurement(y=np.zeros((8, 8, 1), dtype=complex), mask=m, delta=delta)


class TestAddNoise:
    def _meas(self, seed=0):
        x = gaussian_tensor((16, 16, 2), RandomStream(seed))
        m = make_mask("1d-calibrated", 16, 16, 2, acs=2, seed=4)
        return apply_sampling(x, m)

    def test_zero_level_unchanged(self):
        y = self._meas()
        out = add_noise(y, 0.0, seed=3)
        assert out is y

    def test_exact_relative_norm(self):
        y = self._meas()
        out = add_noise(y, 0.01, seed=3)
        assert frob(out.y - y.y) / frob(y.y) == pytest.approx(0.01, rel=1e-6)
        assert out.delta == pytest.approx(0.01 * frob(y.y), rel=1e-12)

    def test_off_mask_entries_stay_zero(self):
        y = self._meas()
        for level in (0.01, 0.5, 2.0):
            out = add_noise(y, level, seed=8)
            assert np.all(out.y[~y.mask.grid] == 0)

    @pytest.mark.parametrize("level", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_level_refused_before_any_draw(self, monkeypatch, level):
        y = self._meas()
        calls = []
        monkeypatch.setattr(RandomStream, "gaussians", lambda *args: calls.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=r"^delta_rel must be finite, got"):
                add_noise(y, level, seed=3)
        assert calls == []

    def test_negative_level_refused(self):
        with pytest.raises(InvalidInputError, match=r"^delta_rel must be nonnegative$"):
            add_noise(self._meas(), -0.01, seed=3)

    def test_deterministic(self):
        y = self._meas()
        a = add_noise(y, 0.05, seed=6)
        b = add_noise(y, 0.05, seed=6)
        assert np.array_equal(a.y, b.y)


class TestProjection:
    def _setup(self, seed=0):
        s = RandomStream(seed)
        x = gaussian_tensor((16, 16, 2), s)
        full = gaussian_tensor((16, 16, 2), s)
        m = make_mask("1d-calibrated", 16, 16, 4, acs=2, seed=11)
        return x, apply_sampling(full, m), m

    def test_full_mask_returns_measurement(self, rand_tensor):
        x = rand_tensor((8, 8, 2), 1)
        full = rand_tensor((8, 8, 2), 2)
        m = make_mask("1d-calibrated", 8, 8, 1, acs=2, seed=0)
        y = apply_sampling(full, m)
        assert np.array_equal(project_data_consistency(x, y), full)

    def test_empty_mask_returns_input(self, rand_tensor):
        from deqpocs.sampling import SamplingMask

        grid = np.zeros((8, 8), dtype=bool)
        grid[0, 0] = True  # masks must sample something; nearly-empty
        m = SamplingMask(grid=grid, kind="2d-free", accel=64.0, acs=(0, 0))
        x = rand_tensor((8, 8, 1), 3)
        y = Measurement(y=np.zeros((8, 8, 1), dtype=complex), mask=m, delta=0.0)
        out = project_data_consistency(x, y)
        assert np.array_equal(out[~grid], x[~grid])

    def test_idempotent_bitwise(self):
        x, y, m = self._setup(5)
        once = project_data_consistency(x, y)
        twice = project_data_consistency(once, y)
        assert np.array_equal(once, twice)

    def test_nonexpansive_on_random_pairs(self):
        _, y, m = self._setup(6)
        s = RandomStream(77)
        for _ in range(100):
            a = gaussian_tensor((16, 16, 2), s)
            b = gaussian_tensor((16, 16, 2), s)
            da = project_data_consistency(a, y)
            db = project_data_consistency(b, y)
            assert frob(da - db) <= frob(a - b) * (1 + 1e-6)

    def test_complement_multiply(self):
        x, y, m = self._setup(7)
        out = mask_complement_multiply(x, m)
        assert np.all(out[m.grid] == 0)
        assert np.array_equal(out[~m.grid], x[~m.grid])


class TestMK01:
    def test_round_trip(self):
        m = make_mask("2d-calibrated", 24, 20, 4, seed=13)
        back = read_mk01_bytes(write_mk01_bytes(m))
        assert np.array_equal(back.grid, m.grid)
        assert back.kind == m.kind
        assert back.accel == pytest.approx(m.accel)
        assert back.acs == m.acs

    def test_layout_prefix(self):
        m = make_mask("1d-free", 8, 8, 2, seed=1)
        raw = write_mk01_bytes(m)
        assert raw[:4] == b"MK01"
        assert np.frombuffer(raw[4:12], dtype="<u4").tolist() == [8, 8]
        assert len(raw) == 12 + 64 + 1 + 4 + 4

    @pytest.mark.parametrize("kind, R, descriptor", [
        ("1d-calibrated", 2, (40, 0)),  # block wraps past the grid's edges
        ("2d-calibrated", 4, (6, 6)),  # block over unsampled cells
        ("1d-calibrated", 2, (0, 0)),  # empty block
        ("1d-calibrated", 2, (2, 3)),  # a 1-D descriptor is (lines, 0)
        ("1d-free", 2, (2, 0)),  # a free kind's is (0, 0)
    ])
    def test_acs_descriptor_must_name_sampled_block(self, kind, R, descriptor):
        mask = make_mask(kind, 16, 16, R, acs=None if kind.endswith("free") else 2, seed=3)
        raw = write_mk01_bytes(mask)[:-4] + struct.pack("<HH", *descriptor)
        with pytest.raises(InvalidInputError, match="ACS descriptor"):
            read_mk01_bytes(raw)

    @pytest.mark.parametrize("accel", [float("nan"), float("inf"), 0.5, -3.0])
    def test_acceleration_must_be_finite_and_at_least_one(self, accel):
        raw = write_mk01_bytes(make_mask("1d-calibrated", 16, 16, 2, acs=2, seed=3))
        raw = raw[:-8] + struct.pack("<f", accel) + raw[-4:]
        with pytest.raises(InvalidInputError, match="acceleration"):
            read_mk01_bytes(raw)

    @pytest.mark.parametrize("kind", MASK_KINDS)
    def test_every_kind_round_trips(self, kind):
        m = make_mask(kind, 16, 16, 3, seed=11)
        back = read_mk01_bytes(write_mk01_bytes(m))
        assert write_mk01_bytes(back) == write_mk01_bytes(m)
        assert (back.kind, back.acs) == (m.kind, m.acs)
