import numpy as np
import pytest

from deqpocs.errors import ConfigurationError
from deqpocs.metrics import ssos
from deqpocs.phantom import (
    DatasetSpec,
    generate_coil_maps,
    generate_phantom,
    load_dataset,
    make_dataset,
    make_sample,
    save_dataset,
)
from deqpocs.sampling import apply_sampling
from deqpocs.tensors import frob, ifft2_centered


class TestPhantom:
    def test_deterministic(self):
        a = generate_phantom(32, 32, seed=5)
        b = generate_phantom(32, 32, seed=5)
        assert np.array_equal(a, b)

    def test_range(self):
        img = generate_phantom(32, 32, seed=3)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_nonzero_fraction_seed1(self):
        img = generate_phantom(32, 32, seed=1)
        frac = float((img > 1e-6).mean())
        assert 0.2 <= frac <= 0.95

    def test_edge_sigma_zero_is_hard_edged(self):
        img = generate_phantom(32, 32, seed=2, edge_sigma=0.0)
        # hard-edged rendering produces only sums of ellipse intensities
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert len(np.unique(np.round(img, 12))) < 32 * 32 / 2

    def test_too_small_grid(self):
        with pytest.raises(ConfigurationError):
            generate_phantom(4, 4, seed=0)

    def test_non_finite_edge_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_phantom(16, 16, seed=0, edge_sigma=float("nan"))


class TestCoilMaps:
    def test_single_coil_unit_magnitude(self):
        maps = generate_coil_maps(16, 16, 1, seed=0).maps
        assert np.allclose(np.abs(maps[:, :, 0]), 1.0, atol=1e-9)

    def test_pixelwise_unit_ssos(self):
        maps = generate_coil_maps(24, 20, 5, seed=7).maps
        assert np.allclose(np.sqrt((np.abs(maps) ** 2).sum(axis=2)), 1.0, atol=1e-6)

    def test_smoothness(self):
        maps = generate_coil_maps(32, 32, 4, seed=1).maps
        dy = np.abs(np.diff(maps, axis=0)).max()
        dx = np.abs(np.diff(maps, axis=1)).max()
        assert max(dy, dx) <= 0.2

    def test_deterministic(self):
        a = generate_coil_maps(16, 16, 3, seed=9).maps
        b = generate_coil_maps(16, 16, 3, seed=9).maps
        assert np.array_equal(a, b)


class TestDataset:
    def test_clean_measurement_matches_truth_on_mask(self):
        spec = DatasetSpec(n=3, height=16, width=16, coils=2, accel=2.0, seed=4)
        for sample, meas in make_dataset(spec):
            assert meas.delta == 0.0
            grid = meas.mask.grid
            assert np.array_equal(meas.y[grid], sample.kspace[grid])
            redo = apply_sampling(sample.kspace, meas.mask)
            assert np.array_equal(redo.y, meas.y)

    def test_reference_equals_ssos_of_inverse_fft(self):
        spec = DatasetSpec(n=2, height=16, width=16, coils=3, accel=2.0, seed=5)
        for sample, _ in make_dataset(spec):
            img = ssos(ifft2_centered(sample.kspace))
            assert frob((img - sample.reference)[:, :, None].astype(complex)) <= 1e-6 * max(
                1.0, float(np.linalg.norm(sample.reference))
            )

    def test_noise_recorded(self):
        spec = DatasetSpec(n=2, height=16, width=16, coils=2, accel=2.0, seed=6, delta_rel=0.05)
        for sample, meas in make_dataset(spec):
            assert meas.delta == pytest.approx(0.05 * frob(apply_sampling(sample.kspace, meas.mask).y))

    def test_non_finite_noise_rejected(self):
        with pytest.raises(ConfigurationError):
            DatasetSpec(n=1, delta_rel=float("inf"))

    def test_shared_mask_flag(self):
        spec = DatasetSpec(n=4, height=16, width=16, coils=2, accel=2.0, seed=7, shared_mask=True)
        ds = make_dataset(spec)
        grids = [m.mask.grid for _, m in ds]
        assert all(np.array_equal(grids[0], g) for g in grids)
        spec2 = DatasetSpec(n=4, height=16, width=16, coils=2, accel=2.0, seed=7)
        ds2 = make_dataset(spec2)
        grids2 = [m.mask.grid for _, m in ds2]
        assert not all(np.array_equal(grids2[0], g) for g in grids2)

    def test_round_trip_through_directory(self, tmp_path):
        spec = DatasetSpec(n=2, height=16, width=16, coils=2, accel=2.0, seed=8, delta_rel=0.01)
        ds = make_dataset(spec)
        save_dataset(tmp_path, spec, ds)
        loaded = load_dataset(tmp_path)
        assert len(loaded) == 2
        for (sample, meas), ls in zip(ds, loaded):
            assert frob(ls.kspace - sample.kspace) <= 1e-5 * frob(sample.kspace)
            assert np.array_equal(ls.measurement.mask.grid, meas.mask.grid)
            assert ls.measurement.delta == meas.delta

    def test_byte_identical_across_runs(self, tmp_path):
        spec = DatasetSpec(n=2, height=16, width=16, coils=2, accel=2.0, seed=9)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        save_dataset(d1, spec, make_dataset(spec))
        save_dataset(d2, spec, make_dataset(spec))
        for f in sorted(p.name for p in d1.iterdir()):
            assert (d1 / f).read_bytes() == (d2 / f).read_bytes()

    def test_make_sample_construction_identity(self):
        s = make_sample(16, 16, 2, phantom_seed=11, coil_seed=12)
        assert np.allclose(ssos(ifft2_centered(s.kspace)), s.reference, atol=1e-10)
