"""Unit tests for the measurement-noise model."""

import numpy as np
import pytest

from repro.telemetry import MeasurementNoise, all_metric_specs


@pytest.fixture()
def specs():
    return all_metric_specs()


class TestMeasurementNoise:
    def test_zero_sigma_is_identity(self, specs, rng):
        noise = MeasurementNoise(0.0, rng)
        values = np.linspace(0.0, 10.0, len(specs))
        out = noise.apply(values, specs)
        np.testing.assert_array_equal(out, values)
        assert out is not values  # a copy, caller's array untouched

    def test_noise_perturbs_values(self, specs, rng):
        noise = MeasurementNoise(0.05, rng)
        # 0.5 is in-range for fraction metrics, so no clipping happens and
        # the perturbation is purely the Gaussian factor.
        values = np.full(len(specs), 0.5)
        out = noise.apply(values, specs)
        assert not np.array_equal(out, values)
        # Relative perturbation is small.
        assert np.abs(out / values - 1.0).max() < 0.5

    def test_never_negative(self, specs, rng):
        noise = MeasurementNoise(2.0, rng)  # huge noise
        values = np.full(len(specs), 0.01)
        out = noise.apply(values, specs)
        assert (out >= 0.0).all()

    def test_fractions_clipped_to_one(self, specs, rng):
        noise = MeasurementNoise(0.5, rng)
        values = np.full(len(specs), 0.99)
        out = noise.apply(values, specs)
        for i, spec in enumerate(specs):
            if spec.is_fraction:
                assert out[i] <= 1.0

    def test_non_fractions_may_exceed_one(self, specs):
        rng = np.random.default_rng(0)
        noise = MeasurementNoise(0.3, rng)
        values = np.full(len(specs), 0.99)
        out = noise.apply(values, specs)
        non_frac = [i for i, s in enumerate(specs) if not s.is_fraction]
        assert (out[non_frac] > 1.0).any()

    def test_deterministic_for_seed(self, specs):
        values = np.full(len(specs), 5.0)
        a = MeasurementNoise(0.02, np.random.default_rng(3)).apply(values, specs)
        b = MeasurementNoise(0.02, np.random.default_rng(3)).apply(values, specs)
        np.testing.assert_array_equal(a, b)

    def test_negative_sigma_rejected(self, rng):
        with pytest.raises(ValueError):
            MeasurementNoise(-0.1, rng)

    def test_shape_mismatch_rejected(self, specs, rng):
        noise = MeasurementNoise(0.02, rng)
        with pytest.raises(ValueError, match="expected"):
            noise.apply(np.zeros(3), specs)


class TestBlockNoise:
    """A ``(rows, n)`` block consumes the stream as per-row calls do."""

    def _block(self, specs, rows=7):
        rng = np.random.default_rng(5)
        # Fractions near 1 and tiny counters exercise both clips.
        return np.where(
            rng.random((rows, len(specs))) < 0.5,
            rng.uniform(0.9, 1.0, (rows, len(specs))),
            rng.uniform(0.0, 3.0, (rows, len(specs))),
        )

    def test_block_equals_rows(self, specs):
        values = self._block(specs)
        block = MeasurementNoise(0.2, np.random.default_rng(9)).apply(
            values, specs
        )
        noise = MeasurementNoise(0.2, np.random.default_rng(9))
        rows = np.stack([noise.apply(row, specs) for row in values])
        assert block.tobytes() == rows.tobytes()

    def test_skip_then_block_equals_full_run(self, specs):
        values = self._block(specs, rows=9)
        full = MeasurementNoise(0.05, np.random.default_rng(2)).apply(
            values, specs
        )
        resumed = MeasurementNoise(0.05, np.random.default_rng(2))
        resumed.skip(4, len(specs))
        tail = resumed.apply(values[4:], specs)
        assert tail.tobytes() == full[4:].tobytes()

    def test_noise_offset_resume_matches_full_profile(self, tiny_dataset):
        from repro.telemetry import Profiler

        full = Profiler(seed=3).profile(tiny_dataset).matrix
        tail = list(
            Profiler(seed=3).iter_profile(
                type(tiny_dataset)(
                    shape=tiny_dataset.shape,
                    scenarios=tiny_dataset.scenarios[2:],
                ),
                noise_offset=2,
            )
        )
        assert np.concatenate([b.matrix for b in tail]).tobytes() == (
            full[2:].tobytes()
        )

    def test_block_shape_checked(self, specs, rng):
        noise = MeasurementNoise(0.02, rng)
        with pytest.raises(ValueError, match="expected"):
            noise.apply(np.zeros((2, 3)), specs)
        with pytest.raises(ValueError, match="expected"):
            noise.apply(np.zeros((1, 2, len(specs))), specs)
