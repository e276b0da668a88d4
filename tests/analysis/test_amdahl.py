"""Tests for the Amdahl threading model."""

import numpy as np
import pytest

from repro.analysis.amdahl import amdahl_time, fit_parallel_fraction


class TestAmdahlTime:
    def test_single_thread_is_identity(self):
        assert amdahl_time(100.0, 1, 0.9) == pytest.approx(100.0)

    def test_paper_formula(self):
        # T(t, d) = c E / t + (1 - c) E with the paper's stage-5 c=0.91.
        e, c, t = 23.01, 0.91, 8
        expected = c * e / t + (1 - c) * e
        assert amdahl_time(e, t, c) == pytest.approx(expected)

    def test_fully_serial_never_speeds_up(self):
        assert amdahl_time(50.0, 16, 0.0) == pytest.approx(50.0)

    def test_fully_parallel_scales_perfectly(self):
        assert amdahl_time(64.0, 16, 1.0) == pytest.approx(4.0)

    def test_monotone_nonincreasing_in_threads(self):
        times = [amdahl_time(100.0, t, 0.7) for t in range(1, 33)]
        assert all(a >= b for a, b in zip(times, times[1:]))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            amdahl_time(10.0, 0, 0.5)
        with pytest.raises(ValueError):
            amdahl_time(10.0, 2, 1.5)
        with pytest.raises(ValueError):
            amdahl_time(-1.0, 2, 0.5)


class TestFitParallelFraction:
    @pytest.mark.parametrize("c_true", [0.02, 0.25, 0.69, 0.89, 0.97])
    def test_recovers_known_fraction(self, c_true):
        threads = [1, 2, 4, 8, 16]
        times = [amdahl_time(120.0, t, c_true) for t in threads]
        assert fit_parallel_fraction(threads, times) == pytest.approx(
            c_true, abs=1e-9
        )

    def test_noisy_recovery_close(self):
        rng = np.random.default_rng(2)
        threads = [1, 1, 2, 2, 4, 4, 8, 8, 16, 16]
        times = [
            amdahl_time(100.0, t, 0.8) * (1 + rng.normal(0, 0.02))
            for t in threads
        ]
        assert fit_parallel_fraction(threads, times) == pytest.approx(0.8, abs=0.05)

    def test_result_clipped_to_physical_range(self):
        # Superlinear data would imply c > 1; must clip.
        c = fit_parallel_fraction([1, 2, 4], [100.0, 40.0, 10.0])
        assert 0.0 <= c <= 1.0

    def test_identical_thread_counts_rejected(self):
        with pytest.raises(ValueError):
            fit_parallel_fraction([4, 4, 4], [10.0, 10.0, 10.0])

