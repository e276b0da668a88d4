"""Tests for OLS fitting."""

from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.regression import fit_linear


def reference_fit(x, y):
    """The original ``fit_linear`` arithmetic, kept literally as an oracle.

    Returns ``(slope, intercept, r_squared, residual_std)``, or None where
    the original raised (degenerate x).
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    x_mean = xa.mean()
    y_mean = ya.mean()
    sxx = float(np.sum((xa - x_mean) ** 2))
    if sxx == 0.0:
        return None
    sxy = float(np.sum((xa - x_mean) * (ya - y_mean)))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    residuals = ya - (slope * xa + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((ya - y_mean) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    dof = max(len(xa) - 2, 1)
    residual_std = float(np.sqrt(ss_res / dof))
    return slope, intercept, r_squared, residual_std


_finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
_points = st.lists(st.tuples(_finite, _finite), min_size=2, max_size=300)


class TestFitLinear:
    def test_exact_line_recovered(self):
        fit = fit_linear([1, 2, 3, 4], [5, 7, 9, 11])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.residual_std == pytest.approx(0.0, abs=1e-9)

    def test_table2_stage_recovered_from_samples(self):
        # Stage 4 of Table II: a=3.35, b=0.53.
        x = np.arange(1.0, 10.0)
        y = 3.35 * x + 0.53
        fit = fit_linear(x, y)
        assert fit.slope == pytest.approx(3.35)
        assert fit.intercept == pytest.approx(0.53)

    def test_noisy_fit_close_and_r2_below_one(self):
        rng = np.random.default_rng(0)
        x = np.linspace(1, 9, 40)
        y = 2.0 * x + 1.0 + rng.normal(0, 0.1, size=40)
        fit = fit_linear(x, y)
        assert fit.slope == pytest.approx(2.0, abs=0.05)
        assert fit.intercept == pytest.approx(1.0, abs=0.3)
        assert 0.99 < fit.r_squared < 1.0
        assert fit.residual_std == pytest.approx(0.1, abs=0.05)

    def test_predict_and_call(self):
        fit = fit_linear([0, 1], [1, 3])
        assert fit(2.0) == pytest.approx(5.0)
        assert np.allclose(fit.predict(np.array([0.0, 2.0])), [1.0, 5.0])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_linear([1], [1])

    def test_degenerate_x_rejected(self):
        with pytest.raises(ValueError):
            fit_linear([2, 2, 2], [1, 2, 3])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            fit_linear([1, 2, 3], [1, 2])

    def test_constant_y_gives_unit_r2(self):
        fit = fit_linear([1, 2, 3], [5, 5, 5])
        assert fit.slope == pytest.approx(0.0)
        assert fit.r_squared == 1.0


class TestFitLinearMatchesReference:
    @given(points=_points)
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_the_reference_formula(self, points):
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        expected = reference_fit(xs, ys)
        if expected is None:
            with pytest.raises(ValueError):
                fit_linear(xs, ys)
            return
        fit = fit_linear(xs, ys)
        # == on raw floats (NaN-free inputs): the lean arithmetic must not
        # move a single bit.
        assert (fit.slope, fit.intercept, fit.r_squared, fit.residual_std) == (
            expected
        )
        # The intercept keeps its numpy scalar type, so reprs match too.
        assert type(fit.intercept) is type(expected[1])

    @given(points=_points)
    @settings(max_examples=50, deadline=None)
    def test_array_columns_fit_like_lists(self, points):
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        if reference_fit(xs, ys) is None:
            return
        assert fit_linear(array("d", xs), array("d", ys)) == fit_linear(xs, ys)

