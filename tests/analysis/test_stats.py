"""Tests for summary statistics and cross-run aggregation."""

import math

import pytest

from repro.analysis.stats import aggregate_runs, summarize


class TestSummarize:
    def test_basic_summary(self):
        s = summarize([2.0, 4.0, 6.0])
        assert s.mean == pytest.approx(4.0)
        assert s.std == pytest.approx(2.0)
        assert s.n == 3
        assert s.minimum == 2.0 and s.maximum == 6.0

    def test_error_bars_are_one_sigma(self):
        # The paper's error bar is one sample standard deviation (ddof=1).
        s = summarize([1.0, 3.0])
        assert s.std == pytest.approx(math.sqrt(2.0))

    def test_single_value_has_zero_std(self):
        s = summarize([5.0])
        assert s.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_str_format(self):
        assert "n=2" in str(summarize([1.0, 2.0]))


class TestAggregateRuns:
    def test_paper_convention_ten_repetitions(self):
        runs = [{"profit": float(i)} for i in range(10)]
        agg = aggregate_runs(runs)
        assert agg["profit"].n == 10
        assert agg["profit"].mean == pytest.approx(4.5)

    def test_multiple_metrics(self):
        runs = [
            {"profit": 1.0, "latency": 10.0},
            {"profit": 3.0, "latency": 30.0},
        ]
        agg = aggregate_runs(runs)
        assert set(agg) == {"profit", "latency"}
        assert agg["latency"].mean == 20.0

    def test_mismatched_metrics_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([{"a": 1.0}, {"b": 2.0}])

    def test_no_runs_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])

