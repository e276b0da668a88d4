"""Tests for the MaxQuant application model."""

from repro.apps.maxquant import build_maxquant_model


class TestModel:
    def test_model_shape(self):
        model = build_maxquant_model()
        assert model.n_stages == 3
        assert model.input_format.value == "mgf"
