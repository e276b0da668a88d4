"""Tests for job construction."""

import pytest

from repro.workload.arrivals import ArrivalBatch
from repro.workload.jobs import JobFactory


class TestJobFactory:
    def test_make_job_names_sequential(self, gatk_model):
        factory = JobFactory(gatk_model)
        a = factory.make_job(5.0, 0.0)
        b = factory.make_job(5.0, 1.0)
        assert a.name == "gatk-00001"
        assert b.name == "gatk-00002"
        assert factory.created == 2

    def test_from_batch(self, gatk_model):
        factory = JobFactory(gatk_model)
        batch = ArrivalBatch(time=12.0, sizes=(2.0, 3.0, 4.0))
        jobs = factory.from_batch(batch)
        assert [j.size for j in jobs] == [2.0, 3.0, 4.0]
        assert all(j.submit_time == 12.0 for j in jobs)

    def test_size_unit_mapping(self, gatk_model):
        factory = JobFactory(gatk_model, size_unit_gb=2.0)
        job = factory.make_job(5.0, 0.0)
        assert job.size == 5.0  # reward units unchanged
        assert job.input_gb == 10.0  # stage-model axis scaled

    def test_default_unit_is_identity(self, gatk_model):
        job = JobFactory(gatk_model).make_job(5.0, 0.0)
        assert job.input_gb == job.size

    def test_name_prefix(self, gatk_model):
        factory = JobFactory(gatk_model, name_prefix="exp")
        assert factory.make_job(1.0, 3.0).name.startswith("exp-")

    def test_bad_unit_rejected(self, gatk_model):
        with pytest.raises(ValueError):
            JobFactory(gatk_model, size_unit_gb=0.0)
