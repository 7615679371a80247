"""Tests for the ECDF utility."""

import numpy as np
import pytest

from repro.core.ecdf import Ecdf


class TestEcdf:
    def test_basic_evaluation(self):
        ecdf = Ecdf([1, 2, 3, 4])
        assert ecdf(0) == 0.0
        assert ecdf(1) == 0.25
        assert ecdf(2.5) == 0.5
        assert ecdf(4) == 1.0
        assert ecdf(100) == 1.0

    def test_duplicates(self):
        ecdf = Ecdf([1, 1, 1, 5])
        assert ecdf(1) == 0.75

    def test_survival(self):
        ecdf = Ecdf([1, 2, 3, 4])
        assert ecdf.survival(2) == pytest.approx(0.5)

    def test_quantiles(self):
        ecdf = Ecdf(range(1, 101))
        assert ecdf.quantile(0.5) == 50
        assert ecdf.quantile(0.0) == 1
        assert ecdf.quantile(1.0) == 100

    def test_median_property(self):
        assert Ecdf([3, 1, 2]).median == 2

    def test_quantile_out_of_range(self):
        with pytest.raises(ValueError):
            Ecdf([1]).quantile(1.5)

    def test_empty(self):
        ecdf = Ecdf([])
        assert ecdf(5) == 0.0
        with pytest.raises(ValueError):
            ecdf.quantile(0.5)

    def test_numpy_input(self):
        assert Ecdf(np.array([1.0, 2.0]))(1.5) == 0.5
