"""Tests for argument validation helpers."""

import numpy as np
import pytest

from repro.utils import check_finite, check_positive, check_probability, check_shape


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("x", 1.5)

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0)

    def test_accepts_zero_when_not_strict(self):
        check_positive("x", 0, strict=False)

    def test_rejects_negative_when_not_strict(self):
        with pytest.raises(ValueError):
            check_positive("x", -1, strict=False)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_positive("x", float("nan"))


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        check_probability("p", value)

    @pytest.mark.parametrize("value", [-0.01, 1.01, 5.0])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError, match="p must be in"):
            check_probability("p", value)


class TestCheckFinite:
    def test_accepts_finite(self):
        check_finite("a", np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            check_finite("a", np.asarray([1.0, bad]))


class TestCheckShape:
    def test_exact_match(self):
        check_shape("m", np.zeros((2, 3)), (2, 3))

    def test_wildcard_axis(self):
        check_shape("m", np.zeros((7, 3)), (None, 3))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="dimensions"):
            check_shape("m", np.zeros(4), (2, 2))

    def test_rejects_wrong_extent(self):
        with pytest.raises(ValueError, match="shape"):
            check_shape("m", np.zeros((2, 4)), (2, 3))
