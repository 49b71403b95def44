import numpy as np
import pytest
import scipy.special

from tfqkd.channel import i0m1

from oracles import i0_reference


def i0(x):
    """I0 as the channel model forms it from the series."""
    return 1.0 + i0m1(x)


def test_series_matches_defining_integral():
    for x in np.linspace(0.0, 5.0, 41):
        reference = i0_reference(float(x))
        assert i0(float(x)) == pytest.approx(reference, rel=1e-12)


def test_series_matches_scipy():
    for x in np.geomspace(1e-6, 10.0, 25):
        assert i0(float(x)) == pytest.approx(float(scipy.special.i0(x)), rel=1e-13)


def test_i0m1_keeps_precision_at_small_arguments():
    x = 1e-8
    assert i0m1(x) == pytest.approx(x * x / 4.0, rel=1e-10)
    assert i0m1(0.0) == 0.0


def test_even_in_argument():
    assert i0(-1.3) == i0(1.3)


def test_value_at_zero():
    assert i0(0.0) == 1.0
