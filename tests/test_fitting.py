"""Least-squares slope fits used by the scan verdicts and the flow rates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repdyn.fitting import fit_line, fit_lines

from conftest import exact_line_fit


def test_exact_line_recovered():
    xs = np.arange(1, 8, dtype=float)
    slope, intercept, se = fit_line(xs, 2.5 * xs - 1.0)
    assert slope == pytest.approx(2.5, abs=1e-12)
    assert intercept == pytest.approx(-1.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-10)

def test_two_points_have_zero_se():
    slope, intercept, se = fit_line([0.0, 1.0], [1.0, 3.0])
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(1.0)
    assert se == 0.0

def test_noise_gives_positive_se():
    rng = np.random.default_rng(0)
    xs = np.arange(20, dtype=float)
    ys = 0.7 * xs + rng.normal(scale=0.1, size=xs.size)
    slope, _, se = fit_line(xs, ys)
    assert se > 0.0
    assert abs(slope - 0.7) < 5.0 * se

def test_single_point_rejected():
    with pytest.raises(ValueError):
        fit_line([1.0], [1.0])
    with pytest.raises(ValueError):
        fit_lines([1.0, 2.0], [1.0, 2.0])  # one curve is a (1, points) stack


@pytest.mark.parametrize("points", [2, 3, 8, 13, 27, 41])
def test_fits_against_exact_least_squares(points):
    # rate-like curves: running sums of noisy steps, fitted on a late window
    rng = np.random.default_rng(points)
    xs = np.arange(7, 7 + points)
    ys = np.cumsum(0.6 + 0.1 * rng.standard_normal((40, points)), axis=1)
    ys[:20] -= 3.0 * xs  # falling curves too
    slope, intercept, _ = fit_lines(xs, ys)
    for row in range(len(ys)):
        exact_slope, exact_intercept = exact_line_fit(xs, ys[row])
        assert slope[row] == pytest.approx(float(exact_slope), rel=1e-14, abs=0)
        assert intercept[row] == pytest.approx(float(exact_intercept), rel=1e-14, abs=0)


def test_shared_and_stacked_abscissae_agree():
    rng = np.random.default_rng(4)
    xs = np.arange(3.0, 15.0)
    ys = rng.standard_normal((5, xs.size))
    shared = fit_lines(xs, ys)
    stacked = fit_lines(np.tile(xs, (5, 1)), ys)
    for a, b in zip(shared, stacked):
        assert np.array_equal(a, b)


@settings(max_examples=100, deadline=None)
@given(
    curves=st.integers(1, 30),
    points=st.integers(2, 50),
    data=st.data(),
)
def test_rows_are_the_one_row_calls(curves, points, data):
    # any stack size: each row gets the bits that `fit_line` gives it alone
    ys = data.draw(arrays(float, (curves, points), elements=st.floats(-1e6, 1e6)))
    start = data.draw(st.integers(-100, 100))
    xs = np.arange(start, start + points)
    got = fit_lines(xs, ys)
    for row in range(curves):
        alone = fit_line(xs, ys[row])
        assert tuple(float(g[row]) for g in got) == alone
