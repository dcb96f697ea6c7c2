"""Least squares line fitting with a slope uncertainty estimate.

`fit_lines` fits a stack of curves at once from centred sums; `fit_line` is
its one-curve case.  Every sum runs along its own row, so a curve gets the
same bits in a stack as alone.
"""

from __future__ import annotations

import numpy as np


def fit_lines(xs, ys):
    """Fit ``y = slope * x + intercept`` to each row of a ``(curves,
    points)`` stack, returning three ``(curves,)`` arrays (slope, intercept,
    se).

    ``xs`` is one row of abscissae shared by every curve, or a stack of the
    shape of ``ys``.  The slope is ``Sxy / Sxx`` over the deviations from
    the row means and ``se`` its standard error from the residuals; ``se``
    is 0 when there are two points, so confidence intervals collapse rather
    than blow up on degenerate fits.

    >>> xs = [0.0, 1.0, 2.0, 3.0]
    >>> fit_lines(xs, [[-1.0, 1.5, 4.0, 6.5]])
    (array([2.5]), array([-1.]), array([0.]))
    """
    ys = np.ascontiguousarray(ys, dtype=float)
    if ys.ndim != 2:
        raise ValueError(f"need a (curves, points) stack, got shape {ys.shape}")
    xs = np.ascontiguousarray(np.broadcast_to(np.asarray(xs, dtype=float), ys.shape))
    count = ys.shape[1]
    if count < 2:
        raise ValueError("need at least two points to fit a line")
    x_mean = np.sum(xs, axis=1) / count
    y_mean = np.sum(ys, axis=1) / count
    dx = xs - x_mean[:, None]
    dy = ys - y_mean[:, None]
    sxx = np.sum(dx * dx, axis=1)
    slope = np.sum(dx * dy, axis=1) / sxx
    intercept = y_mean - slope * x_mean
    if count == 2:
        return slope, intercept, np.zeros_like(slope)
    resid = dy - slope[:, None] * dx
    se = np.sqrt(np.sum(resid * resid, axis=1) / (count - 2) / sxx)
    return slope, intercept, se


def fit_line(xs, ys):
    """Fit ``y = slope * x + intercept``, returning (slope, intercept, se) as
    floats: `fit_lines` on one curve."""
    slope, intercept, se = fit_lines(xs, np.asarray(ys, dtype=float)[None])
    return float(slope[0]), float(intercept[0]), float(se[0])
