"""Shared fixtures: the generator sets exercised throughout the suite,
and the per-vertex flow metric reference."""

import numpy as np
import pytest
from hypothesis import settings
from scipy.linalg import expm

from repdyn.affine import AffineGeneratorSet, AffineMap
from repdyn.domination import GeneratorSet
from repdyn.words import tree_distance

LOG2 = np.log(2.0)

# `--hypothesis-profile=ci` draws the same examples on every run and prints
# the blob that replays a failure, so a CI failure reproduces locally
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)


def rotation2(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def ping_pong_matrices():
    """a = diag(4, 1/4) and its conjugate by a quarter-turn rotation."""
    a = np.diag([4.0, 0.25])
    r = rotation2(np.pi / 4)
    return a, r @ a @ r.T


@pytest.fixture(scope="session")
def ping_pong():
    a, b = ping_pong_matrices()
    return GeneratorSet([a, b], names=["a", "b"])


@pytest.fixture(scope="session")
def ping_pong_padded():
    """The same pair padded with a trivial 1x1 block to dimension 3."""
    out = []
    for m in ping_pong_matrices():
        p = np.eye(3)
        p[:2, :2] = m
        out.append(p)
    return GeneratorSet(out, names=["a", "b"])


def rotation3(theta_xy: float, theta_yz: float) -> np.ndarray:
    rxy = np.eye(3)
    rxy[:2, :2] = rotation2(theta_xy)
    ryz = np.eye(3)
    ryz[1:, 1:] = rotation2(theta_yz)
    return rxy @ ryz


def partial_hyperbolic_matrices():
    """diag(2, 1, 1/2) and its conjugate by a fixed rotation."""
    g = np.diag([2.0, 1.0, 0.5])
    r = rotation3(0.6, 0.7)
    return g, r @ g @ r.T


@pytest.fixture(scope="session")
def ph_diagonal():
    g, _ = partial_hyperbolic_matrices()
    return GeneratorSet([g], names=["g"])


@pytest.fixture(scope="session")
def ph_conjugate():
    _, h = partial_hyperbolic_matrices()
    return GeneratorSet([h], names=["h"])


@pytest.fixture(scope="session")
def partial_hyperbolic_pair():
    g, h = partial_hyperbolic_matrices()
    return GeneratorSet([g, h], names=["g", "h"])


def form_preserving_matrix() -> np.ndarray:
    """An element of the orthogonal group of Q = antidiag(1, 1, 1).

    ``x`` below satisfies ``x^T Q + Q x = 0`` exactly, so ``expm(0.3 x)``
    preserves Q; in odd dimension every such element has eigenvalue 1 and
    middle singular value 1 exactly.
    """
    x = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    return expm(0.3 * x)


@pytest.fixture(scope="session")
def form_preserving_affine():
    h = form_preserving_matrix()
    maps = [AffineMap(h, np.array([0.3, -0.5, 0.1]))]
    return AffineGeneratorSet(maps, names=["h"])


# closed-form moments of 2**-u on [0, 1], spelled as the library spells them
_MOMENT_1 = (1.0 - LOG2) / (2.0 * LOG2**2)
_MOMENT_0 = 1.0 / (2.0 * LOG2) - _MOMENT_1


def reference_distances(g, h, half_width):
    """Distances of one pair at times -T .. T, one `Word` vertex pair each."""
    return [tree_distance(g.vertex(t), h.vertex(t))
            for t in range(-half_width, half_width + 1)]


def reference_flow_metric(g, h, half_width):
    """The weighted sum of one pair, from per-vertex distances and 1-D sums."""
    d = np.array(reference_distances(g, h, half_width), dtype=float)
    weights = 2.0 ** (-np.arange(half_width, dtype=float))
    c = half_width
    forward = np.sum(weights * (d[c : c + half_width] * _MOMENT_0
                                + d[c + 1 : c + half_width + 1] * _MOMENT_1))
    backward = np.sum(weights * (d[c : c - half_width : -1] * _MOMENT_0
                                 + d[c - 1 :: -1] * _MOMENT_1))
    return float(forward + backward)
