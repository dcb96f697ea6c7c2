"""Shared fixtures: the generator sets exercised throughout the suite,
Sym^m of 2x2 matrices, the per-vertex flow metric reference, and the exact
oracles of the one-column kernels, the n = 3 singular frames and the line
fit."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import settings
from scipy.linalg import expm

from repdyn.domination import GeneratorSet
from repdyn.errors import NumericOverflowError
from repdyn.words import Word, letter_rank

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


def sym_power(a, m: int) -> np.ndarray:
    """Sym^m of a 2x2 matrix, in the weighted orthonormal basis whose j-th
    vector is ``sqrt(binom(m, j)) e1^(m - j) e2^j``, so that Sym^m of a
    rotation is orthogonal.

    Column j expands ``(a e1 + c e2)^(m - j) (b e1 + d e2)^j``, ``[[a, b],
    [c, d]]`` being the matrix, with k of its e2 factors from the first
    power.  For m = 2 this spells ``[[a², √2ab, b²], [√2ac, ad + bc, √2bd],
    [c², √2cd, d²]]`` entry for entry.
    """
    (pa, pb), (pc, pd) = np.asarray(a, dtype=float).tolist()
    out = np.zeros((m + 1, m + 1))
    for i in range(m + 1):
        for j in range(m + 1):
            weight = math.sqrt(math.comb(m, j) / math.comb(m, i))
            for k in range(max(0, i - j), min(m - j, i) + 1):
                factors = ([pa] * (m - j - k) + [pc] * k + [pb] * (j - i + k)
                           + [pd] * (i - k))
                out[i, j] += math.prod(
                    factors, start=math.comb(m - j, k) * math.comb(j, i - k) * weight)
    return out


@pytest.fixture(scope="session")
def sym2_ping_pong():
    """Sym² of the ping-pong pair: an SO(2,1) Schottky pair whose every
    word has eigenvalues mu², 1 and mu⁻²."""
    return GeneratorSet([sym_power(m, 2) for m in ping_pong_matrices()], names=["A", "B"])


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


def unipotent_so21() -> np.ndarray:
    """``expm`` of a nilpotent element of so(2,1) for Q = antidiag(1, 1, 1):
    every eigenvalue is 1."""
    return expm(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, -1.0], [0.0, 0.0, 0.0]]))


@pytest.fixture(scope="session")
def form_preserving_affine():
    """The linear part of an affine action by the form-preserving matrix."""
    return GeneratorSet([form_preserving_matrix()], names=["h"])


# closed-form moments of 2**-u on [0, 1], spelled as the library spells them
_MOMENT_1 = (1.0 - LOG2) / (2.0 * LOG2**2)
_MOMENT_0 = 1.0 / (2.0 * LOG2) - _MOMENT_1


def tree_distance(v, w) -> int:
    """Graph distance between two vertices (`Word` objects) of the Cayley
    tree: the lengths less twice the common prefix."""
    a, b = v.letters, w.letters
    common = 0
    for x, y in zip(a, b):
        if x != y:
            break
        common += 1
    return len(a) + len(b) - 2 * common


def shortlex_rank(letters, rank: int) -> np.ndarray:
    """Row of each word of an ``(N, L)`` letter array in the shortlex
    ordered exhaustive sphere, read off its letters: digit j counts the
    letters allowed before letter j, and weighs ``(2 rank - 1)**(L - 1 - j)``."""
    positions = letter_rank(np.asarray(letters))
    digits = positions.astype(np.int64)
    digits[:, 1:] -= positions[:, 1:] > (positions[:, :-1] ^ 1)
    weights = (2 * rank - 1) ** np.arange(positions.shape[1] - 1, -1, -1, dtype=np.int64)
    return digits @ weights


def is_class_representative(w) -> bool:
    """Is the `Word` ``w`` cyclically reduced and shortlex-least among its
    rotations, the one word of its conjugacy class that class functions read?"""
    letters = w.letters
    return w.is_cyclically_reduced and all(
        w <= Word(letters[k:] + letters[:k]) for k in range(1, len(letters)))


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


# ---------------------------------------------------------------------------
# exact oracles: 60-digit mpmath for one-column angles and lengths, exact
# rationals for least squares lines


def mpmath_column_angle(a, b) -> float:
    """The angle in [0, pi/2] between the lines spanned by two float
    vectors, from 60-digit arithmetic on their exact values."""
    with mpmath.workdps(60):
        a = [mpmath.mpf(float(x)) for x in np.ravel(a)]
        b = [mpmath.mpf(float(x)) for x in np.ravel(b)]
        dot = mpmath.fsum(x * y for x, y in zip(a, b))
        aa = mpmath.fsum(x * x for x in a)
        rejection = [y - x * dot / aa for x, y in zip(a, b)]
        sine = mpmath.sqrt(mpmath.fsum(r * r for r in rejection))
        return float(mpmath.atan2(sine, abs(dot) / mpmath.sqrt(aa)))


def mpmath_log_length(v) -> float:
    """``log |v|`` of a float vector, from 60-digit arithmetic."""
    with mpmath.workdps(60):
        return float(mpmath.log(mpmath.sqrt(mpmath.fsum(
            mpmath.mpf(float(x)) ** 2 for x in np.ravel(v)))))


def mpmath_svd(m):
    """``(s, vt)`` of a float matrix from 60-digit arithmetic on its exact
    entries: the singular values, largest first, and the right singular
    vectors as the rows of ``vt``, all as mpf."""
    with mpmath.workdps(60):
        _, s, v = mpmath.svd_r(mpmath.matrix(np.asarray(m, dtype=float).tolist()))
        order = sorted(range(len(s)), key=lambda i: -s[i])
        return [s[i] for i in order], [[v[i, j] for j in range(v.cols)] for i in order]


def mpmath_frame_errors(m, s, vt):
    """``(angles, gaps, deviations, top)`` of the float singular values
    ``s`` and right singular vectors ``vt`` (as rows) of ``m`` against
    `mpmath_svd`: the angle of each row from its exact vector, up to sign;
    the distance of each exact singular value to the nearest other;
    ``|s_i - S_i|``; and the exact ``S_1``, all as floats."""
    exact_s, exact_vt = mpmath_svd(m)
    with mpmath.workdps(60):
        angles = []
        for row, exact in zip(vt, exact_vt):
            row = [mpmath.mpf(float(x)) for x in row]
            dot = abs(mpmath.fsum(x * y for x, y in zip(row, exact)))
            length = mpmath.sqrt(mpmath.fsum(x * x for x in row))
            sine = mpmath.sqrt(abs(length**2 - dot**2))
            angles.append(float(mpmath.atan2(sine, dot)))
        n = len(exact_s)
        gaps = [float(min(abs(exact_s[i] - exact_s[j]) for j in range(n) if j != i))
                for i in range(n)]
        deviations = [float(abs(mpmath.mpf(float(x)) - y)) for x, y in zip(s, exact_s)]
        return angles, gaps, deviations, float(exact_s[0])


def exact_line_fit(xs, ys):
    """``(slope, intercept)`` of the least squares line through float points,
    in exact rationals."""
    xs = [Fraction(float(x)) for x in xs]
    ys = [Fraction(float(y)) for y in ys]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - x_mean) ** 2 for x in xs)
    slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sxx
    return slope, y_mean - slope * x_mean


def collect(spheres):
    """The spheres an iterator yields, and whether an overflow stopped it."""
    out = []
    try:
        for sphere in spheres:
            out.append(sphere)
    except NumericOverflowError:
        return out, True
    return out, False
