"""Joint spectrum sampling and the zero-index structure of its cone.

For a generator set S the cloud of normalized Jordan vectors
``(1/m) * log-eigenvalue-moduli of products of m letters`` converges to a
compact convex body as m grows; its cone over the origin organizes the
asymptotic spectral data of the whole group.  `sample_cone` collects the
clouds for m = 1..m_max, reports the convex hull at the deepest level and a
Hausdorff-distance convergence proxy between the last two clouds, read on
their distinct rows.

Each level m is one columnar :class:`ConeLevel`: the words as an ``(N, m)``
letter array and their normalized Jordan and Cartan vectors, zero
tolerances and zero masks as arrays with one row per word, taken straight
from the stacked sphere engine.  The checks below read those arrays
whole and build a `Word` only for a row they report.

`containment_check` reads each level's zero masks, the coordinates of each
Jordan vector that vanish up to tolerance, and tests whether those indices
stay inside the neutral window {k+1, ..., n-k} across every nonzero sample,
the spectral shadow of a partially hyperbolic splitting with index k.
`involution_symmetry_check` verifies the cloud is symmetric under
negate-and-reverse, the spectral image of g -> g^-1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import words
from .errors import NumericOverflowError
from .linalg import _fold_columns

# default zero tolerance is this times max(1, sup-norm of the sample)
DEFAULT_ZERO_TOL_COEFF = 1e-6

# relative singular value threshold for the affine dimension of the cloud
_AFFINE_RANK_TOL = 1e-9

_INVOLUTION_TOL = 1e-8


def _zero_indices(mask):
    return tuple(int(i) + 1 for i in np.flatnonzero(mask))


@dataclass(frozen=True, eq=False)
class ConeLevel:
    """The normalized spectral samples of all length-m words, one row each.

    ``letters`` is ``(N, m)``, ``jordan`` and ``cartan`` are ``(N, n)``,
    ``zero`` is the ``(N, n)`` mask of the zero Jordan coordinates and
    ``inverse`` the ``(N,)`` row of each word's inverse, -1 where the level
    lacks it.  The arrays are read-only.
    """

    letters: np.ndarray
    jordan: np.ndarray
    cartan: np.ndarray
    zero: np.ndarray
    inverse: np.ndarray

    def __post_init__(self):
        for field in ("letters", "jordan", "cartan", "zero", "inverse"):
            getattr(self, field).flags.writeable = False

    @property
    def length(self) -> int:
        return self.letters.shape[1]

    def __len__(self):
        return self.letters.shape[0]

    def word(self, row) -> words.Word:
        return words.Word(self.letters[row].tolist())

    def zero_mask(self, tol=None) -> np.ndarray:
        """The zero mask at ``tol``, ``|jordan| <= tol``, or ``zero`` without one."""
        return self.zero if tol is None else np.abs(self.jordan) <= tol


@dataclass
class ConeEstimate:
    """Sampled joint spectrum clouds plus hull and convergence data."""

    gens: object
    levels: dict[int, ConeLevel]
    m_max: int
    m_used: int
    truncated: bool
    hull_vertices: np.ndarray
    hull_affine_dim: int
    hausdorff: float
    exhaustive: bool

    @property
    def n(self) -> int:
        return self.gens.dim


def _hull_of_cloud(cloud):
    """Convex hull vertices of a point cloud, robust to flat geometry.

    Returns (vertices, affine_dim).  The affine dimension is detected with a
    centered SVD and the hull is computed inside that affine span, since the
    hull solver rejects inputs that are degenerate in ambient coordinates.
    """
    center = cloud.mean(axis=0)
    x = cloud - center
    _, sing, vt = np.linalg.svd(x, full_matrices=False)
    scale = max(1.0, float(sing[0]))
    adim = int(np.sum(sing > _AFFINE_RANK_TOL * scale))
    if adim == 0:
        return cloud[:1].copy(), 0
    coords = x @ vt[:adim].T
    if adim == 1:
        lo = int(np.argmin(coords[:, 0]))
        hi = int(np.argmax(coords[:, 0]))
        return cloud[[lo, hi]].copy(), 1
    # imported here: scipy.spatial is slow to import and few commands need it
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(coords)
    except QhullError:
        hull = ConvexHull(coords, qhull_options="QJ")
    return cloud[np.sort(hull.vertices)].copy(), adim


def _distinct_rows(cloud):
    """The rows of a float cloud with repeats dropped, told apart by their
    bits: one lexsort of the bits puts equal rows next to each other."""
    bits = np.ascontiguousarray(cloud).view(np.int64)
    order = np.lexsort(bits.T)
    bits = bits.take(order, axis=0)
    first = np.ones(len(bits), dtype=bool)
    np.any(bits[1:] != bits[:-1], axis=1, out=first[1:])
    return cloud.take(order[first], axis=0)


def _hausdorff(a, b) -> float:
    """The Hausdorff distance between two point clouds, read on their
    distinct rows: a max of mins of the same per-pair distances, so it has
    the bits of the full clouds' value at a fraction of the pairs."""
    # imported here: scipy.spatial is slow to import and few commands need it
    from scipy.spatial.distance import directed_hausdorff

    a, b = _distinct_rows(a), _distinct_rows(b)
    return max(directed_hausdorff(a, b)[0], directed_hausdorff(b, a)[0])


def sample_cone(gens, m_max: int, policy=words.Exhaustive()) -> ConeEstimate:
    """Collect normalized Jordan (and Cartan) samples for m = 1..m_max.

    Every level keeps both projections so eigenvalue and singular value
    readings can be compared downstream.  A sampled policy is read closed
    under inversion so involution symmetry stays structural.  A Jordan
    coordinate is zero when its modulus is at most DEFAULT_ZERO_TOL_COEFF
    times max(1, sup-norm of its vector).  A product overflowing float64
    truncates the sweep at the last complete level, flagged in the
    estimate; ``m_max`` must be at least 2.
    """
    if m_max < 2:
        raise ValueError("m_max must be at least 2")

    def level(sphere):
        m = sphere.letters.shape[1]
        jordan = sphere.log_eigenvalue_moduli() / m
        if not np.isfinite(jordan).all():
            raise NumericOverflowError("eigenvalue modulus left float64 range")
        cartan = sphere.log_singular_values() / m
        top = _fold_columns(np.maximum, np.abs(jordan))
        tols = DEFAULT_ZERO_TOL_COEFF * np.maximum(1.0, top)
        return ConeLevel(sphere.letters, jordan, cartan,
                         np.abs(jordan) <= tols[:, None], sphere.inverse)

    if isinstance(policy, words.Sampled):
        policy = replace(policy, inversion_closed=True)
    levels = words.map_sphere_products(gens, m_max, level, policy)
    if not levels:  # a level-1 statistic can leave float64 range
        raise NumericOverflowError("no complete sample level before overflow")
    m_used = len(levels)
    levels = dict(enumerate(levels, start=1))

    cloud = levels[m_used].jordan
    vertices, adim = _hull_of_cloud(cloud)
    if m_used >= 2:
        hausdorff = _hausdorff(cloud, levels[m_used - 1].jordan)
    else:
        hausdorff = float("nan")

    return ConeEstimate(
        gens=gens,
        levels=levels,
        m_max=m_max,
        m_used=m_used,
        truncated=m_used < m_max,
        hull_vertices=vertices,
        hull_affine_dim=adim,
        hausdorff=float(hausdorff),
        exhaustive=isinstance(policy, words.Exhaustive),
    )


@dataclass
class ContainmentReport:
    """Outcome of `containment_check`."""

    passed: bool
    reason: str
    k: int
    n: int
    window: tuple[int, ...]
    violations: list
    C_hat: float
    n_samples: int
    n_zero: int
    n_empty: int
    tol: Optional[float]


def _row_norms(x):
    """Euclidean norm of each row, bit for bit ``np.linalg.norm`` of that row.

    ``np.linalg.norm(x, axis=1)`` rounds differently; a stacked row dot
    takes the same dot product as the 1-D norm.
    """
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def neutral_window(k: int, n: int) -> tuple[int, ...]:
    """The 1-based neutral window {k+1, ..., n-k}; raises for k outside 1..n//2."""
    if not 1 <= k <= n // 2:
        raise ValueError(f"k must satisfy 1 <= k <= {n // 2} for dimension {n}")
    return tuple(range(k + 1, n - k + 1))


def containment_check(cone: ConeEstimate, k: int, tol=None) -> ContainmentReport:
    """Do the zero indices of every nonzero sample stay in {k+1..n-k}?

    A sample is "zero" when all its coordinates vanish within tolerance;
    such samples are exempt (they are the cone tip).  With ``tol=None`` each
    sample's own scale-aware tolerance is used; an explicit ``tol`` must be
    finite and nonnegative.  ``C_hat`` is the smallest
    unit-normalized gap ``v_k - v_(k+1)`` over nonzero samples, the
    empirical margin separating the expanding block from the rest.  The
    window is empty when ``2k = n``; that is an automatic fail (no neutral
    block can exist), reported with reason "empty window".  A pass also
    needs ``C_hat > 0``: with no positive margin, or no nonzero sample at
    all (``C_hat`` NaN), the check fails with reason "no k-gap".
    """
    n = cone.n
    window = neutral_window(k, n)
    if tol is not None and not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    outside = np.ones(n, dtype=bool)
    outside[k : n - k] = False

    violations = []
    C_hat = float("inf")
    n_samples = n_zero = n_empty = 0
    for m, level in sorted(cone.levels.items()):
        zero = level.zero_mask(tol)
        count = _fold_columns(np.add, zero)
        nonzero = count < n
        n_samples += len(level)
        n_zero += int(np.count_nonzero(~nonzero))
        n_empty += int(np.count_nonzero(count == 0))
        escaped = _fold_columns(np.logical_or, zero & outside)
        for row in np.flatnonzero(nonzero & escaped):
            violations.append((m, level.word(row), _zero_indices(zero[row])))
        jv = level.jordan[nonzero]
        # fmin skips NaN gaps, as a running Python min does
        gaps = (jv[:, k - 1] - jv[:, k]) / _row_norms(jv)
        C_hat = float(np.fmin.reduce(gaps, initial=C_hat))

    if not np.isfinite(C_hat):
        C_hat = float("nan")
    if not window:
        passed, reason = False, "empty window"
    elif violations:
        passed, reason = False, "zero-index escape"
    elif not C_hat > 0.0:
        passed, reason = False, "no k-gap"
    else:
        passed, reason = True, ""
    return ContainmentReport(
        passed=passed,
        reason=reason,
        k=k,
        n=n,
        window=window,
        violations=violations,
        C_hat=C_hat,
        n_samples=n_samples,
        n_zero=n_zero,
        n_empty=n_empty,
        tol=tol,
    )


@dataclass
class InvolutionReport:
    """Outcome of `involution_symmetry_check`."""

    passed: bool
    max_deviation: float
    mismatches: list
    tol: float


def involution_symmetry_check(cone: ConeEstimate,
                              tol=_INVOLUTION_TOL) -> InvolutionReport:
    """Check each sample against its inverse word's sample.

    The sample of ``w^-1`` must equal the negated reversal of the sample of
    ``w`` (both Jordan and Cartan parts); each level pairs its rows through
    ``ConeLevel.inverse``.  Unpaired words are reported as mismatches too;
    exhaustive and inversion-closed sampled sweeps pair completely by
    construction.
    """
    mismatches = []
    worst = 0.0
    for m, level in sorted(cone.levels.items()):
        partner = level.inverse
        paired = partner >= 0
        jordan = _fold_columns(np.maximum, np.abs(
            -level.jordan[:, ::-1] - level.jordan.take(partner, axis=0)))
        cartan = _fold_columns(np.maximum, np.abs(
            -level.cartan[:, ::-1] - level.cartan.take(partner, axis=0)))
        # Python's max(jordan, cartan): the first argument unless the second is larger
        dev = np.where(paired, np.where(cartan > jordan, cartan, jordan), np.nan)
        worst = float(np.fmax.reduce(dev, initial=worst))
        for row in np.flatnonzero(~paired | (dev > tol)):
            mismatches.append((m, level.word(row), float(dev[row])))
    return InvolutionReport(
        passed=not mismatches, max_deviation=worst, mismatches=mismatches, tol=tol
    )
