"""Joint spectrum sampling and the zero-index structure of its cone.

For a generator set S the cloud of normalized Jordan vectors
``(1/m) * log-eigenvalue-moduli of products of m letters`` converges to a
compact convex body as m grows; its cone over the origin organizes the
asymptotic spectral data of the whole group.  `sample_cone` collects the
clouds for m = 1..m_max, reports the convex hull at the deepest level and a
Hausdorff-distance convergence proxy between the last two clouds.

`zero_index_interval` lists the coordinates of a Jordan vector that vanish
up to tolerance; `containment_check` tests whether those indices stay inside
the neutral window {k+1, ..., n-k} across every nonzero sample, the spectral
shadow of a partially hyperbolic splitting with index k.
`involution_symmetry_check` verifies the cloud is symmetric under
negate-and-reverse, the spectral image of g -> g^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial.distance import directed_hausdorff

from . import words
from .errors import NumericOverflowError
from .linalg import SpectralVector

# default zero tolerance is this times max(1, sup-norm of the sample)
DEFAULT_ZERO_TOL_COEFF = 1e-6

# relative singular value threshold for the affine dimension of the cloud
_AFFINE_RANK_TOL = 1e-9

_INVOLUTION_TOL = 1e-8


def _zero_indices(values, tol):
    return tuple(int(i) + 1 for i in np.flatnonzero(np.abs(values) <= tol))


def _active_walls(values, tol):
    n = values.size
    walls = []
    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= tol:
                walls.append((i + 1, j + 1))
    return tuple(walls)


@dataclass(frozen=True, eq=False)
class ZeroIndexInterval:
    """1-based indices of a Jordan vector that vanish within tolerance."""

    indices: tuple[int, ...]
    is_consecutive: bool
    tol: float


def zero_index_interval(v: SpectralVector, tol: float) -> ZeroIndexInterval:
    """Indices i with ``|v_i| <= tol`` of a Jordan-kind spectral vector.

    Raises ``ValueError`` for a Cartan-kind vector: the zero-index structure
    is an eigenvalue notion and singular values would conflate it with
    transient geometry.
    """
    if v.kind != "jordan":
        raise ValueError("zero-index structure is defined for jordan vectors only")
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    idx = _zero_indices(v.values, tol)
    consecutive = not idx or idx == tuple(range(idx[0], idx[-1] + 1))
    return ZeroIndexInterval(indices=idx, is_consecutive=consecutive, tol=float(tol))


@dataclass(frozen=True, eq=False)
class ConeSample:
    """One normalized spectral sample of a length-m product."""

    length: int
    word: words.Word
    jordan: np.ndarray
    cartan: np.ndarray
    zero_indices: tuple[int, ...]
    active_walls: tuple[tuple[int, int], ...]
    zero_tol: float

    def __post_init__(self):
        for field in ("jordan", "cartan"):
            arr = np.asarray(getattr(self, field), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, field, arr)


@dataclass
class ConeEstimate:
    """Sampled joint spectrum clouds plus hull and convergence data."""

    gens: object
    samples: dict[int, list[ConeSample]]
    m_max: int
    m_used: int
    truncated: bool
    hull_vertices: np.ndarray
    hull_affine_dim: int
    hausdorff: float
    zero_tol_coeff: float
    exhaustive: bool

    @property
    def n(self) -> int:
        return self.gens.dim

    def iter_samples(self):
        for m in sorted(self.samples):
            yield from self.samples[m]


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
    try:
        hull = ConvexHull(coords)
    except QhullError:
        hull = ConvexHull(coords, qhull_options="QJ")
    return cloud[np.sort(hull.vertices)].copy(), adim


def sample_cone(gens, m_max: int, policy=words.Exhaustive(),
                zero_tol_coeff=DEFAULT_ZERO_TOL_COEFF) -> ConeEstimate:
    """Collect normalized Jordan (and Cartan) samples for m = 1..m_max.

    Every sample keeps both projections so eigenvalue and singular value
    readings can be compared downstream.  Sampled policies close each draw
    under word inversion so involution symmetry stays structural.  A product
    overflowing float64 truncates the sweep at the last complete level,
    flagged in the estimate; ``m_max`` must be at least 2.
    """
    if m_max < 2:
        raise ValueError("m_max must be at least 2")

    def level(letters, products):
        m = letters.shape[1]
        moduli = np.sort(np.abs(np.linalg.eigvals(products)), axis=1)
        # np.log runs libm on a reversed 1-D view; its 2-D SIMD loop rounds differently
        jordan = np.log(moduli.ravel()[::-1]).reshape(moduli.shape)[::-1] / m
        if not np.isfinite(jordan).all():
            raise NumericOverflowError("eigenvalue modulus left float64 range",
                                       prefix_length=m)
        cartan = np.log(np.linalg.svd(products, compute_uv=False)) / m
        tols = zero_tol_coeff * np.maximum(1.0, np.abs(jordan).max(axis=1))
        return [
            ConeSample(
                length=m,
                word=words.Word(w),
                jordan=jv,
                cartan=cv,
                zero_indices=_zero_indices(jv, tol),
                active_walls=_active_walls(jv, tol),
                zero_tol=float(tol),
            )
            for w, jv, cv, tol in zip(letters, jordan, cartan, tols)
        ]

    levels = words.map_sphere_products(gens, m_max, level, policy, inversion_closed=True)
    if not levels:
        raise NumericOverflowError(
            "no complete sample level before overflow", prefix_length=1
        )
    samples = dict(enumerate(levels, start=1))
    m_used = len(levels)

    cloud = np.array([s.jordan for s in samples[m_used]])
    vertices, adim = _hull_of_cloud(cloud)
    if m_used >= 2:
        prev = np.array([s.jordan for s in samples[m_used - 1]])
        hausdorff = max(
            directed_hausdorff(cloud, prev)[0], directed_hausdorff(prev, cloud)[0]
        )
    else:
        hausdorff = float("nan")

    return ConeEstimate(
        gens=gens,
        samples=samples,
        m_max=m_max,
        m_used=m_used,
        truncated=m_used < m_max,
        hull_vertices=vertices,
        hull_affine_dim=adim,
        hausdorff=float(hausdorff),
        zero_tol_coeff=zero_tol_coeff,
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


def containment_check(cone: ConeEstimate, k: int, tol=None) -> ContainmentReport:
    """Do the zero indices of every nonzero sample stay in {k+1..n-k}?

    A sample is "zero" when all its coordinates vanish within tolerance;
    such samples are exempt (they are the cone tip).  With ``tol=None`` each
    sample's own scale-aware tolerance is used.  ``C_hat`` is the smallest
    unit-normalized gap ``v_k - v_(k+1)`` over nonzero samples, the
    empirical margin separating the expanding block from the rest.  The
    window is empty when ``2k = n``; that is an automatic fail (no neutral
    block can exist), reported with reason "empty window".
    """
    n = cone.n
    if not 1 <= k <= n // 2:
        raise ValueError(f"k must satisfy 1 <= k <= {n // 2} for dimension {n}")
    window = tuple(range(k + 1, n - k + 1))

    violations = []
    C_hat = float("inf")
    n_samples = n_zero = n_empty = 0
    wset = set(window)
    for sample in cone.iter_samples():
        n_samples += 1
        sample_tol = sample.zero_tol if tol is None else tol
        idx = (
            sample.zero_indices
            if tol is None
            else _zero_indices(sample.jordan, sample_tol)
        )
        if len(idx) == n:
            n_zero += 1
            continue
        if not idx:
            n_empty += 1
        elif not set(idx) <= wset:
            violations.append((sample.length, sample.word, idx))
        norm = float(np.linalg.norm(sample.jordan))
        gap = float(sample.jordan[k - 1] - sample.jordan[k]) / norm
        C_hat = min(C_hat, gap)

    if not window:
        passed, reason = False, "empty window"
    elif violations:
        passed, reason = False, "zero-index escape"
    else:
        passed, reason = True, ""
    if not np.isfinite(C_hat):
        C_hat = float("nan")
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
    ``w`` (both Jordan and Cartan parts).  Unpaired words are reported as
    mismatches too; exhaustive and inversion-closed sampled sweeps pair
    completely by construction.
    """
    mismatches = []
    worst = 0.0
    for m in sorted(cone.samples):
        by_letters = {s.word.letters: s for s in cone.samples[m]}
        for sample in cone.samples[m]:
            partner = by_letters.get(sample.word.inverse().letters)
            if partner is None:
                mismatches.append((m, sample.word, float("nan")))
                continue
            dev = max(
                float(np.abs(-sample.jordan[::-1] - partner.jordan).max()),
                float(np.abs(-sample.cartan[::-1] - partner.cartan).max()),
            )
            worst = max(worst, dev)
            if dev > tol:
                mismatches.append((m, sample.word, dev))
    return InvolutionReport(
        passed=not mismatches, max_deviation=worst, mismatches=mismatches, tol=tol
    )
