"""Domination and partial hyperbolicity scans over word spheres.

The central question: for a set of invertible matrices indexed by free group
generators, does the ratio of singular values ``a_k / a_(k+1)`` of word
products grow exponentially in word length?  `domination_scan` walks spheres
of increasing length, records the per-sphere worst case of the symmetrized
log gap ``min(log a_k - log a_(k+1), log a_(n-k) - log a_(n-k+1))``, fits
growth constants, and classifies the system as dominated, partially
hyperbolic (when additionally ``a_k > 1 > a_(n-k+1)`` with definite margins),
refuted, or inconclusive.

`flag_estimate` and `transversality_check` probe the attracting flags of
periodic boundary points.  A flag estimate is a pair of orthonormal bases,
``(n, k)`` and ``(n, n-k)``, of the leading left singular directions of a
long periodic product, read off one `linalg.singular_frames` call on its
transpose; a transversality check is the smallest principal angle between
the ``k``-plane of one boundary point and the ``(n-k)``-plane of another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import words
from .errors import DegenerateInputError, NumericOverflowError
from .fitting import fit_line
from .linalg import (
    _principal_angles,
    require_matrix,
    require_orthonormal,
    scaled_inv,
    scaled_slogdet,
    singular_frames,
    subspace_distance,
)

# sorted singular values make the log gap nonnegative in floats, so
# refutation triggers on "indistinguishable from zero" rather than "< 0"
DEFAULT_GAP_TOL = 1e-10

_NAME_IDENTITY = "e"


class GeneratorSet:
    """Invertible matrices indexed by free group letters.

    ``letter_images`` is the one read-only stack of the letters' images in
    alphabet order: the i-th matrix (1-based) and then its inverse, so the
    set is closed under inversion by construction; ``image(i)`` and
    ``image(-i)`` read its rows.  All matrices share one dimension
    ``dim``; ``rank`` is the number of generators.
    """

    def __init__(self, images, names=None):
        mats = [require_matrix(m, f"generator {i + 1}") for i, m in enumerate(images)]
        if not mats:
            raise DegenerateInputError("generator set must be nonempty")
        n = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape[0] != n:
                raise DegenerateInputError(
                    f"generator {i + 1} has dimension {m.shape[0]}, expected {n}"
                )
            # generators are inverted and multiplied thousands of times, so
            # insist on honest float-level invertibility up front
            s = np.linalg.svd(m, compute_uv=False)
            if s[-1] <= s[0] * 1e-14:
                raise DegenerateInputError(f"generator {i + 1} is numerically singular")
        if names is None:
            names = tuple(f"g{i + 1}" for i in range(len(mats)))
        else:
            names = tuple(str(s) for s in names)
            if len(names) != len(mats):
                raise ValueError("need exactly one name per generator")
            if len(set(names)) != len(names):
                raise ValueError("generator names must be distinct")
        stack = np.stack(mats)
        inverses = scaled_inv(stack)
        for i, inv in enumerate(inverses):
            # a well-conditioned generator near the subnormal range still
            # inverts past float64
            if not np.isfinite(inv).all():
                raise DegenerateInputError(f"generator {i + 1} has a non-finite inverse")
        self.letter_images = np.stack([stack, inverses], axis=1).reshape(-1, n, n)
        self.letter_images.flags.writeable = False
        self._names = names
        # log |det| and the determinant sign indexed by letter: entry i for
        # letter i, and entry -i, the exact negative and the same sign, for
        # its inverse.
        signs, logdets = scaled_slogdet(stack)
        self._letter_log_dets = np.concatenate([[0.0], logdets, -logdets[::-1]])
        self._letter_signs = np.concatenate([[1], signs, signs[::-1]]).astype(np.int8)

    @property
    def rank(self) -> int:
        return len(self.letter_images) // 2

    @property
    def dim(self) -> int:
        return self.letter_images.shape[-1]

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def image(self, letter: int) -> np.ndarray:
        if letter == 0 or abs(letter) > self.rank:
            raise ValueError(f"letter {letter} outside rank {self.rank}")
        return self.letter_images[words.letter_rank(letter)]

    def log_dets(self, letters):
        """``(logdet, sign)``: the exact ``log |det|`` and the determinant
        sign of each word of an ``(N, L)`` letter array, its letters'
        entries added and multiplied left to right.  An inverse letter has
        the exact negative log-det of its letter, so a word and its inverse
        read exact negatives up to the order of the adds."""
        letters = np.asarray(letters)
        logdet = np.zeros(len(letters))
        sign = np.ones(len(letters), dtype=np.int8)
        for column in letters.T:
            logdet += self._letter_log_dets[column]
            sign *= self._letter_signs[column]
        return logdet, sign

    def word_name(self, word) -> str:
        """Human-readable name of a word, e.g. ``"a b^-1"``."""
        letters = word.letters if isinstance(word, words.Word) else tuple(word)
        if not letters:
            return _NAME_IDENTITY
        parts = []
        for l in letters:
            name = self._names[abs(l) - 1]
            parts.append(name if l > 0 else name + "^-1")
        return " ".join(parts)


@dataclass
class SphereRecord:
    """Gap statistics for one word sphere."""

    length: int
    count: int
    gap_min: float
    gap_mean: float
    argmin: words.Word
    logak_min: float
    lognk1_max: float


@dataclass
class DominationReport:
    """Outcome of `domination_scan`.

    ``verdict`` is one of ``"dominated"``, ``"partially-hyperbolic"``,
    ``"refuted"``, ``"inconclusive"``.  ``A_hat``/``C_hat`` estimate the
    typical per-letter gap growth (least squares on per-sphere mean gaps,
    ``L >= 2``); ``A_lower``/``C_lower`` fit the per-sphere minima, the
    empirical universal-constant pair.  Minima, not means, decide every
    verdict.  ``A_ci`` is a two-standard-error interval on ``A_hat``
    (degenerate with fewer than three fitted spheres).
    """

    verdict: str
    k: int
    n: int
    spheres: list[SphereRecord]
    L_max: int
    L_used: int
    truncated: bool
    A_hat: float
    C_hat: float
    A_ci: tuple[float, float]
    A_lower: float
    C_lower: float
    top_slope: Optional[float]
    bottom_slope: Optional[float]
    L0: Optional[int]
    refuted_at: Optional[int]
    violating_word: Optional[words.Word]
    gap_tol: float
    exhaustive: bool


def _sphere_record(k, sphere) -> SphereRecord:
    letters = sphere.letters
    n = sphere.products.shape[-1]
    s = sphere.log_singular_values()
    gaps = np.minimum(s[:, k - 1] - s[:, k], s[:, n - k - 1] - s[:, n - k])
    i = words.shortlex_argmin(gaps, letters)
    return SphereRecord(
        length=letters.shape[1],
        count=len(gaps),
        gap_min=float(gaps[i]),
        gap_mean=float(np.mean(gaps)),
        argmin=words.Word(letters[i]),
        logak_min=float(s[:, k - 1].min()),
        lognk1_max=float(s[:, n - k].max()),
    )


def domination_scan(gens: GeneratorSet, k: int, L_max: int,
                    policy=words.Exhaustive()) -> DominationReport:
    """Scan word spheres for k-domination and partial hyperbolicity.

    Parameters
    ----------
    gens : GeneratorSet
    k : int
        Dominated index, ``1 <= k <= n / 2``.
    L_max : int
        Largest sphere length, at least 3.
    policy : Exhaustive or Sampled
        Sampled scans can refute but never certify; their verdict is
        ``"refuted"`` or ``"inconclusive"``.

    Notes
    -----
    The scan stops at the first refuting sphere, one whose minimum gap is
    at or below DEFAULT_GAP_TOL (the report's ``gap_tol``).  A product
    overflowing float64 truncates the scan at the last complete sphere,
    flagged in the report.  The partial hyperbolicity verdict additionally needs
    ``k < n / 2``, per-sphere ``min log a_k > 0`` and ``max log a_(n-k+1) <
    0`` for all lengths beyond some ``L0 <= L_used - 2``, and margin slopes
    of the right signs.
    """
    n = gens.dim
    if not 1 <= k <= n // 2:
        raise ValueError(f"k must satisfy 1 <= k <= {n // 2} for dimension {n}")
    if L_max < 3:
        raise ValueError("L_max must be at least 3")
    exhaustive = isinstance(policy, words.Exhaustive)

    spheres: list[SphereRecord] = []
    truncated = False
    refuted_at = None
    violating = None
    try:
        for sphere in words.iter_sphere_products(gens, L_max, policy):
            rec = _sphere_record(k, sphere)
            spheres.append(rec)
            if rec.gap_min <= DEFAULT_GAP_TOL:
                refuted_at, violating = rec.length, rec.argmin
                break
    except NumericOverflowError:
        truncated = True
    L_used = spheres[-1].length if spheres else 0

    fit_spheres = [r for r in spheres if r.length >= 2]
    if len(fit_spheres) >= 2:
        lengths = [r.length for r in fit_spheres]
        A_hat, logC, A_se = fit_line(lengths, [r.gap_mean for r in fit_spheres])
        C_hat = float(np.exp(logC))
        A_ci = (A_hat - 2.0 * A_se, A_hat + 2.0 * A_se)
        A_lower, logC_low, _ = fit_line(lengths, [r.gap_min for r in fit_spheres])
        C_lower = float(np.exp(logC_low))
    else:
        A_hat, C_hat, A_ci = float("nan"), float("nan"), (float("nan"), float("nan"))
        A_lower, C_lower = float("nan"), float("nan")

    top_slope = bottom_slope = None
    L0 = None
    verdict = "inconclusive"
    if refuted_at is not None:
        verdict = "refuted"
    elif exhaustive and not truncated and len(fit_spheres) >= 2 and A_hat > 0.0:
        verdict = "dominated"
        if 2 * k < n:
            for r in spheres:
                if r.logak_min > 0.0 and r.lognk1_max < 0.0:
                    if L0 is None:
                        L0 = r.length
                else:
                    L0 = None
            if L0 is not None and L0 <= L_used - 2:
                tail = [r for r in spheres if r.length >= max(L0, 2)]
                top_slope, _, _ = fit_line(
                    [r.length for r in tail], [r.logak_min for r in tail]
                )
                bottom_slope, _, _ = fit_line(
                    [r.length for r in tail], [r.lognk1_max for r in tail]
                )
                if top_slope > 0.0 and bottom_slope < 0.0:
                    verdict = "partially-hyperbolic"

    return DominationReport(
        verdict=verdict,
        k=k,
        n=n,
        spheres=spheres,
        L_max=L_max,
        L_used=L_used,
        truncated=truncated,
        A_hat=A_hat,
        C_hat=C_hat,
        A_ci=A_ci,
        A_lower=A_lower,
        C_lower=C_lower,
        top_slope=top_slope,
        bottom_slope=bottom_slope,
        L0=L0,
        refuted_at=refuted_at,
        violating_word=violating,
        gap_tol=DEFAULT_GAP_TOL,
        exhaustive=exhaustive,
    )


@dataclass
class FlagEstimate:
    """Attracting flag pieces of a periodic boundary point.

    ``zeta`` is a read-only ``(n, k)`` orthonormal basis of the leading
    ``k`` left singular directions of the long periodic product, and
    ``theta_map`` an ``(n, n - k)`` one of the leading ``n - k``;
    ``residual`` is the largest principal-angle change from the previous
    depth.
    """

    word: words.Word
    k: int
    zeta: np.ndarray
    theta_map: np.ndarray
    residual: float


def _periodic_letters(pattern, length):
    p = pattern.letters
    return tuple(p[i % len(p)] for i in range(length))


def flag_estimate(gens: GeneratorSet, prefix: words.Word, k: int,
                  depth: int) -> FlagEstimate:
    """Estimate the attracting flag of the periodic word ``prefix^inf``.

    ``prefix`` must be nonempty and cyclically reduced; ``depth >= 2`` is
    the length to which the period is tiled.  Raises
    :class:`DegenerateGapError` if a defining singular gap collapses.
    """
    if prefix.is_identity:
        raise ValueError("prefix must be nonempty")
    if not prefix.is_cyclically_reduced:
        raise ValueError("prefix must be cyclically reduced")
    n = gens.dim
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= {n - 1}")
    if depth < 2:
        raise ValueError("depth must be at least 2")

    def flag_at(d):
        # the leading left singular vectors of m are the right ones of m^T;
        # the second call only checks the gap at n - k on the same frames
        mt = words.evaluate(_periodic_letters(prefix, d), gens).T[None]
        frames = singular_frames(mt, k)
        singular_frames(mt, n - k, frames=frames)
        vt = frames[1][0]
        return require_orthonormal(vt[:k].T), require_orthonormal(vt[: n - k].T)

    zeta_prev, theta_prev = flag_at(depth - 1)
    zeta, theta = flag_at(depth)
    residual = float(max(
        subspace_distance(zeta[None], zeta_prev[None])[0],
        subspace_distance(theta[None], theta_prev[None])[0],
    ))
    return FlagEstimate(
        word=prefix, k=k, zeta=zeta, theta_map=theta, residual=residual
    )


def transversality_check(e1: FlagEstimate, e2: FlagEstimate) -> float:
    """Smallest principal angle between ``e1.zeta`` and ``e2.theta_map``.

    The two estimates must describe distinct boundary points; two periodic
    words define the same point iff their tilings agree on ``p1 + p2``
    letters, which is what is tested.
    """
    if e1.k != e2.k:
        raise ValueError("flag estimates have different indices")
    horizon = len(e1.word) + len(e2.word)
    if _periodic_letters(e1.word, horizon) == _periodic_letters(e2.word, horizon):
        raise ValueError("estimates describe the same boundary point")
    return float(_principal_angles(e1.zeta[None], e2.theta_map[None]).min())
