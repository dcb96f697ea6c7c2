"""Singular value and eigenvalue decompositions with explicit gap contracts.

This module wraps the dense decompositions every other analysis here relies
on.  The two central objects are log singular value vectors ("cartan" kind)
and log eigenvalue-modulus vectors ("jordan" kind), both sorted in
nonincreasing order so the first entry is the fastest growth direction:

    >>> import numpy as np
    >>> from repdyn import linalg
    >>> v = linalg.cartan_projection(np.diag([3.0, 2.0, 1.0]))
    >>> np.round(v.values, 4)
    array([1.0986, 0.6931, 0.    ])

Subspace extraction (`top_singular_subspace`, `bottom_singular_subspace`)
refuses to answer when the defining singular value gap is numerically
degenerate, raising :class:`~repdyn.errors.DegenerateGapError` instead of
returning an arbitrary basis.  Angles between subspaces come in two flavors:
`principal_angle` (smallest angle, measures transversality) and
`subspace_distance` (largest angle, measures how far apart two estimates of
the same subspace are).

The singular subspaces and `subspace_distance` run on stacks.
`singular_frames` decomposes an ``(N, n, n)`` stack in one call, checking
each matrix as the one-matrix functions do and raising one aggregated
:class:`~repdyn.errors.ConditionWarning`; `subspace_distance` also takes two
``(N, n, p)`` stacks of bases, and `bottom_singular_subspace` an ``(N, n,
n)`` stack of matrices.  The one-matrix functions are these kernels applied
to a stack of one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConditionWarning, DegenerateGapError, DegenerateInputError

MIN_DIM = 2
MAX_DIM = 16

# relative gap below which a singular subspace is considered undefined
GAP_TOL = 1e-9

# a_1 / a_n beyond this emits ConditionWarning
CONDITION_LIMIT = 1e12

ORTHONORMAL_TOL = 1e-10

# tolerance for the nonincreasing check on spectral vectors
_SORT_TOL = 1e-9

def _require_square(shape, what):
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DegenerateInputError(f"{what} must be square, got shape {shape}")
    if not MIN_DIM <= shape[0] <= MAX_DIM:
        raise DegenerateInputError(
            f"{what} side must lie in [{MIN_DIM}, {MAX_DIM}], got {shape[0]}"
        )


def _first_invalid(ms, what):
    """``(row, error)`` for the first matrix of a stack that `require_matrix`
    rejects, or ``(len(ms), None)`` when every matrix passes."""
    finite = np.isfinite(ms).all(axis=(1, 2))
    stop = len(ms) if finite.all() else int(np.argmin(finite))
    head = ms[:stop]
    # the largest entry, not a norm: squaring would underflow or overflow
    zero = np.abs(head).max(axis=(1, 2)) == 0.0
    sign, logdet = np.linalg.slogdet(head)
    singular = (sign == 0.0) | ~np.isfinite(logdet)
    if singular.any():
        # LU pivoting can round a wildly scaled but invertible product to a
        # zero pivot; confirm the verdict spectrally before rejecting
        s = np.linalg.svd(head[singular], compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            singular[singular] = (s[:, -1] == 0.0) | ~np.isfinite(s[:, 0] / s[:, -1])
    bad = zero | singular
    if bad.any():
        row = int(np.argmax(bad))
        problem = "is the zero matrix" if zero[row] else "is numerically singular"
        return row, DegenerateInputError(f"{what} {problem}")
    if stop < len(ms):
        return stop, DegenerateInputError(f"{what} has non-finite entries")
    return stop, None


def require_matrix(m, what="matrix"):
    """Validate a square invertible matrix and return it as float64.

    Checks shape (square, side between MIN_DIM and MAX_DIM), finiteness, and
    float-level invertibility.  Raises :class:`DegenerateInputError` on any
    violation.  Merely ill-conditioned matrices pass; those draw a
    :class:`ConditionWarning` at the decomposition sites instead.
    """
    m = np.asarray(m, dtype=float)
    _require_square(m.shape, what)
    _, error = _first_invalid(m[None], what)
    if error is not None:
        raise error
    return m


_SPAN_MESSAGE = "singular values span more than float64 allows"


def _warn_ill_conditioned(cond, size, stacklevel):
    """One ConditionWarning if any of the condition numbers ``cond``, taken
    from a stack of ``size`` matrices, exceeds CONDITION_LIMIT."""
    over = cond[cond > CONDITION_LIMIT]
    if not over.size:
        return
    if size == 1:
        text = f"condition number {over[0]:.3e} exceeds {CONDITION_LIMIT:.0e}"
    else:
        text = (
            f"{over.size} of {size} products have condition number above"
            f" {CONDITION_LIMIT:.0e}, the worst {over.max():.3e}"
        )
    warnings.warn(
        text + "; downstream gaps may be meaningless",
        ConditionWarning,
        stacklevel=stacklevel + 1,
    )


def singular_frames(ms, gap_index: int, stacklevel=2):
    """Full SVDs ``(u, s, vt)`` of an ``(N, n, n)`` stack, checked row by row.

    Each matrix in turn gets the checks of `require_matrix`, then the check
    that its singular values span less than float64 allows, then the gap
    check: the relative gap between singular values ``gap_index`` and
    ``gap_index + 1`` (1-based) must reach GAP_TOL.  The first failing
    matrix raises :class:`DegenerateInputError` or
    :class:`DegenerateGapError` with the message the one-matrix functions
    give.  The matrices checked until then whose condition number exceeds
    CONDITION_LIMIT draw one :class:`ConditionWarning` that counts them and
    gives the worst number; for a stack of one it reads as it always has.
    ``stacklevel`` counts from this function, as in :func:`warnings.warn`.
    """
    ms = np.asarray(ms, dtype=float)
    _require_square(ms.shape[1:], "matrix")
    n = ms.shape[1]
    p = gap_index
    if not 1 <= p < n:
        raise ValueError(f"gap index must satisfy 1 <= index < {n}, got {p}")
    stop, error = _first_invalid(ms, "matrix")
    u, s, vt = np.linalg.svd(ms[:stop])
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[:, 0] / s[:, -1]
        gap = (s[:, p - 1] - s[:, p]) / s[:, p - 1]
    span = (s[:, -1] <= 0.0) | ~np.isfinite(cond)
    failed = span | (gap < GAP_TOL)
    checked = stop
    if failed.any():
        row = int(np.argmax(failed))
        # the span check raises before the warning, the gap check after it
        checked = row + (not span[row])
        if span[row]:
            error = DegenerateInputError(_SPAN_MESSAGE)
        else:
            error = DegenerateGapError(
                f"singular gap at index {p} is degenerate (relative gap {gap[row]:.3e})",
                index=p,
                gap=float(gap[row]),
            )
    _warn_ill_conditioned(cond[:checked], len(ms), stacklevel)
    if error is not None:
        raise error
    return u, s, vt


@dataclass(frozen=True, eq=False)
class SpectralVector:
    """A nonincreasing vector of logarithms with a declared origin.

    ``kind`` is ``"cartan"`` for log singular values or ``"jordan"`` for log
    eigenvalue moduli.  The entries sum to log |det| in both cases.
    """

    values: np.ndarray
    kind: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("spectral vector must be a nonempty 1-d array")
        if not np.isfinite(values).all():
            raise ValueError("spectral vector entries must be finite")
        if self.kind not in ("cartan", "jordan"):
            raise ValueError(f"unknown spectral vector kind {self.kind!r}")
        slack = _SORT_TOL * (1.0 + np.abs(values).max())
        if np.any(np.diff(values) > slack):
            raise ValueError("spectral vector must be nonincreasing")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.values.size

    def __getitem__(self, i):
        return self.values[i]

    @property
    def total(self) -> float:
        """Sum of the entries, i.e. log |det| of the source matrix."""
        return float(self.values.sum())


def require_orthonormal(bases):
    """Validate orthonormal column bases and return a read-only C-ordered copy.

    ``bases`` is one ``(n, p)`` basis or an ``(N, n, p)`` stack of them; the
    columns of each must be orthonormal within ORTHONORMAL_TOL.
    """
    bases = np.array(bases, dtype=float, order="C")
    n, p = bases.shape[-2:]
    if not 1 <= p <= n:
        raise ValueError(f"subspace dimension {p} invalid in ambient dimension {n}")
    gram = np.swapaxes(bases, -1, -2) @ bases
    if np.abs(gram - np.eye(p)).max(initial=0.0) > ORTHONORMAL_TOL:
        raise ValueError("subspace basis columns are not orthonormal")
    bases.flags.writeable = False
    return bases


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace given by an orthonormal column basis."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2:
            raise ValueError("subspace basis must be a 2-d array of columns")
        object.__setattr__(self, "basis", require_orthonormal(basis))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]


def cartan_projection(m) -> SpectralVector:
    """Log singular values of ``m``, nonincreasing.

    Emits :class:`ConditionWarning` when the condition number exceeds
    CONDITION_LIMIT.
    """
    m = require_matrix(m)
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] <= 0.0 or not np.isfinite(s[0] / s[-1]):
        raise DegenerateInputError(_SPAN_MESSAGE)
    _warn_ill_conditioned(np.array([s[0] / s[-1]]), 1, stacklevel=2)
    return SpectralVector(np.log(s), "cartan")


def jordan_projection(m) -> SpectralVector:
    """Log moduli of the eigenvalues of ``m``, nonincreasing.

    Invariant under conjugation, and equals the limit of
    ``cartan_projection(m^k).values / k``.
    """
    m = require_matrix(m)
    moduli = np.sort(np.abs(np.linalg.eigvals(m)))[::-1]
    if moduli[-1] <= 0.0:
        raise DegenerateInputError("eigenvalue modulus underflowed to zero")
    return SpectralVector(np.log(moduli), "jordan")


def _subspace_frames(ms, p, bottom):
    """`singular_frames` of an ``(N, n, n)`` stack for the top or bottom
    p-dimensional singular subspaces; warnings point at the caller's caller."""
    _require_square(ms.shape[1:], "matrix")
    n = ms.shape[-1]
    if not 1 <= p < n:
        raise ValueError(f"subspace size must satisfy 1 <= p < {n}, got {p}")
    return singular_frames(ms, n - p if bottom else p, stacklevel=4)


def top_singular_subspace(m, p: int) -> Subspace:
    """Span of the ``p`` leading left singular vectors of ``m``.

    Parameters
    ----------
    m : array_like
        Square invertible matrix.
    p : int
        Number of leading directions, ``1 <= p < n``.

    Raises
    ------
    DegenerateGapError
        If the relative gap between singular values ``p`` and ``p + 1``
        falls below GAP_TOL, making the subspace ill defined.
    """
    u, _, _ = _subspace_frames(np.asarray(m, dtype=float)[None], p, bottom=False)
    return Subspace(u[0, :, :p])


def bottom_singular_subspace(m, p: int) -> Subspace:
    """Span of the right singular vectors of ``m`` for its ``p`` smallest
    singular values.

    This equals the span of the ``p`` leading left singular vectors of the
    inverse matrix, computed here without inverting.  The defining gap is the
    one between singular values ``n - p`` and ``n - p + 1``.  An ``(N, n, n)``
    stack gives a read-only ``(N, n, p)`` stack of bases from one
    `singular_frames` call, checked matrix by matrix.
    """
    m = np.asarray(m, dtype=float)
    stack = m.ndim == 3
    _, _, vt = _subspace_frames(m if stack else m[None], p, bottom=True)
    bases = np.swapaxes(vt[:, -p:, :], 1, 2)
    return require_orthonormal(bases) if stack else Subspace(bases[0])


def opposition_involution(v: SpectralVector) -> SpectralVector:
    """Negate and reverse a spectral vector: (v1..vn) -> (-vn..-v1).

    An exact involution (no rounding), preserving the nonincreasing order
    and the kind tag.
    """
    return SpectralVector(-v.values[::-1], v.kind)


def principal_angle(u: Subspace, w: Subspace) -> float:
    """Smallest principal angle between two subspaces, in radians.

    Zero means the subspaces intersect (up to numerics); requires
    ``u.dim + w.dim <= n`` so that transversality is possible at all.
    """
    if u.ambient_dim != w.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    if u.dim + w.dim > u.ambient_dim:
        raise ValueError(
            "dimensions force an intersection; smallest angle would always be 0"
        )
    return float(scipy.linalg.subspace_angles(u.basis, w.basis).min())


def _largest_angles(a, b):
    """``scipy.linalg.subspace_angles(a[i], b[i]).max()`` for each i, bit for bit.

    ``a`` and ``b`` are ``(N, n, p)`` stacks of full-rank column bases.  The
    steps are scipy's: orthonormalize by SVD, take the cosines as the
    singular values of ``Qa^T Qb`` and the sines as those of ``Qb - Qa Qa^T
    Qb``, and read each angle from its arcsine where the cosine squared is at
    least 1/2 and from the arccosine of the reversed cosines elsewhere.
    """
    n, p = a.shape[-2:]
    qa, sa, _ = np.linalg.svd(a, full_matrices=False)
    qb, sb, _ = np.linalg.svd(b, full_matrices=False)
    # scipy's orth drops columns at or below this cutoff; a full-rank basis
    # keeps every one, so the stacks stay rectangular
    rcond = np.finfo(float).eps * max(n, p)
    for s in (sa, sb):
        if not (s > s[:, :1] * rcond).all():
            raise ValueError("subspace distance needs full-rank bases")
    cosines_matrix = np.swapaxes(qa, -1, -2) @ qb
    sigma = np.linalg.svd(cosines_matrix, compute_uv=False)
    sines = np.linalg.svd(qb - qa @ cosines_matrix, compute_uv=False)
    theta = np.where(
        sigma**2 >= 0.5,
        np.arcsin(np.clip(sines, -1.0, 1.0)),
        np.arccos(np.clip(sigma[:, ::-1], -1.0, 1.0)),
    )
    return theta.max(axis=1)


def subspace_distance(u, w):
    """Largest principal angle between two equal-dimensional subspaces.

    This is a metric on the Grassmannian; use it to compare successive
    estimates of the same subspace.  ``u`` and ``w`` are two
    :class:`Subspace` objects, giving a float, or two ``(N, n, p)`` stacks
    of column bases, giving the N distances between matching rows.  Either
    way the values are those of ``scipy.linalg.subspace_angles(u, w).max()``.
    """
    if isinstance(u, Subspace) and isinstance(w, Subspace):
        if u.ambient_dim != w.ambient_dim:
            raise ValueError("subspaces live in different ambient dimensions")
        if u.dim != w.dim:
            raise ValueError("subspace distance needs equal dimensions")
        return float(_largest_angles(u.basis[None], w.basis[None])[0])
    a, b = np.asarray(u, dtype=float), np.asarray(w, dtype=float)
    if a.ndim != 3 or a.shape != b.shape:
        raise ValueError(
            f"need two equal (N, n, p) stacks of bases, got {a.shape} and {b.shape}"
        )
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("bases must be finite")
    return _largest_angles(a, b)
