"""Singular value and eigenvalue decompositions of stacks of matrices, with
explicit gap contracts.

Every decomposition and angle here takes and returns ``(N, ...)`` stacks,
a row per matrix, and a row gets the same bits in a stack as alone.  The two chamber
readings of a matrix come from two kernels: `log_singular_values` (the
Cartan projection) and `log_eigenvalue_moduli` (the Jordan projection),
each row sorted largest first, so the first entry is the fastest growth
direction:

    >>> import numpy as np
    >>> from repdyn import linalg
    >>> np.round(linalg.log_singular_values(np.diag([3.0, 2.0, 1.0])[None]), 4)
    array([[1.0986, 0.6931, 0.    ]])
    >>> m = np.array([[[2.0, 1.0], [1.0, 1.0]], [[0.0, -2.0], [2.0, 0.0]]])
    >>> np.round(linalg.log_eigenvalue_moduli(m), 4)
    array([[ 0.9624, -0.9624],
           [ 0.6931,  0.6931]])

`log_singular_values` is what every sphere scan reads: closed forms for n =
2 (the small singular value from an exact log-det when the caller has one),
for n = 3 from top singular values only (``s3(w) = 1 / s1(w^-1)`` read off
the inverse word's row, ``s2`` from the exact log-det), and LAPACK for a row
with no inverse row and for larger n.  `log_eigenvalue_moduli` reads an
isolated diagonal entry exactly, takes closed forms for n = 2 and the
characteristic cubic for n = 3, the smallest real root from the exact
log-det, and LAPACK near a multiple eigenvalue and for larger n.

`singular_frames` gives the singular values and right singular vectors of
a stack in one call, checking each matrix (`require_matrix`'s checks, the
span of its singular values, the gap at a given index) and raising one
aggregated :class:`~repdyn.errors.ConditionWarning`.  A degenerate gap
raises :class:`~repdyn.errors.DegenerateGapError` instead of returning an
arbitrary basis.  For n = 3 the frames come in closed form, from the top
eigenpairs of the Gram matrices of the matrix and of its cofactor matrix,
each vector within a few ``eps s1 / gap`` of the exact one; LAPACK takes
the matrices near a double singular value or with a relative gap below
1e-3, so every gap verdict is LAPACK's (see `_frames3`).
`unchecked_frames` reads the same kernel without checks; a caller that
reads several stacks off one set of products decomposes them once that way
and hands each stack's rows back to `singular_frames` or
`bottom_singular_subspace` as ``frames``, which then only check them.
`bottom_singular_subspace` gives a stack of orthonormal bases of bottom
singular subspaces, and `subspace_distance` the largest principal angle
between matching rows of two stacks of bases: between two single columns
in closed form from their dot product, and between wider blocks by a numpy
copy of the steps of ``scipy.linalg.subspace_angles``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import ConditionWarning, DegenerateGapError, DegenerateInputError

MIN_DIM = 2
MAX_DIM = 16

# relative gap below which a singular subspace is considered undefined
GAP_TOL = 1e-9

# a_1 / a_n beyond this emits ConditionWarning
CONDITION_LIMIT = 1e12

ORTHONORMAL_TOL = 1e-10

# rows `log_singular_values` takes at a time, which bounds its temporaries
KERNEL_BLOCK = 8192

# the n = 3 closed forms hand a matrix to LAPACK when 1 + r is below this,
# r = -1 marking a double largest eigenvalue of a Gram matrix (see
# `_top_eigenvalue3`)
_DOUBLE_TOP_TOL = 1e-4

# the n = 3 singular frames hand a matrix to LAPACK when a relative gap
# between neighbouring singular values is below this, far above GAP_TOL, so
# that every gap verdict is LAPACK's
_FRAME_GAP_MARGIN = 1e-3

# ... and when s1 / s3 reaches this, well before s3**2 underflows or s1 / s3
# overflows (which the span check reads)
_FRAME_SPAN_LIMIT = 2.0**500

# rows the n = 3 singular frames take at a time: about a hundred
# temporaries of two floats a row live at once, and 8192-row blocks raised
# the peak memory of a whole `split` run by 0.6 MB
_FRAME_BLOCK = 1024

# a 2x2 or 3x3 eigenvalue closed form hands a matrix to LAPACK when the
# squared relative distance of two of its roots is below this
_MULTIPLE_ROOT_TOL = 1e-8

_LOG2 = np.log(2.0)
_TINY = np.finfo(float).tiny


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
    finite = _fold_columns(np.logical_and, np.isfinite(ms))
    stop = len(ms) if finite.all() else int(np.argmin(finite))
    head = ms[:stop]
    # the largest entry, not a norm: squaring would underflow or overflow
    zero = _fold_columns(np.maximum, np.abs(head)) == 0.0
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
    if not np.isfinite(m).all():
        raise DegenerateInputError(f"{what} has non-finite entries")
    # the zero matrix has no pivot, so only a failed LU needs the full
    # verdict; scaled exactly to unit largest entry, the LU cannot overflow
    sign, logdet = np.linalg.slogdet(_scale_to_unit(m[None])[0][0])
    if sign == 0.0 or not np.isfinite(logdet):
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


def singular_frames(ms, gap_index: int, stacklevel=2, frames=None):
    """Singular values and right singular vectors ``(s, vt)`` of an ``(N,
    n, n)`` stack, checked row by row: ``s`` is ``(N, n)``, largest first,
    and the rows of ``vt[i]`` are the right singular vectors of ``ms[i]``,
    each up to sign.  For n = 3 they come in closed form, and LAPACK takes
    a matrix near a double singular value or with a relative gap below
    _FRAME_GAP_MARGIN (see `_frames3`); other n are LAPACK's.  Either way a
    row has the same bits in a stack as alone.  ``frames``, the
    `unchecked_frames` of ``ms`` (or the same rows of a larger stack),
    stands in for the decomposition, and only the checks run.

    Each matrix in turn gets the checks of `require_matrix`, then the check
    that its singular values span less than float64 allows, then the gap
    check: the relative gap between singular values ``gap_index`` and
    ``gap_index + 1`` (1-based) must reach GAP_TOL.  The first failing
    matrix raises :class:`DegenerateInputError` or
    :class:`DegenerateGapError`.  The matrices checked until then whose
    condition number exceeds CONDITION_LIMIT draw one
    :class:`ConditionWarning` that counts them and gives the worst number;
    for a stack of one it gives that matrix's number alone.
    ``stacklevel`` counts from this function, as in :func:`warnings.warn`.
    """
    ms = np.asarray(ms, dtype=float)
    _require_square(ms.shape[1:], "matrix")
    n = ms.shape[1]
    p = gap_index
    if not 1 <= p < n:
        raise ValueError(f"gap index must satisfy 1 <= index < {n}, got {p}")
    stop, error = _first_invalid(ms, "matrix")
    if frames is None:
        s, vt = _svd(ms[:stop])
    else:
        s, vt = frames[0][:stop], frames[1][:stop]
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
    return s, vt


def unchecked_frames(ms):
    """The ``(s, vt)`` of `singular_frames` for an ``(N, n, n)`` stack of
    finite matrices, without its checks, warnings or errors."""
    return _svd(np.asarray(ms, dtype=float))


def _fold_columns(ufunc, x):
    """``ufunc.reduce`` of each row of an ``(N, ...)`` stack over all its other
    axes, for rows of a few entries.  For an order-free ufunc (maximum,
    minimum, the logical ones, a count of bools) it is numpy's own reduction:
    the same dtype, so a bool count comes out an integer, and the same bits,
    up to which NaN a row of several NaNs keeps."""
    # a chain of elementwise calls over the columns: numpy reduces small axes
    # slowly, in one inner loop per row
    columns = x.reshape(len(x), math.prod(x.shape[1:])).T
    out = ufunc.reduce(columns[:1], axis=0)
    for column in columns[1:]:
        ufunc(out, column, out=out)
    return out


def _scale_to_unit(ms, top=0):
    """``(scaled, e)`` with ``ms = scaled * 2**e`` row by row: each matrix of a
    stack scaled exactly, by a power of two, so that its largest entry lies
    in [2**(top - 1), 2**top)."""
    _, e = np.frexp(_fold_columns(np.maximum, np.abs(ms)))
    return np.ldexp(ms, (top - e)[:, None, None]), e - top


def scaled_slogdet(ms):
    """``(sign, log |det|)`` of each matrix of an ``(N, n, n)`` stack, as
    ``np.linalg.slogdet`` gives them, without its overflow.

    The elimination in slogdet can overflow on entries near the float64
    maximum, so a matrix whose largest entry lies outside [2**-256, 2**256]
    is scaled exactly to unit largest entry: ``log |det M| = n e log 2 +
    log |det (M 2**-e)|``.  Inside that band the elimination stays in
    range (partial pivoting grows entries by at most 2**15 for n <= 16), and
    the log-det is slogdet's own.
    """
    e = _far_exponents(ms)
    signs, logdets = np.linalg.slogdet(np.ldexp(ms, -e[:, None, None]))
    far = e != 0
    logdets[far] += ms.shape[-1] * e[far] * math.log(2.0)
    return signs, logdets


def scaled_inv(ms):
    """The inverse of each matrix of an ``(N, n, n)`` stack, as
    ``np.linalg.inv`` gives it, without its flush to zero.

    Near the float64 maximum the entries of the inverse fall below the
    normal range, where the elimination in inv rounds them away, so a
    matrix outside the band of `scaled_slogdet` is inverted scaled exactly
    to unit largest entry: ``M^-1 = (M 2**-e)^-1 2**-e``.  Inside the band
    the inverse is inv's own.  An inverse beyond the float64 maximum reads
    ``inf``; nothing warns.
    """
    e = _far_exponents(ms)[:, None, None]
    with np.errstate(over="ignore"):
        return np.ldexp(np.linalg.inv(np.ldexp(ms, -e)), -e)


def _far_exponents(ms):
    """For each matrix of a stack, the exponent ``e`` that scales it to unit
    largest entry, ``max |M 2**-e|`` in [1/2, 1), where its largest entry
    lies outside [2**-256, 2**256], and 0 inside."""
    _, e = np.frexp(_fold_columns(np.maximum, np.abs(ms)))
    e[np.abs(e) <= 256] = 0
    return e


def _log_scaled(x, e):
    """``log(x * 2**e)`` for ``x >= 0``, with ``e`` broadcast along the last
    axis; the log of the float ``x * 2**e`` itself wherever that is a normal
    number, so the result is as exact as ``np.log``."""
    y = np.ldexp(x, e)
    out = np.log(y)
    far = ~((y >= _TINY) & (y < np.inf))
    if far.any():
        out[far] = np.log(x[far]) + np.broadcast_to(e, x.shape)[far] * _LOG2
    return out


def _log_sv2(ms, logdet):
    """Closed-form log singular values of a ``(B, 2, 2)`` stack."""
    m, e = _scale_to_unit(ms)
    a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    if logdet is None:
        logdet = _log_scaled(np.abs(a * d - b * c), 2 * e)
    s1 = 0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c))
    # s1 * s2 = |det| and s1 >= s2, so s1 >= sqrt|det| whatever the rounding
    log1 = np.maximum(_log_scaled(s1, e), 0.5 * logdet)
    return np.stack([log1, logdet - log1], axis=1)


def _top_eigenvalue3(g00, g11, g22, g01, g02, g12):
    """``(top, near)``: the largest eigenvalue of each symmetric 3x3 matrix
    ``G`` with these entries, and the mask of the matrices whose top two
    eigenvalues are too close for this closed form.

    With ``q`` the mean of the eigenvalues, ``p`` their root mean square
    distance from it and ``r = det((G - q I) / p) / 2``, the top eigenvalue
    is ``q + 2 p cos(arccos(r) / 3)``, or ``q`` when ``p = 0``.  Rounding
    ``r`` costs about ``eps / sqrt(1 + r)`` relative to its square root,
    large where the top two meet at ``r = -1``; ``near`` marks ``1 + r``
    below _DOUBLE_TOP_TOL."""
    q = (g00 + g11 + g22) / 3.0
    d0, d1, d2 = g00 - q, g11 - q, g22 - q
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2
                 + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12)) / 6.0)
    unit = np.where(p > 0.0, p, 1.0)
    d0, d1, d2, b01, b02, b12 = (v / unit for v in (d0, d1, d2, g01, g02, g12))
    r = 0.5 * (d0 * (d1 * d2 - b12 * b12) - b01 * (b01 * d2 - b12 * b02)
               + b02 * (b01 * b12 - d1 * b02))
    r = np.clip(r, -1.0, 1.0)
    return q + 2.0 * p * np.cos(np.arccos(r) / 3.0), ~(1.0 + r >= _DOUBLE_TOP_TOL)


def _entries(ms):
    """``x`` with ``x[i]`` entry i of every matrix of a ``(B, 3, 3)`` stack,
    flattened row by row."""
    return np.ascontiguousarray(ms.reshape(len(ms), 9).T)


def _gram3(x):
    """The entries ``(g00, g11, g22, g01, g02, g12)`` of the Gram matrix
    ``M^T M`` of each matrix of `_entries` ``x``."""

    def gram(j, k):
        return x[j] * x[k] + x[3 + j] * x[3 + k] + x[6 + j] * x[6 + k]

    return gram(0, 0), gram(1, 1), gram(2, 2), gram(0, 1), gram(0, 2), gram(1, 2)


def _log_top3(ms):
    """``(log s1, near)`` of a ``(B, 3, 3)`` stack, ``near`` masking the
    rows whose top two singular values are too close for this closed form:
    ``s1**2`` is the `_top_eigenvalue3` of the Gram matrix of the matrix
    scaled to unit largest entry."""
    m, e = _scale_to_unit(ms)
    top, near = _top_eigenvalue3(*_gram3(_entries(m)))
    return _log_scaled(np.sqrt(top), e), near


def _unit(v0, v1, v2):
    """The vectors ``(v0, v1, v2)``, given by their components, scaled to
    unit length."""
    length = np.sqrt(v0 * v0 + v1 * v1 + v2 * v2)
    return v0 / length, v1 / length, v2 / length


def _top_eigenvector3(g, top):
    """The unit eigenvectors, as three components, for the top eigenvalues
    ``top`` of the symmetric matrices with the entries ``g`` of `_gram3`.

    ``G - top I`` has rank two, so its adjugate is ``mu v v^T``: each row, a
    cross product of two rows of ``G - top I``, is a multiple ``mu v_i v``
    of the eigenvector ``v``, and the longest is the one through the largest
    diagonal entry ``mu v_i^2``."""
    g00, g11, g22, a01, a02, a12 = g
    a00, a11, a22 = g00 - top, g11 - top, g22 - top
    c00, c11, c22 = a11 * a22 - a12 * a12, a00 * a22 - a02 * a02, a00 * a11 - a01 * a01
    c01, c02, c12 = a02 * a12 - a01 * a22, a01 * a12 - a02 * a11, a01 * a02 - a00 * a12
    d0, d1, d2 = np.abs(c00), np.abs(c11), np.abs(c22)
    first = (d0 >= d1) & (d0 >= d2)
    second = ~first & (d1 >= d2)

    def pick(u0, u1, u2):
        return np.where(first, u0, np.where(second, u1, u2))

    return _unit(pick(c00, c01, c02), pick(c01, c11, c12), pick(c02, c12, c22))


def _rayleigh3(g, v):
    """The Rayleigh quotients ``v^T G v`` of the symmetric matrices with the
    entries ``g`` of `_gram3` and the unit vectors ``v``, by components."""
    g00, g11, g22, g01, g02, g12 = g
    v0, v1, v2 = v
    return (g00 * v0 * v0 + g11 * v1 * v1 + g22 * v2 * v2
            + 2.0 * (g01 * v0 * v1 + g02 * v0 * v2 + g12 * v1 * v2))


# for a 3x3 matrix flattened row by row, the cofactor matrix, whose rows are
# the cross products of rows 1 and 2, 2 and 0, and 0 and 1, is
# x[_COFACTOR[0]] * x[_COFACTOR[1]] - x[_COFACTOR[2]] * x[_COFACTOR[3]]
_COFACTOR = np.array([
    [3 * a + (j + 1) % 3, 3 * b + (j + 2) % 3, 3 * a + (j + 2) % 3, 3 * b + (j + 1) % 3]
    for a, b in ((1, 2), (2, 0), (0, 1)) for j in range(3)
]).T


def _frames3(ms):
    """``(s, vt, lapack)`` of a ``(B, 3, 3)`` stack of finite matrices: the
    singular values ``(B, 3)``, largest first, and the right singular
    vectors as the rows of ``(B, 3, 3)`` in closed form, and the mask of
    the rows this form cannot vouch for.

    Each matrix ``M`` is scaled exactly to unit largest entry.  The top
    eigenpair of its Gram matrix ``M^T M`` is ``(s1**2, v1)``.  The
    cofactor matrix ``C = det(M) M^-T``, scaled exactly too, has the
    singular values ``s1 s2 >= s1 s3 >= s2 s3``, so the top eigenpair of
    ``C^T C`` is ``((s1 s2)**2, v3)``.  Each pair takes two passes: the
    closed forms `_top_eigenvalue3` and `_top_eigenvector3`, then the
    eigenvector again at the Rayleigh quotient of the first, which is
    accurate to a few ulps.  Of ``v1`` and ``v3``, the one with the
    smaller gap is made orthogonal to the other; ``v2 = v3 x v1`` and ``s3
    = |M v3|``.  Each vector then lies within a few ``eps s1 / gap`` of the
    exact one, ``gap`` the distance of its singular value to the nearest
    other, ``s1`` within a few ulps and ``s2`` and ``s3`` within a few
    ``eps s1``.

    ``lapack`` marks a row with a double top eigenvalue in either Gram
    matrix, a relative gap ``(s1 - s2) / s1`` or ``(s2 - s3) / s2`` below
    _FRAME_GAP_MARGIN, or an ``s3`` that is no normal positive number or
    lies _FRAME_SPAN_LIMIT or more below ``s1``, where its square would
    underflow.
    """
    count = len(ms)
    m, e = _scale_to_unit(ms)
    x = _entries(m)
    factors = x[_COFACTOR]
    cofactor = factors[0] * factors[1] - factors[2] * factors[3]
    _, e_cofactor = np.frexp(np.abs(cofactor).max(axis=0))
    # the two Gram matrices of each row go through one set of calls
    g = _gram3(np.concatenate([x, np.ldexp(cofactor, -e_cofactor)], axis=1))
    top, near = _top_eigenvalue3(*g)
    top = _rayleigh3(g, _top_eigenvector3(g, top))
    v = _top_eigenvector3(g, top)
    v1, v3 = [c[:count] for c in v], [c[count:] for c in v]
    s1 = np.sqrt(top[:count])
    s2 = np.ldexp(np.sqrt(top[count:]) / s1, e_cofactor)
    # of v1 and v3, the one with the smaller gap is made orthogonal to the
    # other; s3 = |det M| / (s1 s2) is close enough to choose
    det = x[0] * cofactor[0] + x[1] * cofactor[1] + x[2] * cofactor[2]
    move_v1 = s1 - s2 < s2 - np.abs(det) / (s1 * s2)
    dot = v1[0] * v3[0] + v1[1] * v3[1] + v1[2] * v3[2]
    v1 = _unit(*(np.where(move_v1, a - dot * b, a) for a, b in zip(v1, v3)))
    v3 = _unit(*(np.where(move_v1, b, b - dot * a) for a, b in zip(v1, v3)))
    (a0, a1, a2), (b0, b1, b2) = v3, v1
    v2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    image = [x[i] * v3[0] + x[i + 1] * v3[1] + x[i + 2] * v3[2] for i in (0, 3, 6)]
    s3 = np.sqrt(image[0] * image[0] + image[1] * image[1] + image[2] * image[2])
    big, mid, small = s = np.ldexp([s1, s2, s3], e)
    lapack = near[:count] | near[count:] | ~(
        (big - mid >= _FRAME_GAP_MARGIN * big) & (mid - small >= _FRAME_GAP_MARGIN * mid)
        & (small >= _TINY) & (big / small < _FRAME_SPAN_LIMIT)
    )
    return s.T, np.array([v1, v2, v3]).transpose(2, 0, 1), lapack


def _svd(ms):
    """``(s, vt)`` of an ``(N, n, n)`` stack of finite matrices: for n = 3
    `_frames3`, _FRAME_BLOCK rows at a time, with LAPACK for the rows it
    hands over, and LAPACK for other n."""
    if ms.shape[-1] != 3:
        _, s, vt = np.linalg.svd(ms)
        return s, vt
    s, vt = np.empty(ms.shape[:2]), np.empty(ms.shape)
    for start in range(0, len(ms), _FRAME_BLOCK):
        block = slice(start, start + _FRAME_BLOCK)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            s[block], vt[block], rows = _frames3(ms[block])
        if rows.any():
            _, s[block][rows], vt[block][rows] = np.linalg.svd(ms[block][rows])
    return s, vt


def _log_sv3(products, logdet, inverse):
    """Log singular values of an ``(N, 3, 3)`` stack of word products and
    the mask of the rows with no inverse row (-1), left to LAPACK.

    ``log s1`` is `_log_top3`, or LAPACK's near a double top singular
    value, ``log s3 = -log s1[inverse]``, and ``log s2 = (logdet -
    logdet[inverse]) / 2 - (log s1 + log s3)`` clamped between them; so a
    row and its inverse row mirror each other exactly in all three, and a
    statistic that ties across the pair in exact arithmetic ties in float."""
    top = np.empty(len(products))
    near = np.empty(len(products), dtype=bool)
    for start in range(0, len(products), KERNEL_BLOCK):
        block = slice(start, start + KERNEL_BLOCK)
        top[block], near[block] = _log_top3(products[block])
    if near.any():
        top[near] = np.log(np.linalg.svd(products[near], compute_uv=False)[:, 0])
    partner = -top[inverse]
    # s1 >= s3 whatever the rounding, and alike for a row and its inverse row
    log1, log3 = np.maximum(top, partner), np.minimum(partner, top)
    # the two log-dets add the same letters in opposite orders, and the
    # half difference is antisymmetric across the pair to the bit
    log2 = (logdet - logdet[inverse]) / 2 - (log1 + log3)
    log2 = np.minimum(np.maximum(log2, log3), log1)
    return np.stack([log1, log2, log3], axis=1), inverse < 0


def log_singular_values(products, logdet=None, inverse=None):
    """Log singular values of each matrix of an ``(N, n, n)`` stack.

    Returns an ``(N, n)`` array, largest first.  ``logdet`` gives each
    row's ``log |det|``: a word product should pass the sum over its letters
    (``GeneratorSet.log_dets``), which keeps the small singular values the
    float product has lost.  ``inverse`` gives the row of each row's
    inverse word, -1 for none (``words.Sphere.inverse``).

    - n = 2: ``s1 = (hypot(a + d, b - c) + hypot(a - d, b + c)) / 2`` of
      the matrix scaled to unit largest entry and ``log s2 = logdet - log
      s1``, without ``logdet`` from the product's own ``ad - bc``.
    - n = 3, given ``logdet`` and an inverse row: ``s3(w) = 1 / s1(w^-1)``,
      and each top singular value is accurate to rounding relative to
      itself; ``s2`` comes from ``logdet`` (see `_log_sv3`).
    - Every other row, n >= 4 included: LAPACK.

    A row has the same bits as alone with its inverse row, in any order
    and KERNEL_BLOCK rows at a time.  A zero singular value reads ``-inf``;
    nothing warns.
    """
    products = np.asarray(products, dtype=float)
    n = products.shape[-1]
    if logdet is not None:
        logdet = np.asarray(logdet, dtype=float)
    out = np.empty(products.shape[:2])
    lapack = np.full(len(products), n > 2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if n == 3 and logdet is not None and inverse is not None:
            out, lapack = _log_sv3(products, logdet, np.asarray(inverse))
        for start in range(0, len(products), KERNEL_BLOCK):
            block = slice(start, start + KERNEL_BLOCK)
            rows = lapack[block]
            if n == 2:
                out[block] = _log_sv2(products[block],
                                      None if logdet is None else logdet[block])
            elif rows.any():
                s = np.linalg.svd(products[block][rows], compute_uv=False)
                out[block][rows] = np.log(s)
    return out


# compare-exchanges that sort the columns of a stack of n <= 3 coordinates
_NETWORKS = {2: ((0, 1),), 3: ((0, 1), (1, 2), (0, 1))}


def _descending(logs):
    """Each row of an ``(N, n)`` stack largest first, as ``-np.sort(-logs,
    axis=1)`` orders it: equal values, signed zeros among them, keep their
    order and NaNs go last.  For n <= 3 a compare-exchange network runs over
    the columns, since np.sort, like a reduction, takes one call per row;
    it moves each value with its bits, where np.sort's SIMD path can rewrite
    a NaN as the quiet NaN."""
    if logs.shape[1] not in _NETWORKS:
        return -np.sort(-logs, axis=1)
    columns = list(logs.T)
    for i, j in _NETWORKS[logs.shape[1]]:
        a, b = columns[i], columns[j]
        # b moves up when it is larger, or a number behind a NaN
        swap = (b == b) & ~(a >= b)
        columns[i], columns[j] = np.where(swap, b, a), np.where(swap, a, b)
    return np.stack(columns, axis=1)


# for each index i of a 3x3 matrix flattened row by row: entry (i, i), then
# the 2x2 block left when row and column i go
_DEFLATION = np.array([[0, 4, 5, 7, 8], [4, 0, 2, 6, 8], [8, 0, 1, 3, 4]])


def _isolated_index(ms):
    """The index ``i`` of each matrix of a ``(B, 3, 3)`` stack whose
    diagonal entry is nonzero and whose off-diagonal row or column is
    exactly zero, the last such index, or -1 for a matrix with none."""
    index = np.full(len(ms), -1)
    for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        row = (ms[:, i, j] == 0.0) & (ms[:, i, k] == 0.0)
        column = (ms[:, j, i] == 0.0) & (ms[:, k, i] == 0.0)
        index[(row | column) & (ms[:, i, i] != 0.0)] = i
    return index


def _deflate(ms, index):
    """Entry ``(i, i)`` of each matrix of a ``(B, 3, 3)`` stack and the
    ``(B, 2, 2)`` blocks left when row and column ``i`` go, for the
    per-matrix indices ``index``."""
    picked = np.take_along_axis(ms.reshape(len(ms), 9), _DEFLATION[index], axis=1)
    return picked[:, 0], picked[:, 1:].reshape(-1, 2, 2)


def _split_isolated(ms):
    """``(rows, pivots, blocks, dense)``: the rows of a ``(B, 3, 3)`` stack
    with an isolated index (see `_isolated_index`), their diagonal entries
    there and their remaining 2x2 blocks, and the mask of the other rows."""
    index = _isolated_index(ms)
    dense = index < 0
    rows = np.flatnonzero(~dense)
    pivots, blocks = _deflate(ms[rows], index[rows])
    return rows, pivots, blocks, dense


def _quadratic_moduli(t, det, logdet, e):
    """Log moduli of the roots of ``x^2 - t x + det``, scaled by ``2**e``,
    where ``logdet`` is ``log (|det| * 4**e)``; and the mask of the rows
    too near a double root for this closed form.

    Real roots give the larger modulus ``(|t| + sqrt(t^2 - 4 det)) / 2``,
    which cancels nothing, and the smaller one from ``logdet``; a complex
    pair gives ``logdet / 2`` to both.  A row is near a double root when
    its relative discriminant ``|t^2 - 4 det| / max(t^2, 4 |det|)``, the
    squared relative distance of its roots, is below _MULTIPLE_ROOT_TOL.
    """
    disc = t * t - 4.0 * det
    big = _log_scaled(0.5 * (np.abs(t) + np.sqrt(np.abs(disc))), e)
    log1 = np.where(disc >= 0.0, big, 0.5 * logdet)
    near = ~(np.abs(disc) > _MULTIPLE_ROOT_TOL * np.maximum(t * t, 4.0 * np.abs(det)))
    return np.stack([log1, logdet - log1], axis=1), near


def _log_eig2(ms, logdet, sign):
    """Log eigenvalue moduli of a ``(B, 2, 2)`` stack, in no order, and the
    mask of the rows left to LAPACK."""
    m, e = _scale_to_unit(ms)
    a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    if logdet is None:
        det = a * d - b * c
        logdet = _log_scaled(np.abs(det), 2 * e)
    else:
        det = sign * np.exp(logdet - 2 * e * _LOG2)
    logs, near = _quadratic_moduli(a + d, det, logdet, e)
    # a triangular matrix reads its diagonal
    triangular = (b == 0.0) | (c == 0.0)
    if triangular.any():
        diagonal = np.abs(np.stack([a[triangular], d[triangular]], axis=1))
        logs[triangular] = _log_scaled(diagonal, e[triangular, None])
        near &= ~triangular
    return logs, near


def _rayleigh_step(m, r):
    """One two-sided Rayleigh quotient step ``r + y (m - r) x / (y x)`` for
    a real eigenvalue estimate ``r`` of each matrix of a ``(B, 3, 3)``
    stack.

    Near a simple eigenvalue ``adj(m - r)`` is close to rank one, the
    product of its right and left eigenvectors; ``x`` and ``y`` are the
    column and the row of the adjugate through its largest diagonal entry.
    """
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = (
        (m[:, i, 0], m[:, i, 1], m[:, i, 2]) for i in range(3)
    )
    a0, b1, c2 = a0 - r, b1 - r, c2 - r
    adj = (
        (b1 * c2 - b2 * c1, a2 * c1 - a1 * c2, a1 * b2 - a2 * b1),
        (b2 * c0 - b0 * c2, a0 * c2 - a2 * c0, a2 * b0 - a0 * b2),
        (b0 * c1 - b1 * c0, a1 * c0 - a0 * c1, a0 * b1 - a1 * b0),
    )
    d0, d1, d2 = (np.abs(adj[i][i]) for i in range(3))
    first = (d0 >= d1) & (d0 >= d2)
    second = ~first & (d1 >= d2)

    def pick(v0, v1, v2):
        return np.where(first, v0, np.where(second, v1, v2))

    x = [pick(*row) for row in adj]
    y = [pick(*column) for column in zip(*adj)]
    residual = (
        y[0] * (a0 * x[0] + a1 * x[1] + a2 * x[2])
        + y[1] * (b0 * x[0] + b1 * x[1] + b2 * x[2])
        + y[2] * (c0 * x[0] + c1 * x[1] + c2 * x[2])
    )
    return r + residual / (y[0] * x[0] + y[1] * x[1] + y[2] * x[2])


def _cubic_moduli(ms, logdet, sign):
    """Log eigenvalue moduli of a ``(B, 3, 3)`` stack, in no order, and the
    mask of the rows left to LAPACK.

    The characteristic cubic ``x^3 - c2 x^2 + c1 x - c0`` of the matrix
    scaled to unit largest entry comes from cofactors, with ``c0`` from
    ``logdet``.  A real root ``r`` comes from Cardano's formula when the
    cubic has one, and from the trigonometric form, the one of largest
    modulus, when it has three; `_rayleigh_step` polishes it on the matrix
    itself.  The quotient ``x^2 - (c2 - r) x + c0 / r`` goes to
    `_quadratic_moduli` with ``logdet - log |r|``, so the smallest of three
    real roots comes from the exact log-det.  A row is also near a multiple
    root when ``|f'(r)| = |r - x_2| |r - x_3|`` is below _MULTIPLE_ROOT_TOL
    times ``max(r^2, |c0 / r|)``.
    """
    m, e = _scale_to_unit(ms)
    (a, b, c), (d, f, g), (h, k, l) = (
        (m[:, i, 0], m[:, i, 1], m[:, i, 2]) for i in range(3)
    )
    c2 = a + f + l
    c1 = (a * f - b * d) + (a * l - c * h) + (f * l - g * k)
    if logdet is None:
        c0 = a * (f * l - g * k) - b * (d * l - g * h) + c * (d * k - f * h)
        logdet = _log_scaled(np.abs(c0), 3 * e)
    else:
        c0 = sign * np.exp(logdet - 3 * e * _LOG2)
    # x = y + s turns the cubic into y^3 + p y + q
    s = c2 / 3.0
    p = c1 - c2 * s
    q = s * (c1 - 2.0 * s * s) - c0
    half_q, third_p = 0.5 * q, p / 3.0
    disc = half_q * half_q + third_p * third_p * third_p
    one = disc > 0.0
    r = np.empty(len(ms))
    # one real root: Cardano, with the cube root that cancels nothing
    u = -np.copysign(np.cbrt(np.abs(half_q[one]) + np.sqrt(disc[one])), q[one])
    r[one] = u - third_p[one] / u + s[one]
    # three: the largest and the smallest y sit at the angles theta / 3 and
    # (theta + 2 pi) / 3, and one of them has the largest |x|
    three = ~one
    radius = 2.0 * np.sqrt(np.maximum(-third_p[three], 0.0))
    theta = np.arccos(np.clip(3.0 * q[three] / (p[three] * radius), -1.0, 1.0))
    top = radius * np.cos(theta / 3.0) + s[three]
    bottom = radius * np.cos((theta + 2.0 * np.pi) / 3.0) + s[three]
    r[three] = np.where(np.abs(top) >= np.abs(bottom), top, bottom)
    slope = (3.0 * r - 2.0 * c2) * r + c1
    r = _rayleigh_step(m, r)
    quotient = c0 / r
    log_r = _log_scaled(np.abs(r), e)
    logs, near = _quadratic_moduli(c2 - r, quotient, logdet - log_r, e)
    near |= ~(np.abs(slope) > _MULTIPLE_ROOT_TOL * np.maximum(r * r, np.abs(quotient)))
    return np.column_stack([log_r, logs]), near


def _log_eig3(ms, logdet, sign):
    """Log eigenvalue moduli of a ``(B, 3, 3)`` stack, in no order, and the
    mask of the rows left to LAPACK: an isolated index reads its diagonal
    entry and deflates the rest to `_log_eig2`, and every other matrix goes
    to `_cubic_moduli`."""
    rows, pivots, blocks, dense = _split_isolated(ms)
    if not rows.size:
        return _cubic_moduli(ms, logdet, sign)
    logs = np.empty((len(ms), 3))
    lapack = np.zeros(len(ms), dtype=bool)
    logs[rows, 0] = np.log(np.abs(pivots))
    block_ld = block_sg = None
    if logdet is not None:
        block_ld = logdet[rows] - logs[rows, 0]
        block_sg = sign[rows] * np.sign(pivots)
    logs[rows, 1:], lapack[rows] = _log_eig2(blocks, block_ld, block_sg)
    if dense.any():
        logs[dense], lapack[dense] = _cubic_moduli(
            ms[dense],
            None if logdet is None else logdet[dense],
            None if sign is None else sign[dense],
        )
    return logs, lapack


def log_eigenvalue_moduli(products, logdet=None, sign=None):
    """Log eigenvalue moduli of each matrix of an ``(N, n, n)`` stack.

    Returns an ``(N, n)`` array, largest first, taken KERNEL_BLOCK rows at a
    time.  Every row has the same bits as when its matrix comes alone.
    ``logdet`` and ``sign`` give each row's ``log |det|`` and the sign of
    its determinant; a word product should pass the sums over its letters
    (see ``GeneratorSet.log_dets``).  Without them the matrix's own
    determinant is used.

    - An index whose off-diagonal row or column is exactly zero gives the
      eigenvalue ``P_ii`` exactly, as LAPACK's balancing does, and in n = 3
      the rest deflates to 2x2 with ``logdet - log |P_ii|``.  A triangular
      2x2 matrix reads its diagonal.
    - n = 2: the closed form of the matrix scaled by a power of two: real
      eigenvalues give ``log |l1|`` from ``(|t| + sqrt(t^2 - 4 det)) / 2``
      and ``log |l2| = logdet - log |l1|``, and a complex pair reads
      ``logdet / 2`` for both.
    - n = 3: the characteristic cubic from cofactors, with its largest real
      root polished on the matrix, and the rest as in n = 2 (see
      `_cubic_moduli`).
    - A matrix near a multiple eigenvalue, and every matrix for n >= 4,
      goes to LAPACK.

    A zero determinant reads ``-inf``; nothing warns.
    """
    products = np.asarray(products, dtype=float)
    n = products.shape[-1]
    if (logdet is None) != (sign is None):
        raise ValueError("logdet and sign go together")
    if logdet is not None:
        logdet = np.asarray(logdet, dtype=float)
        sign = np.asarray(sign, dtype=float)
    out = np.empty(products.shape[:2])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, len(products), KERNEL_BLOCK):
            block = slice(start, start + KERNEL_BLOCK)
            ms = products[block]
            ld = sg = None
            if logdet is not None:
                ld, sg = logdet[block], sign[block]
            if n == 2:
                logs, lapack = _log_eig2(ms, ld, sg)
            elif n == 3:
                logs, lapack = _log_eig3(ms, ld, sg)
            else:
                logs, lapack = np.empty((len(ms), n)), np.ones(len(ms), dtype=bool)
            if lapack.any():
                logs[lapack] = np.log(np.abs(np.linalg.eigvals(ms[lapack])))
            out[block] = _descending(logs)
    return out


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
    # written so that a NaN deviation fails
    if not np.abs(gram - np.eye(p)).max(initial=0.0) <= ORTHONORMAL_TOL:
        raise ValueError("subspace basis columns are not orthonormal")
    bases.flags.writeable = False
    return bases


def bottom_singular_subspace(ms, p: int, frames=None):
    """Spans of the right singular vectors for the ``p`` smallest singular
    values of each matrix of an ``(N, n, n)`` stack, as a read-only ``(N,
    n, p)`` stack of orthonormal bases.

    Each span equals that of the ``p`` leading left singular vectors of the
    inverse matrix, computed here without inverting.  The defining gap is
    the one between singular values ``n - p`` and ``n - p + 1``, checked
    matrix by matrix in one `singular_frames` call; ``frames``, the stack's
    `unchecked_frames`, spares that call its decomposition.
    """
    ms = np.asarray(ms, dtype=float)
    _require_square(ms.shape[1:], "matrix")
    n = ms.shape[-1]
    if not 1 <= p < n:
        raise ValueError(f"subspace size must satisfy 1 <= p < {n}, got {p}")
    _, vt = singular_frames(ms, n - p, stacklevel=3, frames=frames)
    return require_orthonormal(np.swapaxes(vt[:, -p:, :], 1, 2))


def _require_full_rank(x, s):
    """Refuse a stack of bases ``x`` with singular values ``s`` that scipy's
    orth would cut a column from: it drops the columns at or below this
    cutoff, and a full-rank basis keeps every one, so the stacks stay
    rectangular."""
    if not (s > s[:, :1] * np.finfo(float).eps * max(x.shape[-2:])).all():
        raise ValueError("principal angles need full-rank bases")


def _scaled_lengths(x):
    """``(v, length, e)`` of an ``(N, n, 1)`` stack of columns: ``v`` the
    ``(N, n)`` columns scaled exactly to unit largest entry, ``x[i] = v[i] *
    2**e[i]``, and ``length`` their ``(N,)`` Euclidean lengths, which no
    square can overflow or underflow.  Every sum runs along its own row, so
    a row gets the same bits in a stack as alone."""
    v, e = _scale_to_unit(x)
    v = v[..., 0]
    return v, np.sqrt(np.sum(v * v, axis=1)), e


def log_column_lengths(x):
    """``log |x[i]|`` of each column of an ``(N, n, 1)`` stack: its one
    singular value, without an SVD, as exact as ``np.log`` of the length."""
    _, length, e = _scaled_lengths(x)
    return _log_scaled(length, e)


def _column_cosine_sine(a, b):
    """Cosine and sine of the angle between the columns of two ``(N, n, 1)``
    stacks, as ``(N, 1)`` each: the cosine from the dot product of the unit
    columns, the sine from the length of the rejection of one from the
    other.  Every sum runs along its own row."""
    units = []
    for x in (a, b):
        v, length, _ = _scaled_lengths(x)
        _require_full_rank(x, length[:, None])
        units.append(v / length[:, None])
    qa, qb = units
    dot = np.sum(qa * qb, axis=1)[:, None]
    rest = qb - qa * dot
    return np.abs(dot), np.sqrt(np.sum(rest * rest, axis=1))[:, None]


def _block_cosines_sines(a, b):
    """Cosines and sines of the principal angles between two stacks of
    bases, by scipy's steps: orthonormalize by SVD, take the cosines as the
    singular values of ``Qa^T Qb`` and the sines as those of ``Qb - Qa Qa^T
    Qb`` (of ``Qa - Qb Qb^T Qa`` when p < q)."""
    qa, sa, _ = np.linalg.svd(a, full_matrices=False)
    qb, sb, _ = np.linalg.svd(b, full_matrices=False)
    _require_full_rank(a, sa)
    _require_full_rank(b, sb)
    cosines_matrix = np.swapaxes(qa, -1, -2) @ qb
    sigma = np.linalg.svd(cosines_matrix, compute_uv=False)
    if a.shape[-1] >= b.shape[-1]:
        rest = qb - qa @ cosines_matrix
    else:
        rest = qa - qb @ np.swapaxes(cosines_matrix, -1, -2)
    return sigma, np.linalg.svd(rest, compute_uv=False)


def _principal_angles(a, b):
    """The principal angles between ``a[i]`` and ``b[i]`` for each i, as rows
    in the order of ``scipy.linalg.subspace_angles``.

    ``a`` and ``b`` are ``(N, n, p)`` and ``(N, n, q)`` stacks of full-rank
    column bases.  Two single columns take the closed form of
    `_column_cosine_sine`, other blocks scipy's SVD steps.  Either way each
    angle is read from its arcsine where the cosine squared is at least 1/2
    and from the arccosine of the reversed cosines elsewhere, as scipy reads
    it.
    """
    if a.shape[-1] == b.shape[-1] == 1:
        sigma, sines = _column_cosine_sine(a, b)
    else:
        sigma, sines = _block_cosines_sines(a, b)
    return np.where(
        sigma**2 >= 0.5,
        np.arcsin(np.clip(sines, -1.0, 1.0)),
        np.arccos(np.clip(sigma[:, ::-1], -1.0, 1.0)),
    )


def subspace_distance(u, w):
    """Largest principal angle between matching rows of two ``(N, n, p)``
    stacks of column bases, as an ``(N,)`` array.

    This is a metric on the Grassmannian; use it to compare successive
    estimates of the same subspace.  A value is the largest of
    `_principal_angles`: those of ``scipy.linalg.subspace_angles`` for p >=
    2, and a closed form within a few ulps of the exact angle for p = 1.  A
    row gets the same bits in a stack as alone.
    """
    a, b = np.asarray(u, dtype=float), np.asarray(w, dtype=float)
    if a.ndim != 3 or a.shape != b.shape:
        raise ValueError(
            f"need two equal (N, n, p) stacks of bases, got {a.shape} and {b.shape}"
        )
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("bases must be finite")
    return _principal_angles(a, b).max(axis=1)
