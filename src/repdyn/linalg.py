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
    >>> w = linalg.jordan_projection(np.array([[2.0, 1.0], [1.0, 1.0]]))
    >>> np.round(w.values, 4)
    array([ 0.9624, -0.9624])
    >>> linalg.jordan_projection(np.array([[0.0, -2.0], [2.0, 0.0]])).values
    array([0.69314718, 0.69314718])

Subspace extraction (`top_singular_subspace`, `bottom_singular_subspace`)
refuses to answer when the defining singular value gap is numerically
degenerate, raising :class:`~repdyn.errors.DegenerateGapError` instead of
returning an arbitrary basis.  Angles between subspaces come in two flavors:
`principal_angle` (smallest angle, measures transversality) and
`subspace_distance` (largest angle, measures how far apart two estimates of
the same subspace are), both from one stacked numpy copy of the steps of
``scipy.linalg.subspace_angles``.

`log_singular_values` is the one stacked singular-value kernel that every
sphere scan reads: the sorted log singular values of an ``(N, n, n)`` stack,
in closed form for n = 2 (the small one from an exact log-det when the
caller has one), for n = 3 from top singular values only (``s3(w) = 1 /
s1(w^-1)`` read off the inverse word's row, ``s2`` from the exact log-det)
and by LAPACK for a row with no inverse row and for larger n.
`log_eigenvalue_moduli` is its eigenvalue twin: the sorted log eigenvalue
moduli, read exactly off an isolated diagonal entry, in closed form for n =
2 and from the characteristic cubic for n = 3, the smallest real one from
the exact log-det, and by LAPACK near a multiple eigenvalue and for larger
n.  In both a row gets the same bits in a stack as alone (with its inverse
row), and `cartan_projection` and `jordan_projection` are the kernels on a
stack of one.

The singular subspaces and `subspace_distance` run on stacks.
`singular_frames` decomposes an ``(N, n, n)`` stack in one call, checking
each matrix as the one-matrix functions do and raising one aggregated
:class:`~repdyn.errors.ConditionWarning`; `subspace_distance` also takes two
``(N, n, p)`` stacks of bases, and `bottom_singular_subspace` an ``(N, n,
n)`` stack of matrices.  The one-matrix functions are these kernels applied
to a stack of one.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

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

# rows `log_singular_values` takes at a time, which bounds its temporaries
KERNEL_BLOCK = 8192

# the n = 3 closed form hands a matrix to LAPACK when 1 + r is below this,
# r = -1 marking a double largest singular value (see `_log_top3`)
_DOUBLE_TOP_TOL = 1e-4

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
    if not np.isfinite(m).all():
        raise DegenerateInputError(f"{what} has non-finite entries")
    # the zero matrix has no pivot, so only a failed LU needs the full verdict
    sign, logdet = np.linalg.slogdet(m)
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


def _scale_to_unit(ms, top=0):
    """``(scaled, e)`` with ``ms = scaled * 2**e`` row by row: each matrix of a
    stack scaled exactly, by a power of two, so that its largest entry lies
    in [2**(top - 1), 2**top)."""
    # a chain of elementwise maxima: numpy reduces small axes slowly
    entries = np.abs(ms.reshape(len(ms), -1)).T
    _, e = np.frexp(functools.reduce(np.maximum, entries))
    return np.ldexp(ms, (top - e)[:, None, None]), e - top


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


def _log_top3(ms):
    """``(log s1, near)`` of a ``(B, 3, 3)`` stack, ``near`` masking the
    rows whose top two singular values are too close for this closed form.

    ``s1**2`` is the largest eigenvalue of the Gram matrix ``G`` of the
    matrix scaled to unit largest entry: with ``q`` the mean of the
    eigenvalues, ``p`` their root mean square distance from it and ``r =
    det((G - q I) / p) / 2``, ``q + 2 p cos(arccos(r) / 3)``, or ``q`` when
    ``p = 0``.  Rounding ``r`` costs about ``eps / sqrt(1 + r)`` relative to
    ``s1``, large where the top two meet at ``r = -1``."""
    m, e = _scale_to_unit(ms)
    # x[i] holds entry i of every matrix, flattened row by row
    x = np.ascontiguousarray(m.reshape(len(ms), 9).T)

    def gram(j, k):
        return x[j] * x[k] + x[3 + j] * x[3 + k] + x[6 + j] * x[6 + k]

    g00, g11, g22 = gram(0, 0), gram(1, 1), gram(2, 2)
    g01, g02, g12 = gram(0, 1), gram(0, 2), gram(1, 2)
    q = (g00 + g11 + g22) / 3.0
    d0, d1, d2 = g00 - q, g11 - q, g22 - q
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2
                 + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12)) / 6.0)
    unit = np.where(p > 0.0, p, 1.0)
    d0, d1, d2, b01, b02, b12 = (v / unit for v in (d0, d1, d2, g01, g02, g12))
    r = 0.5 * (d0 * (d1 * d2 - b12 * b12) - b01 * (b01 * d2 - b12 * b02)
               + b02 * (b01 * b12 - d1 * b02))
    r = np.clip(r, -1.0, 1.0)
    top = q + 2.0 * p * np.cos(np.arccos(r) / 3.0)
    return _log_scaled(np.sqrt(top), e), ~(1.0 + r >= _DOUBLE_TOP_TOL)


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


def _descending(logs):
    return -np.sort(-logs, axis=1)


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


@dataclass(frozen=True, eq=False)
class SpectralVector:
    """A nonincreasing vector of logarithms with a declared origin.

    ``kind`` is ``"cartan"`` for log singular values or ``"jordan"`` for log
    eigenvalue moduli.  The entries sum to log |det| in both cases.
    """

    values: np.ndarray
    kind: str

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("spectral vector must be a nonempty 1-d array")
        # a few entries: Python floats check them faster than numpy calls
        entries = values.tolist()
        if not all(map(math.isfinite, entries)):
            raise ValueError("spectral vector entries must be finite")
        if self.kind not in ("cartan", "jordan"):
            raise ValueError(f"unknown spectral vector kind {self.kind!r}")
        slack = _SORT_TOL * (1.0 + max(map(abs, entries)))
        if any(b - a > slack for a, b in zip(entries, entries[1:])):
            raise ValueError("spectral vector must be nonincreasing")
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
    # written so that a NaN deviation fails
    if not np.abs(gram - np.eye(p)).max(initial=0.0) <= ORTHONORMAL_TOL:
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
    """Log singular values of ``m``, nonincreasing: `log_singular_values`
    of a stack of one, which has no log-det and no inverse row, so n >= 3
    is LAPACK.

    Raises :class:`DegenerateInputError` when they span more than float64
    allows and emits :class:`ConditionWarning` when the condition number
    exceeds CONDITION_LIMIT.
    """
    m = require_matrix(m)
    s = log_singular_values(m[None])[0]
    with np.errstate(over="ignore"):
        cond = np.exp(s[:1] - s[-1:])
    if not np.isfinite(cond[0]):
        raise DegenerateInputError(_SPAN_MESSAGE)
    _warn_ill_conditioned(cond, 1, stacklevel=2)
    return SpectralVector(s, "cartan")


def jordan_projection(m) -> SpectralVector:
    """Log moduli of the eigenvalues of ``m``, nonincreasing:
    `log_eigenvalue_moduli` of a stack of one.

    Invariant under conjugation, and equals the limit of
    ``cartan_projection(m^k).values / k``.  Raises
    :class:`DegenerateInputError` when an eigenvalue modulus underflows to
    zero.
    """
    m = require_matrix(m)
    v = log_eigenvalue_moduli(m[None])[0]
    if not np.isfinite(v[-1]):
        raise DegenerateInputError("eigenvalue modulus underflowed to zero")
    return SpectralVector(v, "jordan")


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
    return float(_principal_angles(u.basis[None], w.basis[None]).min())


def _principal_angles(a, b):
    """``scipy.linalg.subspace_angles(a[i], b[i])`` for each i, as rows.

    ``a`` and ``b`` are ``(N, n, p)`` and ``(N, n, q)`` stacks of full-rank
    column bases.  The steps are scipy's: orthonormalize by SVD, take the
    cosines as the singular values of ``Qa^T Qb`` and the sines as those of
    ``Qb - Qa Qa^T Qb`` (of ``Qa - Qb Qb^T Qa`` when p < q), and read each
    angle from its arcsine where the cosine squared is at least 1/2 and from
    the arccosine of the reversed cosines elsewhere.
    """
    qa, sa, _ = np.linalg.svd(a, full_matrices=False)
    qb, sb, _ = np.linalg.svd(b, full_matrices=False)
    # scipy's orth drops columns at or below this cutoff; a full-rank basis
    # keeps every one, so the stacks stay rectangular
    for x, s in ((a, sa), (b, sb)):
        if not (s > s[:, :1] * np.finfo(float).eps * max(x.shape[-2:])).all():
            raise ValueError("principal angles need full-rank bases")
    cosines_matrix = np.swapaxes(qa, -1, -2) @ qb
    sigma = np.linalg.svd(cosines_matrix, compute_uv=False)
    if a.shape[-1] >= b.shape[-1]:
        rest = qb - qa @ cosines_matrix
    else:
        rest = qa - qb @ np.swapaxes(cosines_matrix, -1, -2)
    sines = np.linalg.svd(rest, compute_uv=False)
    return np.where(
        sigma**2 >= 0.5,
        np.arcsin(np.clip(sines, -1.0, 1.0)),
        np.arccos(np.clip(sigma[:, ::-1], -1.0, 1.0)),
    )


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
        return float(_principal_angles(u.basis[None], w.basis[None]).max())
    a, b = np.asarray(u, dtype=float), np.asarray(w, dtype=float)
    if a.ndim != 3 or a.shape != b.shape:
        raise ValueError(
            f"need two equal (N, n, p) stacks of bases, got {a.shape} and {b.shape}"
        )
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("bases must be finite")
    return _principal_angles(a, b).max(axis=1)
