"""Spectral obstructions to proper affine dynamics, read off the linear part.

A group acting affinely on R^n with compact quotient forces spectral
constraints on its linear part rho: scanned word products must satisfy
``det(rho(g) - I) = 0`` (an eigenvalue 1), and the eigenvalue picture admits
two finite readings tested here side by side.  `hks_test` scans the
normalized determinant ``|det(rho(g) - I)| / (1 + smax(rho(g)))^n``;
`eigenvalue_norm_one_check` requires every scanned conjugacy class to carry
an eigenvalue of modulus 1 up to tolerance; `bounded_singular_check` instead
asks the per-sphere worst ``min_i |log a_i|`` to plateau rather than grow.

Having an eigenvalue of modulus 1 is a class function, so the eigenvalue
check reads one word per conjugacy class: on an exhaustive sphere the words
that are cyclically reduced and shortlex-least among their rotations
(`Sphere.class_rows`), and under the sampled policy every drawn word.  A
class representative's product is also the most accurate one: a conjugate
``c v c^-1`` has a product whose norm grows with ``c`` while its spectrum
does not.  The HKS and bounded-singular statistics are normalised by
singular values, which are not class functions, so they read every word.

`affine_checks` returns all three reports from one pass over the spheres.
Each sphere reads its rows of the stacked singular-value kernel
(`Sphere.log_singular_values`), which gives both the HKS ``smax`` and the
bounded-singular ``a_i``, and its class rows of the stacked
eigenvalue-modulus kernel (`Sphere.class_log_eigenvalue_moduli`), with each
word's exact log-det and sign; each kernel runs once per kernel group of
spheres (:class:`~repdyn.words.KernelGroup`), the eigenvalue kernel on the
group's class rows only.  Each sphere also takes one ``det``, and where
that or the scale overflows, one `linalg.scaled_slogdet`.  The single
checks run the same scan with their one statistic.  Only the eigenvalue
check takes a tolerance; the others use DEFAULT_HKS_THRESHOLD and
PLATEAU_SLOPE_FLOOR.

Every scan takes the linear part as a
:class:`~repdyn.domination.GeneratorSet`; the translations of the affine
action do not enter these checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import words
from .fitting import fit_line
from .linalg import _fold_columns, scaled_slogdet

DEFAULT_HKS_THRESHOLD = 1e-8
DEFAULT_EIGENVALUE_TOL = 1e-9

# |fitted slope| below max(2 se, this) counts as a plateau
PLATEAU_SLOPE_FLOOR = 1e-6

_EIGENVALUE_ONE_CRITERION = (
    "every scanned conjugacy class has an eigenvalue of modulus 1 up to"
    " tolerance: min_i |log lambda_i(rho(g))| <= tol, with g the class's"
    " shortlex-least cyclically reduced word on exhaustive spheres and each"
    " drawn word under sampling"
)
_BOUNDED_SINGULAR_CRITERION = (
    "per-sphere maxima of min_i |log a_i(rho(g))| stay bounded:"
    " fitted slope vs length is 0 within its confidence interval"
)


@dataclass
class SphereExtreme:
    """Per-sphere worst case of a scanned word statistic."""

    length: int
    count: int
    value: float
    word: words.Word


# Each statistic maps a sphere and its stacked log singular values (largest
# first) to one value per word it reads, and the letters of those words.


def _hks_values(products, logs):
    n = products.shape[-1]
    shifted = products - np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.linalg.det(shifted)
        # float_power runs libm pow like scalar ``**``; array ``**`` rounds differently
        scale = np.float_power(1.0 + np.exp(logs[:, 0]), n)
        values = np.abs(det) / scale
    # where the determinant or the scale overflows, take the quotient in logs
    far = ~(np.isfinite(det) & np.isfinite(scale)) | np.isnan(values)
    if far.any():
        _, logdet = scaled_slogdet(shifted[far])
        values[far] = np.exp(logdet - n * np.logaddexp(0.0, logs[far, 0]))
    return values


def _hks_stat(sphere, logs):
    return _hks_values(sphere.products, logs), sphere.letters


def _eigenvalue_values(sphere, logs):
    # a class function: one word per conjugacy class (`Sphere.class_rows`)
    values = _fold_columns(np.minimum, np.abs(sphere.class_log_eigenvalue_moduli()))
    return values, sphere.letters.take(sphere.class_rows, axis=0)


def _bounded_values(sphere, logs):
    return _fold_columns(np.minimum, np.abs(logs)), sphere.letters


def _scan_extremes(gens, L_max, stats, policy):
    """Per-sphere maxima of each statistic in ``stats``, from one sphere pass.

    Every sphere reads its rows of the group's singular values once, and
    all the statistics share them; ties go to the shortlex-first word.
    Returns one list of records per statistic and whether the scan was
    truncated: it stops at the last complete sphere when a product
    overflows.
    """
    def extremes(sphere):
        logs = sphere.log_singular_values()
        out = []
        for stat in stats:
            values, letters = stat(sphere, logs)
            i = words.shortlex_argmin(-values, letters)
            out.append(SphereExtreme(
                length=letters.shape[1], count=len(values), value=float(values[i]),
                word=words.Word(letters[i]),
            ))
        return out

    spheres = words.map_sphere_products(gens, L_max, extremes, policy)
    return [list(records) for records in zip(*spheres)], len(spheres) < L_max


def _require_fit_length(L_max):
    if L_max < 2:
        raise ValueError("L_max must be at least 2 to fit a slope")


@dataclass
class HksReport:
    """Outcome of `hks_test`."""

    passed: bool
    threshold: float
    max_normalized: float
    worst_word: words.Word
    worst_length: int
    first_fail_length: Optional[int]
    spheres: list[SphereExtreme]
    L_max: int
    truncated: bool


def _hks_report(records, L_max, truncated) -> HksReport:
    worst = max(records, key=lambda r: r.value)
    first_fail = next((r.length for r in records if r.value > DEFAULT_HKS_THRESHOLD), None)
    return HksReport(
        passed=first_fail is None,
        threshold=DEFAULT_HKS_THRESHOLD,
        max_normalized=worst.value,
        worst_word=worst.word,
        worst_length=worst.length,
        first_fail_length=first_fail,
        spheres=records,
        L_max=L_max,
        truncated=truncated,
    )


def hks_test(gens, L_max: int, policy=words.Exhaustive()) -> HksReport:
    """Scan the normalized determinant ``|det(rho(g) - I)|`` over spheres.

    The normalization ``(1 + smax(rho(g)))^n`` makes the statistic scale
    free, so one threshold, DEFAULT_HKS_THRESHOLD, fits all growth rates.
    Passing means every scanned product is consistent with eigenvalue 1.
    """
    (records,), truncated = _scan_extremes(gens, L_max, (_hks_stat,), policy)
    return _hks_report(records, L_max, truncated)


@dataclass
class EigenvalueOneReport:
    """Outcome of `eigenvalue_norm_one_check`."""

    passed: bool
    criterion: str
    tol: float
    worst_deviation: float
    worst_word: words.Word
    worst_length: int
    spheres: list[SphereExtreme]
    L_max: int
    truncated: bool


def _eigenvalue_report(records, L_max, truncated, tol) -> EigenvalueOneReport:
    worst = max(records, key=lambda r: r.value)
    return EigenvalueOneReport(
        passed=worst.value <= tol,
        criterion=_EIGENVALUE_ONE_CRITERION,
        tol=tol,
        worst_deviation=worst.value,
        worst_word=worst.word,
        worst_length=worst.length,
        spheres=records,
        L_max=L_max,
        truncated=truncated,
    )


def eigenvalue_norm_one_check(gens, L_max: int, tol=DEFAULT_EIGENVALUE_TOL,
                              policy=words.Exhaustive()) -> EigenvalueOneReport:
    """Does every scanned conjugacy class have an eigenvalue of modulus 1?

    The deviation of a word is ``min_i |log lambda_i|`` of its product, read
    on one word per class (`Sphere.class_rows`); the check passes when the
    worst deviation stays at or below ``tol``.  Each sphere's ``count`` is
    the number of words read.
    """
    (records,), truncated = _scan_extremes(gens, L_max, (_eigenvalue_values,), policy)
    return _eigenvalue_report(records, L_max, truncated, tol)


@dataclass
class BoundedSingularReport:
    """Outcome of `bounded_singular_check`."""

    passed: bool
    criterion: str
    C_hat: float
    slope: float
    slope_ci: tuple[float, float]
    spheres: list[SphereExtreme]
    L_max: int
    truncated: bool


def _bounded_report(records, L_max, truncated) -> BoundedSingularReport:
    values = [r.value for r in records]
    if len(records) >= 2:
        slope, _, se = fit_line([r.length for r in records], values)
    else:
        slope, se = float("nan"), float("nan")
    ci = (slope - 2.0 * se, slope + 2.0 * se)
    passed = bool(abs(slope) <= max(2.0 * se, PLATEAU_SLOPE_FLOOR))
    return BoundedSingularReport(
        passed=passed,
        criterion=_BOUNDED_SINGULAR_CRITERION,
        C_hat=float(max(values)),
        slope=slope,
        slope_ci=ci,
        spheres=records,
        L_max=L_max,
        truncated=truncated,
    )


def bounded_singular_check(gens, L_max: int,
                           policy=words.Exhaustive()) -> BoundedSingularReport:
    """Do per-sphere maxima of ``min_i |log a_i|`` plateau rather than grow?

    Fits the sphere maxima against length; passing means the slope is 0
    within two standard errors (or below PLATEAU_SLOPE_FLOOR when the fit
    is exact).  ``C_hat`` is the largest observed value, the empirical bound.
    Needs ``L_max >= 2`` for the fit.
    """
    _require_fit_length(L_max)
    (records,), truncated = _scan_extremes(gens, L_max, (_bounded_values,), policy)
    return _bounded_report(records, L_max, truncated)


def affine_checks(gens, L_max: int, policy=words.Exhaustive(),
                  tol=DEFAULT_EIGENVALUE_TOL):
    """`hks_test`, `eigenvalue_norm_one_check` and `bounded_singular_check`
    from one sphere pass.

    Returns the three reports, equal to what the three calls return with
    ``tol`` given to the eigenvalue check; each sphere is enumerated once and
    its log singular values feed both the HKS ``smax`` and the
    bounded-singular ``min_i |log a_i|``.  Needs ``L_max >= 2``.
    """
    _require_fit_length(L_max)
    (hks, eig, bounded), truncated = _scan_extremes(
        gens, L_max, (_hks_stat, _eigenvalue_values, _bounded_values), policy
    )
    return (
        _hks_report(hks, L_max, truncated),
        _eigenvalue_report(eig, L_max, truncated, tol),
        _bounded_report(bounded, L_max, truncated),
    )
