"""Affine actions and spectral obstructions to proper affine dynamics.

A group acting affinely on R^n with compact quotient forces spectral
constraints on its linear part: scanned word products must satisfy
``det(rho(g) - I) = 0`` (an eigenvalue 1), and the eigenvalue picture admits
two finite readings tested here side by side.  `hks_test` scans the
normalized determinant ``|det(rho(g) - I)| / (1 + smax(rho(g)))^n``;
`eigenvalue_norm_one_check` requires every scanned product to carry an
eigenvalue of modulus 1 up to tolerance; `bounded_singular_check` instead
asks the per-sphere worst ``min_i |log a_i|`` to plateau rather than grow.

`affine_checks` returns all three reports from one pass over the spheres:
each sphere's products take one call of the stacked singular-value kernel
(`linalg.log_singular_values`), which gives both the HKS ``smax`` and the
bounded-singular ``a_i``, one call of the stacked eigenvalue-modulus kernel
(`linalg.log_eigenvalue_moduli`) with each word's exact log-det and sign,
and one ``det``.  The single checks run the same scan with their one
statistic.

All scans accept either an :class:`AffineGeneratorSet` (linear part is
projected out) or a bare linear :class:`~repdyn.domination.GeneratorSet`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import words
from .domination import GeneratorSet
from .errors import DegenerateInputError, NumericOverflowError
from .fitting import fit_line
from .linalg import log_eigenvalue_moduli, require_matrix

DEFAULT_HKS_THRESHOLD = 1e-8
DEFAULT_EIGENVALUE_TOL = 1e-9

# |fitted slope| below max(2 se, this) counts as a plateau
PLATEAU_SLOPE_FLOOR = 1e-6

_EIGENVALUE_ONE_CRITERION = (
    "every scanned product has an eigenvalue of modulus 1 up to tolerance:"
    " min_i |log lambda_i(rho(g))| <= tol"
)
_BOUNDED_SINGULAR_CRITERION = (
    "per-sphere maxima of min_i |log a_i(rho(g))| stay bounded:"
    " fitted slope vs length is 0 within its confidence interval"
)


@dataclass(frozen=True, eq=False)
class AffineMap:
    """An invertible affine map ``x -> linear @ x + translation``."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        lin = require_matrix(self.linear, "linear part")
        tr = np.asarray(self.translation, dtype=float)
        if tr.shape != (lin.shape[0],):
            raise DegenerateInputError(
                f"translation shape {tr.shape} does not match dimension {lin.shape[0]}"
            )
        if not np.isfinite(tr).all():
            raise DegenerateInputError("translation has non-finite entries")
        lin, tr = lin.copy(), tr.copy()
        lin.flags.writeable = False
        tr.flags.writeable = False
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "translation", tr)

    @property
    def dim(self) -> int:
        return self.linear.shape[0]

    @classmethod
    def identity(cls, n: int) -> "AffineMap":
        return cls(np.eye(n), np.zeros(n))

    def apply(self, x) -> np.ndarray:
        return self.linear @ np.asarray(x, dtype=float) + self.translation

    def inverse(self) -> "AffineMap":
        inv = np.linalg.inv(self.linear)
        return AffineMap(inv, -inv @ self.translation)


def compose(f: AffineMap, g: AffineMap) -> AffineMap:
    """The affine map ``x -> f(g(x))``."""
    if f.dim != g.dim:
        raise DegenerateInputError("cannot compose affine maps of different dimension")
    return AffineMap(f.linear @ g.linear, f.linear @ g.translation + f.translation)


class AffineGeneratorSet:
    """Affine maps indexed by free group letters, with a linear projection.

    The linear part is exposed as a :class:`GeneratorSet`; that projection
    being a homomorphism is spot-checked on random word pairs at
    construction (composition of maps versus product of linear images).
    """

    def __init__(self, maps, names=None):
        maps = list(maps)
        if not maps:
            raise DegenerateInputError("affine generator set must be nonempty")
        for i, f in enumerate(maps):
            if not isinstance(f, AffineMap):
                raise TypeError(f"generator {i + 1} is not an AffineMap")
        self._maps = tuple(maps)
        # refuses a singular linear part before it is inverted
        self._linear = GeneratorSet([f.linear for f in maps], names)
        self._inverses = tuple(f.inverse() for f in maps)
        self._spot_check_homomorphism()

    def _spot_check_homomorphism(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            u = words.random_word(self.rank, 3, rng)
            v = words.random_word(self.rank, 3, rng)
            left = compose(self.evaluate_map(u), self.evaluate_map(v))
            right = self.evaluate_map(u * v)
            scale = max(1.0, float(np.abs(left.linear).max()))
            if np.abs(left.linear - right.linear).max() > 1e-9 * scale:
                raise DegenerateInputError(
                    "linear projection failed the homomorphism spot check"
                )

    @property
    def rank(self) -> int:
        return len(self._maps)

    @property
    def dim(self) -> int:
        return self._maps[0].dim

    @property
    def names(self) -> tuple[str, ...]:
        return self._linear.names

    @property
    def linear_part(self) -> GeneratorSet:
        return self._linear

    def image_map(self, letter: int) -> AffineMap:
        if letter == 0 or abs(letter) > self.rank:
            raise ValueError(f"letter {letter} outside rank {self.rank}")
        if letter > 0:
            return self._maps[letter - 1]
        return self._inverses[-letter - 1]

    def evaluate_map(self, word) -> AffineMap:
        out = AffineMap.identity(self.dim)
        letters = word.letters if isinstance(word, words.Word) else tuple(word)
        for l in letters:
            out = compose(out, self.image_map(l))
        return out

    def word_name(self, word) -> str:
        return self._linear.word_name(word)


def _linear_part(gens):
    return gens.linear_part if isinstance(gens, AffineGeneratorSet) else gens


@dataclass
class SphereExtreme:
    """Per-sphere worst case of a scanned word statistic."""

    length: int
    count: int
    value: float
    word: words.Word


# Each statistic maps a sphere and its stacked log singular values (largest
# first) to one value per word.


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
        _, logdet = np.linalg.slogdet(shifted[far])
        values[far] = np.exp(logdet - n * np.logaddexp(0.0, logs[far, 0]))
    return values


def _hks_stat(sphere, logs):
    return _hks_values(sphere.products, logs)


def _eigenvalue_values(sphere, logs):
    moduli = log_eigenvalue_moduli(sphere.products, sphere.logdet, sphere.sign)
    return np.abs(moduli).min(axis=1)


def _bounded_values(sphere, logs):
    return np.abs(logs).min(axis=1)


def _scan_extremes(gens, L_max, stats, policy):
    """Per-sphere maxima of each statistic in ``stats``, from one sphere pass.

    Every sphere takes one `log_singular_values` call that all the
    statistics share; ties go to the shortlex-first word.  Returns one list
    of records per statistic and whether the scan was truncated: it stops at
    the last complete sphere when a product overflows.
    """
    linear = _linear_part(gens)

    def extremes(sphere):
        letters = sphere.letters
        logs = sphere.log_singular_values()
        out = []
        for stat in stats:
            values = stat(sphere, logs)
            i = words.shortlex_argmin(-values, letters)
            out.append(SphereExtreme(
                length=letters.shape[1], count=len(values), value=float(values[i]),
                word=words.Word(letters[i]),
            ))
        return out

    spheres = words.map_sphere_products(linear, L_max, extremes, policy)
    if not spheres:
        raise NumericOverflowError("no complete sphere before overflow", prefix_length=1)
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


def _hks_report(records, L_max, truncated, threshold) -> HksReport:
    worst = max(records, key=lambda r: r.value)
    first_fail = next((r.length for r in records if r.value > threshold), None)
    return HksReport(
        passed=first_fail is None,
        threshold=threshold,
        max_normalized=worst.value,
        worst_word=worst.word,
        worst_length=worst.length,
        first_fail_length=first_fail,
        spheres=records,
        L_max=L_max,
        truncated=truncated,
    )


def hks_test(gens, L_max: int, policy=words.Exhaustive(),
             threshold=DEFAULT_HKS_THRESHOLD) -> HksReport:
    """Scan the normalized determinant ``|det(rho(g) - I)|`` over spheres.

    The normalization ``(1 + smax(rho(g)))^n`` makes the statistic scale
    free, so one threshold works across growth rates.  Passing means every
    scanned product is consistent with having eigenvalue 1.
    """
    (records,), truncated = _scan_extremes(gens, L_max, (_hks_stat,), policy)
    return _hks_report(records, L_max, truncated, threshold)


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
    """Does every scanned product have an eigenvalue of modulus 1?

    The deviation of a product is ``min_i |log lambda_i|``; the check passes
    when the worst deviation stays at or below ``tol``.
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


def _bounded_report(records, L_max, truncated, slope_floor) -> BoundedSingularReport:
    values = [r.value for r in records]
    if len(records) >= 2:
        slope, _, se = fit_line([r.length for r in records], values)
    else:
        slope, se = float("nan"), float("nan")
    ci = (slope - 2.0 * se, slope + 2.0 * se)
    passed = bool(abs(slope) <= max(2.0 * se, slope_floor))
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


def bounded_singular_check(gens, L_max: int, policy=words.Exhaustive(),
                           slope_floor=PLATEAU_SLOPE_FLOOR) -> BoundedSingularReport:
    """Do per-sphere maxima of ``min_i |log a_i|`` plateau rather than grow?

    Fits the sphere maxima against length; passing means the slope is 0
    within two standard errors (or below ``slope_floor`` when the fit is
    exact).  ``C_hat`` is the largest observed value, the empirical bound.
    Needs ``L_max >= 2`` for the fit.
    """
    _require_fit_length(L_max)
    (records,), truncated = _scan_extremes(gens, L_max, (_bounded_values,), policy)
    return _bounded_report(records, L_max, truncated, slope_floor)


def affine_checks(gens, L_max: int, policy=words.Exhaustive(),
                  threshold=DEFAULT_HKS_THRESHOLD, tol=DEFAULT_EIGENVALUE_TOL,
                  slope_floor=PLATEAU_SLOPE_FLOOR):
    """`hks_test`, `eigenvalue_norm_one_check` and `bounded_singular_check`
    from one sphere pass.

    Returns the three reports, equal to what the three calls return; each
    sphere is enumerated once and its log singular values feed both the HKS
    ``smax`` and the bounded-singular ``min_i |log a_i|``.  Needs ``L_max >= 2``.
    """
    _require_fit_length(L_max)
    (hks, eig, bounded), truncated = _scan_extremes(
        gens, L_max, (_hks_stat, _eigenvalue_values, _bounded_values), policy
    )
    return (
        _hks_report(hks, L_max, truncated, threshold),
        _eigenvalue_report(eig, L_max, truncated, tol),
        _bounded_report(bounded, L_max, truncated, slope_floor),
    )
