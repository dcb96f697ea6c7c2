"""The stacked sphere engine against a per-word reference.

The reference enumerates words one by one (`enumerate_sphere`, or the rows
of `sampled_words`), evaluates each with `evaluate`, applies per-matrix numpy
calls, or the singular-value and eigenvalue-modulus kernels to a stack of
one word with that word's log-det and sign, and reduces with Python ``min``
over ``(value, shortlex key)``.  Where the sphere holds each word's inverse
(exhaustive or inversion-closed), the singular-value kernel gets the word
next to its inverse word, evaluated on its own, so for n = 3 its smallest
singular value comes from that.  Every scan statistic must agree with it
bit for bit.  The eigenvalue-one screen is a class function, so on an
exhaustive sphere its reference reads only the words that are cyclically
reduced and shortlex-least among their rotations (`is_class_representative`),
one per conjugacy class.  The columnar cone checks are
held to a per-sample loop over the same levels in the same way.
"""

import dataclasses

import numpy as np
import pytest

from repdyn import linalg, spectrum
from repdyn.affine import (
    affine_checks,
    bounded_singular_check,
    eigenvalue_norm_one_check,
    hks_test,
)
from repdyn.domination import GeneratorSet, SphereRecord, domination_scan
from repdyn.spectrum import (
    ConeLevel,
    _row_norms,
    containment_check,
    involution_symmetry_check,
    sample_cone,
)
from repdyn.words import (
    Exhaustive,
    Sampled,
    Word,
    enumerate_sphere,
    evaluate,
    iter_sphere_products,
    sampled_words,
    shortlex_argmin,
)

from conftest import is_class_representative

POLICIES = [Exhaustive(), Sampled(count=30, seed=4)]


@pytest.fixture(scope="module")
def rank3_dim4():
    """Three seeded 4x4 generators, with complex eigenvalues among the words."""
    rng = np.random.default_rng(8)
    return GeneratorSet([np.eye(4) + 0.6 * rng.standard_normal((4, 4)) for _ in range(3)])


@pytest.fixture(params=["ping_pong", "partial_hyperbolic_pair", "rank3_dim4"])
def gens(request):
    return request.getfixturevalue(request.param)


def reference_rows(gens, length, policy, inversion_closed=False):
    if isinstance(policy, Sampled):
        letters = sampled_words(gens.rank, length, policy, inversion_closed)
        drawn = [Word(row) for row in letters.tolist()]
    else:
        drawn = list(enumerate_sphere(gens.rank, length))
    return [(w, evaluate(w, gens)) for w in drawn]


def word_log_singular_values(gens, w, p, paired):
    """The kernel's log singular values of the one word ``w`` with image
    ``p``, next to its inverse word when the sphere holds it (``paired``)."""
    if not paired:
        return linalg.log_singular_values(p[None], gens.log_dets([w.letters])[0])[0]
    inv = w.inverse()
    letters = np.array([w.letters, inv.letters])
    products = np.stack([p, evaluate(inv, gens)])
    return linalg.log_singular_values(products, gens.log_dets(letters)[0], [1, 0])[0]


def word_log_eigenvalue_moduli(gens, w, p):
    """The kernel's log eigenvalue moduli of the one word ``w`` with image ``p``."""
    return linalg.log_eigenvalue_moduli(p[None], *gens.log_dets([w.letters]))[0]


def shortlex_max(rows):
    """(value, word) with the largest value, ties to the shortlex-first word."""
    return min(rows, key=lambda r: (-r[0], r[1].shortlex_key()))


def reference_record(gens, k, length, policy):
    n = gens.dim
    rows = []
    paired = isinstance(policy, Exhaustive)
    for w, p in reference_rows(gens, length, policy):
        s = word_log_singular_values(gens, w, p, paired)
        rows.append((min(s[k - 1] - s[k], s[n - k - 1] - s[n - k]), s[k - 1], s[n - k], w))
    best = min(rows, key=lambda r: (r[0], r[3].shortlex_key()))
    return SphereRecord(
        length=length,
        count=len(rows),
        gap_min=float(best[0]),
        gap_mean=float(np.mean([r[0] for r in rows])),
        argmin=best[3],
        logak_min=float(min(r[1] for r in rows)),
        lognk1_max=float(max(r[2] for r in rows)),
    )


def reference_extremes(gens, L_max, policy, stat, classes=False):
    out = []
    paired = isinstance(policy, Exhaustive)
    for length in range(1, L_max + 1):
        rows = [(stat(gens, w, p, paired), w)
                for w, p in reference_rows(gens, length, policy)
                if not (classes and paired) or is_class_representative(w)]
        value, word = shortlex_max(rows)
        out.append((length, len(rows), value, word))
    return out


def hks_stat(gens, w, p, paired):
    smax = np.exp(word_log_singular_values(gens, w, p, paired)[0])
    n = p.shape[0]
    return float(np.abs(np.linalg.det(p - np.eye(n))) / (1.0 + smax) ** n)


def eig_one_stat(gens, w, p, paired):
    return float(np.abs(word_log_eigenvalue_moduli(gens, w, p)).min())


def bounded_stat(gens, w, p, paired):
    return float(np.abs(word_log_singular_values(gens, w, p, paired)).min())


@pytest.mark.parametrize("policy", POLICIES)
def test_products_match_evaluate(gens, policy):
    for length, sphere in enumerate(iter_sphere_products(gens, 4, policy), start=1):
        rows = reference_rows(gens, length, policy)
        assert [tuple(w) for w in sphere.letters] == [w.letters for w, _ in rows]
        for product, (_, expected) in zip(sphere.products, rows):
            assert np.array_equal(product, expected)
        # the carried log-dets have the bits of a left-to-right walk per word
        for i, (w, _) in enumerate(rows):
            logdet, sign = gens.log_dets(np.array([w.letters]))
            assert sphere.logdet[i] == logdet[0] and sphere.sign[i] == sign[0]


@pytest.mark.parametrize("policy", POLICIES)
def test_domination_records(gens, policy):
    for k in range(1, gens.dim // 2 + 1):
        rep = domination_scan(gens, k=k, L_max=4, policy=policy)
        assert rep.spheres
        for rec in rep.spheres:
            assert rec == reference_record(gens, k, rec.length, policy)


@pytest.mark.parametrize("policy", POLICIES)
def test_affine_extremes(gens, policy):
    for scan, stat, classes in (
        (hks_test, hks_stat, False),
        (eigenvalue_norm_one_check, eig_one_stat, True),
        (bounded_singular_check, bounded_stat, False),
    ):
        got = [(r.length, r.count, r.value, r.word)
               for r in scan(gens, L_max=4, policy=policy).spheres]
        assert got == reference_extremes(gens, 4, policy, stat, classes)


@pytest.mark.parametrize("policy", POLICIES)
def test_one_pass_reports_equal_the_single_checks(gens, policy):
    hks, eig, bounded = affine_checks(gens, L_max=4, policy=policy, tol=1e-2)
    assert hks == hks_test(gens, L_max=4, policy=policy)
    assert eig == eigenvalue_norm_one_check(gens, L_max=4, tol=1e-2, policy=policy)
    assert bounded == bounded_singular_check(gens, L_max=4, policy=policy)


def test_one_pass_needs_two_spheres(ping_pong):
    with pytest.raises(ValueError, match="at least 2"):
        affine_checks(ping_pong, L_max=1)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("fixture", ["ping_pong_padded", "rank3_dim4"])
def test_cone_samples(request, fixture, policy):
    gens = request.getfixturevalue(fixture)
    cone = sample_cone(gens, 4, policy)
    assert sorted(cone.levels) == [1, 2, 3, 4]
    for m, level in cone.levels.items():
        rows = reference_rows(gens, m, policy, inversion_closed=True)
        assert level.length == m and len(level) == len(rows)
        for r, (w, p) in enumerate(rows):
            jv = word_log_eigenvalue_moduli(gens, w, p) / m
            cv = word_log_singular_values(gens, w, p, paired=True) / m
            tol = spectrum.DEFAULT_ZERO_TOL_COEFF * max(1.0, float(np.abs(jv).max()))
            assert level.word(r) == w
            assert np.array_equal(level.jordan[r], jv)
            assert np.array_equal(level.cartan[r], cv)
            assert np.array_equal(level.zero[r], np.abs(jv) <= tol)


def reference_samples(cone):
    """(m, word, jordan, cartan, zero tolerance) of each sample, one row at
    a time; the tolerance is that of `sample_cone`."""
    for m in sorted(cone.levels):
        level = cone.levels[m]
        for r in range(len(level)):
            jv = level.jordan[r]
            tol = spectrum.DEFAULT_ZERO_TOL_COEFF * max(1.0, float(np.abs(jv).max()))
            yield m, level.word(r), jv, level.cartan[r], tol


def reference_containment(cone, k, tol):
    """The per-sample containment loop, with a 1-D norm per sample."""
    n = cone.n
    window = set(range(k + 1, n - k + 1))
    violations, C_hat, n_samples, n_zero, n_empty = [], float("inf"), 0, 0, 0
    for m, word, jv, _, zero_tol in reference_samples(cone):
        n_samples += 1
        bound = zero_tol if tol is None else tol
        idx = tuple(int(i) + 1 for i in np.flatnonzero(np.abs(jv) <= bound))
        if len(idx) == n:
            n_zero += 1
            continue
        if not idx:
            n_empty += 1
        elif not set(idx) <= window:
            violations.append((m, word, idx))
        C_hat = min(C_hat, float(jv[k - 1] - jv[k]) / float(np.linalg.norm(jv)))
    return violations, C_hat, n_samples, n_zero, n_empty


def reference_involution(cone, tol):
    """The per-sample involution loop, pairing words through a dict."""
    mismatches, worst = [], 0.0
    samples = list(reference_samples(cone))
    by_word = {(m, w): (jv, cv) for m, w, jv, cv, _ in samples}
    for m, word, jv, cv, _ in samples:
        partner = by_word.get((m, word.inverse()))
        if partner is None:
            mismatches.append((m, word, float("nan")))
            continue
        dev = max(float(np.abs(-jv[::-1] - partner[0]).max()),
                  float(np.abs(-cv[::-1] - partner[1]).max()))
        worst = max(worst, dev)
        if dev > tol:
            mismatches.append((m, word, dev))
    return worst, mismatches


def drop_first_row(level):
    """``level`` without its first word; the inverse rows move up one, and
    the dropped word's inverse is left with none (-1)."""
    return ConeLevel(level.letters[1:], level.jordan[1:], level.cartan[1:],
                     level.zero[1:], level.inverse[1:] - 1)


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_row_norms_match_per_row_norm(n):
    rows = np.random.default_rng(n).standard_normal((2000, n))
    expected = [np.linalg.norm(row) for row in rows]
    assert np.array_equal(_row_norms(rows), expected)


@pytest.fixture(params=["ping_pong_padded", "rank3_dim4", "escape"])
def cone_gens(request):
    if request.param == "escape":
        # a repeated unit modulus at the top puts index 1 in the zero set
        return GeneratorSet([np.diag([1.0, 1.0, 0.5]), np.diag([2.0, 1.0, 1.0])])
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("policy", POLICIES)
def test_containment_matches_per_sample_reference(cone_gens, policy):
    cone = sample_cone(cone_gens, 4, policy)
    for k in range(1, cone.n // 2 + 1):
        for tol in (None, 0.0, 0.05, 0.3):
            rep = containment_check(cone, k, tol)
            violations, C_hat, n_samples, n_zero, n_empty = reference_containment(
                cone, k, tol
            )
            assert rep.violations == violations
            assert (rep.n_samples, rep.n_zero, rep.n_empty) == (n_samples, n_zero, n_empty)
            if np.isfinite(C_hat):
                assert rep.C_hat == C_hat
            else:
                assert np.isnan(rep.C_hat)


@pytest.mark.parametrize("policy", POLICIES)
def test_involution_matches_per_sample_reference(cone_gens, policy):
    cone = sample_cone(cone_gens, 4, policy)
    # drop one word of the last level so its inverse is left unpaired
    clipped = dict(cone.levels)
    clipped[4] = drop_first_row(cone.levels[4])
    for c in (cone, dataclasses.replace(cone, levels=clipped)):
        for tol in (1e-8, 1e-14, 0.0):
            rep = involution_symmetry_check(c, tol)
            worst, mismatches = reference_involution(c, tol)
            assert rep.max_deviation == worst
            assert [(m, w) for m, w, _ in rep.mismatches] == [
                (m, w) for m, w, _ in mismatches
            ]
            assert np.array_equal([d for *_, d in rep.mismatches],
                                  [d for *_, d in mismatches], equal_nan=True)
            assert rep.passed == (not mismatches)


def test_shortlex_argmin_breaks_ties_by_word():
    letters = np.array([[2, 1], [-1, 2], [1, -2], [1, 2]])
    assert shortlex_argmin(np.array([0.5, 0.5, 0.5, 0.7]), letters) == 2
    assert shortlex_argmin(np.array([0.5, 0.1, 0.5, 0.1]), letters) == 3
    assert shortlex_argmin(np.array([0.5, np.nan, 0.1, 0.1]), letters) == 1
