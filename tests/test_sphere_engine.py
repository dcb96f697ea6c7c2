"""The stacked sphere engine against a per-word reference.

The reference enumerates words one by one (`enumerate_sphere` or
`sampled_words`), evaluates each with `evaluate`, applies per-matrix numpy
calls and reduces with Python ``min`` over ``(value, shortlex key)``.  Every
scan statistic must agree with it bit for bit.
"""

import numpy as np
import pytest

from repdyn.affine import bounded_singular_check, eigenvalue_norm_one_check, hks_test
from repdyn.domination import GeneratorSet, SphereRecord, domination_scan
from repdyn.spectrum import sample_cone
from repdyn.words import (
    Exhaustive,
    Sampled,
    enumerate_sphere,
    evaluate,
    iter_sphere_products,
    sampled_words,
    shortlex_argmin,
)

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
        drawn = sampled_words(gens.rank, length, policy, inversion_closed)
    else:
        drawn = list(enumerate_sphere(gens.rank, length))
    return [(w, evaluate(w, gens)) for w in drawn]


def shortlex_max(rows):
    """(value, word) with the largest value, ties to the shortlex-first word."""
    return min(rows, key=lambda r: (-r[0], r[1].shortlex_key()))


def reference_record(gens, k, length, policy):
    n = gens.dim
    rows = []
    for w, p in reference_rows(gens, length, policy):
        s = np.log(np.linalg.svd(p, compute_uv=False))
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


def reference_extremes(gens, L_max, policy, stat):
    out = []
    for length in range(1, L_max + 1):
        rows = [(stat(p), w) for w, p in reference_rows(gens, length, policy)]
        value, word = shortlex_max(rows)
        out.append((length, len(rows), value, word))
    return out


def hks_stat(p):
    smax = np.linalg.svd(p, compute_uv=False)[0]
    n = p.shape[0]
    return float(np.abs(np.linalg.det(p - np.eye(n))) / (1.0 + smax) ** n)


def eig_one_stat(p):
    return float(np.abs(np.log(np.abs(np.linalg.eigvals(p)))).min())


def bounded_stat(p):
    return float(np.abs(np.log(np.linalg.svd(p, compute_uv=False))).min())


@pytest.mark.parametrize("policy", POLICIES)
def test_products_match_evaluate(gens, policy):
    for length, (letters, products) in enumerate(
        iter_sphere_products(gens, 4, policy), start=1
    ):
        rows = reference_rows(gens, length, policy)
        assert [tuple(w) for w in letters] == [w.letters for w, _ in rows]
        for product, (_, expected) in zip(products, rows):
            assert np.array_equal(product, expected)


@pytest.mark.parametrize("policy", POLICIES)
def test_domination_records(gens, policy):
    for k in range(1, gens.dim // 2 + 1):
        rep = domination_scan(gens, k=k, L_max=4, policy=policy)
        assert rep.spheres
        for rec in rep.spheres:
            assert rec == reference_record(gens, k, rec.length, policy)


@pytest.mark.parametrize("policy", POLICIES)
def test_affine_extremes(gens, policy):
    for scan, stat in (
        (hks_test, hks_stat),
        (eigenvalue_norm_one_check, eig_one_stat),
        (bounded_singular_check, bounded_stat),
    ):
        got = [(r.length, r.count, r.value, r.word)
               for r in scan(gens, L_max=4, policy=policy).spheres]
        assert got == reference_extremes(gens, 4, policy, stat)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("fixture", ["ping_pong_padded", "rank3_dim4"])
def test_cone_samples(request, fixture, policy):
    gens = request.getfixturevalue(fixture)
    cone = sample_cone(gens, 4, policy)
    assert sorted(cone.samples) == [1, 2, 3, 4]
    for m, level in cone.samples.items():
        rows = reference_rows(gens, m, policy, inversion_closed=True)
        assert len(level) == len(rows)
        for sample, (w, p) in zip(level, rows):
            jv = np.log(np.sort(np.abs(np.linalg.eigvals(p)))[::-1]) / m
            cv = np.log(np.linalg.svd(p, compute_uv=False)) / m
            tol = cone.zero_tol_coeff * max(1.0, float(np.abs(jv).max()))
            assert sample.word == w and sample.length == m
            assert np.array_equal(sample.jordan, jv)
            assert np.array_equal(sample.cartan, cv)
            assert sample.zero_tol == tol


def test_shortlex_argmin_breaks_ties_by_word():
    letters = np.array([[2, 1], [-1, 2], [1, -2], [1, 2]])
    assert shortlex_argmin(np.array([0.5, 0.5, 0.5, 0.7]), letters) == 2
    assert shortlex_argmin(np.array([0.5, 0.1, 0.5, 0.1]), letters) == 3
    assert shortlex_argmin(np.array([0.5, np.nan, 0.1, 0.1]), letters) == 1
