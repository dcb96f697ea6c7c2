"""The stacked singular-value kernel against mpmath, exact invariants and itself.

`linalg.log_singular_values` takes n = 2 in closed form with the word's exact
log-det.  n = 3 reads only top singular values: s1 of the word's product,
s3 as one over s1 of its inverse word's product, and s2 from the exact
log-det, so Σ log s = log |det| holds by construction and is no test.
Without an inverse row, and for n >= 4, it is LAPACK.  The pins compare
words with a 60-digit `mpmath` SVD of the exact product, and each top
singular value with that of the float product it is read from.
"""

import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repdyn import linalg
from repdyn.domination import GeneratorSet, domination_scan
from repdyn.words import Word, evaluate, iter_sphere_products, random_word

from conftest import (
    form_preserving_matrix,
    partial_hyperbolic_matrices,
    ping_pong_matrices,
    word_log_dets,
)

EPS = np.finfo(float).eps


def padded(matrices):
    out = []
    for m in matrices:
        p = np.eye(3)
        p[:2, :2] = m
        out.append(p)
    return out


def so21_pair():
    return [form_preserving_matrix(), np.diag([np.exp(0.5), 1.0, np.exp(-0.5)])]


def mp_log_singular_values(m):
    """Log singular values, largest first, of an mpmath matrix."""
    s = mpmath.svd_r(m, compute_uv=False)
    return np.array(sorted((float(mpmath.log(x)) for x in s), reverse=True))


def assert_within_float_bound(got, exact, n):
    """Each singular value within 8 n eps times the largest of its exact
    value, compared in logs, with two more units in the last place of the
    log itself."""
    with np.errstate(over="ignore"):
        tol = 8 * n * EPS * np.exp(exact[0] - exact)
    tol += 2 * EPS * np.maximum(1.0, np.abs(exact))
    assert (np.abs(got - exact) <= tol).all(), (got, exact)


def exact_product(gens, letters):
    """The product of the generator images along ``letters``, in mpmath."""
    out = mpmath.eye(gens.dim)
    for letter in letters:
        out = out * mpmath.matrix(gens.image(letter).tolist())
    return out


def kernel_word(gens, letters):
    """The kernel on the one word ``letters``, with that word's log-det."""
    product = evaluate(letters, gens)
    return linalg.log_singular_values(product[None], word_log_dets(gens, [letters])[0])[0], product


def kernel_pair(gens, letters):
    """The kernel on the word ``letters`` next to its inverse word, with
    their log-dets; and the two float products."""
    pair = np.array([letters, Word(letters).inverse().letters])
    products = np.stack([evaluate(w, gens) for w in pair])
    return linalg.log_singular_values(products, word_log_dets(gens, pair)[0], [1, 0])[0], products


def mp_log_top(m):
    """Log of the largest singular value of a float matrix, in mpmath."""
    return mp_log_singular_values(mpmath.matrix(m.tolist()))[0]


def dense_pair():
    """``a = R1 diag(e^1.5, 1, e^-1.5) R2`` and ``b = R4 diag(e^1.2, e^0.3,
    e^-1.5) R5``, ``Rs`` the Q factor of ``default_rng(s).normal(size=(3,
    3))``: products of their words lose s3 in float64 within a few letters."""
    def rotation(seed):
        return np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))[0]

    return [rotation(1) @ np.diag(np.exp([1.5, 0.0, -1.5])) @ rotation(2),
            rotation(4) @ np.diag(np.exp([1.2, 0.3, -1.5])) @ rotation(5)]


def with_inverses(ms, inverses):
    """``(stack, logdet, inverse)``: the matrices ``ms`` followed by the
    matrices ``inverses``, numpy's log-dets and the index of each row's
    inverse row."""
    stack = np.concatenate([ms, inverses])
    return stack, np.linalg.slogdet(stack)[1], np.roll(np.arange(len(stack)), len(ms))


@pytest.mark.parametrize("length", [24, 40])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_n2_pins_match_the_exact_product(length, seed):
    gens = GeneratorSet(list(ping_pong_matrices()))
    letters = random_word(2, length, np.random.default_rng(seed)).letters
    got, product = kernel_word(gens, letters)
    with mpmath.workdps(60):
        exact = mp_log_singular_values(exact_product(gens, letters))
    assert np.abs(got - exact).max() <= 1e-13 * length
    # the float product itself has lost its small singular value
    lapack = np.log(np.linalg.svd(product, compute_uv=False))
    assert abs(lapack[1] - exact[1]) > 1.0


@pytest.mark.parametrize(
    "matrices, letters",
    [
        (so21_pair(), random_word(2, 8, np.random.default_rng(3)).letters),
        (padded(ping_pong_matrices()), (1, 2, -1, -2) * 2),
        (list(partial_hyperbolic_matrices()),
         random_word(2, 8, np.random.default_rng(4)).letters),
        ([np.random.default_rng(5).standard_normal((3, 3))], (1,)),
    ],
    ids=["so21", "padded", "partial-hyperbolic", "random"],
)
def test_n3_pins_match_the_float_product(matrices, letters):
    gens = GeneratorSet(matrices)
    got, (product, inverse) = kernel_pair(gens, letters)
    with mpmath.workdps(60):
        top, bottom = mp_log_top(product), -mp_log_top(inverse)
        exact = mp_log_singular_values(exact_product(gens, letters))
    # s1 is the float product's and s3 the float inverse product's, each to
    # rounding relative to itself
    assert abs(got[0] - top) <= 8 * 3 * EPS + 2 * EPS * max(1.0, abs(top))
    assert abs(got[2] - bottom) <= 8 * 3 * EPS + 2 * EPS * max(1.0, abs(bottom))
    # so with the exact log-det all three are the exact product's
    assert np.abs(got - exact).max() <= 1e-13


def test_dense_spheres_match_mpmath():
    gens = GeneratorSet(dense_pair())
    for sphere in iter_sphere_products(gens, 12):
        length = sphere.letters.shape[1]
        if length < 10:
            continue
        got = sphere.log_singular_values()
        rows = np.random.default_rng(length).choice(len(got), 60, replace=False)
        with mpmath.workdps(60):
            for i in rows:
                word = Word(sphere.letters[i])
                exact = mp_log_singular_values(exact_product(gens, word.letters))
                assert np.abs(got[i] - exact).max() <= 1e-13, (length, word)
                # s1 at the inverse row is that of the inverse word's own product
                inverse = evaluate(word.inverse(), gens)
                top = np.log(np.linalg.svd(inverse, compute_uv=False)[0])
                assert abs(got[sphere.inverse[i], 0] - top) <= 4 * EPS * max(1.0, abs(top))
        # the float product itself has lost s3 here
        lapack = np.log(np.linalg.svd(sphere.products[rows], compute_uv=False))
        assert np.abs(lapack - got[rows]).max() > 1e-7


def test_dense_pairs_mirror_and_tie_to_the_shortlex_first_word():
    # a word and its inverse have mirrored spectra, so dominate's k-gap ties
    # across the pair in exact arithmetic; the float kernel must tie too, or
    # the shortlex tie-break never acts and the argmin word follows rounding
    gens = GeneratorSet(dense_pair())
    for sphere in iter_sphere_products(gens, 10):
        got = sphere.log_singular_values()
        assert np.array_equal(got, -got[sphere.inverse, ::-1])
    for rec in domination_scan(gens, k=1, L_max=10).spheres:
        assert rec.argmin <= rec.argmin.inverse(), rec.length


def test_sl2_identity_on_every_sphere(ping_pong):
    rep = domination_scan(ping_pong, k=1, L_max=13)
    assert rep.L_used == 13
    for rec in rep.spheres:
        assert abs(rec.logak_min + rec.lognk1_max) <= 1e-12


def test_without_letters_n2_reads_the_product_determinant():
    m = np.array([[3.0, 1.0], [1.0, 1.0]])
    got = linalg.log_singular_values(m[None])[0]
    np.testing.assert_allclose(got, np.log([2.0 + np.sqrt(2.0), 2.0 - np.sqrt(2.0)]),
                               rtol=0, atol=4 * EPS)


def test_equal_singular_values_stay_ordered():
    # a rotation's float determinant rounds away from 1, so log |det| / 2
    # can exceed the log of the closed-form s1 of 1; s1 >= sqrt|det| holds
    for theta in (0.3, 0.9, 2.0):
        c, s = np.cos(theta), np.sin(theta)
        gens = GeneratorSet([np.array([[c, -s], [s, c]])])
        letters = np.array([[1], [-1], [1], [-1]])
        products = np.stack([gens.image(1), gens.image(-1)] * 2)
        for logs in (linalg.log_singular_values(products[:2], word_log_dets(gens, letters[:2])[0]),
                     linalg.log_singular_values(products)):
            gaps = logs[:, 0] - logs[:, 1]
            assert (gaps >= 0.0).all() and (gaps <= 4 * EPS).all()


@pytest.mark.parametrize("s", [[1.5, 1.5, 1.5], [2.0, 2.0, 0.5], [2.0, 0.5, 0.5]],
                         ids=["all-equal", "top-two-equal", "bottom-two-equal"])
def test_n3_equal_singular_values_stay_ordered(s):
    # equal top singular values cost the closed form about sqrt(eps), so
    # those rows take s1 from LAPACK
    rng = np.random.default_rng(9)
    rotations = np.linalg.qr(rng.standard_normal((2, 50, 3, 3)))[0]
    ms = rotations[0] @ np.diag(s) @ rotations[1]
    stack, logdet, inverse = with_inverses(ms, np.linalg.inv(ms))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linalg.log_singular_values(stack, logdet, inverse)
    assert (np.diff(got, axis=1) <= 0).all()
    assert np.abs(got[:50] - np.log(s)).max() <= 1e-14
    assert np.abs(got[50:] + np.log(s[::-1])).max() <= 1e-14


def test_n3_entries_near_1e300():
    rng = np.random.default_rng(10)
    ms = np.stack([1e300 * rng.standard_normal((3, 3)),
                   1e-300 * rng.standard_normal((3, 3)),
                   np.diag([1e300, 1.0, 1e-300])])
    with mpmath.workdps(60):
        exact = [mp_log_singular_values(mpmath.matrix(m.tolist())) for m in ms]
    stack, logdet, inverse = with_inverses(ms, np.linalg.inv(ms))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linalg.log_singular_values(stack, logdet, inverse)
    assert np.isfinite(got).all()
    for row, want in zip(got, exact):
        assert np.abs(row - want).max() <= 1e-13 * (1.0 + np.abs(want).max())
    # the third spans 1e600, more than float64 holds in one number
    assert got[2, 0] - got[2, 2] > np.log(1e300) * 2 - 1e-9


@pytest.mark.parametrize("scale", [1.0, 3.0, 2.0**-600, 1e200])
def test_n3_scalar_gram_takes_the_p_zero_branch(scale):
    # a signed permutation times a scale: the Gram matrix is exactly scale^2 I,
    # so p = 0 and s1 is sqrt(q) with no 0 / 0
    perm = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    tol = 4 * EPS * max(1.0, abs(np.log(scale)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top, near = linalg._log_top3(scale * perm[None])
        stack, logdet, inverse = with_inverses(scale * perm[None], perm.T[None] / scale)
        got = linalg.log_singular_values(stack, logdet, inverse)
    assert abs(top[0] - np.log(scale)) <= tol and not near[0]
    assert np.abs(got - np.log(scale) * np.array([[1.0], [-1.0]])).max() <= tol
    assert (np.diff(got, axis=1) <= 0).all()


def test_n3_without_an_inverse_row_is_lapack():
    ms = np.random.default_rng(11).standard_normal((4, 3, 3))
    stack, logdet, inverse = with_inverses(ms, np.linalg.inv(ms))
    inverse[[0, 4]] = -1  # the first pair loses its pairing
    got = linalg.log_singular_values(stack, logdet, inverse)
    lapack = np.log(np.linalg.svd(stack, compute_uv=False))
    assert np.array_equal(got[[0, 4]], lapack[[0, 4]])
    for args in ((), (logdet,)):
        assert np.array_equal(linalg.log_singular_values(stack, *args), lapack)


def test_blocks_do_not_change_rows(monkeypatch):
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        ms = rng.standard_normal((11, n, n))
        stack, logdet, inverse = with_inverses(ms, np.linalg.inv(ms))
        for args in ((), (logdet,), (logdet, inverse)):
            whole = linalg.log_singular_values(stack, *args)
            monkeypatch.setattr(linalg, "KERNEL_BLOCK", 3)
            assert np.array_equal(linalg.log_singular_values(stack, *args), whole)
            monkeypatch.undo()


def test_n4_is_lapack():
    ms = np.random.default_rng(8).standard_normal((20, 4, 4))
    expected = np.log(np.linalg.svd(ms, compute_uv=False))
    assert np.array_equal(linalg.log_singular_values(ms), expected)


@st.composite
def stacks(draw):
    """A small stack of n x n matrices, each scaled by its own power of ten
    between 1e-200 and 1e200, some with one column scaled further down."""
    n = draw(st.sampled_from([2, 3, 4]))
    size = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ms = rng.standard_normal((size, n, n))
    scales = draw(st.lists(st.integers(-200, 200), min_size=size, max_size=size))
    grades = draw(st.lists(st.integers(-120, 0), min_size=size, max_size=size))
    ms *= 10.0 ** np.array(scales, dtype=float)[:, None, None]
    ms[:, :, 0] *= 10.0 ** np.array(grades, dtype=float)[:, None]
    return ms


def rational_det(a):
    """The determinant of a square list of rows of Fractions, by cofactors."""
    if len(a) == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j] * rational_det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)))


def exact_log_det(m):
    """log |det m| of a float matrix, from its rational determinant."""
    det = rational_det([[Fraction(x) for x in row] for row in m.tolist()])
    with mpmath.workdps(160):
        return float(mpmath.log(abs(mpmath.mpf(det.numerator) / det.denominator)))


def exact_inverse(m):
    """The exact inverse of a float 3x3 matrix rounded to float, from its
    adjugate in rational arithmetic, or None where that is not finite."""
    a = [[Fraction(x) for x in row] for row in m.tolist()]

    def minor(i, j):
        return rational_det([row[:j] + row[j + 1:] for r, row in enumerate(a) if r != i])

    det = rational_det(a)
    try:
        out = np.array([[float((-1) ** (i + j) * minor(j, i) / det) for j in range(3)]
                        for i in range(3)])
    except OverflowError:
        return None
    return out if np.abs(out).max() > 0.0 else None


# a stack where no matrix has a finite inverse in float64: no inverse rows
NO_FINITE_INVERSE = np.array([[[2e-320, 1e-200, -2e-201],
                               [4e-321, 3e-201, 5e-201],
                               [-3e-321, -2e-201, 1e-200]]])
# a subnormal column, where the float log-det misses the exact one by 2.48
SUBNORMAL_COLUMN = np.array([[[1.2573e-309, -1.321e-189, 6.404e-189],
                              [1.049e-309, -5.357e-189, 3.616e-189],
                              [1.304e-308, 9.471e-189, -7.037e-189]]])


@settings(max_examples=150, deadline=None)
@given(stacks(), st.booleans())
@example(NO_FINITE_INVERSE, True)
@example(SUBNORMAL_COLUMN, True)
def test_stack_matches_rows_and_mpmath(ms, with_logdet):
    """Without a log-det n = 3 is LAPACK.  With one each matrix comes next
    to its exact inverse rounded to float, where float64 holds that, and
    reads all three log singular values to rounding of their size; the
    rounded inverse itself is only held to its own s1.  Each log-det is
    exact, from the matrix's rational determinant."""
    n, size = ms.shape[-1], len(ms)
    logdet = inverse = None
    if with_logdet and n == 3:
        inverses = [exact_inverse(m) for m in ms]
        pairs = [i for i in range(size) if inverses[i] is not None]
        ms = np.concatenate([ms, np.reshape([inverses[i] for i in pairs], (-1, 3, 3))])
        inverse = np.full(len(ms), -1)
        inverse[pairs] = size + np.arange(len(pairs))
        inverse[size:] = pairs
    if with_logdet and n in (2, 3):
        logdet = np.array([exact_log_det(m) for m in ms])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linalg.log_singular_values(ms, logdet, inverse)
        for i in range(len(ms)):
            rows, pairing = [i], None
            if inverse is not None:
                rows, pairing = ([i], [-1]) if inverse[i] < 0 else ([i, inverse[i]], [1, 0])
            alone = linalg.log_singular_values(
                ms[rows], None if logdet is None else logdet[rows], pairing
            )
            assert np.array_equal(alone[0], got[i])
    assert np.isfinite(got).all()
    assert (np.diff(got, axis=1) <= 0).all()
    # a column scaled by 1e-120 spans about 1e125: the SVD needs the digits
    # to see the small singular values to rounding
    with mpmath.workdps(160):
        for i, (m, row) in enumerate(zip(ms, got)):
            exact = mp_log_singular_values(mpmath.matrix(m.tolist()))
            if inverse is None or inverse[i] < 0:
                assert_within_float_bound(row, exact, n)
            elif i < size:
                spread = 1.0 + abs(logdet[i]) + 2.0 * np.abs(exact).max()
                assert np.abs(row - exact).max() <= 16 * EPS * spread
            else:
                assert_within_float_bound(row[:1], exact[:1], n)


@st.composite
def paired_stacks(draw):
    """``(stack, logdet, inverse)``: pairs of 3x3 matrices ``U diag(s) V``
    and ``V^T diag(1/s) U^T``, some with two or three equal singular values
    and each pair scaled by its own power of ten, and a few lone matrices,
    shuffled into one stack with each row's log-det and inverse row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, logdets, partners = [], [], []
    for k in range(draw(st.integers(1, 5))):
        s = np.exp(3.0 * rng.standard_normal(3))
        shape = draw(st.sampled_from(["dense", "double top", "scalar"]))
        if shape != "dense":
            s[1] = s[0]
            if shape == "scalar":
                s[2] = s[0]
        u, v = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
        scale = 10.0 ** draw(st.integers(-150, 150))
        rows += [scale * u @ np.diag(s) @ v, v.T @ np.diag(1.0 / s) @ u.T / scale]
        logdet = np.log(s).sum() + 3.0 * np.log(scale)
        logdets += [logdet, -logdet]
        partners += [2 * k + 1, 2 * k]
    for _ in range(draw(st.integers(0, 2))):
        rows.append(rng.standard_normal((3, 3)))
        logdets.append(np.linalg.slogdet(rows[-1])[1])
        partners.append(-1)
    order = rng.permutation(len(rows))
    position = np.argsort(order)
    partners = np.array(partners)[order]
    inverse = np.where(partners >= 0, position[partners], -1)
    return np.stack(rows)[order], np.array(logdets)[order], inverse


@settings(max_examples=100, deadline=None)
@given(paired_stacks(), st.integers(1, 4))
def test_a_row_reads_only_its_own_pair(stack, block):
    """A row's bits depend on its product, its inverse row's product and its
    log-det, not on KERNEL_BLOCK or where the rows sit in the stack."""
    ms, logdet, inverse = stack
    got = linalg.log_singular_values(ms, logdet, inverse)
    with mock.patch.object(linalg, "KERNEL_BLOCK", block):
        assert np.array_equal(linalg.log_singular_values(ms, logdet, inverse), got)
    for i, j in enumerate(inverse):
        rows, pairing = ([i], [-1]) if j < 0 else ([i, j], [1, 0])
        alone = linalg.log_singular_values(ms[rows], logdet[rows], pairing)
        assert np.array_equal(alone[0], got[i])
    assert (np.diff(got, axis=1) <= 0).all()
