"""The stacked eigenvalue-modulus kernel against mpmath, LAPACK and itself.

`linalg.log_eigenvalue_moduli` reads an isolated diagonal entry exactly,
takes n = 2 in closed form and n = 3 from the characteristic cubic, with the
smallest real modulus from the word's exact log-det, and hands a matrix near
a multiple eigenvalue, or with n >= 4, to LAPACK.  The pins compare words
with a 50-digit `mpmath` eigendecomposition of the exact product.
"""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repdyn import linalg, spectrum
from repdyn.domination import GeneratorSet
from repdyn.words import Word, evaluate, iter_sphere_products

from conftest import (
    form_preserving_matrix,
    partial_hyperbolic_matrices,
    ping_pong_matrices,
    unipotent_so21,
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


FIXTURES = {
    "ping_pong": lambda: list(ping_pong_matrices()),
    "padded": lambda: padded(ping_pong_matrices()),
    "so21": so21_pair,
    "partial_hyperbolic": lambda: list(partial_hyperbolic_matrices()),
}


def mp_log_moduli(m):
    """Log eigenvalue moduli, largest first, of an mpmath matrix."""
    values = mpmath.eig(m, left=False, right=False)
    return np.array(sorted((float(mpmath.log(abs(x))) for x in values), reverse=True))


def exact_product(gens, letters):
    out = mpmath.eye(gens.dim)
    for letter in letters:
        out = out * mpmath.matrix(gens.image(letter).tolist())
    return out


def lapack(ms):
    return -np.sort(-np.log(np.abs(np.linalg.eigvals(ms))), axis=1)


def kernel_word(gens, letters):
    """The kernel on the one word ``letters``, with that word's log-det."""
    product = evaluate(letters, gens)
    return linalg.log_eigenvalue_moduli(product[None], *word_log_dets(gens, [letters]))[0], product


@pytest.fixture
def lapack_rows(monkeypatch):
    """The number of matrices passed to ``np.linalg.eigvals`` so far."""
    count = [0]
    eigvals = np.linalg.eigvals

    def counted(ms):
        count[0] += len(ms)
        return eigvals(ms)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return count


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_pinned_spheres_are_no_less_accurate_than_lapack(name):
    gens = GeneratorSet(FIXTURES[name]())
    sphere = list(iter_sphere_products(gens, 5))[-1]
    got = linalg.log_eigenvalue_moduli(sphere.products, sphere.logdet, sphere.sign)
    with mpmath.workdps(50):
        exact = np.array([mp_log_moduli(exact_product(gens, w))
                          for w in sphere.letters.tolist()])
    err = np.abs(got - exact).max()
    assert err <= 2.0 * np.abs(lapack(sphere.products) - exact).max()
    assert err <= 1e-13


@pytest.mark.parametrize("k", [2, 4, 8])
@pytest.mark.parametrize("pad", [False, True])
def test_ping_pong_powers_against_mpmath(k, pad):
    matrices = list(ping_pong_matrices())
    gens = GeneratorSet(padded(matrices) if pad else matrices)
    letters = (1, 2) * k
    got, product = kernel_word(gens, letters)
    with mpmath.workdps(50):
        exact = mp_log_moduli(exact_product(gens, letters))
    assert np.abs(got - exact).max() <= 1e-13 * k
    # the exact log-det keeps the small modulus that the float product loses
    assert abs(got[0] + got[-1]) <= 1e-13 * k
    if pad:
        assert got[1] == 0.0  # the trivial block's eigenvalue 1, exactly
    if k == 8:
        assert np.abs(lapack(product[None])[0] - exact).max() > 1e-6


@pytest.mark.parametrize(
    "letters, kind",
    [((2, 1), "hyperbolic"), ((2, 2, -1, 2), "hyperbolic"), ((1,), "elliptic"),
     ((1, 1, 1), "elliptic")],
)
def test_so21_words_against_mpmath(letters, kind):
    gens = GeneratorSet(so21_pair())
    got, product = kernel_word(gens, letters)
    with mpmath.workdps(50):
        exact = mp_log_moduli(exact_product(gens, letters))
    assert np.abs(got - exact).max() <= 1e-14
    assert np.abs(got).min() <= 1e-14  # the eigenvalue 1 of SO(2,1)
    values = np.linalg.eigvals(product)
    assert (np.abs(values.imag).max() > 1e-3) == (kind == "elliptic")


def test_parabolic_word_goes_to_lapack(lapack_rows):
    # h u h^-1 is dense with the triple eigenvalue 1
    gens = GeneratorSet([form_preserving_matrix(), unipotent_so21()])
    got, product = kernel_word(gens, (1, 2, -1))
    assert lapack_rows[0] == 1
    assert np.array_equal(got, lapack(product[None])[0])
    # a triple eigenvalue costs LAPACK the cube root of the roundoff
    assert np.abs(got).max() <= 10 * EPS ** (1 / 3)


@pytest.mark.parametrize("n", [2, 3])
def test_complex_pairs_against_mpmath(n):
    rng = np.random.default_rng(11)
    done = 0
    for m in rng.standard_normal((60, n, n)):
        if np.isreal(np.linalg.eigvals(m)).all():
            continue
        got = linalg.log_eigenvalue_moduli(m[None])[0]
        with mpmath.workdps(50):
            exact = mp_log_moduli(mpmath.matrix(m.tolist()))
        assert np.abs(got - exact).max() <= 1e-13
        done += 1
    assert done >= 10


def test_rotation_scaling_pair_reads_half_the_log_det():
    m = 3.0 * np.array([[0.6, -0.8], [0.8, 0.6]])
    logdet = np.log(9.0)
    got = linalg.log_eigenvalue_moduli(m[None], [logdet], [1.0])[0]
    assert np.array_equal(got, [logdet / 2, logdet / 2])


def test_isolated_and_triangular_entries_are_exact(lapack_rows):
    ms = np.array([
        [[3.0, 0.0, 0.0], [1.0, 0.7, 2.0], [5.0, -1.5, 0.2]],  # row 0 isolated
        [[0.7, 2.0, 9.0], [-1.5, 0.2, 4.0], [0.0, 0.0, -3.0]],  # row 2 isolated
        [[0.7, 0.0, 2.0], [4.0, 5.0, 6.0], [-1.5, 0.0, 0.2]],  # column 1 isolated
        [[2.0, 1.0, 7.0], [0.0, -0.5, 3.0], [0.0, 0.0, 0.125]],  # triangular
    ])
    got = linalg.log_eigenvalue_moduli(ms)
    assert np.array_equal(got[0][got[0] == np.log(3.0)], [np.log(3.0)])
    assert np.log(3.0) in got[1] and np.log(5.0) in got[2]
    assert np.array_equal(got[3], np.log([2.0, 0.5, 0.125]))
    tri = np.array([[[1e-3, 0.0], [7.0, -4.0]], [[2.0, 5.0], [0.0, 2.0]]])
    assert np.array_equal(linalg.log_eigenvalue_moduli(tri),
                          [np.log([4.0, 1e-3]), np.log([2.0, 2.0])])
    assert lapack_rows[0] == 0
    with mpmath.workdps(50):
        for m, row in zip(ms[:3], got[:3]):
            assert np.abs(row - mp_log_moduli(mpmath.matrix(m.tolist()))).max() <= 1e-14


def test_padded_cone_keeps_the_exact_middle_entry():
    cone = spectrum.sample_cone(GeneratorSet(padded(ping_pong_matrices())), 8)
    for level in cone.levels.values():
        assert (level.jordan[:, 1] == 0.0).all()
        assert (level.zero == [False, True, False]).all()
    # the Jordan and the Cartan halves are both symmetric to rounding now
    invol = spectrum.involution_symmetry_check(cone)
    assert invol.passed and invol.max_deviation <= 1e-12


@pytest.mark.parametrize("m", [2.0 * np.eye(2), np.diag([2.0, 2.0, 0.25])])
def test_repeated_diagonal_matches_lapack(m):
    assert np.array_equal(linalg.log_eigenvalue_moduli(m[None]), lapack(m[None]))


@pytest.mark.parametrize("n", [2, 3])
def test_dense_double_root_goes_to_lapack(n, lapack_rows):
    # a Jordan block with eigenvalue 2, conjugated until dense
    j = 2.0 * np.eye(n) + np.eye(n, k=1)
    q = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))[0]
    m = q @ j @ q.T
    got = linalg.log_eigenvalue_moduli(m[None])
    assert lapack_rows[0] == 1
    assert np.array_equal(got, lapack(m[None]))


def test_n4_is_lapack():
    ms = np.random.default_rng(8).standard_normal((20, 4, 4))
    assert np.array_equal(linalg.log_eigenvalue_moduli(ms), lapack(ms))


def test_zero_determinant_reads_minus_infinity():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linalg.log_eigenvalue_moduli(np.array([[[1.0, 2.0], [2.0, 4.0]]]))
        assert got[0, 0] == np.log(5.0) and got[0, 1] == -np.inf
        m = np.array([[1.0, 2.0, 0.5], [2.0, 4.0, 1.0], [-1.0, 3.0, 2.0]])
        got = linalg.log_eigenvalue_moduli(m[None], [-np.inf], [0.0])[0]
        assert np.isfinite(got[:2]).all() and got[2] == -np.inf
        with mpmath.workdps(50):
            exact = mp_log_moduli(mpmath.matrix(m.tolist()))
        assert np.abs(got[:2] - exact[:2]).max() <= 1e-14


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_scaling_keeps_extreme_matrices_in_range(scale):
    rng = np.random.default_rng(13)
    for n in (2, 3):
        ms = rng.standard_normal((50, n, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = linalg.log_eigenvalue_moduli(ms * scale)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got - np.log(scale),
                                   linalg.log_eigenvalue_moduli(ms), rtol=0, atol=1e-12)


def test_blocks_do_not_change_rows(monkeypatch):
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        ms = rng.standard_normal((11, n, n))
        ms[::3, 0, 1:] = 0.0
        sign, logdet = np.linalg.slogdet(ms)
        whole = linalg.log_eigenvalue_moduli(ms, logdet, sign)
        monkeypatch.setattr(linalg, "KERNEL_BLOCK", 3)
        assert np.array_equal(linalg.log_eigenvalue_moduli(ms, logdet, sign), whole)
        monkeypatch.undo()


def test_logdet_comes_with_its_sign():
    with pytest.raises(ValueError, match="together"):
        linalg.log_eigenvalue_moduli(np.eye(2)[None], logdet=[0.0])


def test_block_diagonal_singular_values_read_the_exact_log_det():
    # padded (ab)^12 next to its inverse word: the smallest singular value
    # from the inverse row, and the trivial block's 1 from the word's log-det
    gens = GeneratorSet(padded(ping_pong_matrices()))
    word = Word((1, 2) * 12)
    letters = np.array([word.letters, word.inverse().letters])
    products = np.stack([evaluate(w, gens) for w in letters])
    got = linalg.log_singular_values(products, word_log_dets(gens, letters)[0], [1, 0])[0]
    with mpmath.workdps(50):
        s = mpmath.svd_r(exact_product(gens, word.letters), compute_uv=False)
    exact = np.array(sorted((float(mpmath.log(x)) for x in s), reverse=True))
    assert abs(got[1]) <= 1e-13
    assert np.abs(got - exact).max() <= 1e-13
    # without its inverse row the float product goes through LAPACK
    lapack = linalg.log_singular_values(products[:1], word_log_dets(gens, letters[:1])[0])[0]
    assert abs(lapack[2] - exact[2]) > 1.0


@st.composite
def stacks(draw):
    """A small stack of n x n matrices, each scaled by its own power of ten,
    some with an isolated index or a repeated eigenvalue."""
    n = draw(st.sampled_from([2, 3, 4]))
    size = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ms = rng.standard_normal((size, n, n))
    for i in range(size):
        shape = draw(st.sampled_from(["dense", "isolated", "triangular", "double"]))
        if shape == "isolated":
            ms[i, 0, 1:] = 0.0
        elif shape == "triangular":
            ms[i] = np.triu(ms[i])
        elif shape == "double":
            q = np.linalg.qr(ms[i])[0]
            ms[i] = q @ (np.eye(n) + np.eye(n, k=1)) @ q.T
    scales = draw(st.lists(st.integers(-150, 150), min_size=size, max_size=size))
    return ms * 10.0 ** np.array(scales, dtype=float)[:, None, None]


@settings(max_examples=150, deadline=None)
@given(stacks(), st.booleans())
def test_stack_matches_rows_and_sums_to_the_log_det(ms, with_logdet):
    sign, logdet = np.linalg.slogdet(ms)
    args = (logdet, sign) if with_logdet else ()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linalg.log_eigenvalue_moduli(ms, *args)
        for i in range(len(ms)):
            one = [a[i : i + 1] for a in args]
            alone = linalg.log_eigenvalue_moduli(ms[i : i + 1], *one)
            assert np.array_equal(alone[0], got[i])
    assert np.isfinite(got).all()
    assert (np.diff(got, axis=1) <= 0).all()
    # sum log |lambda| = log |det|, to rounding for well-separated moduli
    spread = np.abs(got).sum(axis=1) + np.abs(logdet)
    assert (np.abs(got.sum(axis=1) - logdet) <= 1e-9 * (1.0 + spread)).all()
