"""The stacked singular-value kernel against mpmath, exact invariants and itself.

`linalg.log_singular_values` takes n = 2 in closed form with the word's exact
log-det, n = 3 by stacked one-sided Jacobi and n >= 4 by LAPACK.  The pins
compare single words with a 60-digit `mpmath` SVD: for n = 2 with the exact
product, for n = 3 with the float product that the kernel is given.
"""

import json
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repdyn import cli, linalg
from repdyn.domination import GeneratorSet, domination_scan
from repdyn.errors import ConvergenceError, DegenerateInputError, RepdynError
from repdyn.words import evaluate, random_word

from conftest import (
    form_preserving_matrix,
    partial_hyperbolic_matrices,
    ping_pong_matrices,
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
    return gens.log_singular_values(np.array([letters]), product[None])[0], product


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
    got, product = kernel_word(gens, letters)
    with mpmath.workdps(60):
        exact = mp_log_singular_values(mpmath.matrix(product.tolist()))
    assert_within_float_bound(got, exact, 3)


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
        for logs in (gens.log_singular_values(letters[:2], products[:2]),
                     linalg.log_singular_values(products)):
            gaps = logs[:, 0] - logs[:, 1]
            assert (gaps >= 0.0).all() and (gaps <= 4 * EPS).all()


def test_column_norms_past_1e154_do_not_underflow():
    # sigma_1 / sigma_3 is about 1e190: the trivial block's column is tiny
    # next to the others, and its squared norm must not reach 0
    gens = GeneratorSet(padded(ping_pong_matrices()))
    product = evaluate((1, 2) * 200, gens)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linalg.log_singular_values(product[None])[0]
    assert np.isfinite(got).all()
    assert got[0] - got[2] > np.log(1e154)
    assert abs(got[2]) <= 1e-12  # the trivial block's singular value 1
    with mpmath.workdps(60):
        exact = mp_log_singular_values(mpmath.matrix(product.tolist()))
    assert_within_float_bound(got, exact, 3)


def test_rotation_past_zeta_overflow():
    # column norms 1 and 1e-160 at cosine 0.6: zeta^2 overflows, and the
    # rotation must still be taken, or the row never converges
    m = np.array([[1.0, 6e-161, 0.0], [0.0, 8e-161, 0.0], [0.0, 0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linalg.log_singular_values(m[None])[0]
    np.testing.assert_allclose(got, np.log([1.0, 1.0, 8e-161]), rtol=1e-15, atol=1e-15)


def test_span_beyond_the_jacobi_range_goes_to_lapack():
    m = np.diag([1.0, 1e-250, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linalg.log_singular_values(m[None])[0]
    np.testing.assert_allclose(got, np.log([2.0, 1.0, 1e-250]), rtol=1e-15, atol=0)


def test_sweep_bound_is_a_repdyn_error(monkeypatch):
    monkeypatch.setattr(linalg, "_JACOBI_SWEEPS", 1)
    ms = np.random.default_rng(6).standard_normal((5, 3, 3))
    with pytest.raises(ConvergenceError, match="unconverged after 1 sweeps"):
        linalg.log_singular_values(ms)
    assert issubclass(ConvergenceError, RepdynError)
    assert not issubclass(ConvergenceError, ValueError)


def test_sweep_bound_exits_numeric(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(linalg, "_JACOBI_SWEEPS", 1)
    g, h = partial_hyperbolic_matrices()
    doc = tmp_path / "in.json"
    doc.write_text(json.dumps({"n": 3, "generators": [
        {"name": "g", "rows": g.tolist()}, {"name": "h", "rows": h.tolist()},
    ]}))
    code = cli.main(["dominate", "--input", str(doc), "--k", "1", "--max-length", "3",
                     "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_NUMERIC == 70
    err = capsys.readouterr().err
    assert "unconverged" in err and "Traceback" not in err


def test_blocks_do_not_change_rows(monkeypatch):
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        ms = rng.standard_normal((11, n, n))
        logdet = np.linalg.slogdet(ms)[1] if n == 2 else None
        whole = linalg.log_singular_values(ms, logdet)
        monkeypatch.setattr(linalg, "KERNEL_BLOCK", 3)
        assert np.array_equal(linalg.log_singular_values(ms, logdet), whole)
        monkeypatch.undo()


def test_n4_is_lapack():
    ms = np.random.default_rng(8).standard_normal((20, 4, 4))
    expected = np.log(np.linalg.svd(ms, compute_uv=False))
    assert np.array_equal(linalg.log_singular_values(ms), expected)


def test_cartan_projection_keeps_its_checks():
    with pytest.raises(DegenerateInputError, match="span more than float64"):
        linalg.cartan_projection(np.diag([1e300, 1e-300]))
    with pytest.raises(DegenerateInputError, match="span more than float64"):
        linalg.cartan_projection(np.diag([1e300, 1.0, 1e-300]))
    for n in (2, 3):
        m = np.diag([1e13] + [1.0] * (n - 1))
        with pytest.warns(linalg.ConditionWarning, match="1.000e\\+13 exceeds"):
            v = linalg.cartan_projection(m)
        assert np.array_equal(v.values, linalg.log_singular_values(m[None])[0])


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


@settings(max_examples=150, deadline=None)
@given(stacks(), st.booleans())
def test_stack_matches_rows_and_mpmath(ms, with_logdet):
    n = ms.shape[-1]
    logdet = np.linalg.slogdet(ms)[1] if with_logdet and n == 2 else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linalg.log_singular_values(ms, logdet)
        for i in range(len(ms)):
            alone = linalg.log_singular_values(
                ms[i : i + 1], None if logdet is None else logdet[i : i + 1]
            )
            assert np.array_equal(alone[0], got[i])
    assert np.isfinite(got).all()
    assert (np.diff(got, axis=1) <= 0).all()
    with mpmath.workdps(40):
        for m, row in zip(ms, got):
            exact = mp_log_singular_values(mpmath.matrix(m.tolist()))
            assert_within_float_bound(row, exact, n)
