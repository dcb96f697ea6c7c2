"""Spectral kernels and subspace geometry against closed-form oracles."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repdyn import linalg
from repdyn.domination import GeneratorSet, flag_estimate
from repdyn.errors import ConditionWarning, DegenerateGapError, DegenerateInputError
from repdyn.linalg import _first_invalid, _principal_angles
from repdyn.linalg import (
    bottom_singular_subspace,
    log_column_lengths,
    log_eigenvalue_moduli,
    log_singular_values,
    require_orthonormal,
    singular_frames,
    subspace_distance,
)
from repdyn.words import Word

from conftest import mpmath_column_angle, mpmath_frame_errors, mpmath_log_length

# Frozen oracles.  For [[3,1],[1,1]] the Gram matrix has trace 12 and
# determinant 4, so the singular values are 2 + sqrt(2) and 2 - sqrt(2).
# For [[2,1],[1,1]] (trace 3, det 1) the eigenvalues are (3 +- sqrt(5))/2.
SINGULAR_ORACLE = np.array([[3.0, 1.0], [1.0, 1.0]])
SINGULAR_VALUES = (2.0 + np.sqrt(2.0), 2.0 - np.sqrt(2.0))
EIGEN_ORACLE = np.array([[2.0, 1.0], [1.0, 1.0]])
EIGEN_MODULI = ((3.0 + np.sqrt(5.0)) / 2.0, (3.0 - np.sqrt(5.0)) / 2.0)


class TestCartanProjection:
    """`log_singular_values` on a stack of one matrix."""

    def test_closed_form_oracle(self):
        v = log_singular_values(SINGULAR_ORACLE[None])[0]
        np.testing.assert_allclose(np.exp(v), SINGULAR_VALUES, rtol=0, atol=1e-10)

    def test_diagonal_matrix(self):
        v = log_singular_values(np.diag([3.0, 2.0, 1.0])[None])[0]
        np.testing.assert_allclose(v, np.log([3.0, 2.0, 1.0]), rtol=0, atol=1e-12)

    def test_sum_is_log_abs_det(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = rng.standard_normal((4, 4))
            _, logdet = np.linalg.slogdet(m)
            assert log_singular_values(m[None])[0].sum() == pytest.approx(logdet, abs=1e-9)

    def test_inverse_is_involution_image(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((3, 3))
        v = log_singular_values(m[None])[0]
        w = log_singular_values(np.linalg.inv(m)[None])[0]
        # the opposition involution (v1..vn) -> (-vn..-v1)
        np.testing.assert_allclose(w, -v[::-1], rtol=0, atol=1e-9)


class TestJordanProjection:
    """`log_eigenvalue_moduli` on a stack of one matrix."""

    def test_closed_form_oracle(self):
        v = log_eigenvalue_moduli(EIGEN_ORACLE[None])[0]
        np.testing.assert_allclose(np.exp(v), EIGEN_MODULI, rtol=0, atol=1e-10)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(5)
        m = np.diag([3.0, 1.0, 1.0 / 3.0])
        p = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        conj = p @ m @ np.linalg.inv(p)
        np.testing.assert_allclose(
            log_eigenvalue_moduli(conj[None])[0],
            log_eigenvalue_moduli(m[None])[0],
            rtol=0,
            atol=1e-9,
        )

    def test_rotation_all_zero(self):
        c, s = np.cos(0.7), np.sin(0.7)
        v = log_eigenvalue_moduli(np.array([[[c, -s], [s, c]]]))[0]
        np.testing.assert_allclose(v, 0.0, rtol=0, atol=1e-12)


def test_rank_drop_reads_minus_infinity_without_a_warning():
    # the float determinant of this matrix is exactly 0, but its smallest
    # singular value is not, so _first_invalid lets it through
    m = np.array([[[1.0, 2.0], [2.0, 4.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel in (log_singular_values, log_eigenvalue_moduli):
            v = kernel(m)[0]
            assert v[-1] == -np.inf and np.isfinite(v[0]), kernel.__name__


class TestSingularSubspaces:
    def test_top_of_diagonal(self):
        # flag_estimate reads the leading left singular vectors
        est = flag_estimate(GeneratorSet([np.diag([3.0, 2.0, 1.0])]), Word([1]), 1, 2)
        assert est.zeta.shape == (3, 1) and est.theta_map.shape == (3, 2)
        assert abs(est.zeta[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_bottom_of_diagonal(self):
        u = bottom_singular_subspace(np.diag([3.0, 2.0, 1.0])[None], 1)
        assert u.shape == (1, 3, 1)
        assert abs(u[0, 2, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_bottom_is_top_of_inverse(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
        u = bottom_singular_subspace(m[None], 2)
        w = np.linalg.svd(np.linalg.inv(m))[0][:, :2]
        assert subspace_distance(u, w[None])[0] == pytest.approx(0.0, abs=1e-8)

    def test_degenerate_gap_raises(self):
        with pytest.raises(DegenerateGapError) as info:
            flag_estimate(GeneratorSet([np.eye(3)]), Word([1]), 1, 2)
        assert info.value.index == 1

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            bottom_singular_subspace(np.diag([2.0, 1.0])[None], 2)


def smallest_angle(a, b):
    """The smallest principal angle between two column bases."""
    return _principal_angles(a[None], b[None]).min(axis=1)[0]


class TestSubspaceGeometry:
    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            require_orthonormal(np.array([[1.0], [1.0]]))

    def test_right_angle(self):
        e1, e2 = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
        assert smallest_angle(e1, e2) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_quarter_angle(self):
        e1 = np.array([[1.0], [0.0], [0.0]])
        d = np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2.0)
        assert smallest_angle(e1, d) == pytest.approx(np.pi / 4, abs=1e-12)

    def test_zero_angle_on_overlap(self):
        plane = np.eye(3)[:, :2]
        line = np.array([[1.0], [0.0], [0.0]])
        assert smallest_angle(plane, line) == pytest.approx(0.0, abs=1e-8)

    def test_nan_basis_refused(self):
        bases = np.stack([np.eye(3)[:, :1]] * 4)
        bases[2] = np.nan
        with pytest.raises(ValueError, match="orthonormal"):
            require_orthonormal(bases)

    @pytest.mark.parametrize("n, p, q", [(3, 1, 1), (3, 1, 2), (3, 2, 1), (4, 2, 2),
                                         (5, 2, 3), (5, 3, 2), (5, 4, 1)])
    def test_principal_angle_matches_scipy(self, n, p, q):
        rng = np.random.default_rng(100 * n + 10 * p + q)
        a, b = [], []
        for _ in range(100):
            x = np.linalg.qr(rng.standard_normal((n, p)))[0]
            y = rng.standard_normal((n, q))
            if q <= p:
                # near x's span, which reaches the arcsine branch
                y = x[:, :q] + 10.0 ** rng.uniform(-12, 0.7) * y
            a.append(x)
            b.append(np.linalg.qr(y)[0])
        a, b = np.stack(a), np.stack(b)
        got = _principal_angles(a, b).min(axis=1)
        expected = np.array([scipy.linalg.subspace_angles(x, y).min() for x, y in zip(a, b)])
        if p == q == 1:
            # two single columns take the closed form, held to the exact angle
            exact = [mpmath_column_angle(x, y) for x, y in zip(a, b)]
            assert np.abs(got - exact).max() <= 4 * np.finfo(float).eps
        elif min(p, q) > 1 or p == q:
            assert np.array_equal(got, expected)
        else:
            # a single column against several takes other BLAS paths
            assert np.abs(got - expected).max() <= 4 * np.finfo(float).eps

    @settings(max_examples=60, deadline=None)
    @given(
        count=st.integers(1, 40),
        n=st.integers(2, 6),
        data=st.data(),
    )
    def test_column_distance_rows_are_the_one_row_calls(self, count, n, data):
        # any stack size: each row of a p = 1 stack gets the bits it gets alone
        entries = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)
        a, b = (data.draw(arrays(float, (count, n, 1), elements=entries)) for _ in "ab")
        got = subspace_distance(a, b)
        for i in range(count):
            assert got[i] == subspace_distance(a[i : i + 1], b[i : i + 1])[0]

    def test_column_lengths_against_mpmath(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((300, 3, 1)) * 10.0 ** rng.uniform(-0.8, 0.8, (300, 1, 1))
        got = log_column_lengths(x)
        exact = [mpmath_log_length(v) for v in x]
        assert np.abs(got - exact).max() <= 4 * np.finfo(float).eps
        # no square overflows or underflows near the ends of the float range
        far = np.array([[[3e300], [4e300], [0.0]], [[3e-300], [-4e-300], [0.0]]])
        assert log_column_lengths(far) == pytest.approx(
            [np.log(5e300), np.log(5e-300)], rel=1e-15)

    def test_distance_symmetric(self):
        rng = np.random.default_rng(2)
        u, _ = np.linalg.qr(rng.standard_normal((1, 4, 2)))
        w, _ = np.linalg.qr(rng.standard_normal((1, 4, 2)))
        assert subspace_distance(u, w)[0] == pytest.approx(
            subspace_distance(w, u)[0], abs=1e-12
        )
        assert subspace_distance(u, u)[0] == pytest.approx(0.0, abs=1e-8)


class TestRequireMatrix:
    """The matrix checks of each generator in `GeneratorSet`: those of the
    stacked `_first_invalid`, with the same messages, and a stricter
    invertibility test."""

    def test_rejects_nonsquare(self):
        with pytest.raises(DegenerateInputError,
                           match=r"^generator 1 must be square, got shape \(2, 3\)$"):
            GeneratorSet([np.ones((2, 3))])

    def test_rejects_tiny_and_huge(self):
        with pytest.raises(DegenerateInputError,
                           match=r"^generator 1 side must lie in \[2, 16\], got 1$"):
            GeneratorSet([np.ones((1, 1))])
        with pytest.raises(DegenerateInputError,
                           match=r"^generator 1 side must lie in \[2, 16\], got 17$"):
            GeneratorSet([np.eye(17)])

    def test_rejects_nonfinite(self):
        m = np.eye(2)
        m[0, 0] = np.nan
        with pytest.raises(DegenerateInputError, match="^generator 1 has non-finite entries$"):
            GeneratorSet([m])

    def test_rejects_zero_matrix(self):
        with pytest.raises(DegenerateInputError, match="^generator 1 is the zero matrix$"):
            GeneratorSet([np.zeros((2, 2))])

    def test_tiny_entries_are_not_the_zero_matrix(self):
        # a norm would square 1e-200 to 0
        GeneratorSet([np.diag([1e-200, 1e-200])])

    def test_huge_entries_raise_no_runtime_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            GeneratorSet([np.diag([1e200, 1e190])])
            with pytest.raises(DegenerateInputError,
                               match="^generator 1 is numerically singular$"):
                GeneratorSet([np.diag([1e200, 1e-100])])

    @pytest.mark.parametrize("m", [
        np.zeros((2, 2)), np.ones((2, 2)), np.diag([1.0, 0.0, 2.0]),
        np.diag([1e-200, 1e-200]), np.diag([1e200, 1e-200]), np.diag([1e300, 1e300]),
        np.diag([1e-300, 1e-300]), np.array([[1.0, np.inf], [0.0, 1.0]]),
        np.array([[0.0, np.nan], [0.0, 0.0]]), np.full((3, 3), -0.0),
        np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]]), np.eye(3),
    ])
    def test_same_verdict_as_the_stacked_check(self, m):
        """A generator refused by `_first_invalid` on a stack of one is
        refused with the same message; one it passes is refused, if at all,
        only as numerically singular.  No warning is raised on the way."""
        _, expected = _first_invalid(m[None], "generator 1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                GeneratorSet([m])
            except DegenerateInputError as e:
                got = str(e)
            else:
                got = None
        if expected is not None:
            assert got == str(expected)
        else:
            assert got in (None, "generator 1 is numerically singular")

    def test_accepts_large_norm_unimodular(self):
        # determinant one with norm 1e6: must not be mistaken for singular
        GeneratorSet([np.diag([1e6, 1e-6])])

    def test_ill_conditioning_warns(self):
        with pytest.warns(ConditionWarning):
            singular_frames(np.diag([1e13, 1.0])[None], 1)


def caught_conditions(fn):
    """Run ``fn`` recording every ConditionWarning; returns (result or error, texts)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConditionWarning)
        try:
            out = fn()
        except (DegenerateGapError, DegenerateInputError) as e:
            out = e
    return out, [str(w.message) for w in caught if w.category is ConditionWarning]


class TestSingularFrames:
    ILL = np.diag([1e13, 1.0, 0.5])
    FLAT = np.diag([1e14, 1.0, 1.0])  # ill-conditioned, and no gap at index 2

    def test_rows_match_one_matrix_svd(self):
        ms = np.random.default_rng(4).standard_normal((50, 4, 4)) + 3.0 * np.eye(4)
        s, vt = singular_frames(ms, 2)
        for m, row in zip(ms, zip(s, vt)):
            for got, expected in zip(row, np.linalg.svd(m)[1:]):
                assert np.array_equal(got, expected)

    def test_one_matrix_message_unchanged(self):
        _, texts = caught_conditions(lambda: singular_frames(self.ILL[None], 1))
        assert texts == ["condition number 2.000e+13 exceeds 1e+12;"
                         " downstream gaps may be meaningless"]

    def test_stack_draws_one_aggregated_warning(self):
        worse = np.diag([1e14, 1.0, 0.5])
        ms = np.stack([self.ILL, np.eye(3) + np.diag([1.0, 0.5, 0.0]), worse])
        _, texts = caught_conditions(lambda: singular_frames(ms, 1))
        assert texts == ["2 of 3 products have condition number above 1e+12,"
                         " the worst 2.000e+14; downstream gaps may be meaningless"]

    def test_first_failing_row_wins(self):
        singular = np.diag([1.0, 1.0, 0.0])
        nonfinite = np.full((3, 3), np.inf)
        # the gap failure of row 1 comes before the invalid rows after it;
        # the rows up to it, itself included, count towards the warning
        ms = np.stack([self.ILL, self.FLAT, self.ILL, singular, nonfinite])
        err, texts = caught_conditions(lambda: singular_frames(ms, 2))
        assert isinstance(err, DegenerateGapError)
        assert str(err) == "singular gap at index 2 is degenerate (relative gap 0.000e+00)"
        assert texts == ["2 of 5 products have condition number above 1e+12,"
                         " the worst 1.000e+14; downstream gaps may be meaningless"]
        for rows, message in (([0, 3, 1], "matrix is numerically singular"),
                              ([0, 4, 3], "matrix has non-finite entries"),
                              ([2, 0, 4], "matrix has non-finite entries")):
            err, _ = caught_conditions(lambda: singular_frames(ms[rows], 2))
            assert isinstance(err, DegenerateInputError)
            assert str(err) == message
        err, _ = caught_conditions(lambda: singular_frames(np.zeros((2, 3, 3)), 1))
        assert str(err) == "matrix is the zero matrix"

    def test_given_frames_are_only_checked(self):
        # rows of unchecked_frames, taken from a larger stack, stand in for
        # the decomposition: the same frames, errors and warnings
        singular = np.diag([1.0, 1.0, 0.0])
        rng = np.random.default_rng(9)
        pool = np.concatenate([np.stack([self.ILL, self.FLAT, singular, np.eye(3)]),
                               rng.standard_normal((6, 3, 3))])
        s, vt = linalg.unchecked_frames(pool)
        for rows, p in (([4, 5, 0, 6], 1), ([4, 0, 1, 5], 2), ([0, 1, 0, 2], 2),
                        ([7, 2, 8], 1), ([0, 3], 1), ([9, 4, 8, 6], 2)):
            frames = s[rows], vt[rows]
            for fn in (lambda **kw: singular_frames(pool[rows], p, **kw),
                       lambda **kw: bottom_singular_subspace(pool[rows], 3 - p, **kw)):
                expected, texts = caught_conditions(fn)
                got, got_texts = caught_conditions(lambda: fn(frames=frames))
                assert got_texts == texts
                if isinstance(expected, Exception):
                    assert type(got) is type(expected) and str(got) == str(expected)
                else:
                    pairs = zip(got, expected) if isinstance(got, tuple) else [(got, expected)]
                    assert all(np.array_equal(a, b) for a, b in pairs)

    def test_shape_and_index_checked(self):
        with pytest.raises(DegenerateInputError):
            singular_frames(np.ones((2, 3, 4)), 1)
        with pytest.raises(DegenerateInputError):
            singular_frames(np.eye(3), 1)
        with pytest.raises(ValueError):
            singular_frames(np.stack([np.eye(3)]), 3)

    def test_stacked_orthonormality_checked(self):
        bases = np.stack([np.eye(3)[:, :1]] * 4)
        assert np.array_equal(require_orthonormal(bases), bases)
        assert not require_orthonormal(bases).flags.writeable
        bases[2, 1, 0] = 0.5
        with pytest.raises(ValueError):
            require_orthonormal(bases)


def random_rotation(seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    return q


class TestClosedFormFrames:
    """The n = 3 singular frames against 60-digit mpmath, and the rows they
    leave to LAPACK."""

    # each vector within FRAME_UNITS * eps * s1 / gap of the exact one, gap
    # the distance of its singular value to the nearest other; s1 within
    # S1_ULPS * eps * s1 and s2, s3 within SMALL_ULPS * eps * s1
    FRAME_UNITS = 4.0
    S1_ULPS = 3.0
    SMALL_ULPS = 4.0

    EPS = np.finfo(float).eps

    @staticmethod
    def frames(ms):
        """`linalg._frames3` as `linalg._svd` calls it: no warning, and the
        mask of the rows it hands LAPACK."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return linalg._frames3(ms)

    KINDS = ("spread", "close", "top close", "bottom close", "gaussian")

    @staticmethod
    def matrix(kind, seed, u, w, a, b, scale):
        """A test matrix: ``Q1 diag(s) Q2`` scaled by ``2**scale``.  "spread"
        reaches condition numbers of 1e28; "close" puts both gaps, "top
        close" the top and "bottom close" the bottom gap on either side of
        _FRAME_GAP_MARGIN; "gaussian" has Gaussian entries."""
        if kind == "gaussian":
            m = np.random.default_rng(seed).standard_normal((3, 3))
        else:
            near_a, near_b = 1.0 - 10.0**a, 1.0 - 10.0**b
            s = {"spread": [1.0, 10.0**-u, 10.0 ** -(u + w)],
                 "close": [1.0, near_a, near_a * near_b],
                 "top close": [1.0, near_a, 10.0**-u],
                 "bottom close": [1.0, 10.0**-u, 10.0**-u * near_b]}[kind]
            m = random_rotation(seed) @ np.diag(s) @ random_rotation(seed + 1)
        return np.ldexp(m, scale)

    def assert_rows_within_bounds(self, ms):
        """Each row either has LAPACK's bits, where the closed form hands it
        over, or lies within the bounds of mpmath."""
        s, vt = linalg._svd(ms)
        lapack = self.frames(ms)[2]
        _, lapack_s, lapack_vt = np.linalg.svd(ms[lapack])
        assert np.array_equal(s[lapack], lapack_s) and np.array_equal(vt[lapack], lapack_vt)
        for m, values, vectors in zip(ms[~lapack], s[~lapack], vt[~lapack]):
            angles, gaps, deviations, top = mpmath_frame_errors(m, values, vectors)
            for angle, gap in zip(angles, gaps):
                assert angle <= self.FRAME_UNITS * self.EPS * top / gap
            assert deviations[0] <= self.S1_ULPS * self.EPS * top
            assert max(deviations[1:]) <= self.SMALL_ULPS * self.EPS * top
            assert np.abs(vectors @ vectors.T - np.eye(3)).max() <= 4 * self.EPS

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        seed=st.integers(0, 2**32 - 1),
        u=st.floats(0.0, 14.0),
        w=st.floats(0.0, 14.0),
        a=st.floats(-3.5, -0.5),
        b=st.floats(-3.5, -0.5),
        scale=st.integers(-900, 900),
    )
    def test_rows_against_mpmath(self, kind, seed, u, w, a, b, scale):
        self.assert_rows_within_bounds(self.matrix(kind, seed, u, w, a, b, scale)[None])

    def test_seeded_rows_against_mpmath(self):
        # 100 rows of each kind, gaps from 10**-3.5 to 10**-0.5
        rng = np.random.default_rng(17)
        ms = [self.matrix(kind, int(rng.integers(2**32)), *rng.uniform(0.0, 14.0, 2),
                          *rng.uniform(-3.5, -0.5, 2), int(rng.integers(-900, 900)))
              for kind in self.KINDS for _ in range(100)]
        self.assert_rows_within_bounds(np.array(ms))

    def mixed_stack(self):
        """Rows of every kind: spread, close, Gaussian, and rows handed to
        LAPACK (a double top value, gaps under the margin, FLAT)."""
        rng = np.random.default_rng(21)
        r = random_rotation(5)
        ms = [random_rotation(i) @ np.diag([1.0, 10.0**-x, 10.0**-(x + y)]) @ random_rotation(i + 1)
              for i, (x, y) in enumerate(rng.uniform(0, 10, (20, 2)))]
        ms += list(rng.standard_normal((20, 3, 3)) * 10.0 ** rng.uniform(-200, 200, (20, 1, 1)))
        ms += [r @ np.diag([2.0, 2.0, 0.5]), r @ np.diag([1.0, 1.0 - 5e-4, 0.25]),
               r @ np.diag([1.0, 0.5, 0.5 - 1e-4]), TestSingularFrames.FLAT]
        return np.array(ms)

    def test_rows_alone_equal_rows_stacked(self, monkeypatch):
        ms = self.mixed_stack()
        assert 0 < self.frames(ms)[2].sum() < len(ms)
        s, vt = linalg._svd(ms)
        for i in range(len(ms)):
            one_s, one_vt = linalg.unchecked_frames(ms[i : i + 1])
            assert np.array_equal(one_s[0], s[i]) and np.array_equal(one_vt[0], vt[i])
        # blocks change no row
        monkeypatch.setattr(linalg, "_FRAME_BLOCK", 7)
        blocked_s, blocked_vt = linalg._svd(ms)
        assert np.array_equal(blocked_s, s) and np.array_equal(blocked_vt, vt)

    def test_empty_stack(self):
        s, vt = singular_frames(np.empty((0, 3, 3)), 1)
        assert s.shape == (0, 3) and vt.shape == (0, 3, 3)
        s, vt = linalg.unchecked_frames(np.empty((0, 3, 3)))
        assert s.shape == (0, 3) and vt.shape == (0, 3, 3)

    def test_handed_over_rows_keep_lapack_bits(self):
        ms = self.mixed_stack()[-4:]
        assert self.frames(ms)[2].all()
        s, vt = linalg.unchecked_frames(ms)
        _, lapack_s, lapack_vt = np.linalg.svd(ms)
        assert np.array_equal(s, lapack_s) and np.array_equal(vt, lapack_vt)

    def test_gap_message_is_lapacks(self):
        m = random_rotation(8) @ np.diag([1.0, 1.0 - 1e-10, 0.5]) @ random_rotation(9)
        _, s, _ = np.linalg.svd(m)
        gap = (s[0] - s[1]) / s[0]
        err, _ = caught_conditions(lambda: singular_frames(m[None], 1))
        assert isinstance(err, DegenerateGapError)
        assert str(err) == f"singular gap at index 1 is degenerate (relative gap {gap:.3e})"
        assert err.gap == gap

    def test_span_beyond_the_limit_is_lapacks(self):
        # s1 / s3 = 1e200, beyond _FRAME_SPAN_LIMIT; and a matrix whose s3
        # is subnormal
        ms = np.array([np.diag([1.0, 1e-100, 1e-200]), 1e-300 * np.diag([1.0, 0.5, 1e-10])])
        assert self.frames(ms)[2].all()
        s, vt = linalg._svd(ms)
        _, lapack_s, lapack_vt = np.linalg.svd(ms)
        assert np.array_equal(s, lapack_s) and np.array_equal(vt, lapack_vt)

    def test_ill_conditioned_diagonal_is_exact(self):
        # ILL keeps the closed form, which reads its diagonal exactly
        ill = TestSingularFrames.ILL
        assert not self.frames(ill[None])[2][0]
        (s, vt), _ = caught_conditions(lambda: singular_frames(ill[None], 1))
        assert s[0].tolist() == [1e13, 1.0, 0.5]
        assert np.array_equal(np.abs(vt[0]), np.eye(3))

    def test_degenerate_rows_leak_no_warning(self):
        r = random_rotation(3)
        handed_over = np.array([
            np.zeros((3, 3)), np.ones((3, 3)), np.diag([1.0, 1.0, 0.0]), np.eye(3),
            np.diag([1e300, 1.0, 1e-300]), 1e-320 * np.eye(3), 1.7e308 * r,
            r @ np.diag([1.0, 1e-200, 1e-300]),
        ])
        singular = np.arange(1.0, 10.0).reshape(3, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.frames(handed_over)[2].all()
            s, vt = linalg._svd(handed_over)
            values, _ = linalg.unchecked_frames(np.concatenate([handed_over, singular[None]]))
        _, lapack_s, lapack_vt = np.linalg.svd(handed_over)
        assert np.array_equal(s, lapack_s) and np.array_equal(vt, lapack_vt)
        assert np.isfinite(values).all()


class TestScaledInverse:
    def test_inside_the_band_is_inv(self):
        scales = 10.0 ** np.arange(-70, 80, 5)[:, None, None]
        ms = np.random.default_rng(6).standard_normal((30, 3, 3)) * scales
        assert np.array_equal(linalg.scaled_inv(ms), np.linalg.inv(ms))

    def test_near_the_float_maximum(self):
        # an unscaled inverse of 1.7e308 Q rounds to the singular
        # [[0, 6.5e-309], [0, 0]]
        q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((2, 2)))
        got = linalg.scaled_inv((1.7e308 * q)[None])[0]
        assert got == pytest.approx(q.T / 1.7e308, rel=1e-14, abs=0)
        c, s = np.cos(0.7), np.sin(0.7)
        gens = GeneratorSet([1.7e308 * np.array([[c, -s], [s, c]]), np.diag([2.0, 0.5])])
        moduli = linalg.log_eigenvalue_moduli(gens.image(-1)[None])[0]
        assert moduli == pytest.approx([-np.log(1.7e308)] * 2, rel=1e-14)


# values whose order numpy treats specially, and ties among them
SHORT_ROW_VALUES = [np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0, 2.5]


def short_rows():
    """``(N, n)`` float stacks with n from 1 to 4, drawn mostly from
    `SHORT_ROW_VALUES` so that rows tie often."""
    return st.integers(1, 4).flatmap(lambda n: arrays(
        np.float64, st.tuples(st.integers(0, 12), st.just(n)),
        elements=st.sampled_from(SHORT_ROW_VALUES) | st.floats()))


def float_bits(x):
    """The bits of a float array, with every NaN read as the one quiet NaN:
    numpy promises no payload when it picks among NaNs, and its elementwise
    loops, its reduction loop and np.sort pick differently."""
    assert x.dtype == np.float64
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


SHORT_ROW_EXAMPLES = [
    [[np.nan, 1.0, -0.0]],
    [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]],
    [[-0.0, 0.0], [0.0, -0.0]],
    [[np.inf, np.nan, -np.inf, 5e-324]],
    [[5e-324, -5e-324, 5e-324], [-5e-324, np.nan, np.nan]],
    [[np.nan], [-0.0]],
    [[2.5, 2.5, 2.5, 2.5], [1.0, np.nan, 1.0, -np.inf]],
]


def with_short_row_examples(test):
    for rows in SHORT_ROW_EXAMPLES:
        test = example(np.array(rows))(test)
    return test


class TestShortRows:
    """`_fold_columns` and `_descending` against numpy's axis reductions and
    np.sort, which they replace on rows of a few coordinates."""

    @with_short_row_examples
    @settings(max_examples=200, deadline=None)
    @given(short_rows())
    def test_fold_is_the_axis_reduction(self, x):
        for ufunc in (np.maximum, np.minimum):
            for stack in (x, np.abs(x), x[:, None, :]):
                want = ufunc.reduce(stack, axis=tuple(range(1, stack.ndim)))
                got = linalg._fold_columns(ufunc, stack)
                assert np.array_equal(float_bits(got), float_bits(want))
        zero = (x == 0.0) | np.isnan(x)
        for ufunc in (np.add, np.logical_or, np.logical_and):
            want = ufunc.reduce(zero, axis=1)
            got = linalg._fold_columns(ufunc, zero)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @with_short_row_examples
    @settings(max_examples=200, deadline=None)
    @given(short_rows())
    def test_descending_is_a_negated_sort(self, x):
        got = linalg._descending(x)
        assert got.dtype == np.float64
        assert np.array_equal(float_bits(got), float_bits(-np.sort(-x, axis=1)))
