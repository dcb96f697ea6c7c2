"""Spectral projections and subspace geometry against closed-form oracles."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from repdyn.errors import ConditionWarning, DegenerateGapError, DegenerateInputError
from repdyn.linalg import _first_invalid
from repdyn.linalg import (
    SpectralVector,
    Subspace,
    bottom_singular_subspace,
    cartan_projection,
    jordan_projection,
    opposition_involution,
    principal_angle,
    require_matrix,
    require_orthonormal,
    singular_frames,
    subspace_distance,
    top_singular_subspace,
)

# Frozen oracles.  For [[3,1],[1,1]] the Gram matrix has trace 12 and
# determinant 4, so the singular values are 2 + sqrt(2) and 2 - sqrt(2).
# For [[2,1],[1,1]] (trace 3, det 1) the eigenvalues are (3 +- sqrt(5))/2.
SINGULAR_ORACLE = np.array([[3.0, 1.0], [1.0, 1.0]])
SINGULAR_VALUES = (2.0 + np.sqrt(2.0), 2.0 - np.sqrt(2.0))
EIGEN_ORACLE = np.array([[2.0, 1.0], [1.0, 1.0]])
EIGEN_MODULI = ((3.0 + np.sqrt(5.0)) / 2.0, (3.0 - np.sqrt(5.0)) / 2.0)


class TestCartanProjection:
    def test_closed_form_oracle(self):
        v = cartan_projection(SINGULAR_ORACLE)
        assert v.kind == "cartan"
        np.testing.assert_allclose(
            np.exp(v.values), SINGULAR_VALUES, rtol=0, atol=1e-10
        )

    def test_diagonal_matrix(self):
        v = cartan_projection(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(
            v.values, np.log([3.0, 2.0, 1.0]), rtol=0, atol=1e-12
        )

    def test_sum_is_log_abs_det(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = rng.standard_normal((4, 4))
            _, logdet = np.linalg.slogdet(m)
            assert cartan_projection(m).total == pytest.approx(logdet, abs=1e-9)

    def test_inverse_is_involution_image(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((3, 3))
        v = cartan_projection(m)
        w = cartan_projection(np.linalg.inv(m))
        np.testing.assert_allclose(
            w.values, opposition_involution(v).values, rtol=0, atol=1e-9
        )


class TestJordanProjection:
    def test_closed_form_oracle(self):
        v = jordan_projection(EIGEN_ORACLE)
        assert v.kind == "jordan"
        np.testing.assert_allclose(
            np.exp(v.values), EIGEN_MODULI, rtol=0, atol=1e-10
        )

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(5)
        m = np.diag([3.0, 1.0, 1.0 / 3.0])
        p = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        conj = p @ m @ np.linalg.inv(p)
        np.testing.assert_allclose(
            jordan_projection(conj).values,
            jordan_projection(m).values,
            rtol=0,
            atol=1e-9,
        )

    def test_rotation_all_zero(self):
        c, s = np.cos(0.7), np.sin(0.7)
        v = jordan_projection(np.array([[c, -s], [s, c]]))
        np.testing.assert_allclose(v.values, 0.0, rtol=0, atol=1e-12)


class TestSpectralVector:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            SpectralVector(np.array([0.0, 1.0]), "cartan")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SpectralVector(np.array([1.0, 0.0]), "spooky")

    @pytest.mark.parametrize("values", [
        [1.0, np.nan], [np.inf, 0.0], [0.0, -np.inf], [np.nan], [0.0, 1e-8],
        [1.0, 1.0 + 3e-9], [5.0, 3.0, 3.0 + 1e-7, 0.0],
    ])
    def test_rejects_non_finite_and_increasing(self, values):
        with pytest.raises(ValueError):
            SpectralVector(np.array(values), "cartan")

    @pytest.mark.parametrize("values", [
        [0.0, 5e-10], [1.0, 1.0 + 1e-9], [-0.0, 0.0], [3.0], [1e300, -1e300],
        [5.0, 3.0, 3.0 + 1e-9, 0.0],
    ])
    def test_accepts_increase_within_the_slack(self, values):
        v = SpectralVector(values, "jordan")
        assert v.values.tobytes() == np.array(values, dtype=float).tobytes()
        assert not v.values.flags.writeable

    def test_keeps_a_copy(self):
        source = np.array([2.0, 1.0])
        v = SpectralVector(source, "cartan")
        source[0] = 0.0
        assert tuple(v.values) == (2.0, 1.0)

    def test_involution_is_exact_and_involutive(self):
        v = SpectralVector(np.array([2.0, 0.5, -1.0]), "jordan")
        w = opposition_involution(v)
        assert w.kind == "jordan"
        assert tuple(w.values) == (1.0, -0.5, -2.0)
        assert tuple(opposition_involution(w).values) == tuple(v.values)


class TestSingularSubspaces:
    def test_top_of_diagonal(self):
        u = top_singular_subspace(np.diag([3.0, 2.0, 1.0]), 1)
        assert u.dim == 1 and u.ambient_dim == 3
        assert abs(u.basis[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_bottom_of_diagonal(self):
        u = bottom_singular_subspace(np.diag([3.0, 2.0, 1.0]), 1)
        assert abs(u.basis[2, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_bottom_is_top_of_inverse(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
        u = bottom_singular_subspace(m, 2)
        w = top_singular_subspace(np.linalg.inv(m), 2)
        assert subspace_distance(u, w) == pytest.approx(0.0, abs=1e-8)

    def test_degenerate_gap_raises(self):
        with pytest.raises(DegenerateGapError) as info:
            top_singular_subspace(np.eye(3), 1)
        assert info.value.index == 1

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            top_singular_subspace(np.diag([2.0, 1.0]), 2)


class TestSubspaceGeometry:
    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0], [1.0]]))

    def test_right_angle(self):
        e1 = Subspace(np.array([[1.0], [0.0]]))
        e2 = Subspace(np.array([[0.0], [1.0]]))
        assert principal_angle(e1, e2) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_quarter_angle(self):
        e1 = Subspace(np.array([[1.0], [0.0], [0.0]]))
        d = Subspace(np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2.0))
        assert principal_angle(e1, d) == pytest.approx(np.pi / 4, abs=1e-12)

    def test_zero_angle_on_overlap(self):
        plane = Subspace(np.eye(3)[:, :2])
        line = Subspace(np.array([[1.0], [0.0], [0.0]]))
        assert principal_angle(plane, line) == pytest.approx(0.0, abs=1e-8)

    def test_angle_needs_room(self):
        plane = Subspace(np.eye(3)[:, :2])
        with pytest.raises(ValueError):
            principal_angle(plane, plane)

    def test_nan_basis_refused(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(np.full((3, 1), np.nan))
        bases = np.stack([np.eye(3)[:, :1]] * 4)
        bases[2] = np.nan
        with pytest.raises(ValueError, match="orthonormal"):
            require_orthonormal(bases)

    @pytest.mark.parametrize("n, p, q", [(3, 1, 1), (3, 1, 2), (3, 2, 1), (4, 2, 2),
                                         (5, 2, 3), (5, 3, 2), (5, 4, 1)])
    def test_principal_angle_matches_scipy(self, n, p, q):
        rng = np.random.default_rng(100 * n + 10 * p + q)
        for _ in range(100):
            a = np.linalg.qr(rng.standard_normal((n, p)))[0]
            b = rng.standard_normal((n, q))
            if q <= p:
                # near a's span, which reaches the arcsine branch
                b = a[:, :q] + 10.0 ** rng.uniform(-12, 0.7) * b
            b = np.linalg.qr(b)[0]
            expected = scipy.linalg.subspace_angles(a, b).min()
            got = principal_angle(Subspace(a), Subspace(b))
            if min(p, q) > 1 or p == q:
                assert got == expected
            else:
                # a single column against several takes other BLAS paths
                assert got == pytest.approx(expected, rel=0, abs=4 * np.finfo(float).eps)

    def test_distance_symmetric(self):
        rng = np.random.default_rng(2)
        q1, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        q2, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        u, w = Subspace(q1), Subspace(q2)
        assert subspace_distance(u, w) == pytest.approx(
            subspace_distance(w, u), abs=1e-12
        )
        assert subspace_distance(u, u) == pytest.approx(0.0, abs=1e-8)


class TestRequireMatrix:
    def test_rejects_nonsquare(self):
        with pytest.raises(DegenerateInputError):
            require_matrix(np.ones((2, 3)))

    def test_rejects_tiny_and_huge(self):
        with pytest.raises(DegenerateInputError):
            require_matrix(np.ones((1, 1)))
        with pytest.raises(DegenerateInputError):
            require_matrix(np.eye(17))

    def test_rejects_nonfinite(self):
        m = np.eye(2)
        m[0, 0] = np.nan
        with pytest.raises(DegenerateInputError):
            require_matrix(m)

    def test_rejects_zero_matrix(self):
        with pytest.raises(DegenerateInputError):
            require_matrix(np.zeros((2, 2)))

    def test_tiny_entries_are_not_the_zero_matrix(self):
        # a norm would square 1e-200 to 0
        require_matrix(np.diag([1e-200, 1e-200]))

    def test_huge_entries_raise_no_runtime_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            require_matrix(np.diag([1e200, 1e-100]))

    @pytest.mark.parametrize("m", [
        np.zeros((2, 2)), np.ones((2, 2)), np.diag([1.0, 0.0, 2.0]),
        np.diag([1e-200, 1e-200]), np.diag([1e200, 1e-200]), np.diag([1e300, 1e300]),
        np.diag([1e-300, 1e-300]), np.array([[1.0, np.inf], [0.0, 1.0]]),
        np.array([[0.0, np.nan], [0.0, 0.0]]), np.full((3, 3), -0.0),
        np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]]), np.eye(3),
    ])
    def test_same_verdict_as_the_stacked_check(self, m):
        """One matrix gets the verdict of `_first_invalid` on a stack of one,
        and no warning on the way."""
        _, expected = _first_invalid(m[None], "matrix")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if expected is None:
                assert require_matrix(m) is not None
            else:
                with pytest.raises(DegenerateInputError) as info:
                    require_matrix(m)
                assert str(info.value) == str(expected)

    def test_accepts_large_norm_unimodular(self):
        # determinant-one with norm ~1e9; must not be mistaken for singular
        m = np.diag([1e9, 1e-9])
        require_matrix(m)

    def test_jordan_rejects_rank_drop(self):
        with pytest.raises(DegenerateInputError):
            jordan_projection(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_ill_conditioning_warns(self):
        from repdyn.errors import ConditionWarning

        with pytest.warns(ConditionWarning):
            cartan_projection(np.diag([1e13, 1.0]))


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
        u, s, vt = singular_frames(ms, 2)
        for m, row in zip(ms, zip(u, s, vt)):
            for got, expected in zip(row, np.linalg.svd(m)):
                assert np.array_equal(got, expected)

    def test_one_matrix_message_unchanged(self):
        _, texts = caught_conditions(lambda: top_singular_subspace(self.ILL, 1))
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
