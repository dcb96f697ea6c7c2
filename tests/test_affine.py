"""The eigenvalue-1 battery for complete affine quotients, run on the
linear part of each affine action as a `GeneratorSet`."""

import warnings

import numpy as np
import pytest

from repdyn.affine import bounded_singular_check, eigenvalue_norm_one_check, hks_test
from repdyn.domination import GeneratorSet

from conftest import (
    form_preserving_matrix,
    is_class_representative,
    ping_pong_matrices,
    rotation2,
    sym_power,
    unipotent_so21,
)

LOG2 = np.log(2.0)


class TestHksTest:
    def test_form_preserving_fixture_passes(self, form_preserving_affine):
        rep = hks_test(form_preserving_affine, L_max=6)
        assert rep.passed
        assert rep.max_normalized < 1e-10
        assert rep.first_fail_length is None
        assert len(rep.spheres) == 6

    def test_strict_expansion_fails_immediately(self):
        gens = GeneratorSet([np.diag([2.0, 2.0])])
        rep = hks_test(gens, L_max=4)
        assert not rep.passed
        assert rep.first_fail_length == 1
        assert rep.worst_word is not None

    def test_orthogonal_conjugation_preserves_verdict(self):
        h = form_preserving_matrix()
        q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((3, 3)))
        gens = GeneratorSet([q @ h @ q.T])
        assert hks_test(gens, L_max=5).passed


    def test_generator_near_the_float_maximum(self):
        # det(P - I) of 1.7e308 R(0.7) overflows, and so does the elimination
        # in slogdet unless the matrix is scaled first
        gens = GeneratorSet([1.7e308 * rotation2(0.7), np.diag([2.0, 0.5])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = hks_test(gens, L_max=4)
        assert rep.truncated and len(rep.spheres) == 1
        expected = max(hks_mpmath(gens.image(l)) for l in (1, -1, 2, -2))
        assert rep.max_normalized == pytest.approx(expected, rel=1e-13)


def hks_mpmath(m):
    """``|det(m - I)| / (1 + s1)^2`` of a 2x2 float matrix in 60 digits."""
    import mpmath

    with mpmath.workdps(60):
        (a, b), (c, d) = [[mpmath.mpf(float(x)) for x in row] for row in m]
        s1 = (mpmath.hypot(a + d, b - c) + mpmath.hypot(a - d, b + c)) / 2
        return float(abs((a - 1) * (d - 1) - b * c) / (1 + s1) ** 2)


class TestEigenvalueNormOne:
    def test_rotation_passes_exactly(self):
        gens = GeneratorSet([rotation2(0.7)])
        rep = eigenvalue_norm_one_check(gens, L_max=5)
        assert rep.passed
        assert rep.worst_deviation < 1e-12

    def test_proximal_map_fails(self):
        gens = GeneratorSet([np.diag([2.0, 0.5])])
        rep = eigenvalue_norm_one_check(gens, L_max=4)
        assert not rep.passed
        # the deviation grows with length: min |log lambda| = L log 2
        assert rep.worst_deviation == pytest.approx(4.0 * LOG2, abs=1e-9)
        assert rep.worst_length == 4

    def test_criterion_text_travels_with_report(self, form_preserving_affine):
        rep = eigenvalue_norm_one_check(form_preserving_affine, L_max=3)
        assert "eigenvalue" in rep.criterion and "conjugacy class" in rep.criterion
        assert rep.passed

    @pytest.mark.parametrize("L_max", [4, 6])
    def test_parabolic_pair_passes(self, L_max):
        # h u h^-1 has the triple eigenvalue 1, which its dense product reads
        # only to about eps^(1/3); its class is read on u itself
        gens = GeneratorSet([form_preserving_matrix(), unipotent_so21()])
        rep = eigenvalue_norm_one_check(gens, L_max=L_max)
        assert rep.passed
        assert rep.worst_deviation <= 1e-13

    def test_sym2_ping_pong_reads_its_classes(self, sym2_ping_pong):
        # every word has the eigenvalue 1 exactly; a non-cyclically-reduced
        # conjugate such as B B B A B^-1 B^-1 B^-1 B^-1 read 0.3245, as its
        # product's norm grows with the conjugator and its spectrum does not
        rep = eigenvalue_norm_one_check(sym2_ping_pong, L_max=8)
        assert rep.worst_deviation <= 1e-7
        assert rep.worst_word.is_cyclically_reduced
        assert [r.count for r in rep.spheres] == [4, 8, 12, 26, 52, 132, 316, 836]

    def test_the_worst_word_is_a_class_representative(self, sym2_ping_pong):
        rep = eigenvalue_norm_one_check(sym2_ping_pong, L_max=5)
        assert all(is_class_representative(r.word) for r in rep.spheres)


class TestSymPower:
    def test_sym2_spells_the_closed_form(self):
        a, b = ping_pong_matrices()
        for m in (a, b, rotation2(0.3), np.array([[1.0, 2.0], [3.0, 5.0]])):
            (p, q), (r, t) = m
            expected = np.array([
                [p * p, np.sqrt(2) * p * q, q * q],
                [np.sqrt(2) * p * r, p * t + q * r, np.sqrt(2) * q * t],
                [r * r, np.sqrt(2) * r * t, t * t],
            ])
            assert np.array_equal(sym_power(m, 2), expected)

    def test_ping_pong_generators_have_eigenvalues_16_1_and_a_sixteenth(self):
        for m in ping_pong_matrices():
            values = np.sort(np.linalg.eigvals(sym_power(m, 2)).real)
            np.testing.assert_allclose(values, [1 / 16, 1.0, 16.0], rtol=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_rotations_go_to_orthogonal_matrices(self, m):
        s = sym_power(rotation2(0.7), m)
        assert s.shape == (m + 1, m + 1)
        np.testing.assert_allclose(s.T @ s, np.eye(m + 1), atol=1e-14)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_a_homomorphism(self, m):
        a, b = ping_pong_matrices()
        np.testing.assert_allclose(sym_power(a @ b, m), sym_power(a, m) @ sym_power(b, m),
                                   rtol=1e-13, atol=1e-12)


class TestBoundedSingular:
    def test_isometries_have_flat_slope(self):
        gens = GeneratorSet([rotation2(0.4)])
        rep = bounded_singular_check(gens, L_max=6)
        assert rep.passed
        assert rep.slope == pytest.approx(0.0, abs=1e-10)
        assert rep.C_hat == pytest.approx(0.0, abs=1e-10)

    def test_linear_growth_fails(self):
        gens = GeneratorSet([np.diag([2.0, 0.5])])
        rep = bounded_singular_check(gens, L_max=6)
        assert not rep.passed
        assert rep.slope == pytest.approx(LOG2, abs=1e-9)

    def test_form_preserving_fixture_passes(self, form_preserving_affine):
        rep = bounded_singular_check(form_preserving_affine, L_max=6)
        assert rep.passed
