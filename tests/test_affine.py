"""The eigenvalue-1 battery for complete affine quotients, run on the
linear part of each affine action as a `GeneratorSet`."""

import numpy as np
import pytest

from repdyn.affine import bounded_singular_check, eigenvalue_norm_one_check, hks_test
from repdyn.domination import GeneratorSet

from conftest import form_preserving_matrix, rotation2

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
        assert "eigenvalue" in rep.criterion
        assert rep.passed


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
