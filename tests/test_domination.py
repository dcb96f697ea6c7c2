"""Domination scans and flag estimates."""

import numpy as np
import pytest

from repdyn.domination import (
    GeneratorSet,
    domination_scan,
    flag_estimate,
    transversality_check,
)
from repdyn.errors import DegenerateInputError
from repdyn.words import Sampled, Word

from conftest import rotation2

LOG4 = np.log(4.0)


class TestGeneratorSet:
    def test_images_and_inverses(self, ping_pong):
        assert ping_pong.rank == 2
        assert ping_pong.dim == 2
        np.testing.assert_allclose(
            ping_pong.image(-1) @ ping_pong.image(1), np.eye(2), atol=1e-12
        )

    def test_word_naming(self, ping_pong):
        assert ping_pong.word_name(Word()) == "e"
        assert ping_pong.word_name(Word([1, -2, 1])) == "a b^-1 a"

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DegenerateInputError):
            GeneratorSet([np.eye(2), np.eye(3)])

    def test_rejects_singular_generator(self):
        with pytest.raises(DegenerateInputError):
            GeneratorSet([np.zeros((2, 2))])
        with pytest.raises(DegenerateInputError):
            GeneratorSet([np.array([[1.0, 2.0], [2.0, 4.0]])])

    def test_rejects_generator_whose_inverse_is_not_finite(self):
        # condition number 1, but the inverse 1e310 I overflows
        with pytest.raises(DegenerateInputError,
                           match="generator 2 has a non-finite inverse"):
            GeneratorSet([np.eye(2), 1e-310 * np.eye(2)])


class TestDominationScan:
    def test_single_diagonal_generator(self):
        gens = GeneratorSet([np.diag([4.0, 0.25])], names=["a"])
        rep = domination_scan(gens, k=1, L_max=6)
        assert rep.verdict == "dominated"
        # gap(a^L) = 2 L log 4 exactly, so the fitted slope is 2 log 4
        assert rep.A_hat == pytest.approx(2.0 * LOG4, abs=1e-9)
        assert rep.A_lower == pytest.approx(2.0 * LOG4, abs=1e-9)
        for r in rep.spheres:
            assert r.gap_min == pytest.approx(2.0 * r.length * LOG4, abs=1e-9)

    def test_ping_pong_dominated(self, ping_pong):
        rep = domination_scan(ping_pong, k=1, L_max=7)
        assert rep.verdict == "dominated"
        assert rep.exhaustive and not rep.truncated
        assert all(r.gap_min > 0.0 for r in rep.spheres)
        assert rep.A_hat > 0.0
        assert rep.A_lower > 0.0
        # the mean-gap fit sits above the worst-word fit for this pair
        assert rep.A_hat > rep.A_lower

    def test_rotation_refuted_at_length_one(self):
        gens = GeneratorSet([rotation2(0.7)], names=["r"])
        rep = domination_scan(gens, k=1, L_max=5)
        assert rep.verdict == "refuted"
        assert rep.refuted_at == 1
        assert rep.violating_word is not None
        assert len(rep.spheres) == 1

    def test_partially_hyperbolic_verdict(self, ph_diagonal, ph_conjugate):
        for gens in (ph_diagonal, ph_conjugate):
            rep = domination_scan(gens, k=1, L_max=6)
            assert rep.verdict == "partially-hyperbolic"
            assert rep.L0 is not None and rep.L0 <= rep.L_used - 2
            assert rep.top_slope > 0.0
            assert rep.bottom_slope < 0.0
            tail = [r for r in rep.spheres if r.length >= rep.L0]
            assert all(r.logak_min > 0.0 for r in tail)
            assert all(r.lognk1_max < 0.0 for r in tail)

    def test_mixed_pair_stays_dominated_at_desk_scale(
        self, partial_hyperbolic_pair
    ):
        # near-commutator words keep the sphere minimum of log a_1 small
        # and oscillating, so the tail fit cannot certify the stronger
        # verdict at these lengths; domination itself is still clear
        rep = domination_scan(partial_hyperbolic_pair, k=1, L_max=6)
        assert rep.verdict == "dominated"
        assert all(r.gap_min > 0.0 for r in rep.spheres)

    def test_sampled_policy_is_inconclusive(self, ping_pong):
        rep = domination_scan(
            ping_pong, k=1, L_max=6, policy=Sampled(count=30, seed=2)
        )
        assert rep.verdict == "inconclusive"
        assert not rep.exhaustive

    def test_sampled_policy_still_refutes(self):
        gens = GeneratorSet([rotation2(0.3)], names=["r"])
        rep = domination_scan(
            gens, k=1, L_max=5, policy=Sampled(count=10, seed=0)
        )
        assert rep.verdict == "refuted"

    def test_k_range_validated(self, ping_pong):
        with pytest.raises(ValueError):
            domination_scan(ping_pong, k=2, L_max=4)


class TestFlagEstimate:
    def test_diagonal_prefix_is_exact(self):
        gens = GeneratorSet([np.diag([3.0, 1.0, 1.0 / 3.0])], names=["a"])
        est = flag_estimate(gens, Word([1]), k=1, depth=8)
        assert est.residual == pytest.approx(0.0, abs=1e-12)
        assert abs(est.zeta.basis[0, 0]) == pytest.approx(1.0, abs=1e-12)
        assert est.theta_map.dim == 2

    def test_ping_pong_residual_decays(self, ping_pong):
        residuals = {
            depth: flag_estimate(ping_pong, Word([1, 2]), 1, depth).residual
            for depth in range(6, 13)
        }
        for depth in range(7, 13):
            assert residuals[depth] < residuals[depth - 1]
            assert residuals[depth] <= residuals[depth - 1] / 2.0

    def test_prefix_must_be_cyclically_reduced(self, ping_pong):
        with pytest.raises(ValueError):
            flag_estimate(ping_pong, Word([1, 2, -1]), 1, 8)


class TestTransversality:
    # tiling a to depth 10 gives condition 16^10, just over the advisory line
    @pytest.mark.filterwarnings("ignore::repdyn.errors.ConditionWarning")
    def test_distinct_fixed_points_make_an_angle(self, ping_pong):
        ea = flag_estimate(ping_pong, Word([1]), 1, 10)
        eb = flag_estimate(ping_pong, Word([2]), 1, 10)
        assert transversality_check(ea, eb) > 0.1

    def test_same_boundary_point_rejected(self, ping_pong):
        ea = flag_estimate(ping_pong, Word([1]), 1, 8)
        eaa = flag_estimate(ping_pong, Word([1, 1]), 1, 4)
        with pytest.raises(ValueError):
            transversality_check(ea, eaa)
