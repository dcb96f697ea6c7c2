"""Cocycle trajectories, invariant splittings, and growth-rate fits."""

import numpy as np
import pytest

from repdyn.domination import GeneratorSet
from repdyn.errors import DegenerateGapError
from repdyn.flowbundle import (
    build_trajectory,
    estimate_splitting,
    measure_rates,
    splitting_at,
)
from repdyn.words import FlowLineWindow

from conftest import partial_hyperbolic_matrices, rotation2

LOG2 = np.log(2.0)

# windows of depth ~48 push products to condition 4^48; the library flags
# that with ConditionWarning, which is exactly the expected behavior here
pytestmark = pytest.mark.filterwarnings(
    "ignore::repdyn.errors.ConditionWarning"
)


@pytest.fixture(scope="module")
def constant_traj():
    g, _ = partial_hyperbolic_matrices()
    gens = GeneratorSet([g], names=["g"])
    return build_trajectory(gens, [FlowLineWindow.periodic([1], 24)])[0]


class TestTrajectory:
    def test_products_follow_left_multiplication(self, ping_pong):
        line = FlowLineWindow.periodic([1, 2], 6)
        traj = build_trajectory(ping_pong, [line])[0]
        a, b = ping_pong.image(1), ping_pong.image(2)
        np.testing.assert_allclose(traj.forward[0, 0], np.eye(2), atol=1e-14)
        np.testing.assert_allclose(traj.forward[0, 1], a, atol=1e-12)
        # the letter at time 1 acts after the letter at time 0
        np.testing.assert_allclose(traj.forward[0, 2], b @ a, atol=1e-12)
        # one step back inverts the letter covering [-1, 0)
        back = np.linalg.inv(ping_pong.image(line.letter(-1)))
        np.testing.assert_allclose(traj.backward[0, 1], back, atol=1e-12)

    def test_window_respected(self, constant_traj):
        assert constant_traj.t_forward == 24
        assert constant_traj.t_backward == 24
        assert not constant_traj.truncated


class TestSplitting:
    def test_constant_line_splits_into_axes(self, constant_traj):
        [split] = estimate_splitting(constant_traj, 1)
        assert split.residual < 1e-10
        assert split.independence > 0.99
        for sub, axis in (
            (split.v_plus, 0),
            (split.v_zero, 1),
            (split.v_minus, 2),
        ):
            assert sub.dim == 1
            assert abs(sub.basis[axis, 0]) == pytest.approx(1.0, abs=1e-10)

    def test_k_range_is_strict(self, constant_traj):
        # n = 3 leaves no room for k = 1 plus an empty neutral block
        with pytest.raises(ValueError):
            estimate_splitting(constant_traj, 2)
        with pytest.raises(ValueError):
            measure_rates(constant_traj, 2)

    def test_rotation_line_has_no_gap(self):
        r3 = np.eye(3)
        r3[:2, :2] = rotation2(0.9)
        gens = GeneratorSet([r3], names=["r"])
        traj = build_trajectory(gens, [FlowLineWindow.periodic([1], 8)])[0]
        with pytest.raises(DegenerateGapError) as info:
            estimate_splitting(traj, 1)
        assert info.value.time is not None

    def test_splitting_at_matches_estimate(self, constant_traj):
        [split] = estimate_splitting(constant_traj, 1)
        vp, vz, vm = splitting_at(
            constant_traj, 1, [split.t_forward], [split.t_backward]
        )
        np.testing.assert_allclose(vp[0, 0], split.v_plus.basis, atol=1e-12)
        np.testing.assert_allclose(vz[0, 0], split.v_zero.basis, atol=1e-12)
        np.testing.assert_allclose(vm[0, 0], split.v_minus.basis, atol=1e-12)


class TestRates:
    def test_constant_line_rates_exact(self, constant_traj):
        [rates] = measure_rates(constant_traj, 1)
        assert rates.a_plus == pytest.approx(LOG2, abs=1e-9)
        assert rates.a_minus == pytest.approx(LOG2, abs=1e-9)
        assert rates.aprime_plus_zero == pytest.approx(LOG2, abs=1e-9)
        assert rates.aprime_zero_minus == pytest.approx(LOG2, abs=1e-9)
        assert rates.A_plus == pytest.approx(1.0, abs=1e-6)

    def test_conjugated_line_rates_close(self):
        _, h = partial_hyperbolic_matrices()
        gens = GeneratorSet([h], names=["h"])
        traj = build_trajectory(gens, [FlowLineWindow.periodic([1], 48)])[0]
        [rates] = measure_rates(traj, 1)
        assert rates.a_plus == pytest.approx(LOG2, abs=1e-2)
        assert rates.a_minus == pytest.approx(LOG2, abs=1e-2)
        assert rates.aprime_plus_zero > 0.0
        assert rates.aprime_zero_minus > 0.0

    def test_norm_matrix_leaves_rates_alone(self, constant_traj):
        [plain] = measure_rates(constant_traj, 1)
        # a shear does not commute with the generator, so the transported
        # blocks genuinely move; the fitted rates must not (up to the frame
        # re-estimation bias of the sliding window)
        w = np.array([[1.0, 0.7, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]])
        [weighted] = measure_rates(constant_traj, 1, norm_matrix=w)
        assert weighted.norm_used is True
        assert plain.norm_used is False
        assert weighted.a_plus == pytest.approx(plain.a_plus, abs=1e-3)
        assert weighted.a_minus == pytest.approx(plain.a_minus, abs=1e-3)
