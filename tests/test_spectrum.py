"""Joint-spectrum sampling, zero-index containment, involution symmetry."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import directed_hausdorff

from repdyn import spectrum
from repdyn.domination import GeneratorSet
from repdyn.spectrum import (
    ConeLevel,
    containment_check,
    involution_symmetry_check,
    sample_cone,
)
from repdyn.words import Sampled

from conftest import rotation3

LOG2 = np.log(2.0)


@st.composite
def clouds_with_repeats(draw):
    """Two clouds of one width drawn from a small pool of rows, so rows
    repeat, with both zeros among the coordinates."""
    width = draw(st.integers(1, 4))
    coordinate = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                           st.floats(-1e3, 1e3, allow_subnormal=True))
    pool = draw(st.lists(st.lists(coordinate, min_size=width, max_size=width),
                         min_size=1, max_size=6))
    cloud = st.lists(st.sampled_from(pool), min_size=1, max_size=30)
    return np.array(draw(cloud)), np.array(draw(cloud))


class TestHausdorffProxy:
    @settings(max_examples=200, deadline=None)
    @given(clouds_with_repeats())
    @example((np.array([[0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]]),
              np.array([[1.0, 0.0], [-0.0, 1.0], [1.0, 0.0]])))
    def test_distinct_rows_give_the_bits_of_the_full_clouds(self, clouds):
        a, b = clouds
        full = max(directed_hausdorff(a, b)[0], directed_hausdorff(b, a)[0])
        got = spectrum._hausdorff(a, b)
        assert np.float64(got).tobytes() == np.float64(full).tobytes()

    def test_distinct_rows_keep_one_of_each_bit_pattern(self):
        cloud = np.array([[1.0, 0.0], [1.0, -0.0], [1.0, 0.0], [2.0, 3.0], [1.0, -0.0]])
        rows = spectrum._distinct_rows(cloud)
        assert sorted(map(bytes, rows)) == sorted({bytes(r) for r in cloud})


class TestSampleCone:
    def test_samples_are_normalized_by_length(self):
        gens = GeneratorSet([np.diag([4.0, 0.25])], names=["a"])
        cone = sample_cone(gens, m_max=4)
        assert sorted(cone.levels) == [1, 2, 3, 4]
        for m, level in cone.levels.items():
            assert level.length == m and len(level) == 2
            np.testing.assert_allclose(
                level.jordan, [[2.0 * LOG2, -2.0 * LOG2]] * 2, atol=1e-10
            )
        assert cone.m_used == 4
        assert not cone.truncated

    def test_single_loxodromic_hull_is_a_point(self):
        gens = GeneratorSet([np.diag([4.0, 0.25])], names=["a"])
        cone = sample_cone(gens, m_max=4)
        assert cone.hull_affine_dim == 0
        assert cone.hull_vertices.shape == (1, 2)
        assert cone.hausdorff == pytest.approx(0.0, abs=1e-10)

    def test_padded_ping_pong_cone(self, ping_pong_padded):
        cone = sample_cone(ping_pong_padded, m_max=5)
        assert cone.n == 3
        # every sample of the padded pair lies on the ray (t, 0, -t)
        for level in cone.levels.values():
            np.testing.assert_allclose(level.jordan[:, 1], 0.0, atol=1e-8)
            np.testing.assert_allclose(level.jordan[:, 0], -level.jordan[:, 2], atol=1e-8)
            assert (level.zero == [False, True, False]).all()

    def test_sampled_policy_deterministic(self, ping_pong_padded):
        pol = Sampled(count=12, seed=5)
        c1 = sample_cone(ping_pong_padded, m_max=5, policy=pol)
        c2 = sample_cone(ping_pong_padded, m_max=5, policy=pol)
        assert c1.levels.keys() == c2.levels.keys()
        for m in c1.levels:
            assert np.array_equal(c1.levels[m].letters, c2.levels[m].letters)

    def test_levels_are_read_only(self, ping_pong_padded):
        level = sample_cone(ping_pong_padded, m_max=2).levels[2]
        with pytest.raises(ValueError):
            level.jordan[0, 0] = 1.0


class TestContainment:
    def test_padded_pair_contained(self, ping_pong_padded):
        cone = sample_cone(ping_pong_padded, m_max=5)
        rep = containment_check(cone, k=1)
        assert rep.passed
        assert rep.window == (2,)
        assert not rep.violations
        # every nonzero sample has normalized top gap exactly 1/sqrt(2)
        assert rep.C_hat == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)

    def test_two_dimensional_control_fails(self, ping_pong):
        cone = sample_cone(ping_pong, m_max=4)
        rep = containment_check(cone, k=1)
        assert not rep.passed
        assert rep.reason == "empty window"
        assert rep.window == ()

    def test_escaping_zero_index_detected(self):
        # a repeated unit modulus at the top puts index 1 in the zero set
        g = np.diag([1.0, 1.0, 0.5])
        cone = sample_cone(GeneratorSet([g]), m_max=3)
        rep = containment_check(cone, k=1)
        assert not rep.passed
        assert rep.reason == "zero-index escape"
        assert rep.violations

    def test_cone_tip_alone_has_no_gap(self):
        # eigenvalues of a rotation all have modulus 1: every sample is zero
        cone = sample_cone(GeneratorSet([rotation3(0.6, 0.7)]), m_max=3)
        rep = containment_check(cone, k=1)
        assert rep.n_zero == rep.n_samples > 0
        assert np.isnan(rep.C_hat)
        assert not rep.passed
        assert rep.reason == "no k-gap"

    def test_k_validated(self, ping_pong_padded):
        cone = sample_cone(ping_pong_padded, m_max=3)
        with pytest.raises(ValueError):
            containment_check(cone, k=2)

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_tol_validated(self, ping_pong_padded, tol):
        # a negative or NaN tolerance would pass vacuously with every sample empty
        cone = sample_cone(ping_pong_padded, m_max=3)
        with pytest.raises(ValueError):
            containment_check(cone, k=1, tol=tol)


class TestInvolutionSymmetry:
    def test_padded_pair_is_symmetric(self, ping_pong_padded):
        cone = sample_cone(ping_pong_padded, m_max=5)
        rep = involution_symmetry_check(cone)
        assert rep.passed
        assert rep.max_deviation <= rep.tol
        assert not rep.mismatches

    def test_sampled_draws_remain_paired(self, ping_pong_padded):
        cone = sample_cone(
            ping_pong_padded, m_max=5, policy=Sampled(count=16, seed=1)
        )
        rep = involution_symmetry_check(cone)
        assert rep.passed

    def test_doctored_sample_is_caught(self, ping_pong_padded):
        cone = sample_cone(ping_pong_padded, m_max=3)
        level = cone.levels[2]
        jordan = level.jordan.copy()
        jordan[0] += np.array([1.0, 0.0, -1.0])
        levels = dict(cone.levels)
        levels[2] = dataclasses.replace(level, jordan=jordan)
        rep = involution_symmetry_check(dataclasses.replace(cone, levels=levels))
        assert not rep.passed
        # the doctored row and its inverse's row both see the deviation
        assert {(m, w) for m, w, _ in rep.mismatches} == {
            (2, level.word(0)), (2, level.word(0).inverse())
        }
        assert rep.max_deviation == pytest.approx(1.0, abs=1e-9)

    def test_unpaired_word_is_a_mismatch(self, ping_pong_padded):
        cone = sample_cone(ping_pong_padded, m_max=2)
        level = cone.levels[2]
        keep = np.arange(1, len(level))
        inverse = level.inverse[keep] - 1  # the dropped word's inverse reads -1
        levels = dict(cone.levels)
        levels[2] = ConeLevel(
            level.letters[keep], level.jordan[keep], level.cartan[keep],
            level.zero[keep], inverse,
        )
        rep = involution_symmetry_check(dataclasses.replace(cone, levels=levels))
        assert not rep.passed
        [(m, word, dev)] = rep.mismatches
        assert m == 2 and word == level.word(0).inverse() and np.isnan(dev)
