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
from repdyn.linalg import scaled_inv, scaled_slogdet, subspace_distance
from repdyn.words import Sampled, Word, evaluate, random_word

from conftest import rotation2, word_log_dets

LOG4 = np.log(4.0)

# a unimodular swap with determinant -1, a generic matrix and one near the
# float maximum, for generator sets of ranks 1 to 3
TABLE_MATRICES = [
    np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    np.random.default_rng(34).standard_normal((3, 3)),
    1e300 * np.random.default_rng(35).standard_normal((3, 3)),
]
TABLE_NAMES = ["a", 'b, "c"', "é^-1"]


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
        with pytest.raises(DegenerateInputError,
                           match="^generator 2 has dimension 3, expected 2$"):
            GeneratorSet([np.eye(2), np.eye(3)])

    def test_rejects_singular_generator(self):
        with pytest.raises(DegenerateInputError, match="^generator 1 is the zero matrix$"):
            GeneratorSet([np.zeros((2, 2))])
        for m in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.diag([1.0, 1e-15])):
            with pytest.raises(DegenerateInputError,
                               match="^generator 2 is numerically singular$"):
                GeneratorSet([np.eye(2), m])

    @pytest.mark.parametrize("theta", [0.7, 0.3])
    def test_log_det_of_a_generator_near_the_float_maximum(self, theta):
        # the elimination in slogdet overflows on 1.7e308 R(0.7), and not on
        # 1.7e308 R(0.3); a leaked RuntimeWarning fails the test
        gens = GeneratorSet([1.7e308 * rotation2(theta), np.diag([2.0, 0.5])])
        logdet, sign = word_log_dets(gens, [[1], [-1], [2]])
        expected = 2.0 * np.log(1.7e308)
        assert abs(logdet[0] - expected) <= 4 * np.spacing(expected)
        assert logdet[1] == -logdet[0]
        assert logdet[2] == np.linalg.slogdet(np.diag([2.0, 0.5]))[1]
        assert sign.tolist() == [1, 1, 1]

    def test_rejects_generator_whose_inverse_is_not_finite(self):
        # condition number 1, but the inverse 1e310 I overflows
        with pytest.raises(DegenerateInputError,
                           match="generator 2 has a non-finite inverse"):
            GeneratorSet([np.eye(2), 1e-310 * np.eye(2)])

    @pytest.mark.parametrize("images, names, error, message", [
        ([], None, DegenerateInputError, "generator set must be nonempty"),
        ([np.eye(2)], ["a", "b"], ValueError, "need exactly one name per generator"),
        ([np.eye(2), 2 * np.eye(2)], ["a", "a"], ValueError,
         "generator names must be distinct"),
    ], ids=["empty", "name-count", "name-repeated"])
    def test_rejects_empty_sets_and_bad_names(self, images, names, error, message):
        with pytest.raises(error) as info:
            GeneratorSet(images, names)
        assert str(info.value) == message

    @pytest.mark.parametrize("images, names, message", [
        # each generator gets every matrix check before the next one
        ([np.diag([1.0, 1e-15]), np.zeros((2, 2))], None,
         "generator 1 is numerically singular"),
        ([np.eye(2), np.eye(3), np.full((2, 2), np.nan)], None,
         "generator 2 has dimension 3, expected 2"),
        # the names after every matrix, the inverses after the names
        ([np.eye(2), 1e-310 * np.eye(2), np.zeros((2, 2))], ["a", "a", "b"],
         "generator 3 is the zero matrix"),
        ([np.eye(2), 1e-310 * np.eye(2)], ["a", "a"], "generator names must be distinct"),
    ], ids=["singular-before-zero", "dimension-before-nonfinite", "matrices-first",
            "names-before-inverses"])
    def test_first_failing_generator_is_named(self, images, names, message):
        with pytest.raises((DegenerateInputError, ValueError)) as info:
            GeneratorSet(images, names)
        assert str(info.value) == message

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_letter_tables_read_each_generator(self, rank):
        mats, names = TABLE_MATRICES[:rank], TABLE_NAMES[:rank]
        gens = GeneratorSet(mats, names)
        assert (gens.rank, gens.dim) == (rank, 3)
        for table in (gens.letter_images, gens.letter_log_dets,
                      gens.letter_signs, gens.letter_names):
            assert len(table) == 2 * rank
            with pytest.raises(ValueError):
                table[0] = table[1]
        assert gens.letter_signs.dtype == np.int8
        for i, (m, name) in enumerate(zip(mats, names)):
            sign, logdet = (float(x[0]) for x in scaled_slogdet(m[None]))
            forward, inverse = 2 * i, 2 * i + 1
            assert np.array_equal(gens.letter_images[forward], m)
            assert np.array_equal(gens.letter_images[inverse], scaled_inv(m[None])[0])
            assert np.array_equal(gens.image(i + 1), m)
            assert np.array_equal(gens.image(-(i + 1)), gens.letter_images[inverse])
            assert gens.letter_log_dets[forward] == logdet
            assert gens.letter_log_dets[inverse] == -logdet
            assert gens.letter_signs[forward] == gens.letter_signs[inverse] == sign
            assert gens.letter_names[forward] == name
            assert gens.letter_names[inverse] == name + "^-1"
        # the swap is unimodular: both its letters read +0.0, not -0.0
        assert gens.letter_log_dets[0] == 0.0 and not np.signbit(gens.letter_log_dets[:2]).any()
        assert gens.letter_signs[0] == -1

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_log_dets_and_word_names_are_the_per_letter_loop(self, rank):
        mats, names = TABLE_MATRICES[:rank], TABLE_NAMES[:rank]
        gens = GeneratorSet(mats, names)
        slogdets = [tuple(float(x[0]) for x in scaled_slogdet(m[None])) for m in mats]
        rng = np.random.default_rng(rank)
        for length in (1, 2, 7):
            letters = np.array([random_word(rank, length, rng).letters for _ in range(40)],
                               dtype=np.int8)
            logdet, sign = word_log_dets(gens, letters)
            for row, word in enumerate(letters.tolist()):
                expected_logdet, expected_sign, parts = 0.0, 1, []
                for l in word:
                    s, d = slogdets[abs(l) - 1]
                    expected_logdet += d if l > 0 else -d
                    expected_sign *= s
                    parts.append(names[abs(l) - 1] + ("" if l > 0 else "^-1"))
                assert logdet[row] == expected_logdet
                assert sign[row] == expected_sign
                assert gens.word_name(Word(word)) == " ".join(parts)
                assert gens.word_name(letters[row]) == " ".join(parts)


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
        # the pair is not 1-dominated: h's attracting line lies in g's
        # attracting plane.  The mean gaps still rise, but the minima fall,
        # and minima decide
        rep = domination_scan(partial_hyperbolic_pair, k=1, L_max=6)
        assert rep.verdict == "inconclusive"
        assert rep.A_hat > 0.0 > rep.A_lower
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
        assert abs(est.zeta[0, 0]) == pytest.approx(1.0, abs=1e-12)
        assert est.theta_map.shape == (3, 2)

    def test_flags_span_the_leading_left_singular_vectors(self):
        gens = GeneratorSet([np.diag([3.0, 1.0, 1.0 / 3.0])], names=["a"])
        est = flag_estimate(gens, Word([1]), k=1, depth=8)
        u = np.linalg.svd(evaluate(Word([1] * 8), gens))[0]
        for basis, p in ((est.zeta, 1), (est.theta_map, 2)):
            assert isinstance(basis, np.ndarray) and basis.shape == (3, p)
            assert not basis.flags.writeable
            assert subspace_distance(basis[None], u[None, :, :p])[0] <= 1e-12

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
