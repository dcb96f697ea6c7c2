"""Free-group words, sphere enumeration, flow lines, and the flow metric."""

import numpy as np
import pytest

from repdyn.domination import GeneratorSet
from repdyn.errors import NumericOverflowError, WindowBoundsError
from repdyn.words import (
    Exhaustive,
    FlowLineWindow,
    Sampled,
    TreeGeodesic,
    Word,
    alphabet,
    count_sphere,
    enumerate_sphere,
    evaluate,
    flow_metric,
    iter_sphere_products,
    letter_rank,
    random_word,
    sampled_words,
    shift_flow,
    tree_distance,
)

LOG2 = np.log(2.0)


class TestWord:
    def test_rejects_unreduced(self):
        with pytest.raises(ValueError):
            Word([1, -1])
        with pytest.raises(ValueError):
            Word([2, 0])

    def test_product_cancels(self):
        w = Word([1, -2]) * Word([2, 1])
        assert w.letters == (1, 1)
        assert (Word([1, 2]) * Word([-2, -1])).letters == ()

    def test_inverse_and_power(self):
        w = Word([1, 2, -1])
        assert (w * w.inverse()).letters == ()
        # powers reduce at the seam: ...2, -1 | 1, 2... cancels
        assert (w ** 2).letters == (1, 2, 2, -1)
        assert (Word([1, 2]) ** 3).letters == (1, 2, 1, 2, 1, 2)
        assert (w ** 0).letters == ()
        assert (w ** -1).letters == w.inverse().letters

    def test_cyclic_reduction_flag(self):
        assert Word([1, 2]).is_cyclically_reduced
        assert not Word([1, 2, -1]).is_cyclically_reduced

    def test_shortlex_order(self):
        # length first, then letter rank a < a^-1 < b < b^-1
        assert Word([1]) < Word([-1]) < Word([2]) < Word([-2]) < Word([1, 1])
        assert sorted([Word([2]), Word([1, 2]), Word([1])]) == [
            Word([1]),
            Word([2]),
            Word([1, 2]),
        ]


class TestAlphabet:
    def test_letter_rank_round_trip(self):
        letters = alphabet(3)
        assert letters == [1, -1, 2, -2, 3, -3]
        assert [letter_rank(l) for l in letters] == list(range(6))


class TestSphere:
    def test_counts(self):
        assert count_sphere(2, 0) == 1
        assert count_sphere(2, 1) == 4
        assert count_sphere(2, 2) == 12
        assert count_sphere(2, 3) == 36
        assert count_sphere(1, 5) == 2

    def test_enumeration_matches_count_and_order(self):
        sphere = list(enumerate_sphere(2, 3))
        assert len(sphere) == 36
        assert len(set(sphere)) == 36
        assert all(len(w) == 3 for w in sphere)
        assert sphere == sorted(sphere)

    def test_random_word_reduced(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            w = random_word(2, 6, rng)
            assert len(w) == 6
            Word(w.letters)  # re-validates reducedness

    def test_sampled_words_deterministic(self):
        pol = Sampled(count=25, seed=9)
        draw1 = sampled_words(2, 5, pol)
        draw2 = sampled_words(2, 5, pol)
        assert draw1 == draw2
        closed = sampled_words(2, 5, pol, inversion_closed=True)
        got = set(closed)
        assert {w.inverse() for w in closed} == got


class TestEvaluate:
    def test_matches_direct_product(self, ping_pong):
        w = Word([1, 2, -1])
        expected = (
            ping_pong.image(1) @ ping_pong.image(2) @ ping_pong.image(-1)
        )
        np.testing.assert_allclose(evaluate(w, ping_pong), expected, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_names_prefix(self):
        # (1e6)^52 = 1e312 leaves float64 range at the 52nd letter
        big = GeneratorSet([np.diag([1e6, 1e-6])])
        with pytest.raises(NumericOverflowError) as info:
            evaluate(Word([1] * 60), big)
        assert info.value.prefix_length == 52

    def test_iter_sphere_products_consistent(self, ping_pong):
        spheres = list(iter_sphere_products(ping_pong, 3))
        assert [len(letters) for letters, _ in spheres] == [4, 12, 36]
        for length, (letters, products) in enumerate(spheres, start=1):
            assert [Word(w) for w in letters] == list(enumerate_sphere(2, length))
            for w, product in zip(letters, products):
                assert np.array_equal(product, evaluate(Word(w), ping_pong))


class TestFlowLineWindow:
    def test_periodic_letters(self):
        line = FlowLineWindow.periodic([1, 2], 4)
        assert [line.letter(i) for i in range(-4, 4)] == [1, 2, 1, 2, 1, 2, 1, 2]
        assert line.usable_half_width == 4

    def test_rejects_cyclically_unreduced_pattern(self):
        with pytest.raises(ValueError):
            FlowLineWindow.periodic([1, -1], 4)
        with pytest.raises(ValueError):
            FlowLineWindow.periodic([1, 2, -1], 4)

    def test_out_of_window_raises(self):
        line = FlowLineWindow.periodic([1], 3)
        with pytest.raises(WindowBoundsError):
            line.letter(3)
        with pytest.raises(WindowBoundsError):
            line.letter(-4)

    def test_shift_round_trip(self):
        line = FlowLineWindow.periodic([1, 2, 1], 6)
        shifted = shift_flow(line, 2)
        assert shifted.basepoint_offset == line.basepoint_offset + 2
        back = shift_flow(shifted, -2)
        assert [back.letter(i) for i in range(-4, 4)] == [
            line.letter(i) for i in range(-4, 4)
        ]

    def test_random_is_seeded(self):
        l1 = FlowLineWindow.random(2, 10, seed=3)
        l2 = FlowLineWindow.random(2, 10, seed=3)
        assert [l1.letter(i) for i in range(-10, 10)] == [
            l2.letter(i) for i in range(-10, 10)
        ]


class TestTreeGeodesic:
    def test_vertices_walk_the_rays(self):
        geo = TreeGeodesic.from_rays([1, 2], [1, 1], [-2, -2])
        assert geo.vertex(0).letters == (1, 2)
        assert geo.vertex(1).letters == (1, 2, 1)
        assert geo.vertex(2).letters == (1, 2, 1, 1)
        # backward letters are walked directly into the past
        assert geo.vertex(-1).letters == (1,)
        assert geo.vertex(-2).letters == (1, -2)

    def test_tree_distance_is_lcp_metric(self):
        assert tree_distance(Word([1, 2]), Word([1, 2])) == 0
        assert tree_distance(Word([1, 2]), Word([1])) == 1
        assert tree_distance(Word([1, 2]), Word([2, 1])) == 4
        assert tree_distance(Word(), Word([1, 2, 1])) == 3


class TestFlowMetric:
    def test_identical_geodesics_zero(self):
        g = TreeGeodesic.from_rays([], [1] * 45, [-2] * 45)
        r = flow_metric(g, g, 40)
        assert r.value == pytest.approx(0.0, abs=1e-12)

    def test_shift_oracle(self):
        # shifting a geodesic by s changes the weighted integral by 2s/log 2
        base = TreeGeodesic.from_rays([], [1] * 50, [-1] * 50)
        for s in (1, 2, 3):
            moved = TreeGeodesic.from_rays([1] * s, [1] * 50, [-1] * 50)
            r = flow_metric(base, moved, 40)
            assert r.value == pytest.approx(2.0 * s / LOG2, abs=1e-3)

    def test_diverging_rays_oracle(self):
        # same past, futures split at the basepoint: 2 / (log 2)^2
        g = TreeGeodesic.from_rays([], [1] * 50, [-2] * 50)
        h = TreeGeodesic.from_rays([], [2] * 50, [-2] * 50)
        r = flow_metric(g, h, 40)
        assert r.value == pytest.approx(2.0 / LOG2**2, abs=1e-3)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(12)
        geos = []
        while len(geos) < 6:
            fwd = random_word(2, 45, rng)
            back = random_word(2, 45, rng)
            if fwd.letters[0] == back.letters[0]:
                continue  # the two rays would share their first edge
            geos.append(TreeGeodesic.from_rays([], fwd.letters, back.letters))
        vals = {}
        for i, g in enumerate(geos):
            for j, h in enumerate(geos):
                vals[i, j] = flow_metric(g, h, 40).value
        for i in range(6):
            for j in range(6):
                assert vals[i, j] == pytest.approx(vals[j, i], abs=1e-12)
                for k in range(6):
                    assert vals[i, j] <= vals[i, k] + vals[k, j] + 1e-9

    def test_tail_bound_shrinks(self):
        g = TreeGeodesic.from_rays([], [1] * 50, [-2] * 50)
        h = TreeGeodesic.from_rays([], [2] * 50, [-1] * 50)
        r20 = flow_metric(g, h, 20)
        r40 = flow_metric(g, h, 40)
        assert r40.tail_bound < r20.tail_bound
        assert abs(r40.value - r20.value) <= r20.tail_bound
