"""Free-group words, sphere enumeration, flow lines, and the flow metric."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    tree_distance,
)
from repdyn.words import _window_distances

from conftest import reference_distances, reference_flow_metric

LOG2 = np.log(2.0)

# anchors whose tails the first letters of one ray cancel, in part or whole
CANCELLING = [
    ([1, 2, 1], [-1, -2, -1, -1, -2, -2, 1, 2, 2], [2, 2, 1, 1, 2, 1, 2, 2, 2]),
    ([1, 2, 1], [-1, -2, -2, 1, 1, 2, -1, -1, -2], [2, 1, 1, -2, -1, -1, 2, 2]),
    ([2, -1], [2, 2, 1, -2, -1, -1, 2, 1, 1, 1], [1, -2, 1, 2, 1, 2, -1, -2, -1]),
    ([2, -1], [-2, 1, 1, 2, 2, -1, -2, 1, 2, 1], [1, -2, -2, 1, 2, 1, 2, 1, 1]),
    ([-2], [2, 1, 1, 2, -1, -2, -2, 1, 1, 2], [1, 1, 2, 1, -2, -2, 1, 2, -1]),
    ([1, 2, 1], [2, 1, 1, 2, -1, -2, -2, 1, 1], [-1, -2, -2, 1, 2, 1, 1, 2, -1]),
]


def walked_vertices(anchor, forward, backward, half_width):
    """Vertices at times -T .. T, one `Word` product per step."""
    out = {0: Word(anchor)}
    for t in range(half_width):
        out[t + 1] = out[t] * Word([forward[t]])
        out[-t - 1] = out[-t] * Word([backward[t]])
    return [out[t] for t in range(-half_width, half_width + 1)]


def random_geodesic(rng, rank, half_width, anchor_max=4):
    """A seeded geodesic whose rays are ``half_width`` to ``half_width + 5`` long."""
    anchor = random_word(rank, int(rng.integers(0, anchor_max + 1)), rng).letters
    while True:
        forward = random_word(rank, half_width + int(rng.integers(0, 6)), rng).letters
        backward = random_word(rank, half_width + int(rng.integers(0, 6)), rng).letters
        if forward[0] != backward[0]:
            return TreeGeodesic.from_rays(anchor, forward, backward)


@st.composite
def geodesics(draw, rank=2):
    """Random reduced rays; one of them often starts by cancelling the anchor."""
    letters = alphabet(rank)

    def extend(ray, length, avoid=None):
        ray = list(ray)
        while len(ray) < length:
            banned = -ray[-1] if ray else avoid
            ray.append(draw(st.sampled_from([l for l in letters if l != banned])))
        return ray

    anchor = extend([], draw(st.integers(0, 4)))
    cancel = draw(st.integers(0, len(anchor)))
    first = extend([-l for l in reversed(anchor[len(anchor) - cancel:])],
                   max(cancel, draw(st.integers(1, 9))))
    second = extend([], draw(st.integers(1, 9)), avoid=first[0])
    if draw(st.booleans()):
        return TreeGeodesic.from_rays(anchor, first, second)
    return TreeGeodesic.from_rays(anchor, second, first)


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
        assert draw1.shape == (25, 5)
        assert np.array_equal(draw1, draw2)
        closed = sampled_words(2, 5, pol, inversion_closed=True)
        got = {Word(row) for row in closed.tolist()}
        assert len(got) == len(closed)
        assert {w.inverse() for w in got} == got

    @pytest.mark.parametrize("inversion_closed", [False, True])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_sampled_words_match_per_letter_draw(self, rank, inversion_closed):
        def reference(length, policy):
            """One `random_word` call per word, deduplicated in a loop."""
            rng = np.random.default_rng([policy.seed, length])
            drawn = [random_word(rank, length, rng) for _ in range(policy.count)]
            if not inversion_closed:
                return [w.letters for w in drawn]
            out, seen = [], set()
            for w in drawn:
                for cand in (w.letters, w.inverse().letters):
                    if cand not in seen:
                        seen.add(cand)
                        out.append(cand)
            return out

        for length in (1, 2, 5, 24):
            for seed in (0, 1, 1618389002, 2**40 + 3):
                for count in (1, 7, 300):
                    policy = Sampled(count=count, seed=seed)
                    got = sampled_words(rank, length, policy, inversion_closed)
                    assert got.shape[1] == length
                    assert [tuple(r) for r in got.tolist()] == reference(length, policy)


class TestEvaluate:
    def test_matches_direct_product(self, ping_pong):
        w = Word([1, 2, -1])
        expected = (
            ping_pong.image(1) @ ping_pong.image(2) @ ping_pong.image(-1)
        )
        np.testing.assert_allclose(evaluate(w, ping_pong), expected, atol=1e-12)

    def test_overflow_names_prefix(self):
        # (1e6)^52 = 1e312 leaves float64 range at the 52nd letter
        big = GeneratorSet([np.diag([1e6, 1e-6])])
        with pytest.raises(NumericOverflowError) as info:
            evaluate(Word([1] * 60), big)
        assert info.value.prefix_length == 52

    @pytest.mark.parametrize("policy", [Exhaustive(), Sampled(count=3, seed=0)])
    def test_sphere_overflow_raises_without_warning(self, policy):
        big = GeneratorSet([np.diag([1e6, 1e-6])])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericOverflowError) as info:
                for _ in iter_sphere_products(big, 60, policy):
                    pass
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

    def test_letters_between_reads_as_letter_does(self):
        line = FlowLineWindow([1, 2, -1, -1, 2, 1, 1, -2], 4, basepoint_offset=-1)
        for start in range(-3, 6):
            for stop in range(start, 6):
                assert line.letters_between(start, stop) == tuple(
                    line.letter(t) for t in range(start, stop))
        for start, stop in ((-4, 0), (0, 6), (2, 1)):
            with pytest.raises(WindowBoundsError):
                line.letters_between(start, stop)


class TestTreeGeodesic:
    def test_vertices_walk_the_rays(self):
        geo = TreeGeodesic.from_rays([1, 2], [1, 1], [-2, -2])
        assert geo.vertex(0).letters == (1, 2)
        assert geo.vertex(1).letters == (1, 2, 1)
        assert geo.vertex(2).letters == (1, 2, 1, 1)
        # backward letters are walked directly into the past
        assert geo.vertex(-1).letters == (1,)
        assert geo.vertex(-2).letters == (1, -2)

    @pytest.mark.parametrize("anchor, forward, backward", CANCELLING)
    def test_vertices_match_word_products(self, anchor, forward, backward):
        geo = TreeGeodesic.from_rays(anchor, forward, backward)
        assert geo.anchor == Word(anchor)
        assert [geo.vertex(t) for t in range(-geo.half_width, geo.half_width + 1)] \
            == walked_vertices(anchor, forward, backward, geo.half_width)

    def test_input_checks(self):
        with pytest.raises(ValueError, match="not reduced"):
            TreeGeodesic.from_rays([1, -1], [2] * 3, [2] * 3)
        with pytest.raises(ValueError, match="nonzero"):
            TreeGeodesic.from_rays([], [1, 0, 1], [2] * 3)
        with pytest.raises(ValueError, match="stream is not reduced"):
            TreeGeodesic.from_rays([], [1, -1, 1], [2] * 3)
        with pytest.raises(ValueError, match="stream is not reduced"):
            TreeGeodesic.from_rays([], [1] * 3, [1] * 3)  # rays share their first edge
        with pytest.raises(ValueError, match="at least 1"):
            TreeGeodesic([], [], 0)
        with pytest.raises(ValueError, match="expected 4"):
            TreeGeodesic([], [1, 1, 1], 2)
        geo = TreeGeodesic.from_rays([], [1] * 3, [2] * 3)
        with pytest.raises(WindowBoundsError):
            geo.vertex(4)
        with pytest.raises(WindowBoundsError):
            geo.window(4)

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


class TestArrayDistances:
    """The stacked distances equal the per-vertex `tree_distance` loop exactly."""

    def pool(self):
        geos = [TreeGeodesic.from_rays(*spec) for spec in CANCELLING]
        rng = np.random.default_rng(5)
        for half_width in (8, 9, 11, 14):
            geos.append(random_geodesic(rng, 2, half_width))
        geos.append(random_geodesic(rng, 3, 10, anchor_max=6))
        return geos

    def test_every_pair_and_time(self):
        geos = self.pool()
        widths = {g.half_width for g in geos}
        assert len(widths) > 3  # half widths differ and exceed the window
        for window in (1, 3, 8):
            for i, g in enumerate(geos):
                got = _window_distances(g, geos, window)
                assert got.shape == (len(geos), 2 * window + 1)
                assert got[i].tolist() == [0] * (2 * window + 1)
                for j, h in enumerate(geos):
                    assert got[j].tolist() == reference_distances(g, h, window)

    def test_values_are_the_per_pair_reference(self):
        geos = self.pool()
        window = min(g.half_width for g in geos)
        for i, g in enumerate(geos):
            batch = flow_metric(g, geos[i:], window)
            assert len(batch) == len(geos) - i
            for h, r in zip(geos[i:], batch):
                assert r.value == reference_flow_metric(g, h, window)
                assert r == flow_metric(g, h, window)
                assert r.half_width == window

    def test_default_window_is_the_common_one(self):
        geos = self.pool()
        results = flow_metric(geos[0], geos)
        assert {r.half_width for r in results} == {min(g.half_width for g in geos)}

    def test_window_checks(self):
        g = TreeGeodesic.from_rays([], [1] * 5, [2] * 5)
        h = TreeGeodesic.from_rays([1], [1] * 7, [2] * 7)
        with pytest.raises(WindowBoundsError, match="at least 1, got 0"):
            flow_metric(g, h, 0)
        with pytest.raises(WindowBoundsError, match="at least 1, got -2"):
            flow_metric(g, [h, g], -2)
        with pytest.raises(WindowBoundsError, match="exceeds the common window 5"):
            flow_metric(h, [h, g], 6)

    @settings(max_examples=200, deadline=None)
    @given(geodesics(), geodesics(), geodesics())
    def test_metric_properties(self, g, h, k):
        window = min(g.half_width, h.half_width, k.half_width)
        d_gh, d_gk, d_gg = _window_distances(g, [h, k, g], window)
        (d_hg,) = _window_distances(h, [g], window)
        (d_kh,) = _window_distances(k, [h], window)
        assert d_gh.tolist() == reference_distances(g, h, window)
        assert (d_gg == 0).all()
        assert (d_gh == d_hg).all()
        assert (d_gh <= d_gk + d_kh).all()
        assert flow_metric(g, g, window).value == 0.0
        assert flow_metric(g, h, window).value == flow_metric(h, g, window).value
