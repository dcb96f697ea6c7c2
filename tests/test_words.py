"""Free-group words, sphere enumeration, flow lines, and the flow metric."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repdyn import words
from repdyn.domination import GeneratorSet
from repdyn.errors import NumericOverflowError, WindowBoundsError
from repdyn.words import (
    Exhaustive,
    FlowLineWindow,
    Sampled,
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
)
from repdyn.words import _vertex_stack, _window_distances

from conftest import (
    is_class_representative,
    reference_distances,
    reference_flow_metric,
    shortlex_rank,
    tree_distance,
)

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


def window_distances(g, others, half_width):
    """`_window_distances` of ``g`` against ``others``, off their stack."""
    letters, lengths = _vertex_stack([g, *others], half_width)
    return _window_distances(letters, lengths, 0, 1)


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
            return FlowLineWindow.from_rays(anchor, forward, backward)


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
        return FlowLineWindow.from_rays(anchor, first, second)
    return FlowLineWindow.from_rays(anchor, second, first)


def extend(draw, ray, length, avoid=None, rank=2):
    """``ray`` extended to ``length`` reduced letters, the first one not
    ``avoid``."""
    ray = list(ray)
    while len(ray) < length:
        banned = -ray[-1] if ray else avoid
        ray.append(draw(st.sampled_from([l for l in alphabet(rank) if l != banned])))
    return ray


@st.composite
def offset_windows(draw):
    """A window with a basepoint offset and an anchor of 0 to 4 letters whose
    tail often cancels the first 1 to 3 letters of one of its rays."""
    half_width = draw(st.integers(1, 9))
    offset = draw(st.integers(1 - half_width, half_width - 1))
    stream = extend(draw, [], 2 * half_width)
    reach = half_width - abs(offset)
    start = half_width + offset
    forward = stream[start : start + reach]
    backward = [-l for l in reversed(stream[start - reach : start])]
    ray = draw(st.sampled_from([forward, backward]))
    cancel = draw(st.integers(0, min(3, reach)))
    tail = [-l for l in reversed(ray[:cancel])]
    # the letters before the tail, written from the tail outward
    head = extend(draw, [], draw(st.integers(0, 4 - cancel)),
                  avoid=-tail[0] if tail else None)
    return FlowLineWindow(stream, half_width, offset, anchor=head[::-1] + tail)


def reference_ray_vertices(anchor, ray):
    """Rows ``anchor * ray[:t]`` for t = 0 .. len(ray), zero padded to
    ``len(anchor) + len(ray)``, and their lengths, one ray at a time."""
    n, T = len(anchor), len(ray)
    c = 0
    while c < min(n, T) and ray[c] == -anchor[n - 1 - c]:
        c += 1
    rows = np.zeros((T + 1, n + T), dtype=np.int64)
    lengths = []
    for t in range(T + 1):
        s = min(c, t)
        vertex = anchor[: n - s] + ray[s:t]
        rows[t, : len(vertex)] = vertex
        lengths.append(len(vertex))
    return rows, np.array(lengths)


def reference_vertex_rows(line, half_width):
    """One line's vertex rows at times ``-half_width .. half_width``, from
    its two rays built to its whole reach."""
    reach = line.usable_half_width
    anchor = line.anchor.letters
    forward = line.letters_between(0, reach)
    backward = tuple(-l for l in reversed(line.letters_between(-reach, 0)))
    back_rows, back_lengths = reference_ray_vertices(anchor, backward)
    rows, lengths = reference_ray_vertices(anchor, forward)
    keep = slice(reach - half_width, reach + half_width + 1)
    return (np.concatenate([back_rows[::-1], rows[1:]])[keep],
            np.concatenate([back_lengths[::-1], lengths[1:]])[keep])


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

    def test_random_word_draws_the_per_letter_stream(self):
        def reference(rank, length, rng):
            """One ``rng.integers`` call per letter, from the letters allowed."""
            letters, out = alphabet(rank), []
            for _ in range(length):
                choices = [l for l in letters if not out or l != -out[-1]]
                out.append(choices[rng.integers(len(choices))])
            return Word(out)

        for rank in (1, 2, 3, 5):
            got, expected = np.random.default_rng(rank), np.random.default_rng(rank)
            for length in (0, 1, 2, 7, 0, 30):
                for _ in range(20):
                    assert random_word(rank, length, got) == reference(rank, length, expected)
            # the generators are left in the same state
            assert got.integers(2**62) == expected.integers(2**62)
        assert random_word(2, 9, 5) == reference(2, 9, np.random.default_rng(5))

    def test_sampled_words_deterministic(self):
        pol = Sampled(count=25, seed=9)
        draw1 = sampled_words(2, 5, pol)
        draw2 = sampled_words(2, 5, pol)
        assert draw1.shape == (25, 5)
        assert np.array_equal(draw1, draw2)
        closed = sampled_words(2, 5, Sampled(count=25, seed=9, inversion_closed=True))
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
                    policy = Sampled(count=count, seed=seed,
                                     inversion_closed=inversion_closed)
                    got = sampled_words(rank, length, policy)
                    assert got.shape[1] == length
                    assert [tuple(r) for r in got.tolist()] == reference(length, policy)


def rank_gens(rank):
    """``rank`` invertible 2x2 generators; the inverse rows read only letters."""
    return GeneratorSet([np.array([[1.0, float(i)], [0.0, 1.0]]) + np.eye(2) * i
                         for i in range(1, rank + 1)])


def assert_inverse_rows(sphere):
    letters, inverse = sphere.letters, sphere.inverse
    n = len(letters)
    assert inverse.shape == (n,) and not inverse.flags.writeable
    assert np.array_equal(letters[inverse], -letters[:, ::-1])
    assert np.array_equal(inverse[inverse], np.arange(n))
    assert (inverse != np.arange(n)).all()


class TestInverseRows:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_exhaustive(self, rank):
        for length, sphere in enumerate(iter_sphere_products(rank_gens(rank), 5),
                                        start=1):
            assert np.array_equal(shortlex_rank(sphere.letters, rank),
                                  np.arange(count_sphere(rank, length)))
            assert_inverse_rows(sphere)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_inversion_closed_draws(self, rank):
        duplicates = mutual = 0
        for count, seed in ((1, 0), (7, 3), (40, 5), (300, 11)):
            policy = Sampled(count=count, seed=seed, inversion_closed=True)
            spheres = iter_sphere_products(rank_gens(rank), 4, policy)
            for length, sphere in enumerate(spheres, start=1):
                assert_inverse_rows(sphere)
                assert np.array_equal(sphere.inverse, np.arange(len(sphere.letters)) ^ 1)
                drawn = {tuple(w) for w in sampled_words(rank, length, policy).tolist()}
                duplicates += len(drawn) < count
                mutual += any(tuple(-l for l in reversed(w)) in drawn for w in drawn)
        # the draws did hold repeated words and words next to their inverses
        assert duplicates and mutual

    def test_open_draw_has_none(self):
        spheres = iter_sphere_products(rank_gens(2), 3, Sampled(count=5, seed=0))
        assert all(sphere.inverse is None for sphere in spheres)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("first", [1, 4])
    def test_recursion_is_the_shortlex_rank_of_the_inverse_letters(self, rank, first):
        spheres = words._inverse_rows(rank, first, 7)
        assert len(spheres) == 8 - first
        for length, rows in enumerate(spheres, start=first):
            letters = np.array([w.letters for w in enumerate_sphere(rank, length)])
            assert rows.dtype == np.int64
            assert np.array_equal(rows, shortlex_rank(-letters[:, ::-1], rank))

    @pytest.mark.parametrize("block", [None, 52])
    def test_group_of_several_spheres_reads_the_shortlex_rank(self, monkeypatch, block):
        # at rank 2 one group holds spheres 1-5; a block of 52 rows groups
        # spheres 1-3 and leaves 4 and 5 alone
        if block:
            monkeypatch.setattr(words.linalg, "KERNEL_BLOCK", block)
        groups = {}
        for sphere in iter_sphere_products(rank_gens(2), 5):
            groups.setdefault(id(sphere.group), (sphere.group, []))[1].append(sphere)
        assert max(len(spheres) for _, spheres in groups.values()) >= 3
        for group, spheres in groups.values():
            expected = np.concatenate([
                shortlex_rank(-sphere.letters[:, ::-1], 2) + sphere.start
                for sphere in spheres])
            assert np.array_equal(group.inverse, expected)
            assert not group.inverse.flags.writeable


def necklace_count(rank, m):
    """Conjugacy classes of cyclic length m in the free group of the given
    rank: (1/m) sum over d | m of phi(m/d) c(d), with c(d) the number of
    cyclically reduced words of length d."""
    def phi(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    def c(d):
        return (2 * rank - 1) ** d + 1 + (rank - 1) * (1 + (-1) ** d)

    total = sum(phi(m // d) * c(d) for d in range(1, m + 1) if m % d == 0)
    assert total % m == 0
    return total // m


def rotation_class(w):
    return min(Word(w.letters[k:] + w.letters[:k]) for k in range(len(w)))


class TestClassRows:
    @pytest.mark.parametrize("rank, L_max", [(1, 8), (2, 8), (3, 6)])
    def test_counts_are_the_necklace_counts(self, rank, L_max):
        counts = [len(s.class_rows) for s in iter_sphere_products(rank_gens(rank), L_max)]
        assert counts == [necklace_count(rank, m) for m in range(1, L_max + 1)]

    def test_rank_two_counts(self):
        assert [necklace_count(2, m) for m in range(1, 9)] == [4, 8, 12, 26, 52, 132, 316, 836]
        assert necklace_count(2, 10) == 5936

    @pytest.mark.parametrize("rank, L_max", [(1, 5), (2, 6), (3, 4)])
    def test_one_row_per_class_by_brute_force(self, rank, L_max):
        for length, sphere in enumerate(iter_sphere_products(rank_gens(rank), L_max),
                                        start=1):
            rows = sphere.class_rows
            assert not rows.flags.writeable and rows.dtype == np.int64
            assert (np.diff(rows) > 0).all()
            chosen = [Word(sphere.letters[r]) for r in rows.tolist()]
            expected = [w for w in enumerate_sphere(rank, length)
                        if is_class_representative(w)]
            assert chosen == expected
            # each class of cyclically reduced words has exactly one row
            classes = [rotation_class(w) for w in enumerate_sphere(rank, length)
                       if w.is_cyclically_reduced]
            assert sorted(set(classes)) == chosen

    @pytest.mark.parametrize("rank, length", [(1, 62), (1, 63), (1, 70), (2, 31), (2, 32),
                                              (3, 24), (3, 25)])
    def test_keys_past_int64_are_exact(self, rank, length):
        # base (2 rank)**length reaches 2**63 between the two lengths of each
        # rank; rows are random words next to rotations of themselves,
        # the least one among them
        rng = np.random.default_rng(length)
        drawn = [random_word(rank, length, rng) for _ in range(12)]
        drawn += [Word((1,) * length), Word((-1,) * length)]
        rows = []
        for w in drawn:
            rows.append(w.letters)
            if w.is_cyclically_reduced:
                rows += [w.letters[k:] + w.letters[:k] for k in (1, length // 2)]
                rows.append(rotation_class(w).letters)
        letters = np.array(rows, dtype=np.int8)
        got = words._least_rotations(letters, rank)
        expected = [i for i, r in enumerate(rows) if is_class_representative(Word(r))]
        assert got.tolist() == expected

    @pytest.mark.parametrize("inversion_closed", [False, True])
    def test_a_sampled_group_reads_every_row(self, inversion_closed):
        policy = Sampled(count=40, seed=3, inversion_closed=inversion_closed)
        spheres = iter_sphere_products(rank_gens(2), 6, policy)
        for sphere in spheres:
            assert np.array_equal(sphere.class_rows, np.arange(len(sphere.letters)))

    @pytest.mark.parametrize("policy", [Exhaustive(), Sampled(count=300, seed=5)])
    @pytest.mark.parametrize("block", [None, 52])
    @pytest.mark.parametrize("fixture", ["ping_pong", "partial_hyperbolic_pair",
                                         "ping_pong_padded"])
    def test_values_are_the_full_kernel_rows(self, request, monkeypatch, fixture, policy,
                                             block):
        if block:
            monkeypatch.setattr(words.linalg, "KERNEL_BLOCK", block)
        gens = request.getfixturevalue(fixture)
        calls = []
        kernel = words.linalg.log_eigenvalue_moduli

        def counted(products, *args):
            calls.append(len(products))
            return kernel(products, *args)

        monkeypatch.setattr(words.linalg, "log_eigenvalue_moduli", counted)
        groups, rows = [], 0
        for sphere in iter_sphere_products(gens, 6, policy):
            got = sphere.class_log_eigenvalue_moduli()
            assert not got.flags.writeable
            if not groups or groups[-1] is not sphere.group:
                groups.append(sphere.group)
            rows += len(sphere.class_rows)
            # each row has the bits of the same row in the full-sphere kernel
            alone = kernel(sphere.products, sphere.logdet, sphere.sign)
            assert np.array_equal(got, alone[sphere.class_rows])
        # the kernel ran once per group, on the class rows only
        assert len(calls) == len(groups) and sum(calls) == rows


class TestEvaluate:
    def test_matches_direct_product(self, ping_pong):
        w = Word([1, 2, -1])
        expected = (
            ping_pong.image(1) @ ping_pong.image(2) @ ping_pong.image(-1)
        )
        np.testing.assert_allclose(evaluate(w, ping_pong), expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_overflow_prefix_and_product_match_a_checked_walk(self, seed):
        """The product, and whether it overflows, are those of a walk that
        checks after every letter."""
        rng = np.random.default_rng(seed)
        a = np.diag([1e6, 1e-6])
        q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        gens = GeneratorSet([a, q @ a @ q.T])
        outcomes = set()
        for _ in range(30):
            w = random_word(2, int(rng.integers(0, 80)), rng)
            product, finite = np.eye(2), True
            with np.errstate(over="ignore", invalid="ignore"):
                for l in w.letters:
                    product = product @ gens.image(l)
                    finite = np.isfinite(product).all()
                    if not finite:
                        break
            outcomes.add(finite)
            if finite:
                assert evaluate(w, gens).tobytes() == product.tobytes()
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(NumericOverflowError):
                    evaluate(w, gens)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("policy", [Exhaustive(), Sampled(count=3, seed=0)])
    def test_sphere_overflow_raises_without_warning(self, policy):
        # (1e6)^52 = 1e312 leaves float64 range at the 52nd letter
        big = GeneratorSet([np.diag([1e6, 1e-6])])
        lengths = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericOverflowError):
                for sphere in iter_sphere_products(big, 60, policy):
                    lengths.append(sphere.letters.shape[1])
        assert lengths == list(range(1, 52))

    def test_iter_sphere_products_consistent(self, ping_pong):
        spheres = list(iter_sphere_products(ping_pong, 3))
        assert [len(sphere.letters) for sphere in spheres] == [4, 12, 36]
        for length, sphere in enumerate(spheres, start=1):
            assert [Word(w) for w in sphere.letters] == list(enumerate_sphere(2, length))
            for w, product in zip(sphere.letters, sphere.products):
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

    def test_vertices_walk_the_rays(self):
        geo = FlowLineWindow.from_rays([1, 2], [1, 1], [-2, -2])
        assert geo.vertex(0).letters == (1, 2)
        assert geo.vertex(1).letters == (1, 2, 1)
        assert geo.vertex(2).letters == (1, 2, 1, 1)
        # backward letters are walked directly into the past
        assert geo.vertex(-1).letters == (1,)
        assert geo.vertex(-2).letters == (1, -2)

    @pytest.mark.parametrize("anchor, forward, backward", CANCELLING)
    def test_vertices_match_word_products(self, anchor, forward, backward):
        geo = FlowLineWindow.from_rays(anchor, forward, backward)
        assert geo.anchor == Word(anchor)
        assert [geo.vertex(t) for t in range(-geo.half_width, geo.half_width + 1)] \
            == walked_vertices(anchor, forward, backward, geo.half_width)

    def test_input_checks(self):
        with pytest.raises(ValueError, match="not reduced"):
            FlowLineWindow.from_rays([1, -1], [2] * 3, [2] * 3)
        with pytest.raises(ValueError, match="nonzero"):
            FlowLineWindow.from_rays([], [1, 0, 1], [2] * 3)
        with pytest.raises(ValueError, match="stream is not reduced"):
            FlowLineWindow.from_rays([], [1, -1, 1], [2] * 3)
        with pytest.raises(ValueError, match="stream is not reduced"):
            FlowLineWindow.from_rays([], [1] * 3, [1] * 3)  # rays share their first edge
        with pytest.raises(ValueError, match="at least 1"):
            FlowLineWindow([], 0)
        with pytest.raises(ValueError, match="expected 4"):
            FlowLineWindow([1, 1, 1], 2)
        geo = FlowLineWindow.from_rays([], [1] * 3, [2] * 3)
        with pytest.raises(WindowBoundsError):
            geo.vertex(4)
        with pytest.raises(WindowBoundsError):
            geo.vertex_rows(4)

    @pytest.mark.parametrize("offset", [-2, 0, 2])
    @pytest.mark.parametrize("anchor", [[], [2, 1], [1, -2, -1]])
    def test_offset_line_vertices_step_by_its_letters(self, offset, anchor):
        line = FlowLineWindow([1, 2, -1, -1, 2, 1, 1, -2, -2, 1], 5,
                              basepoint_offset=offset, anchor=anchor)
        reach = line.usable_half_width
        assert line.vertex(0) == line.anchor == Word(anchor)
        for t in range(-reach, reach):
            assert line.vertex(t + 1) == line.vertex(t) * Word([line.letter(t)])
        for t in (-reach - 1, reach + 1):
            with pytest.raises(WindowBoundsError):
                line.vertex(t)

    @pytest.mark.parametrize("anchor, forward, backward", CANCELLING)
    def test_from_rays_letters_are_the_rays(self, anchor, forward, backward):
        line = FlowLineWindow.from_rays(anchor, forward, backward)
        T = min(len(forward), len(backward))
        assert (line.half_width, line.basepoint_offset) == (T, 0)
        # the edge from time -j-1 to -j is read backward as backward[j]
        assert line.letters_between(-T, T) == tuple(
            [-backward[j] for j in range(T - 1, -1, -1)] + forward[:T])

    def test_lines_differing_only_in_anchor_are_unequal(self):
        letters = [1, 2] * 4
        plain = FlowLineWindow(letters, 4)
        assert plain == FlowLineWindow(letters, 4, anchor=Word())
        moved = FlowLineWindow(letters, 4, anchor=[2])
        assert moved != plain
        assert len({plain, moved, FlowLineWindow(letters, 4, anchor=[2])}) == 2

    def test_tree_distance_is_lcp_metric(self):
        assert tree_distance(Word([1, 2]), Word([1, 2])) == 0
        assert tree_distance(Word([1, 2]), Word([1])) == 1
        assert tree_distance(Word([1, 2]), Word([2, 1])) == 4
        assert tree_distance(Word(), Word([1, 2, 1])) == 3


class TestFlowMetric:
    def test_identical_geodesics_zero(self):
        g = FlowLineWindow.from_rays([], [1] * 45, [-2] * 45)
        r = flow_metric(g, g, 40)
        assert r.value == pytest.approx(0.0, abs=1e-12)

    def test_shift_oracle(self):
        # shifting a geodesic by s changes the weighted integral by 2s/log 2
        base = FlowLineWindow.from_rays([], [1] * 50, [-1] * 50)
        for s in (1, 2, 3):
            moved = FlowLineWindow.from_rays([1] * s, [1] * 50, [-1] * 50)
            r = flow_metric(base, moved, 40)
            assert r.value == pytest.approx(2.0 * s / LOG2, abs=1e-3)

    def test_diverging_rays_oracle(self):
        # same past, futures split at the basepoint: 2 / (log 2)^2
        g = FlowLineWindow.from_rays([], [1] * 50, [-2] * 50)
        h = FlowLineWindow.from_rays([], [2] * 50, [-2] * 50)
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
            geos.append(FlowLineWindow.from_rays([], fwd.letters, back.letters))
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
        g = FlowLineWindow.from_rays([], [1] * 50, [-2] * 50)
        h = FlowLineWindow.from_rays([], [2] * 50, [-1] * 50)
        r20 = flow_metric(g, h, 20)
        r40 = flow_metric(g, h, 40)
        assert r40.tail_bound < r20.tail_bound
        assert abs(r40.value - r20.value) <= r20.tail_bound


class TestArrayDistances:
    """The stacked distances equal the per-vertex `tree_distance` loop exactly."""

    def pool(self):
        geos = [FlowLineWindow.from_rays(*spec) for spec in CANCELLING]
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
                got = window_distances(g, geos, window)
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

    def test_default_window_is_the_common_one(self):
        geos = self.pool()
        # the tail bound falls with the window, so equal results share it
        window = min(g.half_width for g in geos)
        assert flow_metric(geos[0], geos) == flow_metric(geos[0], geos, window)

    @pytest.mark.parametrize("top", [127, 128, 200, 32767, 32768, 2**31 - 1, 2**31])
    def test_large_letters_do_not_wrap(self, top):
        # the smallest signed type holding -top holds +top only below 128,
        # 32768 and 2**31; `wrap` reads a letter in that type's bits
        bits = 8 * np.min_scalar_type(-top).itemsize

        def wrap(letters):
            return [(l + 2 ** (bits - 1)) % 2**bits - 2 ** (bits - 1) for l in letters]

        forward, backward = [top, top - 1, top, 1, 2] * 4, [3, -top] * 10
        wide = FlowLineWindow.from_rays([top], forward, backward)
        wrapped = FlowLineWindow.from_rays(wrap([top]), wrap(forward), wrap(backward))
        narrow = FlowLineWindow.from_rays([1], [2, 1, 2, 1, 2] * 4, [-1, -2] * 10)
        assert np.iinfo(wide.vertex_rows(3)[0].dtype).max >= top
        assert narrow.vertex_rows(3)[0].dtype == np.int8
        geos = [wide, wrapped, narrow]
        for window in (1, 5, 20):
            for g in geos:
                got = window_distances(g, geos, window)
                for j, h in enumerate(geos):
                    assert got[j].tolist() == reference_distances(g, h, window)
                for h, r in zip(geos, flow_metric(g, geos, window)):
                    assert r.value == reference_flow_metric(g, h, window)
        assert (flow_metric(wide, wrapped, 20).value > 0.0) == (wrap([top]) != [top])

    def test_window_checks(self):
        g = FlowLineWindow.from_rays([], [1] * 5, [2] * 5)
        h = FlowLineWindow.from_rays([1], [1] * 7, [2] * 7)
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
        d_gh, d_gk, d_gg = window_distances(g, [h, k, g], window)
        (d_hg,) = window_distances(h, [g], window)
        (d_kh,) = window_distances(k, [h], window)
        assert d_gh.tolist() == reference_distances(g, h, window)
        assert (d_gg == 0).all()
        assert (d_gh == d_hg).all()
        assert (d_gh <= d_gk + d_kh).all()
        assert flow_metric(g, g, window).value == 0.0
        assert flow_metric(g, h, window).value == flow_metric(h, g, window).value


class TestVertexStack:
    """The stacked vertex rows against a per-line, per-ray builder."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(offset_windows(), min_size=1, max_size=4), st.data())
    def test_rows_and_pairs_match_per_line_references(self, lines, data):
        window = data.draw(st.integers(1, min(line.usable_half_width for line in lines)))
        letters, lengths = _vertex_stack(lines, window)
        assert letters.shape[:2] == lengths.shape == (len(lines), 2 * window + 1)
        for line, rows, row_lengths in zip(lines, letters, lengths):
            expected, expected_lengths = reference_vertex_rows(line, window)
            assert row_lengths.tolist() == expected_lengths.tolist()
            width = max(rows.shape[1], expected.shape[1])
            assert np.array_equal(np.pad(rows, ((0, 0), (0, width - rows.shape[1]))),
                                  np.pad(expected, ((0, 0), (0, width - expected.shape[1]))))
            alone, alone_lengths = line.vertex_rows(window)
            assert np.array_equal(alone, rows[:, : alone.shape[1]])
            assert np.array_equal(alone_lengths, row_lengths)
        table = flow_metric(lines, half_width=window)
        assert [len(row) for row in table] == list(range(len(lines), 0, -1))
        for i, row in enumerate(table):
            for h, r in zip(lines[i:], row):
                assert r.value == reference_flow_metric(lines[i], h, window)

    def test_pairs_in_blocks_equal_pairs_at_once(self, monkeypatch):
        rng = np.random.default_rng(31)
        lines = [random_geodesic(rng, 2, 12) for _ in range(9)]
        table = flow_metric(lines, half_width=12)
        monkeypatch.setattr(words, "_PAIR_BLOCK", 5)
        assert flow_metric(lines, half_width=12) == table
        for i, row in enumerate(table):
            assert row == flow_metric(lines[i], lines[i:], 12)

    def test_a_line_without_room(self):
        # a basepoint at the end of its window leaves a single vertex
        line = FlowLineWindow([1, 2, 1, 2], 2, basepoint_offset=2, anchor=[2, 1])
        letters, lengths = line.vertex_rows(0)
        assert letters.tolist() == [[2, 1]] and lengths.tolist() == [2]
        with pytest.raises(ValueError, match="at least one line"):
            flow_metric([], half_width=1)
