"""The grouped sampled walk against a walk of each length on its own.

Under `Sampled`, `iter_sphere_products` stacks the `sampled_words` draws of
consecutive lengths, longest word first, and walks them together.  The
reference below is the walk it replaced: each length drawn and walked
alone, with a finiteness check after every letter.  Every sphere must agree
with it bit for bit in letters, products, log-det and sign, and an overflow
must stop both at the same sphere.
"""

import dataclasses

import numpy as np
import pytest

from repdyn import linalg, words
from repdyn.domination import GeneratorSet, domination_scan
from repdyn.errors import NumericOverflowError
from repdyn.words import (
    Sampled,
    _kernel_group,
    alphabet,
    iter_sphere_products,
    letter_rank,
    sampled_words,
)

from conftest import collect


def reference_spheres(gens, L_max, policy):
    """Yield each length's sphere, drawn and walked alone; raise at the
    first letter that leaves a product of a sphere outside float64 range."""
    letter_set = np.array(alphabet(gens.rank))
    images = np.stack([gens.image(l) for l in letter_set])
    letter_logdets, letter_signs = gens.log_dets(letter_set[:, None])
    for L in range(1, L_max + 1):
        letters = sampled_words(gens.rank, L, policy)
        products = np.eye(gens.dim)
        logdet = np.zeros(len(letters))
        sign = np.ones(len(letters), dtype=letter_signs.dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(L):
                rank = letter_rank(letters[:, i])
                products = products @ images[rank]
                logdet = logdet + letter_logdets[rank]
                sign = sign * letter_signs[rank]
                if not np.isfinite(products).all():
                    raise NumericOverflowError("reference overflow")
        yield from _kernel_group([letters], [0], (products, logdet, sign), gens.rank, policy)


def assert_same_spheres(got, expected):
    (got, got_stop), (expected, expected_stop) = got, expected
    assert len(got) == len(expected)
    assert got_stop == expected_stop
    for a, b in zip(got, expected):
        for name in ("letters", "products", "logdet", "sign"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name
        assert (a.group.rank, a.group.policy) == (b.group.rank, b.group.policy)


def seeded_gens(rank, n, scale, seed):
    rng = np.random.default_rng(seed)
    return GeneratorSet([np.eye(n) + scale * rng.standard_normal((n, n))
                         for _ in range(rank)])


def expected_groups(draws, block):
    """Row counts of the groups of draws of these sizes: the first group is
    the first draw, and each later one takes draws while it holds at most
    twice the rows of the group before it and at most ``block`` rows."""
    groups, cap = [], 0
    for size in draws:
        if groups and groups[-1] + size <= cap:
            groups[-1] += size
        else:
            cap = min(2 * groups[-1], block) if groups else 0
            groups.append(size)
    return groups


@pytest.fixture
def walks(monkeypatch):
    """Row counts of each grouped walk, in order."""
    sizes = []
    walk = words._walk

    def counted(positions, walking, *args):
        sizes.append(len(positions))
        return walk(positions, walking, *args)

    monkeypatch.setattr(words, "_walk", counted)
    return sizes


@pytest.mark.parametrize("inversion_closed", [False, True])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_grouped_walk_matches_per_length_walk(rank, n, inversion_closed, walks):
    gens = seeded_gens(rank, n, 0.5, 10 * rank + n)
    groups = []
    for count, seed in ((1, 0), (30, 7)):
        policy = Sampled(count=count, seed=seed, inversion_closed=inversion_closed)
        got = collect(iter_sphere_products(gens, 12, policy))
        assert_same_spheres(got, collect(reference_spheres(gens, 12, policy)))
        draws = [len(sphere.letters) for sphere in got[0]]
        groups += expected_groups(draws, linalg.KERNEL_BLOCK)
    assert walks == groups
    if not inversion_closed:
        # well under the row cap, each scan's groups hold 1, 2, 4 and 5 lengths
        assert len(walks) == 8


@pytest.mark.parametrize("rank", [1, 2])
def test_inversion_closed_draws_that_drop_repeated_pairs(rank):
    # rank 1 has two words per length and rank 2 few short ones, so a draw
    # of 40 repeats words and keeps fewer rows than 2 * 40
    gens = seeded_gens(rank, 3, 0.5, 4)
    policy = Sampled(count=40, seed=3, inversion_closed=True)
    got = collect(iter_sphere_products(gens, 8, policy))
    assert_same_spheres(got, collect(reference_spheres(gens, 8, policy)))
    assert min(len(sphere.letters) for sphere in got[0]) < 80


@pytest.mark.parametrize("inversion_closed", [False, True])
@pytest.mark.parametrize("block", [1, 25, 70, 200])
def test_row_cap_splits_the_scan_into_groups(monkeypatch, walks, block, inversion_closed):
    monkeypatch.setattr(linalg, "KERNEL_BLOCK", block)
    gens = seeded_gens(2, 2, 0.5, 1)
    policy = Sampled(count=20, seed=5, inversion_closed=inversion_closed)
    got = collect(iter_sphere_products(gens, 15, policy))
    assert_same_spheres(got, collect(reference_spheres(gens, 15, policy)))
    draws = [len(sampled_words(2, L, policy)) for L in range(1, 16)]
    assert walks == expected_groups(draws, block)
    # a group stays within the cap unless one draw alone exceeds it
    assert all(size <= block or size in draws for size in walks)
    if block == 200:
        assert max(walks) > max(draws)  # some groups hold several lengths


def test_one_draw_per_length_through_the_module_global(monkeypatch):
    calls = []

    def counted(rank, length, policy):
        calls.append(length)
        return sampled_words(rank, length, policy)

    monkeypatch.setattr(words, "sampled_words", counted)
    gens = seeded_gens(2, 2, 0.5, 2)
    spheres = list(iter_sphere_products(gens, 9, Sampled(count=5, seed=1)))
    assert calls == list(range(1, 10))
    assert [sphere.letters.shape[1] for sphere in spheres] == calls


def uneven_gens(rank, n, scale, seed):
    """One diagonal generator of spread ``scale`` next to rotations: words
    grow at uneven rates, so a long word can overflow at a prefix shorter
    than itself."""
    rng = np.random.default_rng(seed)
    mats = [np.diag([scale, 1.0 / scale] + [1.0] * (n - 2))]
    mats += [np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(rank - 1)]
    return GeneratorSet(mats)


OVERFLOW_CASES = [
    # (rank, n, scale, seed, inversion_closed, block)
    (1, 2, 1e6, 0, False, 8192),
    (2, 2, 1e6, 2, False, 8192),
    (2, 2, 1e6, 5, True, 8192),
    (2, 3, 1e5, 4, True, 8192),
    (3, 3, 1e5, 2, False, 8192),
    (2, 2, 1e6, 2, False, 30),
    (2, 3, 1e5, 4, True, 45),
]


@pytest.mark.parametrize("case", OVERFLOW_CASES)
def test_overflow_in_the_middle_of_a_group(monkeypatch, case):
    rank, n, scale, seed, inversion_closed, block = case
    monkeypatch.setattr(linalg, "KERNEL_BLOCK", block)
    gens = uneven_gens(rank, n, scale, seed)
    policy = Sampled(count=4, seed=seed, inversion_closed=inversion_closed)
    got = collect(iter_sphere_products(gens, 200, policy))
    expected = collect(reference_spheres(gens, 200, policy))
    assert_same_spheres(got, expected)
    spheres, stopped = got
    assert stopped and 50 < len(spheres) < 190


def test_overflow_raises_after_the_spheres_before_it():
    gens = GeneratorSet([np.diag([1e6, 1e-6])])
    spheres = iter_sphere_products(gens, 60, Sampled(count=3, seed=0))
    lengths = []
    with pytest.raises(NumericOverflowError):
        for sphere in spheres:
            lengths.append(sphere.letters.shape[1])
    assert lengths == list(range(1, 52))


def rotation_pair(n):
    """A rotation next to a mild hyperbolic element: the rotation has no gap."""
    c, s = np.cos(0.7), np.sin(0.7)
    rotation = np.eye(n)
    rotation[:2, :2] = [[c, -s], [s, c]]
    return GeneratorSet([rotation, np.diag([1.3] + [1.0] * (n - 2) + [1 / 1.3])])


def elliptic_pair(n):
    """A diagonal element next to one whose square is a signed identity:
    the letters have gaps and that square has none."""
    half_turn = np.eye(n)
    half_turn[0, 0] = half_turn[-1, -1] = 0.0
    half_turn[0, -1], half_turn[-1, 0] = -0.5, 2.0
    return GeneratorSet([np.diag([2.0] + [1.0] * (n - 2) + [0.5]), half_turn])


@pytest.mark.parametrize("pair, refuted_at", [(rotation_pair, 1), (elliptic_pair, 2)])
@pytest.mark.parametrize("n", [2, 3])
def test_dominate_refuted_early_reads_the_per_length_walk(monkeypatch, walks, n, pair,
                                                           refuted_at):
    gens = pair(n)
    policy = Sampled(count=25, seed=6)
    got = domination_scan(gens, 1, 20, policy)
    monkeypatch.setattr(words, "iter_sphere_products",
                        lambda g, L, p: reference_spheres(g, L, p))
    expected = domination_scan(gens, 1, 20, policy)
    assert got.verdict == "refuted" and got.refuted_at == refuted_at
    assert repr(dataclasses.astuple(got)) == repr(dataclasses.astuple(expected))
    # the scan stopped early, having walked at most three times the rows
    # of the spheres it read
    read = sum(len(sampled_words(2, L, policy)) for L in range(1, refuted_at + 1))
    assert read <= sum(walks) <= 3 * read
