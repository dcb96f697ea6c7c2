"""Kernel groups: consecutive spheres that share one kernel call.

`iter_sphere_products` hands out its spheres in `KernelGroup`s, and each
sphere reads its rows of the group's singular-value and eigenvalue-modulus
kernels.  Every sphere must get the bits that a kernel call on that sphere
alone returns, whatever ``linalg.KERNEL_BLOCK`` makes of the groups, and an
exhaustive scan must build no sphere past the group it is reading.
"""

import numpy as np
import pytest

from repdyn import linalg, words
from repdyn.domination import GeneratorSet, domination_scan
from repdyn.words import Exhaustive, Sampled, count_sphere, iter_sphere_products

from conftest import collect

DEFAULT_BLOCK = linalg.KERNEL_BLOCK


def seeded_gens(rank, n, scale, seed):
    """``scale`` times near-identity generators; under 1e40 an exhaustive
    scan overflows at length 8, as in the CLI's overflow tests."""
    rng = np.random.default_rng(seed)
    return GeneratorSet([scale * (np.eye(n) + 0.5 * rng.standard_normal((n, n)))
                         for _ in range(rank)])


def diagonal_gens(n):
    """One generator diag(1e6, 1, .., 1e-6): every word is one of its
    powers, so both policies overflow at length 52."""
    return GeneratorSet([np.diag([1e6] + [1.0] * (n - 2) + [1e-6])])


def alone(sphere):
    """Both kernels on the sphere's own arrays, under the default block."""
    n = sphere.products.shape[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "KERNEL_BLOCK", DEFAULT_BLOCK)
        return (linalg.log_singular_values(sphere.products, sphere.logdet,
                                           sphere.inverse if n == 3 else None),
                linalg.log_eigenvalue_moduli(sphere.products, sphere.logdet,
                                             sphere.sign))


# each policy, and whether it is a sampled draw closed under inversion
POLICIES = [
    (Exhaustive(), False),
    (Sampled(count=5, seed=2), False),
    (Sampled(count=5, seed=2, inversion_closed=True), True),
]


# (rank, n, scale, L_max), scale None for `diagonal_gens`
CASES = [(1, 2, 1.0, 9), (2, 2, 1.0, 6), (1, 3, 1.0, 9), (2, 3, 1.0, 6),
         (1, 3, 1e40, 9), (2, 3, 1e40, 9), (1, 2, None, 60), (1, 3, None, 60)]


@pytest.mark.parametrize("block", [1, 5, 40])
@pytest.mark.parametrize("policy, inversion_closed", POLICIES)
@pytest.mark.parametrize("case", CASES)
def test_grouped_kernels_are_the_per_sphere_calls(monkeypatch, case, policy,
                                                  inversion_closed, block):
    monkeypatch.setattr(linalg, "KERNEL_BLOCK", block)
    rank, n, scale, L_max = case
    gens = diagonal_gens(n) if scale is None else seeded_gens(rank, n, scale, 10 * rank + n)
    spheres, stopped = collect(iter_sphere_products(gens, L_max, policy))
    if scale is None:
        assert stopped and len(spheres) == 51
    elif isinstance(policy, Exhaustive):
        assert stopped == (scale > 1.0) and len(spheres) == (7 if stopped else L_max)
    assert [s.letters.shape[1] for s in spheres] == list(range(1, len(spheres) + 1))
    for sphere in spheres:
        for got, expected in zip((sphere.log_singular_values(),
                                  sphere.log_eigenvalue_moduli()), alone(sphere)):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            with pytest.raises(ValueError):
                got[0, 0] = 0.0
        # the group reads its policy: inverse rows for whole spheres and
        # inversion-closed draws, none for an open draw
        group = sphere.group
        assert group.policy is policy
        assert (sphere.inverse is None) == (isinstance(policy, Sampled)
                                            and not inversion_closed)
        # the group holds the sphere's rows, and only finite ones
        rows = slice(sphere.start, sphere.start + len(sphere.letters))
        assert group.products[rows].tobytes() == sphere.products.tobytes()
        assert np.isfinite(group.products).all()


def exhaustive_groups(rank, L_max, block):
    """Lengths of each exhaustive group: a group takes the next sphere while
    its rows stay within ``block``."""
    groups = []
    for L in range(1, L_max + 1):
        if groups and sum(count_sphere(rank, l) for l in groups[-1]) \
                + count_sphere(rank, L) <= block:
            groups[-1].append(L)
        else:
            groups.append([L])
    return groups


@pytest.mark.parametrize("rank, L_max, block", [
    (2, 9, DEFAULT_BLOCK), (1, 9, 5), (2, 5, 40), (3, 4, 1)])
def test_exhaustive_groups_by_row_count(monkeypatch, rank, L_max, block):
    monkeypatch.setattr(linalg, "KERNEL_BLOCK", block)
    spheres = list(iter_sphere_products(seeded_gens(rank, 2, 1.0, 0), L_max))
    got = []
    for sphere in spheres:
        if not got or sphere.group is not got[-1][0].group:
            got.append([])
        got[-1].append(sphere)
    expected = exhaustive_groups(rank, L_max, block)
    assert [[s.letters.shape[1] for s in g] for g in got] == expected
    if (rank, L_max, block) == (2, 9, DEFAULT_BLOCK):
        assert expected == [[1, 2, 3, 4, 5, 6, 7], [8], [9]]
    for group in got:
        assert len(group[0].group.letters) == len(group)
        assert [s.start for s in group] == np.cumsum(
            [0] + [len(s.letters) for s in group[:-1]]).tolist()


@pytest.mark.parametrize("policy, first",
                         [(Exhaustive(), 41), (Sampled(count=3, seed=0), 42)])
def test_overflow_inside_a_group_keeps_the_spheres_before_it(monkeypatch, policy, first):
    # length 52 overflows inside the group of lengths 41 .. 60 (exhaustive,
    # two rows each) or 42 .. 54 (sampled, three rows each)
    monkeypatch.setattr(linalg, "KERNEL_BLOCK", 40)
    spheres, stopped = collect(iter_sphere_products(diagonal_gens(2), 60, policy))
    assert stopped and len(spheres) == 51
    group = spheres[-1].group
    lengths = [s.letters.shape[1] for s in spheres if s.group is group]
    assert lengths == list(range(first, 52))
    assert len(group.products) == sum(len(s.letters) for s in spheres[first - 1:])
    assert np.isfinite(group.products).all()


@pytest.fixture
def events(monkeypatch):
    """``("built", L)`` as each exhaustive sphere is built, to which a
    consumer adds ``("read", L)``, and the products built, by length."""
    log, built = [], {}
    extend = words._extend

    def counted(parent, *args):
        child = extend(parent, *args)
        log.append(("built", child[0].shape[1]))
        built[child[0].shape[1]] = child[1]
        return child

    monkeypatch.setattr(words, "_extend", counted)
    return log, built


@pytest.mark.parametrize("block", [5, 40, DEFAULT_BLOCK])
def test_no_sphere_is_built_past_the_group_being_read(monkeypatch, events, block):
    monkeypatch.setattr(linalg, "KERNEL_BLOCK", block)
    log, built = events
    rank, L_max = 2, 8
    for sphere in iter_sphere_products(seeded_gens(rank, 2, 1.0, 1), L_max):
        log.append(("read", sphere.letters.shape[1]))
        if len(sphere.group.letters) == 1 and sphere.letters.shape[1] > 1:
            # a sphere alone in its group is read where it was built
            assert np.shares_memory(sphere.products, built[sphere.letters.shape[1]])
    for group in exhaustive_groups(rank, L_max, block):
        # every sphere of a group is built before the first is read, and
        # the next group's first sphere after the last is read
        first_read = log.index(("read", group[0]))
        assert all(log.index(("built", L)) < first_read for L in group if L > 1)
        if group[-1] < L_max:
            assert log.index(("read", group[-1])) < log.index(("built", group[-1] + 1))


def rotation_pair():
    """A rotation next to a mild hyperbolic element: the rotation has no gap,
    so a domination scan is refuted at length 1."""
    c, s = np.cos(0.7), np.sin(0.7)
    return GeneratorSet([np.array([[c, -s], [s, c]]), np.diag([1.3, 1 / 1.3])])


@pytest.mark.parametrize("block, built",
                         [(5, []), (40, [2]), (DEFAULT_BLOCK, [2, 3, 4, 5, 6, 7])])
def test_refuted_scan_builds_nothing_past_its_group(monkeypatch, events, block, built):
    monkeypatch.setattr(linalg, "KERNEL_BLOCK", block)
    report = domination_scan(rotation_pair(), 1, 12, Exhaustive())
    assert report.verdict == "refuted" and report.refuted_at == 1
    assert [L for kind, L in events[0] if kind == "built"] == built
