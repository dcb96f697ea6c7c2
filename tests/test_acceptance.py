"""End-to-end acceptance sweep for the analyzer's advertised guarantees.

One test per guarantee, in a fixed order; each prints a single checklist
line (``criterion NN (label): PASS [0.4s]``) so a full ``pytest -v`` run
doubles as a report.  Every tolerance is pinned to the number the library
promises, and each test asserts its own wall-clock budget.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repdyn.affine import eigenvalue_norm_one_check, hks_test
from repdyn.cli import EXIT_FAIL, EXIT_OK, main
from repdyn.domination import GeneratorSet, domination_scan, flag_estimate
from repdyn.flowbundle import build_trajectory, estimate_splitting, measure_rates
from repdyn.linalg import cartan_projection, jordan_projection
from repdyn.spectrum import containment_check, involution_symmetry_check, sample_cone
from repdyn.words import (
    FlowLineWindow,
    TreeGeodesic,
    Word,
    evaluate,
    flow_metric,
    random_word,
)

from conftest import (
    partial_hyperbolic_matrices,
    ping_pong_matrices,
    rotation2,
)

LOG2 = float(np.log(2.0))


@contextmanager
def criterion(capsys, number, label, budget):
    """Run one acceptance check, print its checklist line, enforce its budget."""
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok and elapsed <= budget else "FAIL"
        with capsys.disabled():
            print(f"criterion {number:2d} ({label}): {status} [{elapsed:.2f}s]")
        if ok and elapsed > budget:
            raise AssertionError(
                f"criterion {number} took {elapsed:.2f}s, over its {budget:.0f}s budget"
            )


def padded_ping_pong():
    a, b = ping_pong_matrices()
    out = []
    for m in (a, b):
        p = np.zeros((3, 3))
        p[:2, :2] = m
        p[2, 2] = 1.0
        out.append(p)
    return out


def test_criterion_01_closed_form_projections(capsys):
    with criterion(capsys, 1, "closed-form spectral projections", 1.0):
        sv = cartan_projection(np.array([[3.0, 1.0], [1.0, 1.0]]))
        assert abs(sv[0] - np.log(2.0 + np.sqrt(2.0))) < 1e-10
        assert abs(sv[1] - np.log(2.0 - np.sqrt(2.0))) < 1e-10
        jv = jordan_projection(np.array([[2.0, 1.0], [1.0, 1.0]]))
        assert abs(jv[0] - np.log((3.0 + np.sqrt(5.0)) / 2.0)) < 1e-10
        assert abs(jv[1] - np.log((3.0 - np.sqrt(5.0)) / 2.0)) < 1e-10
        d = np.diag([5.0, -3.0, 0.5])
        expect = np.log([5.0, 3.0, 0.5])
        np.testing.assert_allclose(cartan_projection(d).values, expect, atol=1e-10)
        np.testing.assert_allclose(jordan_projection(d).values, expect, atol=1e-10)


def test_criterion_02_chamber_membership(capsys):
    with criterion(capsys, 2, "chamber membership of 1e5 products", 30.0):
        rng = np.random.default_rng(2026)
        qs = [np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in range(4)]
        gens = GeneratorSet(
            [
                qs[0] @ np.diag(np.exp(rng.uniform(-0.7, 0.7, 2))) @ qs[1],
                qs[2] @ np.diag(np.exp(rng.uniform(-0.7, 0.7, 2))) @ qs[3],
            ]
        )
        # exact reference: log|det| of a product is the sum over letters
        logdet = {l: np.linalg.slogdet(gens.image(l))[1] for l in (1, 2, -1, -2)}
        worst = 0.0
        for _ in range(100_000):
            length = int(rng.integers(1, 11))
            w = random_word(2, length, rng)
            cp = cartan_projection(evaluate(w, gens))
            assert np.all(np.diff(cp.values) <= 0.0)
            worst = max(worst, abs(cp.total - sum(logdet[l] for l in w.letters)))
        assert worst < 1e-7


def test_criterion_03_power_limit_of_log_singular_values(capsys):
    with criterion(capsys, 3, "64th-power limit recovers eigenvalue logs", 1.0):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(2, 5))
            # moduli spread kept small so the 64th power stays inside the
            # relative accuracy range of float64 singular values
            logs = np.linspace(0.18, -0.18, n) + rng.uniform(-0.02, 0.02, n)
            d = np.diag(np.exp(logs) * rng.choice([-1.0, 1.0], n))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            s = q @ (np.eye(n) + 0.01 * rng.standard_normal((n, n)))
            m = s @ d @ np.linalg.inv(s)
            p = np.linalg.matrix_power(m, 64)
            err = np.max(
                np.abs(cartan_projection(p).values / 64.0 - jordan_projection(m).values)
            )
            worst = max(worst, err)
        assert worst < 1e-3


@pytest.mark.filterwarnings("ignore::repdyn.errors.ConditionWarning")
def test_criterion_04_domination_scan(capsys):
    with criterion(capsys, 4, "exhaustive domination scan", 60.0):
        a, b = ping_pong_matrices()
        report = domination_scan(GeneratorSet([a, b], names=("a", "b")), 1, 10)
        assert report.verdict == "dominated"
        assert report.refuted_at is None
        assert all(s.gap_min > 0.0 for s in report.spheres)
        single_letter_gap = 4.0 * LOG2  # both generators have moduli 4 and 1/4
        assert abs(report.A_hat - single_letter_gap) <= 0.25 * single_letter_gap

        spin = domination_scan(GeneratorSet([rotation2(0.9)]), 1, 6)
        assert spin.verdict == "refuted"
        assert spin.refuted_at == 1


@pytest.mark.filterwarnings("ignore::repdyn.errors.ConditionWarning")
def test_criterion_05_partial_hyperbolicity(capsys):
    with criterion(capsys, 5, "partially hyperbolic fixture family", 10.0):
        diag, conj = partial_hyperbolic_matrices()
        for m in (diag, conj):
            report = domination_scan(GeneratorSet([m]), 1, 7)
            assert report.verdict == "partially-hyperbolic"

        def rates_on_line(m, width):
            gens = GeneratorSet([m])
            [traj] = build_trajectory(gens, [FlowLineWindow([1] * (2 * width), width)])
            estimate_splitting(traj, 1)
            return measure_rates(traj, 1)[0]

        exact = rates_on_line(diag, 24)
        for value in (exact.a_plus, exact.a_minus):
            assert abs(value - LOG2) < 1e-9
        assert exact.aprime_plus_zero > 0.0
        assert exact.aprime_zero_minus > 0.0

        moved = rates_on_line(conj, 48)
        for value in (moved.a_plus, moved.a_minus):
            assert abs(value - LOG2) < 1e-2
        assert moved.aprime_plus_zero > 0.0
        assert moved.aprime_zero_minus > 0.0


@pytest.mark.filterwarnings("ignore::repdyn.errors.ConditionWarning")
def test_criterion_06_boundary_flag_convergence(capsys):
    with criterion(capsys, 6, "boundary flag residual decay", 5.0):
        a, b = ping_pong_matrices()
        gens = GeneratorSet([a, b], names=("a", "b"))
        residuals = [
            flag_estimate(gens, Word([1, 2]), 1, depth).residual
            for depth in range(7, 15)
        ]
        assert all(r2 < r1 for r1, r2 in zip(residuals, residuals[1:]))
        assert residuals[-1] < 1e-6


def test_criterion_07_cone_containment(capsys):
    with criterion(capsys, 7, "zero-index containment with trivial block", 60.0):
        padded = GeneratorSet(padded_ping_pong(), names=("a", "b"))
        eig = eigenvalue_norm_one_check(padded, 6)
        assert eig.passed
        assert eig.worst_deviation == 0.0

        cone = sample_cone(padded, 8)
        report = containment_check(cone, 1)
        assert report.passed
        assert report.window == (2,)
        assert report.C_hat > 0.0
        for level in cone.levels.values():
            assert not level.zero[:, [0, 2]].any()

        a, b = ping_pong_matrices()
        flat = containment_check(sample_cone(GeneratorSet([a, b]), 6), 1)
        assert not flat.passed


def test_criterion_08_involution_symmetry(capsys):
    with criterion(capsys, 8, "involution symmetry of sample sets", 10.0):
        a, b = ping_pong_matrices()
        diag, conj = partial_hyperbolic_matrices()
        fixtures = [
            GeneratorSet([a, b], names=("a", "b")),
            GeneratorSet(padded_ping_pong(), names=("a", "b")),
            GeneratorSet([diag]),
            GeneratorSet([conj]),
            GeneratorSet([rotation2(0.9)]),
        ]
        for gens in fixtures:
            check = involution_symmetry_check(sample_cone(gens, 6))
            assert check.passed
            assert not check.mismatches
            assert check.max_deviation <= check.tol


def test_criterion_09_affine_determinant_test(capsys, form_preserving_affine):
    with criterion(capsys, 9, "unipotent determinant test", 10.0):
        report = hks_test(form_preserving_affine, 8)
        assert report.passed
        assert report.max_normalized < 1e-10

        control = GeneratorSet([np.diag([2.0, 2.0])])
        failed = hks_test(control, 4)
        assert not failed.passed
        assert failed.first_fail_length == 1


def test_criterion_10_flow_metric_oracles(capsys):
    with criterion(capsys, 10, "flow metric oracles and axioms", 5.0):
        fwd = [1, 2] * 24
        back = [2, 1] * 24
        g = TreeGeodesic.from_rays(Word([]), fwd, back)
        for s in (1, 2):
            shifted_back = ([-l for l in fwd[:s]][::-1] + back)[:48]
            h = TreeGeodesic.from_rays(g.vertex(s), fwd[s:] + fwd[:s], shifted_back)
            d = flow_metric(g, h, half_width=40)
            assert abs(d.value - s * 2.0 / LOG2) < 1e-3

        same_future = TreeGeodesic.from_rays(Word([]), [1] * 48, [-2] * 48)
        split_past = TreeGeodesic.from_rays(Word([]), [1] * 48, [2] * 48)
        d = flow_metric(same_future, split_past, half_width=40)
        assert abs(d.value - 2.0 / LOG2**2) < 1e-3

        rng = np.random.default_rng(10)
        pool = []
        while len(pool) < 12:
            f = random_word(2, 48, rng)
            b = random_word(2, 48, rng)
            anchor = random_word(2, int(rng.integers(0, 4)), rng)
            try:
                pool.append(TreeGeodesic.from_rays(anchor, f.letters, b.letters))
            except ValueError:  # junction happened to be unreduced; redraw
                continue
        for _ in range(50):
            i, j, k = (int(x) for x in rng.choice(12, size=3, replace=False))
            d_ij = flow_metric(pool[i], pool[j], half_width=40)
            d_ji = flow_metric(pool[j], pool[i], half_width=40)
            d_jk = flow_metric(pool[j], pool[k], half_width=40)
            d_ik = flow_metric(pool[i], pool[k], half_width=40)
            assert abs(d_ij.value - d_ji.value) <= 1e-12
            slack = d_ij.tail_bound + d_jk.tail_bound + d_ik.tail_bound + 1e-9
            assert d_ik.value <= d_ij.value + d_jk.value + slack


@pytest.mark.filterwarnings("ignore::repdyn.errors.ConditionWarning")
def test_criterion_11_cli_determinism(capsys, tmp_path):
    with criterion(capsys, 11, "byte-identical command reruns", 120.0):
        a, b = ping_pong_matrices()
        diag, _ = partial_hyperbolic_matrices()

        def doc(name, payload):
            path = tmp_path / name
            path.write_text(json.dumps(payload), encoding="utf-8")
            return str(path)

        def rows(m):
            return [[float(x) for x in row] for row in m]

        pp_doc = doc(
            "pp.json",
            {"n": 2, "generators": [
                {"name": "a", "rows": [["4", 0], [0, "1/4"]]},
                {"name": "b", "rows": rows(b)},
            ]},
        )
        padded_doc = doc(
            "padded.json",
            {"n": 3, "generators": [
                {"name": n, "rows": rows(m)}
                for n, m in zip("ab", padded_ping_pong())
            ]},
        )
        split_doc = doc(
            "split.json",
            {"n": 3, "generators": [{"name": "g", "rows": rows(diag)}]},
        )
        affine_doc = doc(
            "affine.json",
            {"n": 2, "generators": [{"name": "u", "rows": [[1, 1], [0, 1]]}],
             "translations": [[0.5, 0.25]]},
        )
        geo_doc = doc(
            "geo.json",
            {"rank": 2, "geodesics": [
                {"anchor": [], "forward": [1, 2] * 22, "backward": [2, 1] * 22},
                {"anchor": [1], "forward": [2, 1] * 22, "backward": [-1, 2] * 22},
            ]},
        )
        commands = [
            ("dominate", ["dominate", "--input", pp_doc, "--k", "1",
                          "--max-length", "5"], EXIT_OK),
            ("spectrum", ["spectrum", "--input", padded_doc, "--k", "1",
                          "--m-max", "5"], EXIT_OK),
            ("split", ["split", "--input", split_doc, "--k", "1",
                       "--window", "24"], EXIT_OK),
            ("affine", ["affine", "--input", affine_doc,
                        "--max-length", "6"], EXIT_OK),
            ("flowmetric", ["flowmetric", "--input", geo_doc,
                            "--window", "40"], EXIT_OK),
        ]
        for name, argv, expected in commands:
            bodies = []
            for tag in ("one", "two"):
                out = tmp_path / f"{name}-{tag}"
                assert main(argv + ["--out-dir", str(out)]) == expected
                bodies.append(
                    {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
                )
            assert bodies[0], f"{name} wrote no CSV tables"
            assert bodies[0] == bodies[1]
