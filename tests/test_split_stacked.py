"""The stacked flow-bundle path against a per-matrix reference.

The reference below is the per-time loop that `splitting_at`,
`measure_rates` and the residual column of ``repdyn split`` ran before they
were stacked: one checked SVD per product, a second SVD for the neutral
block, one ``scipy.linalg.subspace_angles`` call per pair of blocks and a
running Python sum per curve.  The stacked path must agree with it bit for
bit: CSV text, summary values and the errors raised.
"""

import json

import numpy as np
import pytest
import scipy.linalg

from repdyn.cli import format_number, main
from repdyn.domination import GeneratorSet
from repdyn.errors import DegenerateGapError, DegenerateInputError
from repdyn.fitting import fit_line
from repdyn.flowbundle import build_trajectory, estimate_splitting, measure_rates
from repdyn.linalg import GAP_TOL, Subspace, subspace_distance
from repdyn.words import FlowLineWindow, random_word

from conftest import partial_hyperbolic_matrices

pytestmark = pytest.mark.filterwarnings("ignore::repdyn.errors.ConditionWarning")

CURVES = (
    "backward_expanding",
    "forward_contracting",
    "dominance_neutral_over_expanding",
    "dominance_contracting_over_neutral",
)


# ---------------------------------------------------------------------------
# the per-matrix reference


def reference_require(m):
    """`require_matrix` as a sequence of checks on one matrix."""
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise DegenerateInputError("matrix has non-finite entries")
    if np.linalg.norm(m, axis=1).max() == 0.0:
        raise DegenerateInputError("matrix is the zero matrix")
    sign, logdet = np.linalg.slogdet(m)
    if sign == 0.0 or not np.isfinite(logdet):
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] == 0.0 or not np.isfinite(s[0] / s[-1]):
            raise DegenerateInputError("matrix is numerically singular")
    return m


def reference_bottom(m, p):
    """`bottom_singular_subspace` with its own SVD."""
    m = reference_require(m)
    n = m.shape[0]
    _, s, vt = np.linalg.svd(m)
    if s[-1] <= 0.0 or not np.isfinite(s[0] / s[-1]):
        raise DegenerateInputError("singular values span more than float64 allows")
    gap = (s[n - p - 1] - s[n - p]) / s[n - p - 1]
    if gap < GAP_TOL:
        raise DegenerateGapError(
            f"singular gap at index {n - p} is degenerate (relative gap {gap:.3e})",
            index=n - p,
            gap=float(gap),
        )
    return Subspace(vt[n - p :, :].T)


def reference_distance(u, w):
    return float(scipy.linalg.subspace_angles(u.basis, w.basis).max())


def reference_splitting_at(traj, k, t_forward, t_backward):
    n = traj.dim
    v_plus = reference_bottom(traj.backward[0, t_backward], k)
    fwd = traj.forward[0, t_forward]
    v_minus = reference_bottom(fwd, k)
    _, _, vt = np.linalg.svd(fwd)
    return v_plus, Subspace(vt[k : n - k].T), v_minus


def reference_check_gaps(traj, k, sign):
    n = traj.dim
    store = traj.forward if sign > 0 else traj.backward
    for t in range(1, store.shape[1]):
        s = np.linalg.svd(store[0, t], compute_uv=False)
        for p in sorted({k, n - k}):
            gap = (s[p - 1] - s[p]) / s[p - 1]
            if gap < GAP_TOL:
                raise DegenerateGapError(
                    f"singular gap at index {p} degenerate at time {sign * t}"
                    f" (relative gap {gap:.3e})",
                    index=p,
                    gap=float(gap),
                    time=sign * t,
                )


def reference_estimate(traj, k):
    """``(blocks, residual, independence)`` as `estimate_splitting` finds them."""
    reference_check_gaps(traj, k, +1)
    reference_check_gaps(traj, k, -1)
    tf, tb = traj.t_forward, traj.t_backward
    blocks = reference_splitting_at(traj, k, tf, tb)

    def shrink(t):
        s = max(1, (3 * t) // 4)
        return s if s < t else t - 1

    shrunk = reference_splitting_at(traj, k, shrink(tf), shrink(tb))
    residual = max(reference_distance(a, b) for a, b in zip(blocks, shrunk))
    stacked = np.hstack([b.basis for b in blocks])
    independence = float(np.linalg.svd(stacked, compute_uv=False)[-1])
    if independence <= 1e-6:
        raise DegenerateInputError(
            f"splitting blocks nearly dependent (smallest stacked singular value"
            f" {independence:.3e})"
        )
    return blocks, residual, independence


def reference_local_frames(gens, line, s, h, k):
    fwd = np.eye(gens.dim)
    for u in range(s, s + h):
        fwd = gens.image(line.letter(u)) @ fwd
    bwd = np.eye(gens.dim)
    for u in range(1, h + 1):
        bwd = gens.image(-line.letter(s - u)) @ bwd
    v_minus = reference_bottom(fwd, k)
    _, _, vt = np.linalg.svd(fwd)
    v_zero = Subspace(vt[k : gens.dim - k].T)
    v_plus = reference_bottom(bwd, k)
    return v_plus, v_zero, v_minus


def log_smax(m):
    return float(np.log(np.linalg.svd(m, compute_uv=False)[0]))


def log_smin(m):
    return float(np.log(np.linalg.svd(m, compute_uv=False)[-1]))


def reference_rates(traj, k, norm_matrix=None):
    """``(curves, fitted rates)`` as `measure_rates` finds them."""
    gens, [line] = traj.gens, traj.lines
    if norm_matrix is not None:
        w_inv = np.linalg.inv(norm_matrix)
        gens = GeneratorSet(
            [norm_matrix @ gens.image(i + 1) @ w_inv for i in range(gens.rank)],
            names=gens.names,
        )
    tb, tf = traj.t_backward, traj.t_forward
    h = max(1, min(12, min(tb, tf) // 2))
    extent_f, extent_b = tf - h, tb - h
    up_back = np.zeros(extent_b + 1)
    acc = 0.0
    for s in range(extent_b):
        v_plus, _, _ = reference_local_frames(gens, line, -s, h, k)
        acc += log_smax(gens.image(-line.letter(-s - 1)) @ v_plus.basis)
        up_back[s + 1] = acc
    curves = [up_back] + [np.zeros(extent_f + 1) for _ in range(3)]
    acc_minus = acc_pz = acc_zm = 0.0
    for s in range(extent_f):
        v_plus, v_zero, v_minus = reference_local_frames(gens, line, s, h, k)
        step = gens.image(line.letter(s))
        log_minus = log_smax(step @ v_minus.basis)
        acc_minus += log_minus
        acc_pz += log_smax(step @ v_zero.basis) - log_smin(step @ v_plus.basis)
        acc_zm += log_minus - log_smin(step @ v_zero.basis)
        curves[1][s + 1] = acc_minus
        curves[2][s + 1] = acc_pz
        curves[3][s + 1] = acc_zm
    start_f = min(extent_f - int(2.0 / 3.0 * extent_f), extent_f - 1)
    start_b = min(extent_b - int(2.0 / 3.0 * extent_b), extent_b - 1)
    rates = []
    for curve, start, end in zip(curves, (start_b,) + (start_f,) * 3,
                                 (extent_b,) + (extent_f,) * 3):
        ts = np.arange(start, end + 1)
        slope, intercept, _ = fit_line(ts, curve[ts[0] : ts[-1] + 1])
        rates.append((-slope, float(np.exp(intercept))))
    return dict(zip(CURVES, curves)), rates


def reference_residuals(traj, k):
    """The residual column: the largest block move from t - 1 to t."""
    out = {}
    for t in range(3, min(traj.t_forward, traj.t_backward) + 1):
        prev = reference_splitting_at(traj, k, t - 1, t - 1)
        cur = reference_splitting_at(traj, k, t, t)
        out[t] = max(reference_distance(c, p) for c, p in zip(cur, prev))
    return out


def reference_line(gens, line, k):
    """``("ok", summary values, csv text)`` or ``("degenerate", error)``."""
    [traj] = build_trajectory(gens, [line])
    try:
        blocks, residual, independence = reference_estimate(traj, k)
        curves, rates = reference_rates(traj, k)
    except (DegenerateGapError, DegenerateInputError) as e:
        return "degenerate", e
    names = ("a_plus", "A_plus", "a_minus", "A_minus", "aprime_plus_zero",
             "Aprime_plus_zero", "aprime_zero_minus", "Aprime_zero_minus")
    values = {
        "residual": residual,
        "independence": independence,
        "rates": dict(zip(names, [x for pair in rates for x in pair])),
        "bases": {name: b.basis.tolist()
                  for name, b in zip(("expanding", "neutral", "contracting"), blocks)},
    }
    residuals = reference_residuals(traj, k)
    tt = min(traj.t_forward, traj.t_backward)
    t_max = max(tt, *(len(c) - 1 for c in curves.values()))
    lines = [",".join(("t", "residual") + CURVES)]
    for t in range(t_max + 1):
        cells = [str(t), format_number(residuals[t]) if t in residuals else ""]
        cells += [format_number(c[t]) if t < len(c) else "" for c in curves.values()]
        lines.append(",".join(cells))
    return "ok", values, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# fixtures


def conjugated_pair(n, seed):
    """Two conjugates of diag(4, 2, ..., 1/4) by seeded orthogonal matrices."""
    rng = np.random.default_rng(seed)
    d = np.diag(2.0 ** np.linspace(2, -2, n))
    out = []
    for _ in range(2):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        out.append(q @ d @ q.T)
    return out


def random_lines(count, half_width, seed):
    rng = np.random.default_rng(seed)
    return [
        {"letters": list(random_word(2, 2 * half_width, rng).letters),
         "offset": int(rng.integers(-2, 3))}
        for _ in range(count)
    ]


def split_case(name):
    """``(matrices, line specs, k, window)`` of one comparison case."""
    if name == "periodic":
        return list(partial_hyperbolic_matrices()), [{"pattern": [1]}, {"pattern": [2]}], 1, 24
    if name == "random-n3":
        return list(partial_hyperbolic_matrices()), random_lines(4, 24, 5), 1, 24
    if name == "near-identity-n3":
        rng = np.random.default_rng(3)
        mats = [np.eye(3) + 0.5 * rng.standard_normal((3, 3)) for _ in range(2)]
        return mats, [{"pattern": [1, 2]}] + random_lines(3, 20, 6), 1, 20
    if name == "n5-k2":
        return conjugated_pair(5, 11), [{"pattern": [1]}] + random_lines(2, 16, 7), 2, 16
    if name == "window-2":
        # no residual row: the residual column is "" throughout
        return list(partial_hyperbolic_matrices()), [{"pattern": [1]}, {"pattern": [1, 2]}], 1, 2
    if name == "window-3":
        # one residual row, at t = 3
        return list(partial_hyperbolic_matrices()), [{"pattern": [1]}, {"pattern": [1, 2]}], 1, 3
    if name == "degenerate":
        # P(2) = diag(1, 1, 1/2) on the periodic line; on the explicit line
        # the forward products are fine and P(-2) = diag(1, 1, 2)
        mats = [np.diag([2.0, 1.0, 0.5]), np.diag([0.5, 1.0, 1.0])]
        explicit = {"letters": [1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1], "offset": 0}
        return mats, [{"pattern": [1, 2]}, explicit, {"pattern": [1]}], 1, 6
    if name == "degenerate-rates":
        # every P(t) keeps both gaps, but the relative product over [1, 5]
        # is diag(1, 1, 1) in its two lower coordinates
        mats = [np.diag([2.0, 1.0, 0.5]), np.diag([1.0, 1.0, 2.0])]
        explicit = {"letters": [1] * 8 + [1, 1, 2, 1, 2, 1, 1, 1], "offset": 0}
        return mats, [explicit, {"pattern": [1]}], 1, 8
    raise ValueError(name)


def make_line(spec, window):
    if "pattern" in spec:
        return FlowLineWindow.periodic(spec["pattern"], window)
    return FlowLineWindow(spec["letters"], len(spec["letters"]) // 2, spec["offset"])


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize(
    "case",
    ["periodic", "random-n3", "near-identity-n3", "n5-k2", "window-2", "window-3",
     "degenerate", "degenerate-rates"],
)
def test_split_command_matches_reference(case, tmp_path):
    mats, specs, k, window = split_case(case)
    doc = {
        "n": mats[0].shape[0],
        "generators": [{"name": f"g{i}", "rows": m.tolist()} for i, m in enumerate(mats)],
        "lines": specs,
    }
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    main(["split", "--input", str(path), "--k", str(k), "--window", str(window),
          "--out-dir", str(out)])
    summary = json.loads((out / "split_summary.json").read_text())
    gens = GeneratorSet(mats, names=[f"g{i}" for i in range(len(mats))])
    statuses = []
    for j, (spec, entry) in enumerate(zip(specs, summary["results"]["lines"])):
        expected = reference_line(gens, make_line(spec, window), k)
        statuses.append(expected[0])
        assert entry["status"] == expected[0]
        if expected[0] == "degenerate":
            assert entry["detail"] == str(expected[1])
            assert entry["time"] == getattr(expected[1], "time", None)
            assert not (out / f"split_line{j}.csv").exists()
            continue
        _, values, csv_text = expected
        for key, value in values.items():
            assert entry[key] == value, key
        assert (out / f"split_line{j}.csv").read_text(encoding="utf-8") == csv_text
    if case == "degenerate":
        assert statuses == ["degenerate", "degenerate", "ok"]
    elif case == "degenerate-rates":
        assert statuses == ["degenerate", "ok"]
        assert summary["results"]["lines"][0]["time"] is None
    else:
        assert set(statuses) == {"ok"}


def test_degenerate_gap_names_first_failing_time():
    mats, specs, k, window = split_case("degenerate")
    gens = GeneratorSet(mats)
    for spec, time in zip(specs, (2, -2)):
        [traj] = build_trajectory(gens, [make_line(spec, window)])
        with pytest.raises(DegenerateGapError) as expected:
            reference_estimate(traj, k)
        with pytest.raises(DegenerateGapError) as got:
            estimate_splitting(traj, k)
        assert got.value.time == expected.value.time == time
        assert str(got.value) == str(expected.value)
        assert (got.value.index, got.value.gap) == (expected.value.index, expected.value.gap)


@pytest.mark.parametrize("case", ["periodic", "random-n3", "n5-k2"])
def test_measure_rates_in_a_changed_norm(case):
    mats, specs, k, window = split_case(case)
    gens = GeneratorSet(mats)
    n = gens.dim
    w = np.eye(n) + np.diag(np.full(n - 1, 0.7), 1)
    for spec in specs[:2]:
        [traj] = build_trajectory(gens, [make_line(spec, window)])
        for norm in (None, w):
            [got] = measure_rates(traj, k, norm_matrix=norm)
            curves, rates = reference_rates(traj, k, norm_matrix=norm)
            for name in CURVES:
                assert np.array_equal(got.curves[name], curves[name]), name
            assert [
                (got.a_plus, got.A_plus),
                (got.a_minus, got.A_minus),
                (got.aprime_plus_zero, got.Aprime_plus_zero),
                (got.aprime_zero_minus, got.Aprime_zero_minus),
            ] == rates
            assert got.norm_used is (norm is not None)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("n", [3, 5])
def test_stacked_subspace_distance_matches_scipy(n, p):
    rng = np.random.default_rng(10 * n + p)
    count = 400
    a = np.linalg.qr(rng.standard_normal((count, n, p)))[0]
    # perturbations from 1e-12 to beyond the subspace scale reach both the
    # arcsine (cos^2 >= 1/2) and the arccosine branch
    scale = 10.0 ** rng.uniform(-12, 0.7, size=(count, 1, 1))
    b = np.linalg.qr(a + scale * rng.standard_normal((count, n, p)))[0]
    expected = [scipy.linalg.subspace_angles(x, y).max() for x, y in zip(a, b)]
    cosines = np.array([scipy.linalg.svdvals(x.T @ y) for x, y in zip(a, b)])
    assert (cosines**2 >= 0.5).any() and (cosines**2 < 0.5).any()
    got = subspace_distance(a, b)
    assert got.shape == (count,)
    assert np.array_equal(got, expected)
    one = [subspace_distance(Subspace(x), Subspace(y)) for x, y in zip(a[:20], b[:20])]
    assert one == expected[:20]


def test_stacked_subspace_distance_rejects_mismatched_stacks():
    a = np.zeros((4, 3, 1))
    a[:, 0, 0] = 1.0
    with pytest.raises(ValueError):
        subspace_distance(a, a[:3])
    with pytest.raises(ValueError):
        subspace_distance(a[0], a[0])
