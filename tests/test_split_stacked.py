"""The stacked flow-bundle path against a per-matrix reference.

The reference below is the per-time loop that `splitting_at`,
`measure_rates` and the residual column of ``repdyn split`` ran before they
were stacked: one checked SVD per product, one principal-angle call per
pair of blocks and a running Python sum per curve.  The statuses, the
errors raised and the CSV times must agree with it exactly: every gap and
span verdict is LAPACK's, in the reference as in the kernel.

For n = 3 the kernel reads its frames in closed form, so the reference
takes each basis column from 60-digit `mpmath` and holds the kernel's
within FRAME_UNITS eps s1 / gap of it, up to sign (the bound of
tests/test_linalg.py).  The residual, the independence and the curves are
held within what those basis errors allow.  For other n the frames are
LAPACK's, and the bases, the independence and every angle and stretch of a
block of two or more columns must agree with the reference bit for bit.
The one-column work is held to exact oracles: the angle between two
columns and the log length of a column within 4 eps of 60-digit `mpmath`,
and every rate and constant within 1e-14 of the exact rational least
squares line through the reported curve.
"""

import json
import math

import numpy as np
import pytest
import scipy.linalg

from repdyn.cli import main
from repdyn.domination import GeneratorSet
from repdyn.errors import DegenerateGapError, DegenerateInputError
from repdyn.flowbundle import build_trajectory, estimate_splitting, measure_rates
from repdyn.linalg import GAP_TOL, require_orthonormal, singular_frames, subspace_distance
from repdyn.words import FlowLineWindow, random_word

from conftest import (
    exact_line_fit,
    mpmath_column_angle,
    mpmath_frame_errors,
    mpmath_log_length,
    mpmath_svd,
    partial_hyperbolic_matrices,
)

EPS = np.finfo(float).eps

# the closed-form angle or log length of one column against 60-digit mpmath
COLUMN_TOL = 4 * EPS

# a fitted slope, and an intercept, against the exact least squares line
FIT_TOL = 1e-14

# an n = 3 basis column against the exact one: FRAME_UNITS eps s1 / gap
FRAME_UNITS = 4.0

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


_EXACT_FRAMES = {}


def reference_frames(m):
    """``(vt, bounds)``: the right singular vectors of one matrix as rows,
    and for each the angle within which the kernel must read it.  For n = 3
    they are exact (60-digit `mpmath`, rounded), each with the bound
    FRAME_UNITS eps s1 / gap, gap the distance of its singular value to the
    nearest other.  For other n they are LAPACK's, with bound 0."""
    n = m.shape[0]
    if n != 3:
        return np.linalg.svd(m)[2], np.zeros(n)
    key = m.tobytes()
    if key not in _EXACT_FRAMES:
        s, vt = mpmath_svd(m)
        gaps = [min(abs(s[i] - s[j]) for j in range(n) if j != i) for i in range(n)]
        _EXACT_FRAMES[key] = (
            np.array([[float(x) for x in row] for row in vt]),
            np.array([float(FRAME_UNITS * EPS * s[0] / gap) for gap in gaps]),
        )
    return _EXACT_FRAMES[key]


def reference_block(m, rows):
    """``(basis, bound)``: an orthonormal ``(n, p)`` basis of the reference
    right singular vectors ``rows`` of one matrix and the largest bound
    among them."""
    vt, bounds = reference_frames(m)
    return require_orthonormal(vt[rows].T), float(bounds[rows].max())


def reference_bottom(m, p):
    """`bottom_singular_subspace` with its own checks, as a
    `reference_block`."""
    m = reference_require(m)
    n = m.shape[0]
    _, s, _ = np.linalg.svd(m)
    if s[-1] <= 0.0 or not np.isfinite(s[0] / s[-1]):
        raise DegenerateInputError("singular values span more than float64 allows")
    gap = (s[n - p - 1] - s[n - p]) / s[n - p - 1]
    if gap < GAP_TOL:
        raise DegenerateGapError(
            f"singular gap at index {n - p} is degenerate (relative gap {gap:.3e})",
            index=n - p,
            gap=float(gap),
        )
    return reference_block(m, slice(n - p, n))


def reference_distance(u, w):
    """The largest principal angle between two `reference_block`s, and the
    most the bounds of their bases let it move: exact for two single
    columns, scipy's for wider blocks."""
    (u, bound_u), (w, bound_w) = u, w
    if u.shape[1] == 1:
        return mpmath_column_angle(u, w), bound_u + bound_w
    return float(scipy.linalg.subspace_angles(u, w).max()), bound_u + bound_w


def reference_splitting_at(traj, k, t_forward, t_backward):
    """``(v_plus, v_zero, v_minus)`` as `reference_block`s."""
    n = traj.dim
    v_plus = reference_bottom(traj.backward[0, t_backward], k)
    fwd = traj.forward[0, t_forward]
    v_minus = reference_bottom(fwd, k)
    return v_plus, reference_block(fwd, slice(k, n - k)), v_minus


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
    """``(blocks, (residual, slack), (independence, slack))`` as
    `estimate_splitting` finds them, each with the most the bounds of the
    blocks let it move."""
    reference_check_gaps(traj, k, +1)
    reference_check_gaps(traj, k, -1)
    tf, tb = traj.t_forward, traj.t_backward
    blocks = reference_splitting_at(traj, k, tf, tb)

    def shrink(t):
        s = max(1, (3 * t) // 4)
        return s if s < t else t - 1

    shrunk = reference_splitting_at(traj, k, shrink(tf), shrink(tb))
    distances = [reference_distance(a, b) for a, b in zip(blocks, shrunk)]
    residual = (max(d for d, _ in distances), max(slack for _, slack in distances))
    stacked = np.hstack([b for b, _ in blocks])
    independence = float(np.linalg.svd(stacked, compute_uv=False)[-1])
    if independence <= 1e-6:
        raise DegenerateInputError(
            f"splitting blocks nearly dependent (smallest stacked singular value"
            f" {independence:.3e})"
        )
    # a smallest singular value moves by at most the norm of the change of
    # the stacked basis, and by some rounding when that changes at all
    bounds = np.array([bound for _, bound in blocks])
    slack = math.sqrt((bounds**2).sum()) + 4 * EPS if bounds.any() else 0.0
    return blocks, residual, (independence, slack)


def reference_local_frames(gens, line, s, h, k):
    fwd = np.eye(gens.dim)
    for u in range(s, s + h):
        fwd = gens.image(line.letter(u)) @ fwd
    bwd = np.eye(gens.dim)
    for u in range(1, h + 1):
        bwd = gens.image(-line.letter(s - u)) @ bwd
    v_minus = reference_bottom(fwd, k)
    v_zero = reference_block(fwd, slice(k, gens.dim - k))
    v_plus = reference_bottom(bwd, k)
    return v_plus, v_zero, v_minus


def log_stretch(step, block, largest):
    """``(log s, closed, slack)``: the log largest or smallest singular
    value of ``step @ basis`` for a `reference_block`, exact for one column
    (``closed``), by SVD otherwise, and the most that the bound of the basis
    moves it: ``log |step v|`` moves by at most ``cond(step)`` times the
    change of ``v``, to first order."""
    basis, bound = block
    m = step @ basis
    s = np.linalg.svd(step, compute_uv=False)
    moved = s[0] / s[-1] * bound
    slack = moved + moved * moved
    if m.shape[1] == 1:
        return mpmath_log_length(m), True, slack
    s = np.linalg.svd(m, compute_uv=False)
    return float(np.log(s[0] if largest else s[-1])), False, slack


def fit_starts(traj):
    """``(h, extent_b, extent_f, start_b, start_f)`` as `measure_rates`
    finds them."""
    tb, tf = traj.t_backward, traj.t_forward
    h = max(1, min(12, min(tb, tf) // 2))
    extent_f, extent_b = tf - h, tb - h
    start_f = min(extent_f - int(2.0 / 3.0 * extent_f), extent_f - 1)
    start_b = min(extent_b - int(2.0 / 3.0 * extent_b), extent_b - 1)
    return h, extent_b, extent_f, start_b, start_f


def reference_rates(traj, k):
    """``(curves, tolerances)`` as `measure_rates` finds the curves.

    A curve that takes no one-column stretch and no closed-form basis has
    the reference's bits, and tolerance 0.  Otherwise each step adds to its
    tolerance COLUMN_TOL per one-column stretch, one rounding of each
    stretch, of the step's difference and of the running sum, on both
    sides, and the slack of each stretch that the bounds of the bases
    allow."""
    gens, [line] = traj.gens, traj.lines
    h, extent_b, extent_f, _, _ = fit_starts(traj)
    sums = {name: [0.0] for name in CURVES}
    tols = {name: [0.0] for name in CURVES}

    def add(name, *terms):
        """Append a step of signed terms ``(sign, (value, closed, slack))``."""
        step = 0.0
        for sign, (value, _, _) in terms:
            step += sign * value
        sums[name].append(sums[name][-1] + step)
        closed = sum(c for _, (_, c, _) in terms)
        grow = sum(slack for _, (_, _, slack) in terms)
        if closed:
            grow += EPS * (4 * closed + sum(abs(v) for _, (v, _, _) in terms)
                           + abs(step) + abs(sums[name][-1]))
        tols[name].append(tols[name][-1] + grow)

    for s in range(extent_b):
        v_plus, _, _ = reference_local_frames(gens, line, -s, h, k)
        step = gens.image(-line.letter(-s - 1))
        add(CURVES[0], (1, log_stretch(step, v_plus, True)))
    for s in range(extent_f):
        v_plus, v_zero, v_minus = reference_local_frames(gens, line, s, h, k)
        step = gens.image(line.letter(s))
        log_minus = log_stretch(step, v_minus, True)
        add(CURVES[1], (1, log_minus))
        add(CURVES[2], (1, log_stretch(step, v_zero, True)),
            (-1, log_stretch(step, v_plus, False)))
        add(CURVES[3], (1, log_minus), (-1, log_stretch(step, v_zero, False)))
    return ({name: np.array(c) for name, c in sums.items()},
            {name: np.array(t) for name, t in tols.items()})


def assert_curves_close(got, expected, tolerances):
    """Each curve of ``got`` within its tolerance of the reference, exactly
    where that is 0, and as long."""
    for name in CURVES:
        assert len(got[name]) == len(expected[name]), name
        assert (np.abs(got[name] - expected[name]) <= tolerances[name]).all(), name


RATE_KEYS = (("a_plus", "A_plus"), ("a_minus", "A_minus"),
             ("aprime_plus_zero", "Aprime_plus_zero"),
             ("aprime_zero_minus", "Aprime_zero_minus"))


def assert_rates_fit(rates, curves, traj):
    """Each rate is minus the slope, and each constant the exponential of
    the intercept, of the exact least squares line through its reported
    curve over the far two thirds: within FIT_TOL relative, the constant
    within FIT_TOL times the size of the intercept."""
    _, extent_b, extent_f, start_b, start_f = fit_starts(traj)
    windows = [(start_b, extent_b)] + [(start_f, extent_f)] * 3
    for name, (rate, constant), (start, end) in zip(CURVES, RATE_KEYS, windows):
        ts = np.arange(start, end + 1)
        slope, intercept = map(float, exact_line_fit(ts, curves[name][start : end + 1]))
        assert rates[rate] == pytest.approx(-slope, rel=FIT_TOL, abs=0), rate
        assert rates[constant] == pytest.approx(
            math.exp(intercept), rel=FIT_TOL * max(1.0, abs(intercept)) + EPS, abs=0), constant


def reference_residuals(traj, k):
    """The residual column: the largest block move from t - 1 to t, and
    the most the bounds of the blocks let it move."""
    out = {}
    for t in range(3, min(traj.t_forward, traj.t_backward) + 1):
        prev = reference_splitting_at(traj, k, t - 1, t - 1)
        cur = reference_splitting_at(traj, k, t, t)
        distances = [reference_distance(c, p) for c, p in zip(cur, prev)]
        out[t] = (max(d for d, _ in distances), max(slack for _, slack in distances))
    return out


def reference_line(gens, line, k):
    """``("ok", reference values)`` or ``("degenerate", error)``."""
    [traj] = build_trajectory(gens, [line])
    try:
        blocks, residual, independence = reference_estimate(traj, k)
        curves, tolerances = reference_rates(traj, k)
    except (DegenerateGapError, DegenerateInputError) as e:
        return "degenerate", e
    return "ok", {
        "traj": traj,
        "blocks": blocks,
        "residual": residual,
        "independence": independence,
        "curves": curves,
        "tolerances": tolerances,
        "residuals": reference_residuals(traj, k),
    }


def assert_line_matches(entry, csv_text, ref):
    """A line's summary entry and CSV text against its reference values."""
    traj, blocks = ref["traj"], ref["blocks"]
    # every reported residual is a largest angle over the three blocks
    residual_tol = COLUMN_TOL if min(b.shape[1] for b, _ in blocks) == 1 else 0.0
    residual, slack = ref["residual"]
    assert abs(entry["residual"] - residual) <= residual_tol + slack
    independence, slack = ref["independence"]
    assert abs(entry["independence"] - independence) <= slack
    for name, (basis, bound) in zip(("expanding", "neutral", "contracting"), blocks):
        got = np.array(entry["bases"][name])
        if bound == 0.0:
            assert got.tolist() == basis.tolist(), name
        else:
            # a one-column block, within its bound of the exact one
            assert got.shape == basis.shape == (3, 1), name
            assert mpmath_column_angle(got, basis) <= bound + COLUMN_TOL, name
    assert (entry["t_forward"], entry["t_backward"]) == (traj.t_forward, traj.t_backward)

    header, *rows = [row.split(",") for row in csv_text.splitlines()]
    assert header == ["t", "residual", *CURVES]
    tt = min(traj.t_forward, traj.t_backward)
    t_max = max(tt, *(len(c) - 1 for c in ref["curves"].values()))
    assert [row[0] for row in rows] == [str(t) for t in range(t_max + 1)]
    residuals = ref["residuals"]
    for t, row in enumerate(rows):
        if t in residuals:
            residual, slack = residuals[t]
            assert abs(float(row[1]) - residual) <= residual_tol + slack, t
        else:
            assert row[1] == "", t
    columns = list(zip(*rows))[2:]
    curves = {}
    for name, column in zip(CURVES, columns):
        size = len(ref["curves"][name])
        assert all(cell == "" for cell in column[size:]), name
        curves[name] = np.array([float(cell) for cell in column[:size]])
    assert_curves_close(curves, ref["curves"], ref["tolerances"])
    assert_rates_fit(entry["rates"], curves, traj)


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
        csv_text = (out / f"split_line{j}.csv").read_text(encoding="utf-8")
        assert_line_matches(entry, csv_text, expected[1])
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
    """The fiber norm ``|W v|`` is the Euclidean one in the coordinates
    ``x -> W x``, where each generator reads ``W g W^-1``."""
    mats, specs, k, window = split_case(case)
    n = len(mats[0])
    w = np.eye(n) + np.diag(np.full(n - 1, 0.7), 1)
    w_inv = np.linalg.inv(w)
    for spec in specs[:2]:
        line = make_line(spec, window)
        for gens in (GeneratorSet(mats), GeneratorSet([w @ m @ w_inv for m in mats])):
            [traj] = build_trajectory(gens, [line])
            assert traj.t_forward == traj.t_backward == line.usable_half_width
            [got] = measure_rates(traj, k)
            curves, tolerances = reference_rates(traj, k)
            assert_curves_close(got.curves, curves, tolerances)
            rates = {key: getattr(got, key) for pair in RATE_KEYS for key in pair}
            assert_rates_fit(rates, got.curves, traj)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("n", [3, 5])
def test_stacked_subspace_distance_matches_scipy(n, p):
    """Blocks of two or more columns: scipy's bits; one column: the exact angle."""
    rng = np.random.default_rng(10 * n + p)
    count = 400
    a = np.linalg.qr(rng.standard_normal((count, n, p)))[0]
    # perturbations from 1e-12 to beyond the subspace scale reach both the
    # arcsine (cos^2 >= 1/2) and the arccosine branch
    scale = 10.0 ** rng.uniform(-12, 0.7, size=(count, 1, 1))
    b = np.linalg.qr(a + scale * rng.standard_normal((count, n, p)))[0]
    cosines = np.array([scipy.linalg.svdvals(x.T @ y) for x, y in zip(a, b)])
    assert (cosines**2 >= 0.5).any() and (cosines**2 < 0.5).any()
    got = subspace_distance(a, b)
    assert got.shape == (count,)
    one = [subspace_distance(x[None], y[None])[0] for x, y in zip(a[:20], b[:20])]
    assert one == got[:20].tolist()
    if p == 1:
        # two single columns take the closed form, held to the exact angle
        exact = [mpmath_column_angle(x, y) for x, y in zip(a, b)]
        assert np.abs(got - exact).max() <= COLUMN_TOL
    else:
        expected = [scipy.linalg.subspace_angles(x, y).max() for x, y in zip(a, b)]
        assert np.array_equal(got, expected)


def test_stacked_subspace_distance_rejects_mismatched_stacks():
    a = np.zeros((4, 3, 1))
    a[:, 0, 0] = 1.0
    with pytest.raises(ValueError):
        subspace_distance(a, a[:3])
    with pytest.raises(ValueError):
        subspace_distance(a[0], a[0])


def test_frames_of_long_lines_against_mpmath_and_lapack():
    """The products that ``split --window 48`` decomposes along the
    benchmark's lines, with condition numbers to 7.9e28: each frame the
    kernel reads lies within FRAME_UNITS eps s1 / gap of 60-digit mpmath,
    and its worst vector no farther than LAPACK's worst."""
    gens = GeneratorSet(list(partial_hyperbolic_matrices()))
    lines = [make_line(spec, 48) for spec in
             [{"pattern": [1]}, {"pattern": [2]}] + random_lines(2, 48, 41)]
    ms = np.concatenate([store[:, 1:].reshape(-1, 3, 3)
                         for traj in build_trajectory(gens, lines)
                         for store in (traj.forward, traj.backward)])
    s, vt = singular_frames(ms, 1)
    _, lapack_s, lapack_vt = np.linalg.svd(ms)
    assert (lapack_s[:, 0] / lapack_s[:, -1]).max() > 1e28
    worst = {"closed form": 0.0, "LAPACK": 0.0}
    for m, *frames in zip(ms, s, vt, lapack_s, lapack_vt):
        for name, (values, vectors) in zip(worst, (frames[:2], frames[2:])):
            angles, gaps, _, top = mpmath_frame_errors(m, values, vectors)
            units = max(a / (EPS * top / g) for a, g in zip(angles, gaps))
            worst[name] = max(worst[name], units)
    assert worst["closed form"] <= FRAME_UNITS
    assert worst["closed form"] <= worst["LAPACK"], worst
