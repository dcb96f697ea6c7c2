"""``repdyn split`` runs its lines as stacks: each line must come out as alone.

Every document below mixes lines; each line's summary entry and CSV bytes
are compared with a run of the same command on a document holding only
that line.  The mixes cover periodic and seeded lines, a degenerate line
between good ones (its group falls back to one line at a time), a line
whose products overflow (it stops early and forms a group of its own) and
n = 5 with k = 2.
"""

import json
import warnings

import numpy as np
import pytest

from repdyn import flowbundle
from repdyn.cli import main
from repdyn.domination import GeneratorSet
from repdyn.errors import WindowBoundsError
from repdyn.flowbundle import (
    build_trajectory,
    estimate_splitting,
    measure_rates,
    splitting_at,
)
from repdyn.words import FlowLineWindow, random_word

from conftest import partial_hyperbolic_matrices, rotation3


def seeded_lines(count, half_width, rank, seed):
    rng = np.random.default_rng(seed)
    return [
        {"letters": list(random_word(rank, 2 * half_width, rng).letters),
         "offset": int(rng.integers(-2, 3))}
        for _ in range(count)
    ]


def conjugated_pair(n, seed):
    """Two conjugates of diag(4, 2, ..., 1/4) by seeded orthogonal matrices."""
    rng = np.random.default_rng(seed)
    d = np.diag(2.0 ** np.linspace(2, -2, n))
    out = []
    for _ in range(2):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        out.append(q @ d @ q.T)
    return out


def mix(name):
    """``(matrices, line specs, k, window)`` of one mixed document."""
    if name == "periodic-and-seeded":
        specs = [{"pattern": [1]}, {"pattern": [2]}, {"pattern": [1, -2]}]
        specs += seeded_lines(5, 20, 2, 21)
        return list(partial_hyperbolic_matrices()), specs, 1, 20
    if name == "degenerate-in-the-middle":
        # the periodic line [1, 2] has P(2) = diag(1, 1, 1/2); the lines on
        # either side of it keep every gap and reach as far
        mats = [np.diag([2.0, 1.0, 0.5]), np.diag([0.5, 1.0, 1.0])]
        good = {"letters": [1] * 9 + [2, 1, 1], "offset": 0}
        return mats, [{"pattern": [1]}, {"pattern": [1, 2]}, good], 1, 6
    if name == "overflow":
        # f grows by 1e10 a step.  The first explicit line follows it both
        # ways and overflows near t = 30 in each direction; the second
        # overflows as soon forward but never backward, so the two form
        # groups of their own
        g, h = partial_hyperbolic_matrices()
        f = 1e10 * rotation3(0.3, 1.1) @ np.diag([2.0, 1.0, 0.5]) @ rotation3(0.3, 1.1).T
        width = 40
        grows = {"letters": [-3] * (width - 1) + [1] + [3] * width, "offset": 0}
        ahead = seeded_lines(1, width // 2, 2, 24)[0]["letters"]
        forward = {"letters": ahead + [3] * width, "offset": 0}
        specs = [{"pattern": [1]}, grows, {"pattern": [2]}, forward]
        specs += seeded_lines(2, width, 2, 22)
        return [g, h, f], specs, 1, width
    if name == "n5-k2":
        specs = [{"pattern": [1]}, {"pattern": [2, 1]}] + seeded_lines(3, 16, 2, 23)
        return conjugated_pair(5, 11), specs, 2, 16
    raise ValueError(name)


def write_doc(path, mats, specs):
    doc = {
        "n": mats[0].shape[0],
        "generators": [{"name": f"g{i}", "rows": m.tolist()} for i, m in enumerate(mats)],
        "lines": specs,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def run_split(tmp_path, name, mats, specs, k, window):
    """Exit code, summary, output directory and ConditionWarning count."""
    doc = tmp_path / f"{name}.json"
    write_doc(doc, mats, specs)
    out = tmp_path / name
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["split", "--input", str(doc), "--k", str(k),
                     "--window", str(window), "--out-dir", str(out)])
    assert not [w for w in caught if not issubclass(w.category, UserWarning)]
    summary = json.loads((out / "split_summary.json").read_text(encoding="utf-8"))
    return code, summary, out, len(caught)


def without_place(entry):
    return {key: value for key, value in entry.items() if key not in ("index", "label")}


@pytest.mark.parametrize(
    "name", ["periodic-and-seeded", "degenerate-in-the-middle", "overflow", "n5-k2"]
)
def test_each_line_matches_a_run_on_it_alone(name, tmp_path):
    mats, specs, k, window = mix(name)
    code, summary, out, warned = run_split(tmp_path, "all", mats, specs, k, window)
    entries = summary["results"]["lines"]
    assert [e["index"] for e in entries] == list(range(len(specs)))
    alone_codes, alone_warned = [], 0
    for j, spec in enumerate(specs):
        one_code, one, one_out, one_warned = run_split(
            tmp_path, f"line{j}", mats, [spec], k, window)
        alone_codes.append(one_code)
        alone_warned += one_warned
        (entry,) = one["results"]["lines"]
        assert without_place(entries[j]) == without_place(entry), j
        csv = out / f"split_line{j}.csv"
        if entry["status"] == "ok":
            assert csv.read_bytes() == (one_out / "split_line0.csv").read_bytes(), j
        else:
            assert not csv.exists()
    assert code == max(alone_codes)
    assert summary["csv_files"] == [
        f"split_line{j}.csv" for j, e in enumerate(entries) if e["status"] == "ok"
    ]
    # warnings come one per stacked call, and only where a line alone warns
    assert warned <= alone_warned
    assert (warned > 0) == (alone_warned > 0)

    statuses = [e["status"] for e in entries]
    if name == "degenerate-in-the-middle":
        assert statuses == ["ok", "degenerate", "ok"]
    else:
        assert set(statuses) == {"ok"}
    if name == "overflow":
        assert [e["truncated"] for e in entries] == [False, True, False, True, False, False]


def test_a_degenerate_group_falls_back_to_single_lines(tmp_path, monkeypatch):
    mats, specs, k, window = mix("degenerate-in-the-middle")
    sizes = []
    estimate = flowbundle.estimate_splitting

    def counted(traj, k):
        sizes.append(traj.size)
        return estimate(traj, k)

    monkeypatch.setattr(flowbundle, "estimate_splitting", counted)
    run_split(tmp_path, "all", mats, specs, k, window)
    # one stacked attempt over the group, then each line on its own
    assert sizes == [3, 1, 1, 1]


def test_fallback_warns_no_more_than_single_lines(tmp_path):
    # the stacked attempt warns about the periodic line of h before the
    # explicit line degenerates in the rate frames (its relative product
    # over [1, 5] is the identity in its two lower coordinates); the
    # warnings of the dropped attempt must not add to those of the lines
    g, h = np.diag([2.0, 1.0, 0.5]), np.diag([1.0, 1.0, 2.0])
    steep = np.diag([100.0, 1.0, 0.01])
    mats = [g, h, steep]
    specs = [{"letters": [1] * 8 + [1, 1, 2, 1, 2, 1, 1, 1], "offset": 0},
             {"pattern": [3]}]
    code, summary, _, warned = run_split(tmp_path, "all", mats, specs, 1, 8)
    assert code == 2
    entries = summary["results"]["lines"]
    assert [e["status"] for e in entries] == ["degenerate", "ok"]
    assert entries[0]["time"] is None
    alone = [run_split(tmp_path, f"line{j}", mats, [spec], 1, 8)[3]
             for j, spec in enumerate(specs)]
    assert alone[0] == 0 and alone[1] > 0
    assert warned == sum(alone)


@pytest.mark.filterwarnings("ignore::repdyn.errors.ConditionWarning")
def test_group_results_equal_single_line_results():
    mats, specs, k, window = mix("overflow")
    gens = GeneratorSet(mats)
    lines = [
        FlowLineWindow.periodic(s["pattern"], window) if "pattern" in s
        else FlowLineWindow(s["letters"], len(s["letters"]) // 2, s["offset"])
        for s in specs
    ]
    groups = build_trajectory(gens, lines)
    assert sorted(p for g in groups for p in g.positions) == list(range(len(lines)))
    # each overflowing line stops early and is a group of its own
    both, ahead = ([g for g in groups if p in g.positions] for p in (1, 3))
    assert both[0].positions == (1,) and ahead[0].positions == (3,)
    assert both[0].truncated and ahead[0].truncated
    assert both[0].t_forward == ahead[0].t_forward < window
    assert both[0].t_backward < ahead[0].t_backward == window
    assert not any(g.truncated for g in groups if g.positions not in ((1,), (3,)))
    for group in groups:
        splits = estimate_splitting(group, k)
        rates = measure_rates(group, k)
        assert len(splits) == len(rates) == group.size
        for b, position in enumerate(group.positions):
            [alone] = build_trajectory(gens, [lines[position]])
            assert alone.positions == (0,) and alone.lines == (lines[position],)
            assert alone.truncated == group.truncated
            assert np.array_equal(alone.forward[0], group.forward[b])
            assert np.array_equal(alone.backward[0], group.backward[b])
            [split] = estimate_splitting(alone, k)
            [rate] = measure_rates(alone, k)
            assert split.residual == splits[b].residual
            assert split.independence == splits[b].independence
            for block in ("v_plus", "v_zero", "v_minus"):
                assert np.array_equal(getattr(split, block).basis,
                                      getattr(splits[b], block).basis)
            for curve, values in rate.curves.items():
                assert np.array_equal(values, rates[b].curves[curve]), curve
            assert rate.a_plus == rates[b].a_plus and rate.A_minus == rates[b].A_minus


def overflow_groups():
    """The trajectory groups of the overflow mix and its splitting index."""
    mats, specs, k, window = mix("overflow")
    lines = [
        FlowLineWindow.periodic(s["pattern"], window) if "pattern" in s
        else FlowLineWindow(s["letters"], len(s["letters"]) // 2, s["offset"])
        for s in specs
    ]
    return build_trajectory(GeneratorSet(mats), lines), k


@pytest.mark.filterwarnings("ignore::repdyn.errors.ConditionWarning")
def test_splitting_at_rows_equal_one_pair_calls():
    groups, k = overflow_groups()
    # the line that overflows forward only reaches unequally far each way
    assert any(g.t_forward != g.t_backward for g in groups)
    for group in groups:
        tf, tb = group.t_forward, group.t_backward
        pairs = [(tf, tb), (2, tb), (tf, 3), (tf - 1, 2), (tf // 2, tb // 2 + 1)]
        forward, backward = zip(*pairs)
        stacked = splitting_at(group, k, forward, backward)
        n = group.dim
        for block, p in zip(stacked, (k, n - 2 * k, k)):
            assert block.shape == (group.size, len(pairs), n, p)
            assert not block.flags.writeable
        for i, (t_f, t_b) in enumerate(pairs):
            for block, one in zip(stacked, splitting_at(group, k, [t_f], [t_b])):
                assert np.array_equal(block[:, i], one[:, 0]), (group.positions, i)


def test_splitting_at_refuses_unpaired_and_outside_times():
    groups, k = overflow_groups()
    [ahead] = [g for g in groups if 3 in g.positions]
    tf, tb = ahead.t_forward, ahead.t_backward
    assert tf < tb
    with pytest.raises(WindowBoundsError):
        splitting_at(ahead, k, [2, 3], [2])
    for forward, backward in [([-1], [2]), ([2], [-1]), ([tf + 1], [2]), ([tb], [2]),
                              ([2], [tb + 1])]:
        with pytest.raises(WindowBoundsError):
            splitting_at(ahead, k, forward, backward)
