"""The summary reports: built from the report objects, checked against the
same key lists, and written or refused cleanly for any argv and input."""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from repdyn import affine, cli, domination, flowbundle, spectrum, words
from repdyn.cli import build_parser, main, validate_report

from conftest import (
    form_preserving_matrix,
    partial_hyperbolic_matrices,
    ping_pong_matrices,
    rotation2,
)

COMMANDS = ("dominate", "spectrum", "split", "affine", "flowmetric")
EXIT_CODES = {0, 2, 3, 64, 70}


def rows(m):
    return [[float(x) for x in row] for row in m]


def summaries(out_dir):
    """Every summary in ``out_dir``, by command."""
    found = {}
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
        if name.endswith("_summary.json"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                found[name[: -len("_summary.json")]] = json.load(fh)
    return found


# ---------------------------------------------------------------------------
# random argv and input documents

# entries are mostly numbers and "p/q" strings; a flaw puts in a bad one
NUMBERS = st.one_of(st.integers(-3, 3), st.floats(-3, 3),
                    st.sampled_from(["1/2", "-3/4", "5/3", "2"]))
BAD_VALUES = st.sampled_from([True, False, None, "1/0", "x", "", [], 1.5, 0, -1, 4])


def reduced_letters(draw, rank, min_size, max_size):
    """A reduced word over ``rank`` generators, as a letter list."""
    alphabet = [l for i in range(1, rank + 1) for l in (i, -i)]
    out = []
    for _ in range(draw(st.integers(min_size, max_size))):
        choices = [l for l in alphabet if not out or l != -out[-1]]
        out.append(draw(st.sampled_from(choices)))
    return out


def flawed(draw, doc):
    """``doc`` with one or two flaws: a bad value somewhere or a missing key."""
    for _ in range(draw(st.integers(1, 2))):
        holder = doc
        while True:  # walk down to a random place
            key = draw(st.sampled_from(
                list(holder) if isinstance(holder, dict) else range(len(holder))))
            if not (holder[key] and isinstance(holder[key], (dict, list))
                    and draw(st.booleans())):
                break
            holder = holder[key]
        if isinstance(holder, dict) and draw(st.booleans()):
            del holder[key]
        else:
            holder[key] = draw(BAD_VALUES)
    return doc


@st.composite
def generator_docs(draw):
    n = draw(st.integers(2, 3))
    rank = draw(st.integers(1, 3))
    square = st.lists(st.lists(NUMBERS, min_size=n, max_size=n), min_size=n, max_size=n)
    doc = {"n": n, "generators": [{"name": "abc"[i], "rows": draw(square)}
                                  for i in range(rank)]}
    if draw(st.booleans()):
        doc["translations"] = draw(st.lists(
            st.lists(NUMBERS, min_size=n, max_size=n), min_size=rank, max_size=rank))
    if draw(st.booleans()):
        doc["lines"] = [
            {"pattern": reduced_letters(draw, rank, 1, 3)} if draw(st.booleans())
            else {"letters": reduced_letters(draw, rank, 1, 12),
                  "offset": draw(st.integers(-1, 2))}
            for _ in range(draw(st.integers(1, 3)))
        ]
    return doc


@st.composite
def geodesic_docs(draw):
    rank = draw(st.integers(1, 3))
    return {"rank": rank, "geodesics": [
        {"anchor": reduced_letters(draw, rank, 0, 3),
         "forward": reduced_letters(draw, rank, 1, 7),
         "backward": reduced_letters(draw, rank, 1, 7)}
        for _ in range(draw(st.integers(1, 3)))
    ]}


@st.composite
def invocations(draw):
    """A command, its flags, its input document and the kind of out-dir.

    Half the examples are hostile: their flags may take bad values and
    their document has a flaw (a bad value, a missing key, a duplicate or
    empty generator name).  One in four has an out-dir that is a file or a
    path under one.

    Flags that size a scan are always given small values, so no example
    runs a default-sized scan."""
    hostile = draw(st.booleans())
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]

    def flag(name, good, bad, always=False):
        if always or draw(st.booleans()):
            values = st.one_of(good, bad) if hostile else good
            argv.extend([name, str(draw(values))])

    if command in ("dominate", "spectrum", "split"):
        flag("--k", st.just(1), st.integers(-1, 3))
    if command in ("dominate", "affine"):
        low = 3 if command == "dominate" else 2
        flag("--max-length", st.integers(low, 4), st.integers(0, low), always=True)
    if command == "spectrum":
        flag("--m-max", st.integers(2, 4), st.integers(0, 2), always=True)
    if command in ("spectrum", "affine"):
        flag("--tol", st.sampled_from(["0", "1e-9", "0.1", "2"]),
             st.sampled_from(["-1", "nan", "inf", "x", ""]))
    if command in ("split", "flowmetric"):
        flag("--window", st.integers(1, 6), st.integers(-1, 9), always=True)
    flag("--policy", st.sampled_from(["exhaustive", "sampled"]), st.just("both"))
    flag("--samples", st.integers(1, 6), st.integers(-2, 0))
    flag("--seed", st.integers(0, 2**40), st.integers(-3, -1))
    doc = draw(geodesic_docs() if command == "flowmetric" else generator_docs())
    if hostile:
        if command != "flowmetric" and len(doc["generators"]) > 1 and draw(st.booleans()):
            doc["generators"][-1]["name"] = draw(st.sampled_from(["a", ""]))
        else:
            doc = flawed(draw, doc)
    out_dir = draw(st.sampled_from(["fresh"] * 6 + ["file", "under-file"]))
    return argv, doc, out_dir


class TestAnyInvocation:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(invocations())
    def test_exit_code_and_summaries(self, case):
        argv, doc, out_kind = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            out_dir = {"fresh": os.path.join(tmp, "out"), "file": path,
                       "under-file": os.path.join(path, "out")}[out_kind]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                code = main(argv + ["--input", path, "--out-dir", out_dir])
            assert code in EXIT_CODES, (code, err.getvalue())
            assert "Traceback" not in err.getvalue()
            written = summaries(out_dir)
            event(f"exit {code}")
            if out_kind != "fresh":
                assert code == 64
            if code in (0, 2, 3):
                assert list(written) == [argv[0]]
            for command, summary in written.items():
                assert validate_report(summary) == []
                assert sorted(summary["results"]) == sorted(
                    cli._REQUIRED_RESULT_KEYS[command])
            if code == 70:
                assert "numeric failure" in err.getvalue()


# ---------------------------------------------------------------------------
# the results dicts as the commands built them by hand, field by field


def reference_jsonable(value):
    """The walk the hand-built results went through: words already replaced."""
    if isinstance(value, dict):
        return {str(k): reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if np.isfinite(value) else None
    if isinstance(value, np.ndarray):
        return reference_jsonable(value.tolist())
    return value


def word_entry(gens, word):
    if word is None:
        return None
    return {"name": gens.word_name(word), "letters": list(word.letters)}


def handbuilt_dominate(args):
    gens, _ = cli.load_generator_set(args)
    rep = domination.domination_scan(gens, k=args.k, L_max=args.max_length,
                                     policy=cli._policy(args))
    return {
        "verdict": rep.verdict,
        "k": rep.k,
        "n": rep.n,
        "L_max": rep.L_max,
        "L_used": rep.L_used,
        "truncated": rep.truncated,
        "A_hat": rep.A_hat,
        "C_hat": rep.C_hat,
        "A_ci": rep.A_ci,
        "A_lower": rep.A_lower,
        "C_lower": rep.C_lower,
        "top_slope": rep.top_slope,
        "bottom_slope": rep.bottom_slope,
        "L0": rep.L0,
        "refuted_at": rep.refuted_at,
        "violating_word": word_entry(gens, rep.violating_word),
        "gap_tol": rep.gap_tol,
        "spheres": [
            {
                "L": r.length,
                "count": r.count,
                "gap_min": r.gap_min,
                "gap_mean": r.gap_mean,
                "logak_min": r.logak_min,
                "lognk1_max": r.lognk1_max,
                "argmin_word": word_entry(gens, r.argmin),
            }
            for r in rep.spheres
        ],
    }


def handbuilt_spectrum(args):
    gens, _ = cli.load_generator_set(args)
    cone = spectrum.sample_cone(gens, m_max=args.m_max, policy=cli._policy(args))
    contain = spectrum.containment_check(cone, k=args.k, tol=args.tol)
    invol = spectrum.involution_symmetry_check(cone)
    return {
        "m_max": cone.m_max,
        "m_used": cone.m_used,
        "truncated": cone.truncated,
        "hull_affine_dim": cone.hull_affine_dim,
        "hull_vertex_count": int(cone.hull_vertices.shape[0]),
        "hausdorff": cone.hausdorff,
        "containment": {
            "passed": contain.passed,
            "reason": contain.reason,
            "k": contain.k,
            "window": list(contain.window),
            "C_hat": contain.C_hat,
            "n_samples": contain.n_samples,
            "n_zero": contain.n_zero,
            "n_empty": contain.n_empty,
            "violations": [
                {"m": m, "word": word_entry(gens, w), "zero_indices": list(idx)}
                for m, w, idx in contain.violations[:50]
            ],
        },
        "involution": {
            "passed": invol.passed,
            "max_deviation": invol.max_deviation,
            "tol": invol.tol,
            "mismatch_count": len(invol.mismatches),
        },
    }


def handbuilt_split(args):
    gens, doc = cli.load_generator_set(args)
    lines = cli.parse_lines(doc, gens, args.window, args.input)
    outcomes = [None] * len(lines)
    for traj in flowbundle.build_trajectory(gens, [line for _, line in lines]):
        for j, outcome in zip(traj.positions, cli._split_outcomes(traj, args.k)):
            outcomes[j] = traj, outcome
    line_results = []
    for j, ((label, _), (traj, outcome)) in enumerate(zip(lines, outcomes)):
        entry = {"label": label, "index": j, "status": "ok", "detail": "",
                 "truncated": traj.truncated}
        line_results.append(entry)
        if isinstance(outcome, cli._DEGENERATE):
            entry.update(
                status="degenerate",
                detail=str(outcome),
                time=getattr(outcome, "time", None),
            )
            continue
        split, rates, _ = outcome
        entry.update(
            k=split.k,
            residual=split.residual,
            independence=split.independence,
            bases={
                "expanding": split.v_plus.basis,
                "neutral": split.v_zero.basis,
                "contracting": split.v_minus.basis,
            },
            rates={
                "a_plus": rates.a_plus,
                "A_plus": rates.A_plus,
                "a_minus": rates.a_minus,
                "A_minus": rates.A_minus,
                "aprime_plus_zero": rates.aprime_plus_zero,
                "Aprime_plus_zero": rates.Aprime_plus_zero,
                "aprime_zero_minus": rates.aprime_zero_minus,
                "Aprime_zero_minus": rates.Aprime_zero_minus,
            },
        )
    return {
        "window": args.window,
        "k": args.k,
        "any_degenerate": any(e["status"] == "degenerate" for e in line_results),
        "lines": line_results,
    }


def handbuilt_affine(args):
    gens, _ = cli.load_affine_set(args)
    hks, eig, bounded = affine.affine_checks(
        gens, L_max=args.max_length, policy=cli._policy(args), tol=args.tol
    )
    return {
        "overall_pass": hks.passed and (eig.passed or bounded.passed),
        "hks": {
            "passed": hks.passed,
            "threshold": hks.threshold,
            "max_normalized": hks.max_normalized,
            "worst_word": word_entry(gens, hks.worst_word),
            "worst_length": hks.worst_length,
            "first_fail_length": hks.first_fail_length,
            "truncated": hks.truncated,
        },
        "eigenvalue_norm_one": {
            "passed": eig.passed,
            "criterion": eig.criterion,
            "tol": eig.tol,
            "worst_deviation": eig.worst_deviation,
            "worst_word": word_entry(gens, eig.worst_word),
            "worst_length": eig.worst_length,
            "truncated": eig.truncated,
        },
        "bounded_singular": {
            "passed": bounded.passed,
            "criterion": bounded.criterion,
            "C_hat": bounded.C_hat,
            "slope": bounded.slope,
            "slope_ci": bounded.slope_ci,
            "truncated": bounded.truncated,
        },
    }


def handbuilt_flowmetric(args):
    geos = cli.parse_geodesics(cli.load_json(args.input), args.input)
    pairs = [
        {"i": i, "j": j, "value": r.value, "tail_bound": r.tail_bound}
        for i in range(len(geos))
        for j, r in enumerate(words.flow_metric(geos[i], geos[i:], args.window), start=i)
    ]
    return {"window": args.window, "count": len(geos), "pairs": pairs}


HANDBUILT_RESULTS = {"dominate": handbuilt_dominate, "spectrum": handbuilt_spectrum,
                     "split": handbuilt_split, "affine": handbuilt_affine,
                     "flowmetric": handbuilt_flowmetric}


def seeded_doc(seed, n, count, scale):
    rng = np.random.default_rng(seed)
    mats = [np.eye(n) + scale * rng.standard_normal((n, n)) for _ in range(count)]
    return {"n": n, "generators": [{"name": f"g{i}", "rows": rows(m)}
                                   for i, m in enumerate(mats)]}


def edge_docs():
    _, b = ping_pong_matrices()
    g, h = partial_hyperbolic_matrices()
    r3 = np.eye(3)
    r3[:2, :2] = rotation2(0.9)
    rng = np.random.default_rng(30)
    return {
        "ping-pong": {"n": 2, "generators": [
            {"name": "a", "rows": [["4", 0], [0, "1/4"]]}, {"name": "b", "rows": rows(b)}]},
        "rotation": {"n": 2, "generators": [
            {"name": "r", "rows": rows(rotation2(0.7))},
            {"name": "d", "rows": [[2, 0], [0, 0.5]]}],
            "translations": [[1, 0], ["1/3", -2]]},
        "partial": {"n": 3, "generators": [
            {"name": "g", "rows": rows(g)}, {"name": "h", "rows": rows(h)}]},
        "random3": seeded_doc(3, 3, 2, 0.9),
        "random4": seeded_doc(8, 4, 3, 0.6),
        "degenerate-lines": {"n": 3, "generators": [
            {"name": "r", "rows": rows(r3)},
            {"name": "s", "rows": rows(np.diag([3, 1, 1 / 3]))}],
            "lines": [{"pattern": [1]}, {"pattern": [2]}, {"pattern": [1, 2]},
                      {"letters": [2, 1, 2, 2, 1, 2, 2, 1, 2, 2, 1, 2], "offset": 1}]},
        "form-preserving": {"n": 3, "generators": [
            {"name": "h", "rows": rows(form_preserving_matrix())}],
            "translations": [[0.3, "-1/2", 0.1]]},
        "geodesics": {"rank": 2, "geodesics": [
            {"anchor": list(words.random_word(2, 2, rng).letters),
             "forward": list(words.random_word(2, 6, rng).letters),
             "backward": list(words.random_word(2, 6, rng).letters)}
            for _ in range(4)]},
    }


# label: (input document, argv, exit code)
EDGE_CASES = {
    "dominate-dominated": ("ping-pong", ["dominate", "--max-length", "5"], 0),
    "dominate-refuted": ("rotation", ["dominate", "--max-length", "4"], 2),
    "dominate-n3": ("random3", ["dominate", "--max-length", "5"], 0),
    "dominate-sampled": ("random3", ["dominate", "--max-length", "6", "--policy",
                                     "sampled", "--samples", "20", "--seed", "4"], 3),
    "spectrum-violations": ("random3", ["spectrum", "--m-max", "5", "--tol", "0.3"], 2),
    "spectrum-no-gap": ("random4", ["spectrum", "--m-max", "4"], 2),
    "spectrum-sampled": ("partial", ["spectrum", "--m-max", "4", "--policy", "sampled",
                                     "--samples", "12", "--seed", "5"], 0),
    "split-degenerate": ("degenerate-lines", ["split", "--window", "10"], 2),
    "split-periodic": ("partial", ["split", "--window", "12"], 0),
    "affine-pass": ("form-preserving", ["affine", "--max-length", "4"], 0),
    "affine-fail": ("rotation", ["affine", "--max-length", "4"], 2),
    "affine-sampled": ("random3", ["affine", "--max-length", "4", "--policy", "sampled",
                                   "--samples", "9", "--seed", "2", "--tol", "0.1"], 2),
    "flowmetric": ("geodesics", ["flowmetric", "--window", "4"], 0),
}


@pytest.fixture(scope="module")
def edge_summaries(tmp_path_factory):
    """Each edge case run once: ``(argv, exit code, summary path)`` by label."""
    root = tmp_path_factory.mktemp("edge")
    inputs = {}
    for name, doc in edge_docs().items():
        inputs[name] = str(root / f"{name}.json")
        with open(inputs[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    runs = {}
    for label, (doc, argv, _) in EDGE_CASES.items():
        argv = argv + ["--input", inputs[doc], "--out-dir", str(root / label)]
        code = main(argv)
        runs[label] = argv, code, root / label / f"{argv[0]}_summary.json"
    return runs


@pytest.mark.parametrize("label", sorted(EDGE_CASES))
class TestEdgeCaseSummaries:
    def test_same_bytes_as_the_hand_built_results(self, edge_summaries, label):
        argv, code, path = edge_summaries[label]
        assert code == EDGE_CASES[label][2]
        text = path.read_text(encoding="utf-8")
        summary = json.loads(text)
        reference = reference_jsonable(
            HANDBUILT_RESULTS[argv[0]](build_parser().parse_args(argv)))
        # the rest of the summary, timestamp included, is taken as written
        expected = json.dumps({**summary, "results": reference}, indent=2, sort_keys=True)
        assert text == expected + "\n"
        results = summary["results"]
        if label == "dominate-refuted":
            assert results["violating_word"]["letters"]
        if label == "spectrum-violations":
            assert len(results["containment"]["violations"]) == 50
        if label == "split-degenerate":
            assert {e["status"] for e in results["lines"]} == {"ok", "degenerate"}

    def test_every_written_key_is_required(self, edge_summaries, label):
        argv, _, path = edge_summaries[label]
        summary = json.loads(path.read_text(encoding="utf-8"))
        assert validate_report(summary) == []
        for key in summary["results"]:
            broken = json.loads(json.dumps(summary))
            del broken["results"][key]
            assert validate_report(broken) == [f"results missing key {key}"]


# ---------------------------------------------------------------------------
# the summary text, written in one walk, against json.dumps


class LetterNames:
    """Names words as `GeneratorSet.word_name` does, without matrices."""

    def word_name(self, word):
        return " ".join(f"g{abs(l)}" + "^-1" * (l < 0) for l in word.letters) or "e"


def plain_json(value, gens):
    """The walk the summaries took to plain JSON data before `json.dumps`."""
    if type(value) in cli._SUMMARY_KEYS:
        value = cli._fields(value)
    if isinstance(value, dict):
        return {str(k): plain_json(v, gens) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain_json(v, gens) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if np.isfinite(value) else None
    if isinstance(value, np.ndarray):
        return plain_json(value.tolist(), gens)
    if isinstance(value, words.Word):
        return {"name": gens.word_name(value), "letters": list(value.letters)}
    return value


def emitted(value, gens=None):
    out = []
    cli._emit_json(value, gens, out, "")
    return "".join(out)


FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, 5e-324, -1e308, 0.1]))
WORDS = st.lists(st.sampled_from([1, -1, 2, -2, 3]), max_size=5).filter(
    lambda ls: all(a != -b for a, b in zip(ls, ls[1:]))).map(words.Word)
TEXT = st.text(st.characters(codec="utf-8"), max_size=8)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.booleans().map(np.bool_),
    st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(-128, 127).map(np.int8),
    FLOATS, FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    TEXT, TEXT.map(np.str_), WORDS,
    st.lists(FLOATS, max_size=4).map(np.array),
    st.lists(st.integers(-5, 5), max_size=3).map(lambda v: np.array(v, dtype=np.int32)),
    st.builds(domination.SphereRecord, length=st.integers(0, 30), count=st.integers(0, 9),
              gap_min=FLOATS, gap_mean=FLOATS, argmin=WORDS, logak_min=FLOATS,
              lognk1_max=FLOATS),
)
DOCUMENTS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.one_of(TEXT, st.integers(-12, 12)), inner, max_size=4),
    ),
    max_leaves=25,
)


class TestSummaryText:
    @given(DOCUMENTS)
    @example({1: "int key", "1": "string key", 10: [], 2: {}, "": -0.0})
    @example([True, 1, np.bool_(False), np.int64(0), 1.0, np.float32(0.1)])
    @example({"nan": float("nan"), "inf": [np.inf, -np.inf], "zero": [-0.0, np.float64(-0.0)]})
    @example(["\x00\x1f\x7f\u2028\"\\/", "é ü ß", "\U0001f600", "", [], {}, ()])
    @example({"b": {"y": [{}], "x": [[]]}, "a": [[1, [2, [3]]]]})
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    def test_same_text_as_json_dumps(self, doc):
        gens = LetterNames()
        expected = json.dumps(plain_json(doc, gens), indent=2, sort_keys=True)
        assert emitted(doc, gens) == expected

    def test_unknown_objects_are_refused(self):
        for value in (object(), {"a": [1, {2, 3}]}, b"bytes"):
            with pytest.raises(TypeError):
                json.dumps(plain_json(value, None))
            with pytest.raises(TypeError):
                emitted(value)
