"""The benchmark workloads: seeded inputs, commands, checks, oracles.

Each part turns a seed into JSON input documents and a list of ``repdyn``
command lines, and knows how to check what those commands wrote.  A
workload runs several parts back to back.  The program only ever sees the
generated JSON.  Every command runs with ``--threads 1`` so results depend
neither on ``REPDYN_THREADS`` nor on the core count.

The exhaustive parts need one exact fixture each (the forced verdict
and the closed-form oracle depend on it), so their seed varies only how the
input is spelled: generator names and whether exact entries are written as
``"p/q"`` strings or as floats.  Both spellings parse to the same float64
values.  ``sampled-long`` draws its words from the seed, ``affine-triple``
its translations and ``flow-lines`` its lines and geodesics.

The matrices repeat the test suite's fixtures rather than importing them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from repdyn.cli import validate_report
from scipy.linalg import expm

LOG2 = math.log(2.0)

# Errors below this read as this: the reports make no claim finer than
# 100x below the tightest tolerance the program applies (gap_tol 1e-10),
# and variation down there is rounding order, not accuracy.
ORACLE_FLOOR = 1e-12

# An exit code of 2 is accepted instead of the forced verdict only when the
# summary itself shows an accuracy defect of at least this size.
ACCURACY_DEFECT = 1e-6

EXHAUSTIVE_GAP_LENGTH = 9
SAMPLED_LENGTH = 24
SAMPLES_PER_SPHERE = 300
CONE_LEVELS = 8
AFFINE_LENGTH = 8
SPLIT_WINDOW = 48
RANDOM_LINES = 12
METRIC_WINDOW = 40
RANDOM_GEODESICS = 27

_NAME_PAIRS = (("a", "b"), ("g1", "g2"), ("x", "y"), ("s", "t"), ("u", "v"))


# ---------------------------------------------------------------------------
# fixtures (the same matrices as the test suite's conftest)


def _rotation2(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _rotation3(theta_xy, theta_yz):
    rxy = np.eye(3)
    rxy[:2, :2] = _rotation2(theta_xy)
    ryz = np.eye(3)
    ryz[1:, 1:] = _rotation2(theta_yz)
    return rxy @ ryz


def _ping_pong():
    """diag(4, 1/4) and its conjugate by a quarter-turn rotation."""
    a = np.diag([4.0, 0.25])
    r = _rotation2(np.pi / 4)
    return a, r @ a @ r.T


def _partial_hyperbolic_pair():
    """diag(2, 1, 1/2) and its conjugate by a fixed rotation."""
    g = np.diag([2.0, 1.0, 0.5])
    r = _rotation3(0.6, 0.7)
    return g, r @ g @ r.T


def _so21_pair():
    """Two elements preserving Q = antidiag(1, 1, 1): every word has an
    eigenvalue 1 and a middle singular value 1 exactly."""
    x = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    return expm(0.3 * x), np.diag([math.exp(0.5), 1.0, math.exp(-0.5)])


def _rows(m):
    return [[float(v) for v in row] for row in m]


def _ping_pong_doc(rng, pad):
    """Ping-pong pair, optionally padded with a trivial block to n = 3."""
    a, b = _ping_pong()
    if rng.integers(2):
        a_rows = [["4", 0], [0, "1/4"]]
    else:
        a_rows = _rows(a)
    b_rows = _rows(b)
    if pad:
        a_rows = [[*row, 0] for row in a_rows] + [[0, 0, 1]]
        b_rows = [[*row, 0.0] for row in b_rows] + [[0.0, 0.0, 1.0]]
    names = _NAME_PAIRS[int(rng.integers(len(_NAME_PAIRS)))]
    return {
        "n": 3 if pad else 2,
        "generators": [
            {"name": names[0], "rows": a_rows},
            {"name": names[1], "rows": b_rows},
        ],
    }


def _reduced_letters(rng, length, rank, avoid_first=None):
    """A uniformly random reduced letter sequence, optionally avoiding one
    first letter."""
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    out = []
    while len(out) < length:
        letter = alphabet[int(rng.integers(len(alphabet)))]
        if out and letter == -out[-1]:
            continue
        if not out and letter == avoid_first:
            continue
        out.append(letter)
    return out


# ---------------------------------------------------------------------------
# checking helpers


def count_sphere(rank, length):
    return 1 if length == 0 else 2 * rank * (2 * rank - 1) ** (length - 1)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    if "\r" in text:
        raise ValueError(f"{os.path.basename(path)}: CR line ending")
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError(f"{os.path.basename(path)}: empty file")
    return rows[0], rows[1:]


def read_summary(out_dir, command):
    with open(os.path.join(out_dir, f"{command}_summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def output_fingerprint(out_dir):
    """What two runs of one config must agree on: every CSV's bytes and
    every summary minus its timestamp."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            out[name] = sha256_file(path)
        elif name.endswith("_summary.json"):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc.pop("timestamp", None)
            out[name] = json.dumps(doc, sort_keys=True)
    return out


def _word_letters(name, names):
    """Letter count of a word name like ``"a b^-1"``; checks each token."""
    if name == "e":
        return 0
    tokens = name.split(" ")
    for tok in tokens:
        base = tok[:-3] if tok.endswith("^-1") else tok
        if base not in names:
            raise ValueError(f"word name {name!r} has unknown letter {tok!r}")
    return len(tokens)


def _close(a, b, tol):
    return abs(float(a) - float(b)) <= tol


@dataclass
class Outcome:
    """What checking one run's output found."""

    problems: list = field(default_factory=list)
    oracle_err: float = float("nan")
    oracle_parts: dict = field(default_factory=dict)
    words: int = 0  # stays 0 when the output could not be read


class Check:
    """Accumulates problems so one bad file does not hide the next."""

    def __init__(self):
        self.problems = []

    def expect(self, cond, message):
        if not cond:
            self.problems.append(message)
        return bool(cond)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One seeded input set with its commands and output checks."""

    name = ""
    why = ""

    def __init__(self, seed):
        self.seed = int(seed)
        self.rng = np.random.default_rng([self.seed, sum(map(ord, self.name))])
        self.docs = self.make_inputs()

    def make_inputs(self) -> dict:
        raise NotImplementedError

    def commands(self, in_dir, out_dir) -> list:
        raise NotImplementedError

    def write_inputs(self, in_dir):
        os.makedirs(in_dir, exist_ok=True)
        for fname, doc in self.docs.items():
            with open(os.path.join(in_dir, fname), "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")

    def check(self, out_dir, codes) -> Outcome:
        """Check one run's outputs and read the closed-form oracle."""
        chk = Check()
        summaries = {}
        for argv, code in zip(self.commands("", out_dir), codes):
            command = argv[0]
            try:
                summary = read_summary(out_dir, command)
            except (OSError, ValueError) as e:
                chk.expect(False, f"{command}: no readable summary ({e})")
                continue
            problems = validate_report(summary)
            chk.expect(not problems, f"{command}: summary invalid: {problems}")
            for fname in summary.get("csv_files", []):
                chk.expect(os.path.exists(os.path.join(out_dir, fname)),
                           f"{command}: listed CSV {fname} missing")
            summaries[command] = (summary, code)
        out = Outcome()
        if len(summaries) == len(codes) and not chk.problems:
            try:
                parts = self.check_outputs(chk, out_dir, summaries)
                out.oracle_parts = {name: oracle for name, (oracle, _) in parts.items()}
                out.oracle_err = max(out.oracle_parts.values())
                out.words = sum(words for _, words in parts.values())
            except (KeyError, IndexError, TypeError, ValueError) as e:
                chk.expect(False, f"malformed output: {type(e).__name__}: {e}")
        out.problems = chk.problems
        return out

    def check_outputs(self, chk, out_dir, summaries):
        """Workload-specific checks; returns {part name: (oracle error, words)}."""
        raise NotImplementedError


def _check_dominate(chk, out_dir, summary, code, names, expect_count):
    """Shared checks of a ping-pong domination scan.

    Returns the SL2 residual ``max_L |logak_min + lognk1_max|``.
    """
    res = summary["results"]
    spheres = res["spheres"]
    residual = max(abs(s["logak_min"] + s["lognk1_max"]) for s in spheres)
    if code == 2:
        # a refutation is accepted only as a reported accuracy defect
        chk.expect(res["verdict"] == "refuted" and residual >= ACCURACY_DEFECT,
                   f"dominate exit 2 without an accuracy defect ({res['verdict']})")
    chk.expect(not res["truncated"], "dominate: scan truncated")
    chk.expect(res["L_used"] == res["L_max"] == len(spheres),
               "dominate: sphere list does not reach max length")
    header, rows = read_csv(os.path.join(out_dir, "dominate_spheres.csv"))
    chk.expect(header == ["L", "gap_min", "logak_min", "lognk1_max", "gap_mean",
                          "count", "argmin_word"], f"dominate: CSV header {header}")
    chk.expect(len(rows) == len(spheres),
               f"dominate: {len(rows)} CSV rows for {len(spheres)} spheres")
    for row, s in zip(rows, spheres):
        L = int(row[0])
        chk.expect(L == s["L"], f"dominate: CSV row for L={row[0]} out of order")
        chk.expect(int(row[5]) == s["count"] == expect_count(L),
                   f"dominate: L={L} count {row[5]}, expected {expect_count(L)}")
        for col, key in ((1, "gap_min"), (2, "logak_min"), (3, "lognk1_max"),
                         (4, "gap_mean")):
            chk.expect(float(row[col]) == s[key],
                       f"dominate: L={L} CSV {key} {row[col]} != summary {s[key]}")
        chk.expect(float(row[1]) > 0.0, f"dominate: L={L} gap_min not positive")
        chk.expect(_word_letters(row[6], names) == L,
                   f"dominate: L={L} argmin word {row[6]!r} has wrong length")
    return residual


class ExhaustiveGap(Workload):
    name = "exhaustive-gap"

    def make_inputs(self):
        return {"pingpong.json": _ping_pong_doc(self.rng, pad=False)}

    def commands(self, in_dir, out_dir):
        return [["dominate", "--input", os.path.join(in_dir, "pingpong.json"),
                 "--k", "1", "--max-length", str(EXHAUSTIVE_GAP_LENGTH),
                 "--policy", "exhaustive", "--threads", "1", "--out-dir", out_dir]]

    def check_outputs(self, chk, out_dir, summaries):
        summary, code = summaries["dominate"]
        names = [g["name"] for g in self.docs["pingpong.json"]["generators"]]
        chk.expect(code in (0, 2), f"dominate: exit {code}")
        if code == 0:
            chk.expect(summary["results"]["verdict"] == "dominated",
                       f"dominate: verdict {summary['results']['verdict']}")
        residual = _check_dominate(chk, out_dir, summary, code, names,
                                   lambda L: count_sphere(2, L))
        words = sum(s["count"] for s in summary["results"]["spheres"])
        return {self.name: (residual, words)}


class SampledLong(Workload):
    name = "sampled-long"

    def make_inputs(self):
        self.sample_seed = int(self.rng.integers(2**31))
        return {"pingpong.json": _ping_pong_doc(self.rng, pad=False)}

    def commands(self, in_dir, out_dir):
        return [["dominate", "--input", os.path.join(in_dir, "pingpong.json"),
                 "--k", "1", "--max-length", str(SAMPLED_LENGTH),
                 "--policy", "sampled", "--samples", str(SAMPLES_PER_SPHERE),
                 "--seed", str(self.sample_seed), "--threads", "1",
                 "--out-dir", out_dir]]

    def check_outputs(self, chk, out_dir, summaries):
        summary, code = summaries["dominate"]
        names = [g["name"] for g in self.docs["pingpong.json"]["generators"]]
        # a sampled scan can refute but never certify
        chk.expect(code in (3, 2), f"dominate: exit {code}")
        if code == 3:
            chk.expect(summary["results"]["verdict"] == "inconclusive",
                       f"dominate: verdict {summary['results']['verdict']}")
        residual = _check_dominate(chk, out_dir, summary, code, names,
                                   lambda L: SAMPLES_PER_SPHERE)
        words = sum(s["count"] for s in summary["results"]["spheres"])
        return {self.name: (residual, words)}


class ConeReport(Workload):
    name = "cone-report"

    def make_inputs(self):
        return {"padded.json": _ping_pong_doc(self.rng, pad=True)}

    def commands(self, in_dir, out_dir):
        return [["spectrum", "--input", os.path.join(in_dir, "padded.json"),
                 "--k", "1", "--m-max", str(CONE_LEVELS), "--policy", "exhaustive",
                 "--threads", "1", "--out-dir", out_dir]]

    def check_outputs(self, chk, out_dir, summaries):
        summary, code = summaries["spectrum"]
        res = summary["results"]
        names = [g["name"] for g in self.docs["padded.json"]["generators"]]
        contain, invol = res["containment"], res["involution"]
        chk.expect(contain["passed"], f"spectrum: containment failed ({contain['reason']})")
        if code == 0:
            chk.expect(invol["passed"], "spectrum: exit 0 with involution failure")
        elif code == 2:
            # the involution symmetry is exact, so its failure is accuracy
            chk.expect(not invol["passed"] and invol["max_deviation"] < ACCURACY_DEFECT,
                       "spectrum: exit 2 not explained by the involution deviation")
        else:
            chk.expect(False, f"spectrum: exit {code}")
        chk.expect(res["m_used"] == CONE_LEVELS and not res["truncated"],
                   f"spectrum: stopped at m={res['m_used']}")

        header, rows = read_csv(os.path.join(out_dir, "spectrum_cone_samples.csv"))
        chk.expect(header == ["m", "c1", "c2", "c3", "zero_indices", "word"],
                   f"spectrum: CSV header {header}")
        per_level = {}
        bad = 0
        for row in rows:
            m = int(row[0])
            per_level[m] = per_level.get(m, 0) + 1
            c = [float(v) for v in row[1:4]]
            ok = (
                c[0] >= c[1] >= c[2]
                and abs(sum(c)) <= ACCURACY_DEFECT  # log |det| = 0
                and c[1] == 0.0  # the trivial block's eigenvalue 1
                and row[4] == "2"
                and _word_letters(row[5], names) == m
            )
            bad += not ok
        chk.expect(bad == 0, f"spectrum: {bad} sample rows break the closed form")
        for m in range(1, CONE_LEVELS + 1):
            chk.expect(per_level.get(m, 0) == count_sphere(2, m),
                       f"spectrum: m={m} has {per_level.get(m, 0)} rows,"
                       f" expected {count_sphere(2, m)}")
        chk.expect(contain["n_samples"] == len(rows),
                   "spectrum: n_samples differs from the CSV")
        hull_header, hull_rows = read_csv(os.path.join(out_dir, "spectrum_hull.csv"))
        chk.expect(hull_header == ["c1", "c2", "c3"] and
                   len(hull_rows) == res["hull_vertex_count"] >= 2,
                   "spectrum: hull CSV does not match the summary")
        return {self.name: (invol["max_deviation"], len(rows))}


class AffineTriple(Workload):
    name = "affine-triple"

    def make_inputs(self):
        h, d = _so21_pair()
        names = _NAME_PAIRS[int(self.rng.integers(len(_NAME_PAIRS)))]
        translations = []
        for _ in range(2):
            t = self.rng.uniform(-1.0, 1.0, size=3)
            t[np.abs(t) < 0.05] = 0.05  # keep every translation nonzero
            translations.append([float(v) for v in t])
        return {"affine.json": {
            "n": 3,
            "generators": [{"name": names[0], "rows": _rows(h)},
                           {"name": names[1], "rows": _rows(d)}],
            "translations": translations,
        }}

    def commands(self, in_dir, out_dir):
        return [["affine", "--input", os.path.join(in_dir, "affine.json"),
                 "--max-length", str(AFFINE_LENGTH), "--policy", "exhaustive",
                 "--threads", "1", "--out-dir", out_dir]]

    def check_outputs(self, chk, out_dir, summaries):
        summary, code = summaries["affine"]
        res = summary["results"]
        names = [g["name"] for g in self.docs["affine.json"]["generators"]]
        hks, eig, bounded = res["hks"], res["eigenvalue_norm_one"], res["bounded_singular"]
        oracle = max(bounded["C_hat"], eig["worst_deviation"])
        if code == 2:
            # both statistics are exactly 0 on SO(2,1), so a miss this small
            # is rounding against the screens' tolerances
            chk.expect(hks["passed"] and oracle < ACCURACY_DEFECT,
                       "affine: exit 2 not explained by an accuracy-level miss")
        else:
            # on SO(2,1) each of the three screens passes
            chk.expect(code == 0 and res["overall_pass"] and hks["passed"]
                       and eig["passed"] and bounded["passed"], f"affine: exit {code}")
        for part in (hks, eig, bounded):
            chk.expect(not part["truncated"], "affine: scan truncated")
        header, rows = read_csv(os.path.join(out_dir, "affine_hks.csv"))
        chk.expect(header == ["L", "max_normalized_det", "word"],
                   f"affine: CSV header {header}")
        chk.expect([int(r[0]) for r in rows] == list(range(1, AFFINE_LENGTH + 1)),
                   "affine: CSV lengths are not 1..max")
        for r in rows:
            chk.expect(float(r[1]) <= hks["threshold"],
                       f"affine: L={r[0]} normalized det {r[1]} over threshold")
            chk.expect(_word_letters(r[2], names) == int(r[0]),
                       f"affine: L={r[0]} worst word {r[2]!r} has wrong length")
        chk.expect(max(float(r[1]) for r in rows) == hks["max_normalized"],
                   "affine: CSV maximum differs from the summary")
        words = sum(count_sphere(2, L) for L in range(1, AFFINE_LENGTH + 1))
        return {self.name: (oracle, words)}


class FlowLines(Workload):
    name = "flow-lines"

    def make_inputs(self):
        g, h = _partial_hyperbolic_pair()
        lines = [{"pattern": [1]}, {"pattern": [2]}]
        for _ in range(RANDOM_LINES):
            lines.append({"letters": _reduced_letters(self.rng, 2 * SPLIT_WINDOW, 2),
                          "offset": 0})
        split_doc = {
            "n": 3,
            "generators": [{"name": "g", "rows": _rows(g)},
                           {"name": "h", "rows": _rows(h)}],
            "lines": lines,
        }
        # the first three are a periodic geodesic and its shifts by 1 and 2,
        # whose distances to it have the closed form 2 s / log 2
        fwd = [1, 2] * (METRIC_WINDOW // 2 + 2)
        back = [2, 1] * (METRIC_WINDOW // 2 + 2)
        geos = [{"anchor": [], "forward": fwd, "backward": back}]
        anchor = []
        for s in (1, 2):
            anchor = anchor + [fwd[s - 1]]
            shifted_back = ([-l for l in fwd[:s]][::-1] + back)[: len(back)]
            geos.append({"anchor": list(anchor), "forward": fwd[s:] + fwd[:s],
                         "backward": shifted_back})
        n = METRIC_WINDOW + 4
        for _ in range(RANDOM_GEODESICS):
            forward = _reduced_letters(self.rng, n, 2)
            # forward[0] != backward[0] keeps the junction at the anchor reduced
            backward = _reduced_letters(self.rng, n, 2, avoid_first=forward[0])
            anchor = _reduced_letters(self.rng, int(self.rng.integers(0, 4)), 2)
            geos.append({"anchor": anchor, "forward": forward, "backward": backward})
        return {"split.json": split_doc,
                "geodesics.json": {"rank": 2, "geodesics": geos}}

    def commands(self, in_dir, out_dir):
        return [
            ["split", "--input", os.path.join(in_dir, "split.json"), "--k", "1",
             "--window", str(SPLIT_WINDOW), "--threads", "1", "--out-dir", out_dir],
            ["flowmetric", "--input", os.path.join(in_dir, "geodesics.json"),
             "--window", str(METRIC_WINDOW), "--threads", "1", "--out-dir", out_dir],
        ]

    def check_outputs(self, chk, out_dir, summaries):
        summary, code = summaries["split"]
        res = summary["results"]
        n_lines = len(self.docs["split.json"]["lines"])
        chk.expect(code == 0 and not res["any_degenerate"], f"split: exit {code}")
        chk.expect(len(res["lines"]) == n_lines,
                   f"split: {len(res['lines'])} lines reported, {n_lines} given")
        oracle = 0.0
        steps = 0
        rate_keys = ("a_plus", "a_minus", "aprime_plus_zero", "aprime_zero_minus")
        for j, entry in enumerate(res["lines"]):
            if not chk.expect(entry["status"] == "ok", f"split: line {j} {entry['status']}"):
                continue
            chk.expect(entry["residual"] >= 0.0 and entry["independence"] > 0.0,
                       f"split: line {j} residual or independence out of range")
            if entry["label"] in ("periodic:1", "periodic:2"):
                # a power of diag(2, 1, 1/2) or its conjugate: every rate is log 2
                oracle = max(oracle, *(abs(entry["rates"][k] - LOG2) for k in rate_keys))
            header, rows = read_csv(os.path.join(out_dir, f"split_line{j}.csv"))
            chk.expect(header[:2] == ["t", "residual"] and len(header) == 6,
                       f"split: line {j} CSV header {header}")
            chk.expect([int(r[0]) for r in rows] == list(range(SPLIT_WINDOW + 1)),
                       f"split: line {j} CSV times are not 0..{SPLIT_WINDOW}")
            steps += 2 * SPLIT_WINDOW
        chk.expect(oracle > 0.0 or any(e["status"] != "ok" for e in res["lines"][:2]),
                   "split: periodic lines missing")

        summary, code = summaries["flowmetric"]
        res = summary["results"]
        n_geo = len(self.docs["geodesics.json"]["geodesics"])
        chk.expect(code == 0, f"flowmetric: exit {code}")
        pairs = res["pairs"]
        chk.expect(res["count"] == n_geo and len(pairs) == n_geo * (n_geo + 1) // 2,
                   "flowmetric: pair count")
        by_pair = {(p["i"], p["j"]): p for p in pairs}
        for i in range(n_geo):
            chk.expect(by_pair[(i, i)]["value"] == 0.0, f"flowmetric: d({i},{i}) != 0")
        for s in (1, 2):
            chk.expect(_close(by_pair[(0, s)]["value"], s * 2.0 / LOG2, 1e-3),
                       f"flowmetric: shift-{s} distance off its closed form")
        chk.expect(all(p["value"] >= 0.0 and p["tail_bound"] > 0.0 for p in pairs),
                   "flowmetric: negative distance or tail bound")
        header, rows = read_csv(os.path.join(out_dir, "flowmetric_pairs.csv"))
        chk.expect(header == ["i", "j", "value", "tail_bound"],
                   f"flowmetric: CSV header {header}")
        chk.expect(len(rows) == len(pairs) and
                   all(float(r[2]) == p["value"] for r, p in zip(rows, pairs)),
                   "flowmetric: CSV differs from the summary")
        return {self.name: (oracle, steps + len(pairs))}


class Combined(Workload):
    """Parts run back to back as one workload and checked part by part.

    Its oracle error is the largest of its parts'.  The info line of every
    run keeps each part's reading.
    """

    parts = ()

    def make_inputs(self):
        self.members = [part(self.seed) for part in self.parts]
        docs = {}
        for member in self.members:
            docs.update(member.docs)
        return docs

    def commands(self, in_dir, out_dir):
        return [argv for m in self.members for argv in m.commands(in_dir, out_dir)]

    def check_outputs(self, chk, out_dir, summaries):
        parts = {}
        for member in self.members:
            parts.update(member.check_outputs(chk, out_dir, summaries))
        return parts


class ExhaustiveSpheres(Combined):
    name = "exhaustive-spheres"
    why = ("dominate L<=9, spectrum m<=8 and affine L<=8 on exhaustive spheres:"
           " node extension, leaf statistics, sphere reduction, 13k-row report,"
           " 24 affine sphere passes; involution fails.")
    parts = (ExhaustiveGap, ConeReport, AffineTriple)


class SampledAndFlow(Combined):
    name = "sampled-and-flow"
    why = ("Sampled dominate to L=24 (evaluate, word draw; accuracy collapse),"
           " then split on 14 lines and flowmetric on 30 geodesics (flowbundle,"
           " linalg, ConditionWarnings). No exhaustive engine.")
    parts = (SampledLong, FlowLines)


WORKLOADS = {w.name: w for w in (ExhaustiveSpheres, SampledAndFlow)}
