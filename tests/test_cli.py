"""Command-line behavior: exit codes, report files, and determinism."""

import csv
import io
import json

import numpy as np
import pytest

from repdyn import spectrum
from repdyn.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    format_number,
    main,
    validate_report,
)
from repdyn.domination import GeneratorSet

from conftest import form_preserving_matrix, ping_pong_matrices, rotation2


def write_doc(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def rows(m):
    return [[float(x) for x in row] for row in m]


@pytest.fixture()
def ping_pong_doc(tmp_path):
    a, b = ping_pong_matrices()
    return write_doc(
        tmp_path / "gens.json",
        {
            "n": 2,
            "generators": [
                {"name": "a", "rows": [["4", 0], [0, "1/4"]]},
                {"name": "b", "rows": rows(b)},
            ],
        },
    )


@pytest.fixture()
def padded_doc(tmp_path):
    # the same ping-pong pair with a trivial extra coordinate, so the
    # index-1 window in three dimensions is nonempty
    a, b = ping_pong_matrices()
    pad = [[*row, 0.0] for row in rows(a)] + [[0.0, 0.0, 1.0]]
    pad_b = [[*row, 0.0] for row in rows(b)] + [[0.0, 0.0, 1.0]]
    return write_doc(
        tmp_path / "padded.json",
        {
            "n": 3,
            "generators": [
                {"name": "a", "rows": pad},
                {"name": "b", "rows": pad_b},
            ],
        },
    )


@pytest.fixture()
def affine_doc(tmp_path):
    h = form_preserving_matrix()
    return write_doc(
        tmp_path / "aff.json",
        {
            "n": 3,
            "generators": [{"name": "h", "rows": rows(h)}],
            "translations": [[0.3, "-1/2", 0.1]],
        },
    )


def read_summary(out_dir, command):
    with open(out_dir / f"{command}_summary.json", encoding="utf-8") as fh:
        return json.load(fh)


class TestInputHandling:
    def test_missing_file(self, tmp_path, capsys):
        rc = main(["dominate", "--input", str(tmp_path / "none.json"),
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "none.json" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2,\n "generators": [}', encoding="utf-8")
        rc = main(["dominate", "--input", str(bad), "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_semantic_error_reports_path(self, tmp_path, capsys):
        doc = {"n": 2, "generators": [{"name": "a", "rows": [[1, 2], [3, "x"]]}]}
        rc = main(["dominate", "--input", write_doc(tmp_path / "g.json", doc),
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "rows[1][1]" in capsys.readouterr().err

    def test_rationals_are_exact(self, tmp_path):
        doc = {
            "n": 2,
            "generators": [{"name": "a", "rows": [["4", "0"], ["0", "1/4"]]}],
        }
        out = tmp_path / "out"
        rc = main(["dominate", "--input", write_doc(tmp_path / "g.json", doc),
                   "--k", "1", "--max-length", "4", "--out-dir", str(out)])
        assert rc == EXIT_OK
        summary = read_summary(out, "dominate")
        assert summary["results"]["verdict"] == "dominated"

    def test_boolean_entry_rejected(self, tmp_path, capsys):
        doc = {"n": 2, "generators": [{"name": "a", "rows": [[1, 0], [0, True]]}]}
        rc = main(["dominate", "--input", write_doc(tmp_path / "g.json", doc),
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "boolean" in capsys.readouterr().err

    def test_nonfinite_constant_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"n": 2, "generators": [{"name": "a", "rows": [[1, 0], [0, NaN]]}]}',
            encoding="utf-8",
        )
        rc = main(["dominate", "--input", str(bad), "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE

    def test_bad_k_is_usage_error(self, ping_pong_doc, tmp_path, capsys):
        # the same contract covers values rejected while parsing arguments
        for argv in (
            ["dominate", "--k", "2"],
            ["dominate", "--policy", "sampled", "--samples", "0"],
            ["dominate", "--policy", "sampled", "--samples", "-3"],
            ["spectrum", "--policy", "sampled", "--samples", "0"],
            ["spectrum", "--tol", "-1"],
            ["spectrum", "--tol", "nan"],
            ["spectrum", "--tol", "inf"],
            ["affine", "--tol", "nan"],
            ["affine", "--tol", "-0.5"],
            ["affine", "--max-length", "0"],
        ):
            rc = main(argv + ["--input", ping_pong_doc, "--out-dir", str(tmp_path)])
            assert rc == EXIT_USAGE, argv
            err = capsys.readouterr().err
            assert "must" in err and "Traceback" not in err, argv


class TestVerdictExitCodes:
    def test_dominated_exits_zero(self, ping_pong_doc, tmp_path):
        out = tmp_path / "out"
        rc = main(["dominate", "--input", ping_pong_doc, "--k", "1",
                   "--max-length", "5", "--out-dir", str(out)])
        assert rc == EXIT_OK
        summary = read_summary(out, "dominate")
        assert validate_report(summary) == []
        assert summary["results"]["verdict"] == "dominated"
        assert (out / "dominate_spheres.csv").exists()

    def test_refuted_exits_two(self, tmp_path):
        doc = {"n": 2, "generators": [{"name": "r", "rows": rows(rotation2(0.7))}]}
        rc = main(["dominate", "--input", write_doc(tmp_path / "r.json", doc),
                   "--k", "1", "--max-length", "4", "--out-dir", str(tmp_path)])
        assert rc == EXIT_FAIL

    def test_sampled_scan_is_inconclusive(self, ping_pong_doc, tmp_path):
        rc = main(["dominate", "--input", ping_pong_doc, "--k", "1",
                   "--max-length", "5", "--policy", "sampled", "--samples", "10",
                   "--seed", "3", "--out-dir", str(tmp_path)])
        assert rc == EXIT_INCONCLUSIVE

    def test_spectrum_bad_k_refused_before_sampling(self, padded_doc, tmp_path, capsys,
                                                    monkeypatch):
        # n = 3 allows only k = 1; the check must come before the cone is built
        def sample_cone(*args, **kwargs):
            raise AssertionError("the cone was sampled before k was checked")

        monkeypatch.setattr(spectrum, "sample_cone", sample_cone)
        out = tmp_path / "out"
        rc = main(["spectrum", "--input", padded_doc, "--k", "2", "--m-max", "9",
                   "--out-dir", str(out)])
        assert rc == EXIT_USAGE
        assert "must" in capsys.readouterr().err
        assert not (out / "spectrum_cone_samples.csv").exists()

    def test_spectrum_empty_window_fails(self, ping_pong_doc, tmp_path):
        rc = main(["spectrum", "--input", ping_pong_doc, "--k", "1",
                   "--m-max", "3", "--out-dir", str(tmp_path)])
        assert rc == EXIT_FAIL

    def test_spectrum_without_k_gap_fails(self, tmp_path):
        # the seeded 4x4 triple of the engine tests: words with a complex top
        # eigenvalue pair have v1 = v2, so C_hat is 0 while no index escapes
        rng = np.random.default_rng(8)
        mats = [np.eye(4) + 0.6 * rng.standard_normal((4, 4)) for _ in range(3)]
        doc = {"n": 4, "generators": [{"name": f"g{i}", "rows": rows(m)}
                                      for i, m in enumerate(mats)]}
        out = tmp_path / "out"
        rc = main(["spectrum", "--input", write_doc(tmp_path / "g.json", doc),
                   "--k", "1", "--m-max", "4", "--out-dir", str(out)])
        assert rc == EXIT_FAIL
        contain = read_summary(out, "spectrum")["results"]["containment"]
        assert contain["passed"] is False
        assert contain["reason"] == "no k-gap"
        assert contain["C_hat"] == 0.0
        assert contain["violations"] == []

    def test_affine_fixture_passes(self, affine_doc, tmp_path):
        out = tmp_path / "out"
        rc = main(["affine", "--input", affine_doc, "--max-length", "4",
                   "--out-dir", str(out)])
        assert rc == EXIT_OK
        summary = read_summary(out, "affine")
        assert summary["results"]["hks"]["passed"] is True

    def test_split_degenerate_exits_two(self, tmp_path):
        r3 = np.eye(3)
        r3[:2, :2] = rotation2(0.9)
        doc = {"n": 3, "generators": [{"name": "r", "rows": rows(r3)}]}
        out = tmp_path / "out"
        rc = main(["split", "--input", write_doc(tmp_path / "r.json", doc),
                   "--k", "1", "--window", "8", "--out-dir", str(out)])
        assert rc == EXIT_FAIL
        summary = read_summary(out, "split")
        assert summary["results"]["any_degenerate"] is True
        assert summary["results"]["lines"][0]["status"] == "degenerate"

    def test_flowmetric_window_too_wide(self, tmp_path, capsys):
        doc = {
            "rank": 2,
            "geodesics": [
                {"anchor": [], "forward": [1] * 10, "backward": [-1] * 10}
            ],
        }
        rc = main(["flowmetric", "--input", write_doc(tmp_path / "g.json", doc),
                   "--window", "20", "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE


class TestDeterminism:
    def run_twice(self, argv, tmp_path, command):
        outs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            assert main(argv + ["--out-dir", str(out)]) == EXIT_OK
            body = {}
            for f in sorted(out.glob("*.csv")):
                body[f.name] = f.read_bytes()
            summary = read_summary(out, command)
            summary.pop("timestamp")
            outs.append((body, summary))
        return outs

    def test_dominate_reports_identical(self, ping_pong_doc, tmp_path):
        one, two = self.run_twice(
            ["dominate", "--input", ping_pong_doc, "--k", "1",
             "--max-length", "5"],
            tmp_path, "dominate",
        )
        assert one == two

    def test_threaded_run_matches_serial(self, ping_pong_doc, tmp_path):
        serial = tmp_path / "serial"
        threaded = tmp_path / "threaded"
        for out, threads in ((serial, "1"), (threaded, "4")):
            assert main(["dominate", "--input", ping_pong_doc, "--k", "1",
                         "--max-length", "6", "--threads", threads,
                         "--out-dir", str(out)]) == EXIT_OK
        assert (serial / "dominate_spheres.csv").read_bytes() == (
            threaded / "dominate_spheres.csv"
        ).read_bytes()

    def test_sampled_seed_reproduces(self, padded_doc, tmp_path):
        one, two = self.run_twice(
            ["spectrum", "--input", padded_doc, "--k", "1", "--m-max", "4",
             "--policy", "sampled", "--samples", "8", "--seed", "11"],
            tmp_path, "spectrum",
        )
        assert one == two


class TestSpectrumCsv:
    """The column-wise cone CSV against per-sample formatting."""

    @pytest.mark.parametrize("mats", [
        [np.diag([1.0, 1.0, 0.5]), np.diag([2.0, 1.0, 1.0])],
        [np.eye(3), np.diag([4.0, 1.0, 0.25])],
    ])
    def test_rows_match_per_sample_formatting(self, mats, tmp_path):
        doc = {"n": 3, "generators": [
            {"name": f"g{i}", "rows": rows(m)} for i, m in enumerate(mats)
        ]}
        out = tmp_path / "out"
        main(["spectrum", "--input", write_doc(tmp_path / "g.json", doc),
              "--k", "1", "--m-max", "4", "--out-dir", str(out)])
        gens = GeneratorSet(mats, names=["g0", "g1"])
        cone = spectrum.sample_cone(gens, 4)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["m", "c1", "c2", "c3", "zero_indices", "word"])
        masks = set()
        for m, level in cone.levels.items():
            for r in range(len(level)):
                zero = ";".join(str(i + 1) for i in np.flatnonzero(level.zero[r]))
                masks.add(zero)
                writer.writerow([str(m), *(format_number(x) for x in level.jordan[r]),
                                 zero, gens.word_name(level.word(r))])
        assert len(masks) > 1
        text = (out / "spectrum_cone_samples.csv").read_text(encoding="utf-8")
        assert text == expected.getvalue()


class TestReportValidation:
    def test_round_trip_revalidates(self, ping_pong_doc, tmp_path):
        out = tmp_path / "out"
        main(["dominate", "--input", ping_pong_doc, "--k", "1",
              "--max-length", "4", "--out-dir", str(out)])
        summary = read_summary(out, "dominate")
        assert validate_report(summary) == []

    def test_validation_spots_missing_keys(self):
        assert validate_report({"command": "dominate"})
        report = {
            "command": "nonsense", "version": "0", "timestamp": "t",
            "config": {"seed": 0}, "results": {}, "csv_files": [],
        }
        assert any("unknown command" in p for p in validate_report(report))

    def test_validation_requires_seed(self, ping_pong_doc, tmp_path):
        out = tmp_path / "out"
        main(["dominate", "--input", ping_pong_doc, "--k", "1",
              "--max-length", "4", "--out-dir", str(out)])
        summary = read_summary(out, "dominate")
        del summary["config"]["seed"]
        assert any("seed" in p for p in validate_report(summary))
