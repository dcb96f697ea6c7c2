"""Command-line behavior: exit codes, report files, and determinism."""

import csv
import dataclasses
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repdyn
from repdyn import affine, cli, domination, linalg, spectrum, words
from repdyn.cli import (
    CSV_CHUNK_ROWS,
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    format_floats,
    format_number,
    main,
    validate_report,
    write_csv,
)
from repdyn.domination import GeneratorSet

from conftest import (
    form_preserving_matrix,
    partial_hyperbolic_matrices,
    ping_pong_matrices,
    reference_flow_metric,
    rotation2,
    sym_power,
)


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

    def test_duplicate_name_reports_path(self, tmp_path, capsys):
        doc = {"n": 2, "generators": [{"name": "a", "rows": [[2, 0], [0, 1]]},
                                      {"name": "a", "rows": [[1, 0], [0, 2]]}]}
        rc = main(["dominate", "--input", write_doc(tmp_path / "g.json", doc),
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "generators[1].name: 'a' names an earlier generator" in err

    def test_singular_affine_linear_part_names_the_generator(self, tmp_path, capsys):
        doc = {"n": 2, "generators": [{"name": "a", "rows": [[1, 2], [2, 4]]}],
               "translations": [[0, 1]]}
        path = write_doc(tmp_path / "g.json", doc)
        rc = main(["affine", "--input", path, "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"repdyn: {path}: generator 1 is numerically singular\n")

    @pytest.mark.parametrize("command", ["dominate", "spectrum", "split", "affine"])
    def test_generator_with_nonfinite_inverse_refused_at_load(self, command, tmp_path,
                                                              capsys):
        doc = {"n": 3, "generators": [{"name": "a", "rows": rows(1e-310 * np.eye(3))}]}
        path = write_doc(tmp_path / "g.json", doc)
        rc = main([command, "--input", path, "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"repdyn: {path}: generator 1 has a non-finite inverse\n")

    def test_split_in_dimension_two_says_it_needs_three(self, tmp_path, capsys):
        doc = {"n": 2, "generators": [{"name": "a", "rows": [[2, 0], [0, 0.5]]}]}
        rc = main(["split", "--input", write_doc(tmp_path / "g.json", doc),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_USAGE == 64
        assert capsys.readouterr().err == (
            "repdyn: a splitting with a nonempty neutral block needs dimension"
            " at least 3, got 2\n")

    @pytest.mark.parametrize("n, k, message", [
        (3, "2", "k must satisfy 1 <= k < 1.5 for dimension 3"),
        (4, "2", "k must satisfy 1 <= k < 2 for dimension 4"),
        (2, "1", "a splitting with a nonempty neutral block needs dimension at least 3,"
                 " got 2"),
    ])
    def test_split_k_is_refused_before_any_line_is_walked(self, n, k, message, tmp_path,
                                                         capsys, monkeypatch):
        def walked(*args):
            raise AssertionError("a line was walked")

        monkeypatch.setattr(cli.flowbundle, "build_trajectory", walked)
        doc = {"n": n, "generators": [{"name": "a", "rows": rows(np.diag(
            [2.0] + [1.0] * (n - 2) + [0.5]))}]}
        out = tmp_path / "out"
        rc = main(["split", "--input", write_doc(tmp_path / "g.json", doc), "--k", k,
                   "--out-dir", str(out)])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == f"repdyn: {message}\n"
        assert list(out.iterdir()) == []

    def test_split_k_is_refused_on_lines_that_overflow_within_two_steps(self, tmp_path,
                                                                       capsys):
        # every line of 1e200 times a rotation overflows at t = 2, which made
        # it degenerate (exit 2) before the index was read
        r3 = np.eye(3)
        r3[:2, :2] = rotation2(0.9)
        doc = {"n": 3, "generators": [{"name": "r", "rows": rows(1e200 * r3)}]}
        rc = main(["split", "--input", write_doc(tmp_path / "r.json", doc), "--k", "2",
                   "--window", "6", "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            "repdyn: k must satisfy 1 <= k < 1.5 for dimension 3\n")

    def test_split_line_with_one_step_each_way_is_refused(self, tmp_path, capsys):
        # an explicit line of 8 letters at offset 3 reaches one step back
        doc = {"n": 3,
               "generators": [{"name": "g", "rows": [[2, 0, 0], [0, 1, 0], [0, 0, 0.5]]}],
               "lines": [{"pattern": [1]}, {"letters": [1] * 8, "offset": 3}]}
        path = write_doc(tmp_path / "g.json", doc)
        out = tmp_path / "out"
        rc = main(["split", "--input", path, "--k", "1", "--window", "6",
                   "--out-dir", str(out)])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"repdyn: {path}: lines[1]: usable half width 1;"
            " need at least two steps in each direction\n")
        rc = main(["split", "--input", path, "--k", "1", "--window", "1",
                   "--out-dir", str(out)])
        assert rc == EXIT_USAGE
        assert "argument --window: must be at least 2, got 1" in capsys.readouterr().err
        assert list(out.iterdir()) == []  # no report for the other line

    def test_split_line_with_pattern_and_letters_is_refused(self, tmp_path, capsys):
        # read as its pattern, this line would drop its letters and offset
        doc = {"n": 3,
               "generators": [{"name": "g", "rows": [[2, 0, 0], [0, 1, 0], [0, 0, 0.5]]}],
               "lines": [{"pattern": [1]},
                         {"pattern": [1], "letters": [1] * 6, "offset": 9}]}
        path = write_doc(tmp_path / "g.json", doc)
        out = tmp_path / "out"
        rc = main(["split", "--input", path, "--k", "1", "--window", "6",
                   "--out-dir", str(out)])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            f'repdyn: {path}: lines[1]: give "pattern" or "letters", not both\n')
        assert list(out.iterdir()) == []

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
            ["dominate", "--policy", "sampled", "--seed", "-1"],
            ["spectrum", "--policy", "sampled", "--samples", "0"],
            ["spectrum", "--tol", "-1"],
            ["spectrum", "--tol", "nan"],
            ["spectrum", "--tol", "inf"],
            ["affine", "--tol", "nan"],
            ["affine", "--tol", "-0.5"],
            ["affine", "--max-length", "0"],
            ["split", "--window", "0"],
            ["split", "--window", "-4"],
            ["flowmetric", "--window", "0"],
        ):
            rc = main(argv + ["--input", ping_pong_doc, "--out-dir", str(tmp_path)])
            assert rc == EXIT_USAGE, argv
            err = capsys.readouterr().err
            assert "must" in err and "Traceback" not in err, argv
            if "--window" in argv:
                low = 2 if argv[0] == "split" else 1
                assert f"must be at least {low}" in err, argv


    @pytest.mark.parametrize("under", [False, True])
    def test_out_dir_in_a_file_is_usage_error(self, ping_pong_doc, capsys, under):
        # an existing file, or a path under one
        out = os.path.join(ping_pong_doc, "out") if under else ping_pong_doc
        rc = main(["dominate", "--input", ping_pong_doc, "--max-length", "3",
                   "--out-dir", out])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"repdyn: cannot create output directory {out}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry", ["1e400", "-1e400", 10 ** 400],
                             ids=["1e400", "-1e400", "401-digit-integer"])
    def test_entry_past_float64_names_the_entry(self, entry, tmp_path, capsys):
        doc = {"n": 2, "generators": [{"name": "a", "rows": [[entry, 0], [0, 1]]}]}
        path = write_doc(tmp_path / "g.json", doc)
        rc = main(["dominate", "--input", path, "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"repdyn: {path}: generators[0].rows[0][0]: value outside the float64 range\n")

    def test_translation_past_float64_names_the_entry(self, tmp_path, capsys):
        doc = {"n": 2, "generators": [{"name": "a", "rows": [[2, 0], [0, 1]]}],
               "translations": [["1e400", 0]]}
        path = write_doc(tmp_path / "g.json", doc)
        rc = main(["affine", "--input", path, "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"repdyn: {path}: translations[0][0]: value outside the float64 range\n")

    @pytest.mark.parametrize("text, value", [
        ("3/4", 0.75), (" 3/4 ", 0.75), ("1_0", 10.0), ("+.5", 0.5), ("1.e5", 1e5),
        ("-2.5E-3", -0.0025), ("1e-400", 0.0), ("-1e-400", -0.0), ("0e5", 0.0),
        ("-0e5", 0.0), ("5e-324", 5e-324), ("1.7976931348623157e308", 1.7976931348623157e308),
        # nine-digit exponents: known without raising ten to them
        ("0e999999999", 0.0), ("-0.0e999999999", 0.0), ("1e-999999999", 0.0),
        ("-1e-999999999", -0.0), (" 2.5e-999_999_999 ", 0.0),
    ])
    def test_string_entries_read_as_their_exact_rational(self, text, value):
        start = time.perf_counter()
        got = cli._number(text, "w")
        assert time.perf_counter() - start < 1.0
        assert np.float64(got).tobytes() == np.float64(value).tobytes()

    @pytest.mark.parametrize("text, reason", [
        ("inf", "not a number or p/q rational: 'inf'"),
        ("nan", "not a number or p/q rational: 'nan'"),
        ("0x10", "not a number or p/q rational: '0x10'"),
        ("1e5e5", "not a number or p/q rational: '1e5e5'"),
        ("1 e5", "not a number or p/q rational: '1 e5'"),
        ("3/4e5", "not a number or p/q rational: '3/4e5'"),
        ("1/0", "not a number or p/q rational: '1/0'"),
        ("1e400", "value outside the float64 range"),
        ("1e999999999", "value outside the float64 range"),
        ("-1e999999999", "value outside the float64 range"),
        ("1.5_1e+999_999_999", "value outside the float64 range"),
    ])
    def test_string_entries_refused_at_once(self, text, reason, tmp_path, capsys):
        doc = {"n": 2, "generators": [{"name": "a", "rows": [[text, 0], [0, 1]]}]}
        path = write_doc(tmp_path / "g.json", doc)
        start = time.perf_counter()
        rc = main(["dominate", "--input", path, "--out-dir", str(tmp_path / "out")])
        assert time.perf_counter() - start < 1.0
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"repdyn: {path}: generators[0].rows[0][0]: {reason}\n")

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.from_regex(r"\A\s?[-+]?[0-9_]{0,4}(\.[0-9_]{0,3})?([eE][-+]?[0-9_]{1,4})?\s?\Z"),
        st.text(alphabet="0123456789eE+-._/ \n", max_size=12)))
    @example("1e404")
    @example("1e405")
    @example("-9.99e-405")
    @example("0.001e-407")
    @example("1e1_0")
    # long mantissas move the bound with them
    @example("1" + "0" * 500 + "e-600")
    @example("0." + "0" * 500 + "1e600")
    @example("-0." + "0" * 500 + "1e-420")
    @example("1 e5")
    @example("3/4e5")
    def test_spellings_read_as_fraction_reads_them(self, text):
        # exponents of at most four digits, which `Fraction` itself answers at once
        try:
            expected = float(Fraction(text))
        except (ValueError, ZeroDivisionError, OverflowError) as e:
            with pytest.raises(type(e)):
                cli._rational(text)
        else:
            assert np.float64(cli._rational(text)).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_nonfinite_constant_names_the_file(self, constant, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "generators": [{"name": "a", "rows": [[1, 0], [0, %s]]}]}'
                       % constant, encoding="utf-8")
        rc = main(["dominate", "--input", str(bad), "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"repdyn: {bad}: non-finite JSON constant {constant!r} is not accepted\n")

    @pytest.mark.parametrize("text, reason", [
        # past the recursion limit of the parser on every supported Python
        ('{"n": ' + "[" * 100_000 + "]" * 100_000 + "}", "JSON nested too deeply"),
        pytest.param('{"n": 2, "generators": [[' + "9" * 5000 + "]]}", "Exceeds the limit",
                     marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                              reason="no integer digit limit")),
    ], ids=["nested-100000-deep", "5000-digit-integer"])
    def test_document_the_parser_refuses_names_the_file(self, text, reason, tmp_path,
                                                        capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        rc = main(["dominate", "--input", str(bad), "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"repdyn: {bad}: {reason}") and err.count("\n") == 1

    def test_non_utf8_input_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff{}")
        rc = main(["dominate", "--input", str(bad), "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"repdyn: {bad}: not UTF-8 text: ") and err.count("\n") == 1

    @pytest.mark.parametrize("blocked", ["dominate_spheres.csv", "dominate_summary.json"])
    def test_unwritable_output_is_usage_error(self, blocked, ping_pong_doc, tmp_path,
                                              capsys):
        # a directory where an output file goes; the CSV before the summary
        # is written before the summary fails and stays
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        rc = main(["dominate", "--input", ping_pong_doc, "--max-length", "3",
                   "--out-dir", str(out)])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"repdyn: cannot write {out / blocked}: Is a directory\n")
        if blocked == "dominate_summary.json":
            assert (out / "dominate_spheres.csv").is_file()
        else:
            assert not (out / "dominate_summary.json").exists()


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

    @pytest.mark.parametrize("matrices, A_lower", [
        (ping_pong_matrices, 1.953), (partial_hyperbolic_matrices, 0.494)])
    def test_a_two_sphere_fit_is_inconclusive(self, tmp_path, matrices, A_lower):
        # --max-length 3 fits the minima of L = 2 and 3 alone; they rise on
        # both pairs, and the mixed pair is not dominated (ROADMAP wrong
        # output 3), so a fit of two points decides nothing
        gens = [{"name": f"g{i}", "rows": rows(m)} for i, m in enumerate(matrices())]
        path = write_doc(tmp_path / "g.json", {"n": len(gens[0]["rows"]), "generators": gens})
        out = tmp_path / "out"
        rc = main(["dominate", "--input", path, "--k", "1", "--max-length", "3",
                   "--out-dir", str(out)])
        assert rc == EXIT_INCONCLUSIVE
        results = read_summary(out, "dominate")["results"]
        assert results["verdict"] == "inconclusive" and not results["truncated"]
        assert results["A_lower"] == pytest.approx(A_lower, abs=1e-3)

    def test_non_finite_log_singular_values_truncate_the_scan(self, tmp_path):
        # Sym⁴ ping-pong (n = 5) reads a smallest singular value of 0, so a
        # log of -inf, from L = 8 on; the gap of two -inf columns leaked a
        # RuntimeWarning and wrote A_lower null.  The scan stops before it.
        gens = [{"name": name, "rows": rows(sym_power(m, 4))}
                for name, m in zip("ab", ping_pong_matrices())]
        path = write_doc(tmp_path / "sym4.json", {"n": 5, "generators": gens})
        out = tmp_path / "out"
        rc = main(["dominate", "--input", path, "--k", "1", "--max-length", "9",
                   "--out-dir", str(out)])
        assert rc == EXIT_INCONCLUSIVE
        results = read_summary(out, "dominate")["results"]
        assert results["truncated"] and results["L_used"] == 7
        assert [r["L"] for r in results["spheres"]] == list(range(1, 8))
        assert all(isinstance(results[key], float) for key in ("A_hat", "A_lower"))

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

    @pytest.mark.parametrize("error, code, prefix", [
        (np.linalg.LinAlgError("SVD did not converge"), EXIT_NUMERIC,
         "repdyn: numeric failure: SVD did not converge"),
        (ValueError("bad value"), EXIT_USAGE, "repdyn: bad value"),
    ], ids=["LinAlgError", "ValueError"])
    def test_linalg_error_is_numeric_failure(self, ping_pong_doc, tmp_path, capsys,
                                             monkeypatch, error, code, prefix):
        # LinAlgError subclasses ValueError, which otherwise marks a usage error
        def domination_scan(*args, **kwargs):
            raise error

        monkeypatch.setattr(domination, "domination_scan", domination_scan)
        rc = main(["dominate", "--input", ping_pong_doc, "--out-dir", str(tmp_path)])
        assert rc == code
        err = capsys.readouterr().err
        assert err == prefix + "\n"

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

    def test_split_line_that_overflows_within_two_steps_is_degenerate(self, tmp_path):
        # P(2) = 1e400 I overflows on the line of b; the line of a still splits
        doc = {"n": 3,
               "generators": [{"name": "a", "rows": [[2, 0, 0], [0, 1, 0], [0, 0, 0.5]]},
                              {"name": "b", "rows": rows(1e200 * np.eye(3))}],
               "lines": [{"pattern": [1]}, {"pattern": [2]}]}
        out = tmp_path / "out"
        rc = main(["split", "--input", write_doc(tmp_path / "s.json", doc),
                   "--k", "1", "--window", "6", "--out-dir", str(out)])
        assert rc == EXIT_FAIL
        ok, overflowed = read_summary(out, "split")["results"]["lines"]
        assert (ok["status"], ok["truncated"], ok["t_forward"]) == ("ok", False, 6)
        assert overflowed == {
            "label": "periodic:2", "index": 1, "status": "degenerate", "truncated": True,
            "time": None,
            "detail": "the window reaches t = 1 forward and t = -6 backward before"
                      " overflow; need at least two steps in each direction",
        }
        assert sorted(p.name for p in out.iterdir()) == ["split_line0.csv",
                                                         "split_summary.json"]

    @pytest.mark.filterwarnings("ignore::repdyn.errors.ConditionWarning")
    def test_explicit_split_line_runs_at_its_own_half_width(self, tmp_path):
        # --window sets the periodic lines only; an explicit line of 2h
        # letters runs at half width h - |offset|, whatever --window says
        g, h = partial_hyperbolic_matrices()
        doc = {"n": 3,
               "generators": [{"name": "g", "rows": rows(g)}, {"name": "h", "rows": rows(h)}],
               "lines": [{"pattern": [1]},
                         {"letters": [1, 2] * 12, "offset": 0},
                         {"letters": [2, 1] * 12, "offset": -3}]}
        out = tmp_path / "out"
        rc = main(["split", "--input", write_doc(tmp_path / "s.json", doc),
                   "--k", "1", "--window", "40", "--out-dir", str(out)])
        assert rc == EXIT_OK
        assert read_summary(out, "split")["results"]["window"] == 40
        # one row per time t = 0..half width
        lines = read_summary(out, "split")["results"]["lines"]
        for j, half_width in enumerate((40, 12, 9)):
            assert lines[j]["t_forward"] == lines[j]["t_backward"] == half_width
            table = (out / f"split_line{j}.csv").read_text(encoding="utf-8")
            assert [row.split(",")[0] for row in table.splitlines()[1:]] == [
                str(t) for t in range(half_width + 1)], j

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

    def test_short_row_reductions_keep_every_byte(self, padded_doc, tmp_path, monkeypatch):
        # the sphere statistics reduce and sort rows of n <= 3 coordinates by
        # column folds and a compare-exchange network; numpy's own axis
        # reductions and np.sort in their place give the same reports.  The
        # partial hyperbolic pair's words have unbalanced spectra, so a fold
        # that lost a column would move its statistics.
        def doc(name, matrices):
            return write_doc(tmp_path / name, {"n": 3, "generators": [
                {"name": letter, "rows": rows(m)} for letter, m in zip("gh", matrices)]})

        so21_doc = doc("so21.json", [form_preserving_matrix(),
                                     np.diag([np.exp(0.5), 1.0, np.exp(-0.5)])])
        ph_doc = doc("ph.json", partial_hyperbolic_matrices())
        runs = [
            (["spectrum", "--input", padded_doc, "--m-max", "5"], "spectrum"),
            (["affine", "--input", so21_doc, "--max-length", "5"], "affine"),
            (["spectrum", "--input", ph_doc, "--m-max", "5"], "spectrum"),
            (["affine", "--input", ph_doc, "--max-length", "5"], "affine"),
        ]

        def reports():
            out = tmp_path / "out"
            got = []
            for argv, command in runs:
                code = main(argv + ["--out-dir", str(out)])
                summary = read_summary(out, command)
                summary.pop("timestamp")
                got.append((code, summary, {f.name: f.read_bytes()
                                            for f in sorted(out.glob(f"{command}_*.csv"))}))
            return got

        shipped = reports()

        def numpy_reduce(ufunc, x):
            return ufunc.reduce(x, axis=tuple(range(1, x.ndim)))

        for module in (linalg, spectrum, affine):
            monkeypatch.setattr(module, "_fold_columns", numpy_reduce)
        monkeypatch.setattr(linalg, "_descending", lambda logs: -np.sort(-logs, axis=1))
        assert shipped == reports()
        assert [code for code, _, _ in shipped[:2]] == [EXIT_OK, EXIT_OK]


class TestOneParserPerProcess:
    """`main` reuses one parser for the process and looks each handler up by
    name when it runs; a run after other runs gives what a fresh process
    gives."""

    @staticmethod
    def outputs(out):
        body = {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
        for f in sorted(out.glob("*_summary.json")):
            summary = json.loads(f.read_text(encoding="utf-8"))
            summary.pop("timestamp")
            body[f.name] = summary
        return body

    def test_runs_after_runs_match_fresh_processes(self, ping_pong_doc, tmp_path,
                                                   capsys, monkeypatch):
        # help text wraps at the terminal width, which COLUMNS fixes
        monkeypatch.setenv("COLUMNS", "80")
        g, h = partial_hyperbolic_matrices()
        aff = write_doc(tmp_path / "aff.json", {
            "n": 3, "generators": [{"name": "g", "rows": rows(g)},
                                   {"name": "h", "rows": rows(h)}],
            "translations": [[0.5, 0.0, -0.25], [0.0, 1.0, 0.0]],
        })
        runs = {
            "usage": ["dominate", "--input", ping_pong_doc, "--max-length", "2"],
            "help": ["affine", "--help"],
            "dominate": ["dominate", "--input", ping_pong_doc, "--max-length", "5"],
            "affine": ["affine", "--input", aff, "--max-length", "4"],
        }
        src = Path(repdyn.__file__).resolve().parents[1]
        fresh = {}
        for label, argv in runs.items():
            out = tmp_path / "fresh" / label
            done = subprocess.run(
                [sys.executable, "-m", "repdyn.cli", *argv, "--out-dir", str(out)],
                env=dict(os.environ, PYTHONPATH=str(src), COLUMNS="80"),
                capture_output=True, text=True,
            )
            fresh[label] = done.returncode, done.stdout, done.stderr, self.outputs(out)
        assert [fresh[label][0] for label in runs] == [EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_FAIL]
        assert fresh["dominate"][3] and fresh["affine"][3]
        for label, argv in runs.items():
            out = tmp_path / "reused" / label
            code = main([*argv, "--out-dir", str(out)])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err, self.outputs(out)) == fresh[label], label
        assert cli._parser() is cli._parser()

    def test_build_parser_gives_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli.build_parser() is not cli._parser()


def reference_format_cell(cell):
    """One non-string cell as the row-at-a-time writer formatted it."""
    if isinstance(cell, bool):
        return str(cell).lower()
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    if isinstance(cell, (float, np.floating)):
        return f"{float(cell):.17g}"
    return str(cell)


def reference_csv(header, table) -> bytes:
    """The bytes of the row-at-a-time writer: ``csv.writer`` over rows
    formatted one cell at a time, string cells passed through."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in table:
        writer.writerow(
            [cell if isinstance(cell, str) else reference_format_cell(cell) for cell in row]
        )
    return out.getvalue().encode("utf-8")


SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
                  1e-310, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308]
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
TEXT = st.text(alphabet=' ab,"\r\n;%é', max_size=6)
CELLS = {
    "float": FLOATS,
    # a float column with empty gaps, as in the split tables
    "gapped": st.one_of(FLOATS, st.just("")),
    "int": st.integers(),
    "text": TEXT,
    "mixed": st.one_of(
        st.booleans(), st.integers(), st.none(), TEXT, FLOATS,
        st.integers(-2**63, 2**63 - 1).map(np.int64),
        st.floats(width=32).map(np.float32),
        FLOATS.map(np.float64),
    ),
}


@st.composite
def tables(draw):
    """A header and rectangular rows whose columns are each one cell kind."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), max_size=4))
    header = draw(st.lists(TEXT, min_size=len(kinds), max_size=len(kinds)))
    table = draw(st.lists(st.tuples(*(CELLS[k] for k in kinds)), max_size=12))
    return header, table


class TestWriteCsv:
    """The chunk-formatted writer against the row-at-a-time reference."""

    @settings(max_examples=300, deadline=None)
    @given(tables())
    @example((["h", "x"], [('q"', 1.5)]))
    @example((["h", "x"], [("a\rb", 1)]))
    @example((["h", "x"], [("a\nb", None)]))
    @example((["h", "x"], [("a,b", -0.0)]))
    @example((["h"], [("",)]))
    @example((["h"], [(True,), (np.int64(3),), (np.float32(0.1),)]))
    # chunks of string cells take the joined path, unless quoting is due
    @example((["h", "x"], [("a", "b"), ("c", "")]))
    @example((["h", "x"], [("a", "b,c")]))
    @example((["h", "x"], [("x\ny", "z")]))
    @example((["h", "x"], [('q"', "r")]))
    @example((["h", "x"], [("a\rb", "c")]))
    @example((["h"], [("x",), ("",)]))
    def test_bytes_match_reference(self, tmp_path_factory, case):
        header, table = case
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, header, table)
        assert path.read_bytes() == reference_csv(header, table)

    @pytest.mark.parametrize("count", [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS,
                                       CSV_CHUNK_ROWS + 1])
    @pytest.mark.parametrize("quoted_row", [None, 0, -1])
    def test_row_counts_around_the_chunk_size(self, tmp_path, count, quoted_row):
        table = [(i, i / 7.0, np.float64(-i), f"w{i}", None) for i in range(count)]
        if quoted_row is not None:
            table[quoted_row] = (0, 0.5, np.float64(1.0), 'a,"b"\r\n', True)
        path = tmp_path / "t.csv"
        header = ["i", "x", "y", "word", "flag"]
        write_csv(path, header, iter(table))
        assert path.read_bytes() == reference_csv(header, table)

    @pytest.mark.parametrize("table", [
        [("",)], [("x",), ("",), ("y",)], [("",)] * (CSV_CHUNK_ROWS + 1),
        [(1.5,), ("",)], [(None,)],
    ])
    def test_one_column_rows_holding_the_empty_string(self, tmp_path, table):
        path = tmp_path / "t.csv"
        write_csv(path, ["only"], table)
        assert path.read_bytes() == reference_csv(["only"], table)

    @pytest.mark.parametrize("count", [5, 49, CSV_CHUNK_ROWS + 3])
    def test_float_columns_with_gaps(self, tmp_path, count):
        # the split tables: a residual column that starts at t = 3 and rate
        # curves that end at different rows
        table = [
            (t, t / 9.0 if 3 <= t < count - 1 else "",
             *(float(np.sin(t + j)) if t < count - j else "" for j in range(4)))
            for t in range(count)
        ]
        path = tmp_path / "t.csv"
        header = ["t", "residual", "a", "b", "c", "d"]
        write_csv(path, header, table)
        assert path.read_bytes() == reference_csv(header, table)

    def test_header_with_special_characters(self, tmp_path):
        header = ["a,b", 'q"', "l\nm", "r\rs", ""]
        table = [(1, 2.5, "x", "y", "z")]
        path = tmp_path / "t.csv"
        write_csv(path, header, table)
        assert path.read_bytes() == reference_csv(header, table)

    @pytest.mark.parametrize("bad", [(3,), (3, 4, 5), ()])
    def test_ragged_row_raises(self, tmp_path, bad):
        table = [(1, 2)] * 5 + [bad] + [(1, 2)]
        with pytest.raises(ValueError, match="2 cells wide"):
            write_csv(tmp_path / "t.csv", ["a", "b"], table)


def nan_with_payload(payload):
    return float(np.array([0x7FF8000000000000 | payload], dtype=np.int64).view(float)[0])


# two NaN payloads, both zeros, the infinities, subnormals and the range ends
FLOAT_POOL = st.lists(
    st.one_of(FLOATS, st.sampled_from([nan_with_payload(1), -nan_with_payload(2)])),
    min_size=1, max_size=8)


class TestFormatFloats:
    @settings(max_examples=300, deadline=None)
    @given(FLOAT_POOL.flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=40)))
    @example([])
    @example([-0.0, 0.0, -0.0, 0.0])
    @example([float("nan"), nan_with_payload(1), -nan_with_payload(2), float("nan")])
    @example([float("inf"), float("-inf"), 5e-324, -5e-324, 1e-310, 1e308, -1e308] * 3)
    def test_each_value_reads_as_percent_17g(self, values):
        got = format_floats(np.array(values, dtype=float))
        assert got.dtype == object
        assert got.tolist() == ["%.17g" % v for v in values]


HOSTILE_NAMES = ["a,b", 'q"', "l\nm"]


def hostile_generators():
    """Three partially hyperbolic generators of SL(3)."""
    g, h = partial_hyperbolic_matrices()
    return [g, h, np.diag([3.0, 1.0, 1.0 / 3.0])]


class TestSpectrumCsv:
    """The column-wise cone CSV against per-sample formatting."""

    @staticmethod
    def cone_reference(gens, cone):
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["m"] + [f"c{i + 1}" for i in range(cone.n)]
                        + ["zero_indices", "word"])
        for m, level in cone.levels.items():
            for r in range(len(level)):
                zero = ";".join(str(i + 1) for i in np.flatnonzero(level.zero[r]))
                writer.writerow([str(m), *(format_number(x) for x in level.jordan[r]),
                                 zero, gens.word_name(level.word(r))])
        return expected.getvalue().encode("utf-8")

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
        masks = {
            tuple(row) for level in cone.levels.values() for row in level.zero.tolist()
        }
        assert len(masks) > 1
        text = (out / "spectrum_cone_samples.csv").read_bytes()
        assert text == self.cone_reference(gens, cone)

    @pytest.mark.parametrize("mats, policy", [
        # an inversion-closed draw: its rows are not in shortlex order
        (list(partial_hyperbolic_matrices()), ["--policy", "sampled", "--samples", "7"]),
        # rank 3, five children per word
        (hostile_generators(), []),
        # rank 1, one child per word
        ([np.diag([2.0, 1.0, 0.5])], []),
    ], ids=["sampled", "rank-3", "rank-1"])
    def test_policies_and_ranks_match_per_sample_formatting(self, mats, policy, tmp_path):
        names = [f"g{i}" for i in range(len(mats))]
        doc = {"n": 3, "generators": [
            {"name": name, "rows": rows(m)} for name, m in zip(names, mats)
        ]}
        out = tmp_path / "out"
        main(["spectrum", "--input", write_doc(tmp_path / "g.json", doc),
              "--m-max", "4", "--seed", "5", "--out-dir", str(out), *policy])
        gens = GeneratorSet(mats, names=names)
        cone = spectrum.sample_cone(
            gens, 4, words.Sampled(7, 5) if policy else words.Exhaustive())
        assert cone.exhaustive != bool(policy)
        text = (out / "spectrum_cone_samples.csv").read_bytes()
        assert text == self.cone_reference(gens, cone)

    def test_signed_zeros_stay_apart(self, padded_doc, tmp_path, monkeypatch):
        # no fixture's Jordan projection reads -0.0, so plant some next to 0.0
        gens = GeneratorSet([np.pad(m, (0, 1)) + np.diag([0.0, 0.0, 1.0])
                             for m in ping_pong_matrices()], names=["a", "b"])
        cone = spectrum.sample_cone(gens, 3)
        level = cone.levels[2]
        jordan = level.jordan.copy()
        jordan[::2, 1] = -0.0
        jordan[1::2, 1] = 0.0
        cone.levels[2] = dataclasses.replace(level, jordan=jordan)
        monkeypatch.setattr(spectrum, "sample_cone", lambda *args, **kwargs: cone)
        out = tmp_path / "out"
        main(["spectrum", "--input", padded_doc, "--m-max", "3", "--out-dir", str(out)])
        text = (out / "spectrum_cone_samples.csv").read_bytes()
        assert b",-0," in text and b",0," in text
        assert text == self.cone_reference(gens, cone)

    @pytest.mark.parametrize("command", ["spectrum", "dominate", "affine"])
    def test_hostile_generator_names(self, command, tmp_path):
        mats = hostile_generators()
        doc = {"n": 3, "generators": [
            {"name": name, "rows": rows(m)} for name, m in zip(HOSTILE_NAMES, mats)
        ]}
        path = write_doc(tmp_path / "g.json", doc)
        out = tmp_path / "out"
        gens = GeneratorSet(mats, names=HOSTILE_NAMES)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        if command == "spectrum":
            main(["spectrum", "--input", path, "--m-max", "3", "--out-dir", str(out)])
            text = (out / "spectrum_cone_samples.csv").read_bytes()
            assert text == self.cone_reference(gens, spectrum.sample_cone(gens, 3))
            return
        if command == "dominate":
            main(["dominate", "--input", path, "--max-length", "3",
                  "--out-dir", str(out)])
            csv_name = "dominate_spheres.csv"
            writer.writerow(["L", "gap_min", "logak_min", "lognk1_max", "gap_mean",
                             "count", "argmin_word"])
            for r in domination.domination_scan(gens, k=1, L_max=3).spheres:
                writer.writerow([str(r.length), format_number(r.gap_min),
                                 format_number(r.logak_min), format_number(r.lognk1_max),
                                 format_number(r.gap_mean), str(r.count),
                                 gens.word_name(r.argmin)])
        else:
            main(["affine", "--input", path, "--max-length", "3",
                  "--out-dir", str(out)])
            csv_name = "affine_hks.csv"
            writer.writerow(["L", "max_normalized_det", "word"])
            for r in affine.hks_test(gens, 3).spheres:
                writer.writerow([str(r.length), format_number(r.value),
                                 gens.word_name(r.word)])
        text = (out / csv_name).read_bytes()
        assert text == expected.getvalue().encode("utf-8")
        assert text.count(b"\n") > 4  # three rows, and quoted names break lines

    @pytest.mark.parametrize("command, policy", [
        ("spectrum", []),
        ("spectrum", ["--policy", "sampled", "--samples", "7", "--seed", "5"]),
        ("dominate", []),
    ], ids=["cone-exhaustive", "cone-sampled", "dominate"])
    def test_word_columns_read_back_as_word_names(self, command, policy, tmp_path):
        names = ["a,b", 'q "r"', "é^-1"]
        mats = hostile_generators()
        doc = {"n": 3, "generators": [
            {"name": name, "rows": rows(m)} for name, m in zip(names, mats)
        ]}
        out = tmp_path / "out"
        length = "--m-max" if command == "spectrum" else "--max-length"
        main([command, "--input", write_doc(tmp_path / "g.json", doc), length, "3",
              "--out-dir", str(out), *policy])
        gens = GeneratorSet(mats, names=names)
        if command == "spectrum":
            cone = spectrum.sample_cone(
                gens, 3, words.Sampled(7, 5) if policy else words.Exhaustive())
            letters = [level.letters[r] for _, level in sorted(cone.levels.items())
                       for r in range(len(level))]
            csv_name = "spectrum_cone_samples.csv"
        else:
            letters = [r.argmin for r in domination.domination_scan(gens, 1, 3).spheres]
            csv_name = "dominate_spheres.csv"
        with open(out / csv_name, encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0][-1] in ("word", "argmin_word")
        assert [row[-1] for row in table[1:]] == [gens.word_name(w) for w in letters]

    @pytest.mark.parametrize("tol", ["0.5", "0"])
    def test_zero_indices_follow_tol(self, padded_doc, tmp_path, tol):
        """Under --tol each row's zero indices are its printed coordinates of
        modulus at most tol, and the rows zero in every coordinate are the
        summary's n_zero."""
        out = tmp_path / "out"
        main(["spectrum", "--input", padded_doc, "--m-max", "4", "--tol", tol,
              "--out-dir", str(out)])
        with open(out / "spectrum_cone_samples.csv", encoding="utf-8", newline="") as fh:
            header, *table = list(csv.reader(fh))
        n = len(header) - 3
        moved = 0
        for row in table:
            coords = [float(x) for x in row[1:1 + n]]
            expected = [i + 1 for i, c in enumerate(coords) if abs(c) <= float(tol)]
            assert row[1 + n] == ";".join(map(str, expected))
            moved += any(0.0 < abs(c) <= float(tol) for c in coords)
        assert (moved > 0) == (tol != "0")
        n_zero = read_summary(out, "spectrum")["results"]["containment"]["n_zero"]
        assert sum(row[1 + n].count(";") == n - 1 for row in table) == n_zero


class TestFlowmetricCsv:
    def test_rows_match_per_pair_reference(self, tmp_path):
        # 30 seeded geodesics with half widths 40 .. 46, some of whose rays
        # start by cancelling the anchor, at the window 40
        rng = np.random.default_rng(30)
        specs = []
        while len(specs) < 30:
            anchor = words.random_word(2, int(rng.integers(0, 4)), rng).letters
            rays = [list(words.random_word(2, 40 + int(rng.integers(0, 7)), rng).letters)
                    for _ in range(2)]
            if anchor and rng.random() < 0.3:
                rays[0][0] = -anchor[-1]  # rays[0][1] may cancel too
            spec = {"anchor": list(anchor), "forward": rays[0], "backward": rays[1]}
            if rng.random() < 0.5:
                spec["forward"], spec["backward"] = rays[1], rays[0]
            try:
                geo = words.FlowLineWindow.from_rays(
                    spec["anchor"], spec["forward"], spec["backward"]
                )
            except ValueError:
                continue  # a ray that is not reduced, or rays sharing an edge
            specs.append((spec, geo))
        path = write_doc(tmp_path / "g.json",
                         {"rank": 2, "geodesics": [s for s, _ in specs]})
        out = tmp_path / "out"
        assert main(["flowmetric", "--input", path, "--window", "40",
                     "--out-dir", str(out)]) == EXIT_OK
        geos = [g for _, g in specs]
        tail = words.flow_metric(geos[0], geos[0], 40).tail_bound
        expected = ["i,j,value,tail_bound"]
        for i, g in enumerate(geos):
            for j in range(i, len(geos)):
                value = reference_flow_metric(g, geos[j], 40)
                expected.append(f"{i},{j},{format_number(value)},{format_number(tail)}")
        text = (out / "flowmetric_pairs.csv").read_bytes()
        assert text == ("\n".join(expected) + "\n").encode()
        pairs = read_summary(out, "flowmetric")["results"]["pairs"]
        assert [p["value"] for p in pairs] == [
            float(row.split(",")[2]) for row in expected[1:]
        ]
        assert len({g.half_width for g in geos}) > 3


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def hks_reference(products, logs):
    """The HKS statistic as plain float64 arithmetic, overflow and all."""
    n = products.shape[-1]
    smax = np.exp(logs[:, 0])
    return np.abs(np.linalg.det(products - np.eye(n))) / np.float_power(1.0 + smax, n)


def hks_mpmath(m):
    """``|det(m - I)| / (1 + smax)^n`` of a diagonal ``m`` in 60 digits."""
    import mpmath

    with mpmath.workdps(60):
        d = [mpmath.mpf(float(x)) for x in np.diag(m)]
        det = abs(mpmath.fprod(x - 1 for x in d))
        return float(det / (1 + max(abs(x) for x in d)) ** len(d))


def affine_table_docs():
    """Inputs that `affine` must read as `dominate` reads them: (linear
    parts, translations or None, extra argv, exit code)."""
    rng = np.random.default_rng(1)
    q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    c = 1e3
    return {
        # one generator of condition number c, scanned to length 3
        "rank_one_c1e3": ([q1 @ np.diag([c ** 0.5, 1.0, c ** -0.5]) @ q2], None,
                          ["--max-length", "3"], EXIT_FAIL),
        "tiny_scalar": ([1e-300 * np.eye(2)], [[0, 1]], [], EXIT_FAIL),
        "huge_translation": ([np.diag([2.0, 1.0])], [[1e308, 1e308]], [], EXIT_OK),
        "zero_second_generator": ([np.diag([2.0, 1.0]), np.zeros((2, 2))], None, [],
                                  EXIT_USAGE),
    }


class TestAffineExtremes:
    @pytest.mark.parametrize("case", sorted(affine_table_docs()))
    def test_affine_reads_its_input_as_dominate_does(self, case, tmp_path):
        mats, translations, extra, expected = affine_table_docs()[case]
        doc = {"n": mats[0].shape[0],
               "generators": [{"name": f"g{i}", "rows": rows(m)}
                              for i, m in enumerate(mats)]}
        if translations is not None:
            doc["translations"] = translations
        path = write_doc(tmp_path / "in.json", doc)
        src = Path(repdyn.__file__).resolve().parents[1]

        def run(command, *argv):
            return subprocess.run(
                [sys.executable, "-m", "repdyn.cli", command, "--input", path,
                 "--out-dir", str(tmp_path / command), *argv],
                env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            )

        result = run("affine", *extra)
        assert result.returncode == expected
        if expected == EXIT_USAGE:
            assert result.stderr == f"repdyn: {path}: generator 2 is the zero matrix\n"
            assert result.stderr == run("dominate").stderr
        else:
            assert result.stderr == ""

    def test_huge_linear_part_is_not_the_zero_matrix(self, tmp_path):
        # inverse words reach entries near 1e-120 by length 3, which a norm
        # would square to 0; no check may read them as the zero matrix
        doc = write_doc(tmp_path / "aff.json", {
            "n": 2, "generators": [{"name": "g", "rows": [[1e40, 0], [0, 1e35]]}],
            "translations": [[1, 1]],
        })
        code = main(["affine", "--input", doc, "--max-length", "3",
                     "--out-dir", str(tmp_path / "out")])
        assert code in (EXIT_OK, EXIT_FAIL)

    def test_hks_past_float_power_overflow(self, tmp_path):
        g = np.diag([1e20, 1e18])
        doc = write_doc(tmp_path / "aff.json", {
            "n": 2, "generators": [{"name": "g", "rows": rows(g)}],
            "translations": [[1, 1]],
        })
        out = tmp_path / "out"
        src = Path(repdyn.__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, "-m", "repdyn.cli", "affine", "--input", doc,
             "--max-length", "9", "--out-dir", str(out)],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        )
        assert run.stderr == ""
        with open(out / "affine_hks.csv", encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))[1:]
        powers = [np.linalg.matrix_power(g, 9), np.diag(1.0 / np.diag(g) ** 9)]
        assert float(table[8][1]) == pytest.approx(max(map(hks_mpmath, powers)), rel=1e-15)
        # the overflowing word g^9 itself, taken in logs
        products = np.stack(powers)
        values = affine._hks_values(products, linalg.log_singular_values(products))
        for value, m in zip(values, powers):
            assert value == pytest.approx(hks_mpmath(m), rel=1e-12)

    def test_benchmark_affine_csv_unchanged(self, tmp_path, monkeypatch):
        # the SO(2,1) fixture never overflows, so it keeps the bits of plain
        # float64 arithmetic
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up by name
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        triple = workloads.AffineTriple(7)
        triple.write_inputs(tmp_path / "in")
        written = {}
        for label in ("logs", "plain"):
            if label == "plain":
                monkeypatch.setattr(affine, "_hks_values", hks_reference)
            out = tmp_path / label
            (argv,) = triple.commands(str(tmp_path / "in"), str(out))
            assert main(argv) == EXIT_OK
            written[label] = (out / "affine_hks.csv").read_bytes()
        assert written["logs"] == written["plain"]


class TestOverflowTruncation:
    """Products of 1e40-scaled generators overflow float64 at length 8, so
    each sphere scan stops at the last complete length and says so, under
    either policy."""

    POLICIES = [[], ["--policy", "sampled", "--samples", "50"]]

    @pytest.fixture()
    def huge_doc(self, tmp_path):
        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
        d = np.diag([4.0, 1.0, 0.25])
        return write_doc(tmp_path / "huge.json", {"n": 3, "generators": [
            {"name": "g", "rows": rows(1e40 * d)},
            {"name": "h", "rows": rows(1e40 * q @ d @ q.T)},
        ]})

    @pytest.mark.parametrize("policy", POLICIES)
    def test_dominate_is_inconclusive_at_the_last_complete_sphere(self, huge_doc,
                                                                  tmp_path, policy):
        out = tmp_path / "out"
        code = main(["dominate", "--input", huge_doc, "--max-length", "9",
                     *policy, "--out-dir", str(out)])
        results = read_summary(out, "dominate")["results"]
        assert code == EXIT_INCONCLUSIVE
        assert results["verdict"] == "inconclusive" and results["truncated"] is True
        assert results["L_used"] == len(results["spheres"]) == 7

    def test_spectrum_keeps_the_complete_levels(self, huge_doc, tmp_path):
        for i, policy in enumerate(self.POLICIES):
            out = tmp_path / f"out{i}"
            code = main(["spectrum", "--input", huge_doc, "--m-max", "8",
                         *policy, "--out-dir", str(out)])
            results = read_summary(out, "spectrum")["results"]
            assert code == EXIT_OK, policy
            assert results["truncated"] is True
            assert (results["m_max"], results["m_used"]) == (8, 7)

    def test_affine_reports_are_all_truncated(self, huge_doc, tmp_path):
        for i, policy in enumerate(self.POLICIES):
            out = tmp_path / f"out{i}"
            code = main(["affine", "--input", huge_doc, "--max-length", "8",
                         *policy, "--out-dir", str(out)])
            results = read_summary(out, "affine")["results"]
            assert code == EXIT_FAIL, policy
            reports = ("hks", "eigenvalue_norm_one", "bounded_singular")
            assert [results[r]["truncated"] for r in reports] == [True, True, True]
            assert results["eigenvalue_norm_one"]["worst_length"] == 7

    def test_spectrum_near_the_float_maximum_keeps_its_inverse(self, tmp_path):
        # the inverse of entries near the float64 maximum has subnormal
        # entries, which an unscaled inverse rounds to a singular matrix;
        # inverted scaled, level 1 reads the generator and its inverse, and
        # the square overflows
        q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((2, 2)))
        path = write_doc(tmp_path / "g.json",
                         {"n": 2, "generators": [{"name": "g", "rows": rows(1.7e308 * q)}]})
        out = tmp_path / "out"
        code = main(["spectrum", "--input", path, "--out-dir", str(out)])
        results = read_summary(out, "spectrum")["results"]
        assert code == EXIT_FAIL
        assert results["truncated"] is True
        assert (results["m_max"], results["m_used"]) == (6, 1)
        with open(out / "spectrum_cone_samples.csv", encoding="utf-8") as fh:
            samples = list(csv.DictReader(fh))
        assert [r["word"] for r in samples] == ["g", "g^-1"]
        log_top = np.log(1.7e308)
        for r, sign in zip(samples, (1, -1)):
            for c in ("c1", "c2"):
                assert float(r[c]) == pytest.approx(sign * log_top, rel=1e-15)


class TestImportCost:
    @staticmethod
    def imported_after_cli(module):
        src = Path(repdyn.__file__).resolve().parents[1]
        code = f"import sys, repdyn.cli; print({module!r} in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(src))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return run.stdout.strip()

    def test_cli_import_leaves_scipy_spatial_out(self):
        assert self.imported_after_cli("scipy.spatial") == "False"

    def test_cli_import_leaves_scipy_linalg_out(self):
        # no module of the package imports it (tests/test_imports.py)
        assert self.imported_after_cli("scipy.linalg") == "False"


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
