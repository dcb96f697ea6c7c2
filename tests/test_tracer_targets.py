"""The benchmark's layer tracer still finds what it wraps.

``perfbench/tracing.py`` replaces repdyn functions by module attribute.  A
refactor that renames or drops one of them would only show when a traced
benchmark run crashes, so the tracer is loaded here from its file, as it
is, and every target is looked up.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repdyn import cli, domination, linalg, spectrum, words

from conftest import partial_hyperbolic_matrices

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PROBE = TRACING.with_name("probe.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracing):
    assert tracing.TARGETS
    for module, attr, _, _ in tracing.TARGETS:
        mod = importlib.import_module(f"repdyn.{module}")
        assert callable(getattr(mod, attr, None)), f"repdyn.{module}.{attr}"


@pytest.mark.filterwarnings("ignore::repdyn.errors.ConditionWarning")
def test_split_calls_the_traced_flow_names(tracing, tmp_path):
    g, h = partial_hyperbolic_matrices()
    doc = {"n": 3,
           "generators": [{"name": "g", "rows": g.tolist()},
                          {"name": "h", "rows": h.tolist()}],
           "lines": [{"pattern": [1, 2]}]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    tracer = tracing.Tracer()
    with tracer.installed():
        code = cli.main(["split", "--input", str(path), "--window", "12",
                         "--out-dir", str(tmp_path / "out")])
    assert code == 0
    for name in ("flowbundle.build_trajectory", "flowbundle.estimate_splitting",
                 "flowbundle.measure_rates", "flowbundle.splitting_at",
                 "linalg.bottom_singular_subspace", "linalg.subspace_distance"):
        assert tracer.calls[name] > 0, name
    # leaving the block restored every original
    assert cli.subspace_distance is linalg.subspace_distance
    assert np.isfinite(tracer.layer_metrics()["linalg.subspace_distance_s"])
    # every data row of the split tables reaches write_csv as one row
    tables = sorted((tmp_path / "out").glob("split_line*.csv"))
    assert tables
    data_rows = sum(len(t.read_text(encoding="utf-8").splitlines()) - 1 for t in tables)
    assert tracer.layer_metrics()["cli.csv_rows"] == data_rows


def test_flowmetric_reaches_the_distance_work_through_flow_metric(tracing, tmp_path):
    doc = {"rank": 2, "geodesics": [
        {"anchor": [], "forward": [1, 2] * 8, "backward": [2, 1] * 8},
        {"anchor": [1], "forward": [2, 1] * 8, "backward": [-1, 2] * 8},
        {"anchor": [2, -1], "forward": [1, 1] * 8, "backward": [2, 2] * 8},
    ]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    original = words.flow_metric
    tracer = tracing.Tracer()
    with tracer.installed():
        code = cli.main(["flowmetric", "--input", str(path), "--window", "12",
                         "--out-dir", str(tmp_path / "out")])
    assert code == 0
    # one call for every pair of geodesics, each geodesic with itself too
    assert tracer.calls["words.flow_metric"] == 1
    names = [s["name"] for s in tracer.span_records()]
    assert "cli.parse_geodesics" in names and "cli.cmd_flowmetric" in names
    metrics = tracer.layer_metrics()
    assert metrics["words.flow_metric_s"] > 0.0
    assert metrics["cli.csv_rows"] == 6
    assert words.flow_metric is original


def test_affine_makes_one_sphere_pass(tracing, tmp_path):
    g, h = partial_hyperbolic_matrices()
    doc = {"n": 3,
           "generators": [{"name": "g", "rows": g.tolist()},
                          {"name": "h", "rows": h.tolist()}],
           "translations": [[0.5, 0.0, -0.25], [0.0, 1.0, 0.0]]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    tracer = tracing.Tracer()
    with tracer.installed():
        cli.main(["affine", "--input", str(path), "--max-length", "4",
                  "--out-dir", str(tmp_path / "out")])
    # the three statistics share one pass over the spheres
    assert tracer.calls["words.map_sphere_products"] == 1
    assert tracer.calls["words.iter_sphere_products"] == 1
    assert tracer.layer_metrics()["cli.csv_rows"] == 4
    # the input is parsed under the affine loader's name only, so
    # cli.parse_s counts it once
    assert tracer.calls["cli.load_affine_set"] == 1
    assert tracer.calls["cli.load_generator_set"] == 0


def test_a_run_after_earlier_runs_shows_the_command_span(tracing, tmp_path):
    # the process's parser is built by the first run, before the tracer
    # replaces cli.cmd_affine; main looks the handler up by name when it
    # runs, so the traced run still reaches the replacement
    g, h = partial_hyperbolic_matrices()
    doc = {"n": 3,
           "generators": [{"name": "g", "rows": g.tolist()},
                          {"name": "h", "rows": h.tolist()}],
           "translations": [[0.5, 0.0, -0.25], [0.0, 1.0, 0.0]]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["affine", "--input", str(path), "--max-length", "3"]
    first = cli.main(argv + ["--out-dir", str(tmp_path / "first")])
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = cli.main(argv + ["--out-dir", str(tmp_path / "traced")])
    assert traced == first
    names = [s["name"] for s in tracer.span_records()]
    assert "cli.main" in names and "cli.cmd_affine" in names
    assert tracer.calls["cli.cmd_affine"] == 1
    assert tracer.calls["words.map_sphere_products"] == 1


def test_probe_validates_an_affine_plan(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    g, h = partial_hyperbolic_matrices()
    doc = {"n": 3,
           "generators": [{"name": "g", "rows": g.tolist()},
                          {"name": "h", "rows": h.tolist()}],
           "translations": [[0.5, 0.0, -0.25], [0.0, 1.0, 0.0]]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    probe.validate_inputs(cli, ["affine", "--input", str(path), "--max-length", "4"])
    doc["generators"][1]["rows"] = [[0, 0, 0]] * 3
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(cli.InputFileError, match="generator 2 is the zero matrix"):
        probe.validate_inputs(cli, ["affine", "--input", str(path)])


def test_spectrum_csv_rows_go_through_write_csv(tracing, tmp_path):
    g, h = partial_hyperbolic_matrices()
    doc = {"n": 3,
           "generators": [{"name": "g", "rows": g.tolist()},
                          {"name": "h", "rows": h.tolist()}]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    tracer = tracing.Tracer()
    with tracer.installed():
        cli.main(["spectrum", "--input", str(path), "--m-max", "4",
                  "--out-dir", str(tmp_path / "out")])
    gens = domination.GeneratorSet([g, h])
    cone = spectrum.sample_cone(gens, 4)
    samples = sum(len(level) for level in cone.levels.values())
    metrics = tracer.layer_metrics()
    assert tracer.calls["cli.write_csv"] == 2
    assert metrics["cli.csv_rows"] == samples + cone.hull_vertices.shape[0]
    assert metrics["cli.emit_bytes"] > 0 and metrics["cli.emit_s"] > 0
