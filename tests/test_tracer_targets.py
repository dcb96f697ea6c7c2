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

from repdyn import cli, linalg

from conftest import partial_hyperbolic_matrices

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
