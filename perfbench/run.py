"""Benchmark of the repdyn command line on seeded workloads.

    python3 perfbench/run.py --workload exhaustive-spheres --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the program is imported from its ``src``
directory and nothing is installed.  Every run generates its inputs from
``--seed``, checks every output, and prints, as the last line of standard
output, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics.  The line before it
holds run information: the machine, the CSV digests, the exit codes, every
timed sample and the tail percentile.  Scratch files go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PROBE = Path(__file__).resolve().parent / "probe.py"

# one process, one BLAS thread: the load of every run comes from one core
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_RUNS = 5
MIN_TRACED_RUNS = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="workload name from BENCHMARK.json, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0,
                   help="how long the timed loop measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# machine and code identity


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_info():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# measuring


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    k = n - 10
    if k < (n + 1) // 2:
        return None
    return {"percentile": round(100.0 * k / n, 2), "value": sorted(samples)[k - 1]}


# The reference computation timed before and after every command: products
# and SVDs of 3x3 matrices driven from Python, like repdyn's inner loops, but
# using none of the program, so its time follows only the machine's speed.
REF_MATRIX = ((1.1, 0.3, -0.2), (0.4, 0.9, 0.1), (-0.3, 0.2, 1.0))
REF_STEPS = 2000


def reference_seconds():
    import numpy as np

    a, m, acc = np.array(REF_MATRIX), np.eye(3), 0.0
    t0 = time.perf_counter()
    for _ in range(REF_STEPS):
        m = m @ a
        m = m / np.abs(m).max()
        sv = np.linalg.svd(m, compute_uv=False)
        acc += math.log(sv[0] / sv[-1])
    seconds = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("reference computation went non-finite")
    return seconds


class Timing:
    """One run of a workload's commands: wall seconds of each command, and
    each command's seconds over the mean of the reference computations
    timed just before and just after it."""

    def __init__(self, seconds, refs):
        self.seconds = seconds
        self.ratios = [s / ((a + b) / 2) for s, a, b in zip(seconds, refs, refs[1:])]
        self.wall = sum(seconds)


def wall_ref(timings):
    """Sum over the commands of each one's median reference ratio."""
    return sum(statistics.median(r) for r in zip(*(t.ratios for t in timings)))


def run_commands(cli, commands, out_dir, every_warning=False):
    """One run of the workload's commands: exit codes, Timing, warnings.

    Warnings are recorded rather than printed.  By default they are
    filtered as a user's process would filter them; ``every_warning``
    records each one raised instead.
    """
    from repdyn.errors import ConditionWarning

    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    codes, seconds, refs = [], [], [reference_seconds()]
    with warnings.catch_warnings(record=True) as caught:
        if every_warning:
            warnings.simplefilter("always", ConditionWarning)
        for argv in commands:
            t0 = time.perf_counter()
            codes.append(cli.main(list(argv)))
            seconds.append(time.perf_counter() - t0)
            refs.append(reference_seconds())
    count = sum(issubclass(w.category, ConditionWarning) for w in caught)
    return codes, Timing(seconds, refs), count


def probe(mode, plan):
    """Run probe.py in a fresh interpreter; returns (spawn clock, reply)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(PROBE), mode, str(plan)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


class Runs:
    """Counts runs of a workload and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems, label):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:5])


# ---------------------------------------------------------------------------
# one workload


def metric_units(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_workload(args):
    import repdyn.cli as cli
    from selftest import self_test
    from tracing import Tracer
    from workloads import ORACLE_FLOOR, WORKLOADS, output_fingerprint, sha256_file

    wl = WORKLOADS[args.workload](args.seed)
    work = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    in_dir, out_dir, probe_out = work / "in", work / "out", work / "probe-out"
    wl.write_inputs(in_dir)
    commands = wl.commands(str(in_dir), str(out_dir))
    runs = Runs()

    # the first run warms the caches and is not a sample; it is checked in
    # full, and every later run must reproduce its exit codes and bytes
    start = time.perf_counter()
    ref_codes, _, _ = run_commands(cli, commands, out_dir)
    outcome = wl.check(str(out_dir), ref_codes)
    runs.record(outcome.problems, "first run")
    ref_fp = output_fingerprint(out_dir)
    csv_sha = {p.name: sha256_file(p) for p in sorted(out_dir.glob("*.csv"))}
    missed = self_test(wl, out_dir, ref_codes, work)
    if missed:
        runs.problems.append(f"self-test: corruptions not rejected: {missed}")
    plan = work / "plan.json"
    plan.write_text(json.dumps({"commands": wl.commands(str(in_dir), str(probe_out))}))

    def reproduces(codes):
        out = []
        if codes != ref_codes:
            out.append(f"exit codes {codes} differ from {ref_codes}")
        if output_fingerprint(out_dir) != ref_fp:
            out.append("output bytes differ from the first run")
        return out

    # traced runs alternate with plain ones; without tracing, a fresh
    # interpreter sets up after every plain run, so the set-up samples spread
    # over the whole run.  The loop stops before a pass that would end past
    # --seconds.
    plain, traced, passes, setup = [], [], [], []
    layers, uncovered, spans = [], [], []
    while True:
        elapsed = time.perf_counter() - start
        enough = len(plain) >= MIN_RUNS and (not args.trace or len(traced) >= MIN_TRACED_RUNS)
        if enough and elapsed + statistics.median(passes) > args.seconds:
            break
        began = time.perf_counter()
        if args.trace and len(plain) > len(traced):
            tracer = Tracer()
            with tracer.installed():
                codes, timing, raised = run_commands(cli, commands, out_dir,
                                                     every_warning=True)
            traced.append(timing)
            layer = tracer.layer_metrics()
            layer["linalg.condition_warnings"] = raised
            layers.append(layer)
            uncovered.append(max(0.0, timing.wall - tracer.root_seconds()) / timing.wall)
            spans = tracer.span_records()
        else:
            codes, timing, _ = run_commands(cli, commands, out_dir)
            plain.append(timing)
            if not args.trace:
                started, reply = probe("setup", plan)
                setup.append(reply["validated_at"] - started)
        runs.record(reproduces(codes), f"run {runs.attempted}")
        passes.append(time.perf_counter() - began)

    walls = [t.wall for t in plain]
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_info(),
        "csv_sha256": csv_sha,
        "exit_codes": ref_codes,
        "oracle_err_parts": outcome.oracle_parts,
        "words": outcome.words,
        "wall_s_samples": len(walls),
        "wall_s_median": statistics.median(walls),
        "wall_s_tail": tail(walls),
        "wall_s_each": walls,
        "words_per_s": outcome.words / statistics.median(walls),
        "command_ratio_medians": [statistics.median(r)
                                  for r in zip(*(t.ratios for t in plain))],
        "command_ratios_each": [t.ratios for t in plain],
    }

    if args.trace:
        (work / "spans.json").write_text(json.dumps(spans))
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.overhead_frac"] = wall_ref(traced) / wall_ref(plain) - 1.0
        metrics["trace.uncovered_frac"] = statistics.median(uncovered)
        units = metric_units("per_layer")
        info["traced_samples"] = len(traced)
    else:
        # a fresh process runs the workload once (peak memory, warnings, and
        # output identical to the in-process runs)
        started, once = probe("once", plan)
        setup.append(once["validated_at"] - started)
        same = once["codes"] == ref_codes and output_fingerprint(probe_out) == ref_fp
        runs.record([] if same else ["a fresh process wrote different output"],
                    "fresh-process run")
        info["condition_warnings"] = {k: once[k] for k in ("raised", "shown")}
        info["setup_s_samples"] = setup
        metrics = {
            "wall_ref": wall_ref(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": once["peak_rss_kb"] / 1024.0,
            # a run whose output could not be read has no oracle reading
            "oracle_err": max(outcome.oracle_err, ORACLE_FLOOR) if outcome.words else 0.0,
        }
        units = metric_units("end_to_end")

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not"
                           " match BENCHMARK.json")
    info["problems"] = runs.problems[:20]
    result = {
        "correct": runs.failed == 0 and not runs.problems,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    (work / "result.json").write_text(json.dumps({"info": info, "result": result}, indent=1))
    for bulky in (out_dir, probe_out):
        shutil.rmtree(bulky, ignore_errors=True)
    for name in units:
        print(f"{wl.name} {name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Every workload in turn, each in its own process."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        status = status or proc.returncode
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repdyn" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'repdyn'}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import repdyn
    from workloads import WORKLOADS

    if Path(repdyn.__file__).resolve().parent != SRC / "repdyn":
        print(f"perfbench: imported repdyn from {repdyn.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r};"
              f" choose from {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
