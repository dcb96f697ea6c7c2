"""Compare what two source trees write for every benchmark command.

    python3 scripts/compare_outputs.py PARENT CHANGE [--seeds 1 7]

PARENT and CHANGE are checkouts of this repository.  For each seed and each
workload of ``perfbench/workloads.py`` (read from the checkout this script
lives in), the inputs are written once; then every command of the workload
runs from each tree in a process of its own, with that tree's ``src`` on
``PYTHONPATH`` and one BLAS thread, into the same empty output directory.
Each command's exit code, CSV bytes, summary (its timestamp aside) and
warning messages (their source locations aside) are compared.  Every
difference is printed; the exit status is 1 if there is any, else 0.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# "path:line: Category: message", as `warnings.showwarning` prints it; the
# source line it prints next is indented
_WARNING = re.compile(r"^.*:\d+: (\w+): (.*)$")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    return p.parse_args(argv)


def stderr_messages(text):
    """The lines of a command's standard error, each warning read as
    ``"Category: message"`` and the source line after it dropped."""
    out, lines = [], text.splitlines()
    i = 0
    while i < len(lines):
        match = _WARNING.match(lines[i])
        if match:
            out.append(f"{match.group(1)}: {match.group(2)}")
            i += 1
            if i < len(lines) and lines[i].startswith(" "):
                i += 1
        else:
            out.append(lines[i])
            i += 1
    return out


def run_command(tree, argv, out_dir):
    """Run one command from ``tree`` into an emptied ``out_dir``; returns its
    exit code, `workloads.output_fingerprint` and standard error messages."""
    from workloads import output_fingerprint

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "repdyn.cli", *argv], cwd=tree,
                          env=env, capture_output=True, text=True)
    return proc.returncode, output_fingerprint(out_dir), stderr_messages(proc.stderr)


def differences(label, parent, change):
    """One line per way the ``(code, fingerprint, messages)`` of two runs of
    the command ``label`` differ."""
    (code_a, files_a, msgs_a), (code_b, files_b, msgs_b) = parent, change
    out = []
    if code_a != code_b:
        out.append(f"{label}: exit code {code_a} != {code_b}")
    for name in sorted(set(files_a) | set(files_b)):
        if files_a.get(name) != files_b.get(name):
            out.append(f"{label}: {name} differs")
    if msgs_a != msgs_b:
        out.append(f"{label}: standard error differs:\n  parent {msgs_a}\n  change {msgs_b}")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    found, compared = [], 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as work:
        for seed in args.seeds:
            for name, workload in WORKLOADS.items():
                w = workload(seed)
                in_dir = os.path.join(work, "in")
                out_dir = os.path.join(work, "out")
                shutil.rmtree(in_dir, ignore_errors=True)
                w.write_inputs(in_dir)
                for argv_ in w.commands(in_dir, out_dir):
                    label = f"seed {seed} {name} {argv_[0]}"
                    runs = [run_command(tree, argv_, out_dir)
                            for tree in (args.parent, args.change)]
                    found += differences(label, *runs)
                    compared += 1
    for line in found:
        print(line)
    print(f"{compared} commands compared, {len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
