"""Bound the memory that two commands take beyond a bare import.

    python3 scripts/memory_guard.py SRC [GUARD ...]

SRC is the ``src`` directory of the checkout to measure, so that two trees
are read the same way.  Each guard (by default all of them) writes its input,
then runs ``import repdyn.cli`` and the command, each in a fresh child
process with SRC on ``PYTHONPATH``, and reads its growth as the difference
of ``RUSAGE_CHILDREN``'s ``ru_maxrss`` after each: the largest peak of any
child so far.  That reading only grows, so each guard runs in a process of
its own.  The exit status is 1 if a guard outgrew its limit, else 0.

- ``dominate``: ping-pong ``dominate --k 1 --max-length 12`` may grow by
  at most 2.5 times the bytes of its last sphere (4 * 3**11 rows at 72 B
  each), 121.6 MiB: the exhaustive engine holds about one sphere.
- ``flowmetric``: ``flowmetric --window 40`` on 200 seeded geodesics (20100
  pairs) may grow by at most 48 MiB: it reads about 30 MiB, most of it the
  report, while the temporaries of all pairs at every time and letter at
  once would take about 210 MiB.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile

import numpy as np

def ping_pong():
    return {"n": 2, "generators": [
        {"name": "a", "rows": [["4", 0], [0, "1/4"]]},
        {"name": "b", "rows": [["17/8", "15/8"], ["15/8", "17/8"]]}]}


def reduced(rng, length, avoid=None):
    """A reduced rank-2 letter sequence whose first letter is not ``avoid``."""
    out = []
    while len(out) < length:
        letter = int(rng.choice([1, -1, 2, -2]))
        if (out and letter == -out[-1]) or (not out and letter == avoid):
            continue
        out.append(letter)
    return out


def geodesics():
    rng = np.random.default_rng(7)
    geos = []
    for _ in range(200):
        # forward[0] != backward[0] keeps the junction at the anchor reduced
        forward = reduced(rng, 44)
        geos.append({"anchor": reduced(rng, int(rng.integers(0, 4))), "forward": forward,
                     "backward": reduced(rng, 44, avoid=forward[0])})
    return {"rank": 2, "geodesics": geos}


# name: (builder of the input document, command and its options, limit in MiB)
GUARDS = {
    "dominate": (ping_pong, ["dominate", "--k", "1", "--max-length", "12"],
                 2.5 * 4 * 3**11 * 72 / 2**20),
    "flowmetric": (geodesics, ["flowmetric", "--window", "40"], 48.0),
}


def measure(src, name):
    """Run guard ``name`` from ``src``; returns whether it kept its limit."""
    doc, argv, limit = GUARDS[name]
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(doc(), fh)
        peaks = []
        for code in ("import repdyn.cli",
                     "import sys; from repdyn.cli import main; sys.exit(main())"):
            subprocess.run([sys.executable, "-c", code, argv[0], "--input", path,
                            *argv[1:], "--out-dir", tmp], env=env, check=True)
            # ru_maxrss: the largest peak of any child so far, in KiB
            peaks.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
    grown = peaks[1] - peaks[0]
    print(f"import {peaks[0]:.1f} MiB, {name} {peaks[1]:.1f} MiB, "
          f"grown {grown:.1f} MiB, limit {limit:.1f} MiB", flush=True)
    return grown <= limit


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src", help="the src directory of the checkout to measure")
    p.add_argument("guards", nargs="*", metavar="GUARD",
                   help=f"one of {', '.join(GUARDS)}; all by default")
    args = p.parse_args(argv)
    unknown = [name for name in args.guards if name not in GUARDS]
    if unknown:
        p.error(f"unknown guard {unknown[0]!r}")
    src, guards = os.path.abspath(args.src), args.guards or list(GUARDS)
    if len(guards) == 1:
        if not measure(src, guards[0]):
            print(f"memory guard: {guards[0]} outgrew its bound", file=sys.stderr)
            return 1
        return 0
    # a fresh process per guard, whose RUSAGE_CHILDREN starts empty
    failed = [subprocess.run([sys.executable, __file__, src, name]).returncode
              for name in guards]
    return 1 if any(failed) else 0


if __name__ == "__main__":
    sys.exit(main())
