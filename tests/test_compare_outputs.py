"""`scripts/compare_outputs.py`: the byte-identity check of two trees."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import compare_outputs  # noqa: E402


def test_the_repository_matches_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"), str(ROOT), str(ROOT),
         "--seeds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "6 commands compared, 0 differences"


def test_every_kind_of_difference_is_reported():
    stderr = ("/a/src/repdyn/flowbundle.py:318: ConditionWarning: 9 of 14 products\n"
              "  v_plus = bottom_singular_subspace(ms, k, frames=frames)\n"
              "repdyn: numeric failure: overflow\n")
    messages = compare_outputs.stderr_messages(stderr)
    assert messages == ["ConditionWarning: 9 of 14 products", "repdyn: numeric failure: overflow"]
    moved = stderr.replace("/a/", "/b/").replace(":318:", ":320:")
    assert compare_outputs.stderr_messages(moved) == messages

    run = (0, {"x.csv": "1", "x_summary.json": "{}"}, messages)
    assert compare_outputs.differences("cmd", run, run) == []
    found = compare_outputs.differences(
        "cmd", run, (2, {"x.csv": "2", "y.csv": "3", "x_summary.json": "{}"}, messages[:1]))
    assert found[:3] == ["cmd: exit code 0 != 2", "cmd: x.csv differs", "cmd: y.csv differs"]
    assert len(found) == 4 and found[3].startswith("cmd: standard error differs")
