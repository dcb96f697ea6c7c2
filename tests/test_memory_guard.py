"""`scripts/memory_guard.py`: the memory bounds of two commands over a bare
import."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GUARD = str(ROOT / "scripts" / "memory_guard.py")


def test_flowmetric_keeps_its_bound():
    proc = subprocess.run([sys.executable, GUARD, str(ROOT / "src"), "flowmetric"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line, = proc.stdout.splitlines()
    assert line.startswith("import ") and line.endswith(", limit 48.0 MiB")


def test_an_unknown_guard_is_refused():
    proc = subprocess.run([sys.executable, GUARD, str(ROOT / "src"), "spectrum"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "unknown guard 'spectrum'" in proc.stderr
