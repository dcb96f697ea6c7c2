"""Self-test of the output checks: corrupted outputs must be rejected.

Every benchmark run calls `self_test` on the outputs of its first run, so a
check that stopped looking at the files cannot pass unnoticed.
"""

import json
import shutil
from pathlib import Path

from workloads import output_fingerprint


def _largest_csv(out_dir):
    csvs = [p for p in Path(out_dir).iterdir() if p.suffix == ".csv"]
    return max(csvs, key=lambda p: (p.stat().st_size, p.name))


def _drop_last_row(out_dir):
    path = _largest_csv(out_dir)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def _change_digit(out_dir):
    path = _largest_csv(out_dir)
    text = path.read_text()
    second_line = text.index("\n") + 1
    i = max(j for j in range(second_line, text.index("\n", second_line))
            if text[j].isdigit())
    path.write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])


def _drop_result_key(out_dir):
    # the last key in sorted order is a required one for every command
    path = sorted(Path(out_dir).glob("*_summary.json"))[0]
    doc = json.loads(path.read_text())
    del doc["results"][sorted(doc["results"])[-1]]
    path.write_text(json.dumps(doc))


def _flip_first_flag(out_dir):
    """Negate the first boolean result, top level or one object down."""
    for path in sorted(Path(out_dir).glob("*_summary.json")):
        doc = json.loads(path.read_text())
        for key, value in sorted(doc["results"].items()):
            holder = value if isinstance(value, dict) else {key: value}
            flags = [k for k, v in holder.items() if isinstance(v, bool)]
            if flags:
                holder[flags[0]] = not holder[flags[0]]
                if holder is not value:
                    doc["results"][key] = holder[key]
                path.write_text(json.dumps(doc))
                return


def self_test(wl, ref_dir, codes, work):
    """Corrupt copies of a checked output; each must be rejected.

    Returns the names of the corruptions the gate let through.  The first
    three must be caught by the output check alone; a changed digit must at
    least be caught by the byte comparison between runs.
    """
    ref_fp = output_fingerprint(ref_dir)
    missed = []
    cases = (("csv-row-dropped", _drop_last_row, True),
             ("summary-key-dropped", _drop_result_key, True),
             ("summary-flag-flipped", _flip_first_flag, True),
             ("csv-digit-changed", _change_digit, False))
    for label, corrupt, by_check in cases:
        case_dir = work / "selftest" / label
        shutil.rmtree(case_dir, ignore_errors=True)
        shutil.copytree(ref_dir, case_dir)
        corrupt(case_dir)
        caught_by_check = bool(wl.check(str(case_dir), codes).problems)
        caught = caught_by_check or output_fingerprint(case_dir) != ref_fp
        if not (caught_by_check if by_check else caught):
            missed.append(label)
    shutil.rmtree(work / "selftest", ignore_errors=True)
    return missed
