"""Command line front end: run analyses on generator files, emit reports.

Usage::

    repdyn dominate   --input gens.json --k 1 --max-length 8 --out-dir out/
    repdyn spectrum   --input gens.json --k 1 --m-max 6
    repdyn split      --input gens.json --k 1 --window 48
    repdyn affine     --input gens.json --max-length 6
    repdyn flowmetric --input geodesics.json --window 40

Every command writes one JSON summary plus zero or more CSV detail tables
into ``--out-dir``.  CSVs use '.' decimals, LF endings, a header row, and 17
significant digits, so identical configurations reproduce identical bytes;
the JSON summary is deterministic except for its ``timestamp`` field.

Exit codes: 0 pass, 2 refuted or failed, 3 inconclusive, 64 bad usage,
unparseable input (with line/column where available) or output that cannot
be written, 70 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import functools
import json
import math
import os
import re
import sys
import warnings
from fractions import Fraction
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path

import numpy as np

from . import __version__, affine, domination, flowbundle, spectrum, words
from .errors import (
    DegenerateGapError,
    DegenerateInputError,
    NumericOverflowError,
    RepdynError,
    WindowBoundsError,
)
from .linalg import subspace_distance

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64
EXIT_NUMERIC = 70

DEFAULT_SAMPLES = 200
DEFAULT_SEED = 0

# rows formatted per call of `write_csv`: bounds the text held in memory
CSV_CHUNK_ROWS = 4096

# a string split at its last exponent: what comes before, the exponent
# with its "e" and sign, and trailing space
_EXPONENT = re.compile(r"(.*)([eE][-+]?[\d_]+)(\s*)", re.DOTALL)


class InputFileError(Exception):
    """Input could not be parsed or validated; message includes location."""


# ---------------------------------------------------------------------------
# input parsing


def _reject_constant(name):
    # a ValueError, so that `load_json` puts the path in front
    raise ValueError(f"non-finite JSON constant {name!r} is not accepted")


def load_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise InputFileError(f"cannot read {path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise InputFileError(f"{path}: not UTF-8 text: {e}") from e
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise InputFileError(
            f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except RecursionError as e:
        raise InputFileError(f"{path}: JSON nested too deeply") from e
    except ValueError as e:  # a non-finite constant or an integer past the digit limit
        raise InputFileError(f"{path}: {e}") from e
    if not isinstance(doc, dict):
        raise InputFileError(f"{path}: top level must be a JSON object")
    return doc


def _rational(text) -> float:
    """``float(Fraction(text))``, without raising ten to a huge exponent.

    With the exponent's digits zeroed, `Fraction` accepts or refuses the
    same spelling and reads the mantissa.  A nonzero mantissa of d
    characters lies between ``10**-d`` and ``10**d``, so past an exponent
    of d + 400 either way the float is known: it overflows, or it is a zero
    with the mantissa's sign.  Any other string goes to `Fraction` whole.
    """
    match = _EXPONENT.fullmatch(text)
    if match:
        head, exponent, tail = match.groups()
        mantissa = Fraction(head + re.sub(r"\d", "0", exponent) + tail)
        exponent, bound = int(exponent[1:]), len(head) + 400
        if mantissa and exponent > bound:
            raise OverflowError(text)
        if not mantissa or exponent < -bound:
            return -0.0 if mantissa < 0 else 0.0
    return float(Fraction(text))


def _number(value, where) -> float:
    """A JSON number or an exact rational string like "3/4", as float."""
    if isinstance(value, bool):
        raise InputFileError(f"{where}: expected a number, got a boolean")
    if not isinstance(value, (int, float, str)):
        raise InputFileError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        out = _rational(value) if isinstance(value, str) else float(value)
    except (ValueError, ZeroDivisionError) as e:
        raise InputFileError(f"{where}: not a number or p/q rational: {value!r}") from e
    except OverflowError as e:
        raise InputFileError(f"{where}: value outside the float64 range") from e
    if not np.isfinite(out):
        raise InputFileError(f"{where}: value {value!r} is not finite")
    return out


def _matrix(rows, n, where):
    if not isinstance(rows, list) or len(rows) != n:
        raise InputFileError(f"{where}: expected {n} rows")
    out = np.empty((n, n))
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise InputFileError(f"{where}[{i}]: expected {n} entries")
        for j, v in enumerate(row):
            out[i, j] = _number(v, f"{where}[{i}][{j}]")
    return out


def parse_generator_doc(doc, path=""):
    """Validate a generator document into names, matrices, translations.

    The document is ``{"n": int, "generators": [{"name": str, "rows":
    [[...]]}], "translations": [[...], ...]}`` with translations optional;
    entries are numbers or "p/q" strings.  Extra keys (``lines`` for the
    split command) pass through untouched.
    """
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputFileError(f"{path}: \"n\" must be an integer")
    gens = doc.get("generators")
    if not isinstance(gens, list) or not gens:
        raise InputFileError(f"{path}: \"generators\" must be a nonempty array")
    names, matrices = [], []
    for idx, entry in enumerate(gens):
        where = f"{path}: generators[{idx}]"
        if not isinstance(entry, dict):
            raise InputFileError(f"{where}: expected an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise InputFileError(f"{where}.name: expected a nonempty string")
        if name in names:
            raise InputFileError(f"{where}.name: {name!r} names an earlier generator")
        names.append(name)
        matrices.append(_matrix(entry.get("rows"), n, f"{where}.rows"))
    translations = None
    if "translations" in doc:
        tr = doc["translations"]
        if not isinstance(tr, list) or len(tr) != len(gens):
            raise InputFileError(
                f"{path}: \"translations\" must list one vector per generator"
            )
        translations = []
        for idx, vec in enumerate(tr):
            where = f"{path}: translations[{idx}]"
            if not isinstance(vec, list) or len(vec) != n:
                raise InputFileError(f"{where}: expected {n} entries")
            translations.append(
                np.array([_number(v, f"{where}[{j}]") for j, v in enumerate(vec)])
            )
    return names, matrices, translations


def load_generator_set(args):
    doc = load_json(args.input)
    names, matrices, _ = parse_generator_doc(doc, args.input)
    try:
        return domination.GeneratorSet(matrices, names), doc
    except DegenerateInputError as e:
        raise InputFileError(f"{args.input}: {e}") from e


# `affine` screens only the linear parts, so it loads its input as the other
# matrix commands do (translations are validated and not read); the name
# stays because the benchmark's tracer and probe look it up
load_affine_set = load_generator_set


def _letters(seq, where):
    if not isinstance(seq, list) or not seq:
        raise InputFileError(f"{where}: expected a nonempty array of letters")
    out = []
    for j, v in enumerate(seq):
        if not isinstance(v, int) or isinstance(v, bool) or v == 0:
            raise InputFileError(f"{where}[{j}]: letters are nonzero integers")
        out.append(v)
    return out


def parse_lines(doc, gens, window, path=""):
    """Flow lines for the split command.

    The optional top-level key ``"lines"`` is an array of objects, each
    either ``{"pattern": [letters]}`` (a periodic line of half width
    ``window``) or ``{"letters": [letters], "offset": int}``.  An explicit
    line of 2h letters runs at its own half width, h less ``|offset|``;
    ``window`` sets only the periodic lines.  An explicit line must reach at
    least two steps each way from its basepoint.  Without the key, one
    periodic line per generator is analyzed.
    """
    specs = doc.get("lines")
    if specs is None:
        return [
            (gens.names[i], words.FlowLineWindow.periodic([i + 1], window))
            for i in range(gens.rank)
        ]
    if not isinstance(specs, list) or not specs:
        raise InputFileError(f"{path}: \"lines\" must be a nonempty array")
    out = []
    for idx, spec in enumerate(specs):
        where = f"{path}: lines[{idx}]"
        if not isinstance(spec, dict):
            raise InputFileError(f"{where}: expected an object")
        if "pattern" in spec:
            letters = _letters(spec["pattern"], f"{where}.pattern")
        elif "letters" in spec:
            letters = _letters(spec["letters"], f"{where}.letters")
        else:
            raise InputFileError(f"{where}: need \"pattern\" or \"letters\"")
        for l in letters:
            if abs(l) > gens.rank:
                raise InputFileError(f"{where}: letter {l} outside rank {gens.rank}")
        try:
            if "pattern" in spec:
                line = words.FlowLineWindow.periodic(letters, window)
                label = "periodic:" + ".".join(str(l) for l in letters)
            else:
                offset = spec.get("offset", 0)
                if not isinstance(offset, int) or isinstance(offset, bool):
                    raise InputFileError(f"{where}.offset: expected an integer")
                line = words.FlowLineWindow(letters, len(letters) // 2, offset)
                label = f"explicit:{idx}"
                if line.usable_half_width < 2:
                    raise InputFileError(
                        f"{where}: usable half width {line.usable_half_width};"
                        " need at least two steps in each direction")
        except (ValueError, WindowBoundsError) as e:
            raise InputFileError(f"{where}: {e}") from e
        out.append((label, line))
    return out


def parse_geodesics(doc, path=""):
    """Flow lines for the flowmetric command.

    Expects ``{"rank": int, "geodesics": [{"anchor": [letters], "forward":
    [letters], "backward": [letters]}, ...]}``; anchors may be empty arrays.
    Each entry is one :class:`~repdyn.words.FlowLineWindow`, built by
    ``from_rays`` with its basepoint at the anchor.
    """
    rank = doc.get("rank")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise InputFileError(f"{path}: \"rank\" must be a positive integer")
    specs = doc.get("geodesics")
    if not isinstance(specs, list) or len(specs) < 1:
        raise InputFileError(f"{path}: \"geodesics\" must be a nonempty array")
    out = []
    for idx, spec in enumerate(specs):
        where = f"{path}: geodesics[{idx}]"
        if not isinstance(spec, dict):
            raise InputFileError(f"{where}: expected an object")
        anchor = spec.get("anchor", [])
        if anchor == []:
            anchor_letters = []
        else:
            anchor_letters = _letters(anchor, f"{where}.anchor")
        fwd = _letters(spec.get("forward"), f"{where}.forward")
        back = _letters(spec.get("backward"), f"{where}.backward")
        for l in anchor_letters + fwd + back:
            if abs(l) > rank:
                raise InputFileError(f"{where}: letter {l} outside rank {rank}")
        try:
            line = words.FlowLineWindow.from_rays(anchor_letters, fwd, back)
        except ValueError as e:
            raise InputFileError(f"{where}: {e}") from e
        out.append(line)
    return out


# ---------------------------------------------------------------------------
# output


def format_number(x) -> str:
    return f"{float(x):.17g}"


def _format_cell(cell) -> str:
    if isinstance(cell, bool):
        return str(cell).lower()
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    if isinstance(cell, (float, np.floating)):
        return format_number(cell)
    return str(cell)


def format_floats(values) -> np.ndarray:
    """``'%.17g' % v`` of each float of a 1-D array, as an object array.

    Each distinct value is formatted once.  Values are told apart by their
    bits, so ``-0.0`` and ``0.0`` stay apart, and the strings are gathered
    back through the inverse index of `np.unique`.
    """
    bits, where = np.unique(np.ascontiguousarray(values, dtype=float).view(np.int64),
                            return_inverse=True)
    text = np.array(["%.17g" % v for v in bits.view(float).tolist()], dtype=object)
    return text[where]


def _chunk_text(chunk, width):
    """The rows of ``chunk``, each a sequence of string cells, as CSV text,
    or None when csv quoting could touch one of their cells.

    The rows are joined with ``,`` and LF and checked once: no ``"`` and no
    CR in the text, one comma fewer than the width per row, one LF per row,
    and no one-column row holding the empty string.  The commas and LFs are
    counted with numpy in the text's UTF-8 bytes, where neither byte occurs
    inside a multi-byte sequence; a lone surrogate is passed through the
    count and fails as the text is written.  A cell that is not a string
    raises ``TypeError``."""
    text = "\n".join(map(",".join, chunk)) + "\n"
    data = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    # a separator in a cell shows as one comma or LF more than the rows
    # account for, and a one-column row holding "" is written as '""'
    plain = ('"' not in text and "\r" not in text
             and np.count_nonzero(data == ord(",")) == (width - 1) * len(chunk)
             and np.count_nonzero(data == ord("\n")) == len(chunk)
             and not (width == 1 and any(row[0] == "" for row in chunk)))
    return text if plain else None


@contextlib.contextmanager
def _output(path):
    """``path`` opened for writing text; an `OSError` while opening, writing
    or closing it is an `InputFileError` that names the file.  What was
    written before stays."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as e:
        raise InputFileError(f"cannot write {path}: {e.strerror or e}") from e


def write_csv(path, header, rows):
    """Write a CSV with LF endings, a header row and 17-significant-digit floats.

    Rows are read ``CSV_CHUNK_ROWS`` at a time, and a row may hold any
    cells.  A chunk whose cells are all strings, already formatted as the
    command tables yield them, is joined by `_chunk_text` as it stands; in
    any other chunk each cell is first formatted by `_format_cell`.  A
    chunk holding a string that csv quoting could touch (one with ``,``,
    ``"``, CR or LF, or the empty string of a one-column row) is written by
    ``csv.writer`` instead, and so is the header, so quoting follows the
    running interpreter's csv module.  Every row must be as wide as the
    header; a ragged row raises ``ValueError``.
    """
    width = len(header)
    rows = iter(rows)
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        while chunk := list(islice(rows, CSV_CHUNK_ROWS)):
            if set(map(len, chunk)) != {width}:
                raise ValueError(f"{path}: a row is not {width} cells wide")
            try:
                text = _chunk_text(chunk, width)
            except TypeError:  # a cell that is not a string
                chunk = [[_format_cell(cell) for cell in row] for row in chunk]
                text = _chunk_text(chunk, width)
            if text is None:
                writer.writerows(chunk)
            else:
                fh.write(text)


# The summary keys of each report type, in the style of a namedtuple's
# field names.  An entry ``key=field`` writes the field under another name;
# fields not listed stay out of the summaries.
_SUMMARY_KEYS = {
    domination.DominationReport: "verdict k n L_max L_used truncated A_hat C_hat A_ci"
        " A_lower C_lower top_slope bottom_slope L0 refuted_at violating_word gap_tol"
        " spheres",
    domination.SphereRecord: "L=length count gap_min gap_mean logak_min lognk1_max"
        " argmin_word=argmin",
    spectrum.ConeEstimate: "m_max m_used truncated hull_affine_dim hausdorff",
    spectrum.ContainmentReport: "passed reason k window C_hat n_samples n_zero n_empty",
    spectrum.InvolutionReport: "passed max_deviation tol",
    affine.HksReport: "passed threshold max_normalized worst_word worst_length"
        " first_fail_length truncated",
    affine.EigenvalueOneReport: "passed criterion tol worst_deviation worst_word"
        " worst_length truncated",
    affine.BoundedSingularReport: "passed criterion C_hat slope slope_ci truncated",
    flowbundle.SplittingEstimate: "k residual independence t_forward t_backward",
    flowbundle.RateReport: "a_plus A_plus a_minus A_minus aprime_plus_zero"
        " Aprime_plus_zero aprime_zero_minus Aprime_zero_minus",
}


def _summary_keys(cls) -> tuple:
    return tuple(entry.partition("=")[0] for entry in _SUMMARY_KEYS[cls].split())


def _fields(report) -> dict:
    """The summary keys of a report object, each with its field's value."""
    pairs = (entry.partition("=")[::2] for entry in _SUMMARY_KEYS[type(report)].split())
    return {key: getattr(report, field or key) for key, field in pairs}


def _json_float(value) -> str:
    value = float(value)
    return float.__repr__(value) if math.isfinite(value) else "null"


def _json_scalar(value) -> str:
    """The JSON text of a numpy scalar or a subclassed Python scalar, as
    `json.dumps` writes the Python value it stands for."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return int.__repr__(int(value))
    if isinstance(value, (float, np.floating)):
        return _json_float(value)
    if isinstance(value, str):
        return _json_string(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# the JSON text of a value of each plain type, looked up by exact type
_JSON_LEAVES = {
    str: _json_string,
    float: _json_float,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _emit_json(value, gens, out, indent=""):
    """Append to the list ``out`` the text that ``json.dumps(value,
    indent=2, sort_keys=True)`` gives for ``value`` as plain JSON data,
    nested ``indent`` (a string of spaces) deep.

    A report object is written as the dict of its summary keys, a word as
    its name under ``gens`` and its letters, a numpy scalar or array as the
    Python value, and a non-finite float as ``null``.  Each key is written
    as ``str`` of the key, sorted by that string alone; a later key of the
    same string overwrites an earlier one.
    """
    leaf = _JSON_LEAVES.get(type(value))
    if leaf is not None:
        out.append(leaf(value))
        return
    if type(value) in _SUMMARY_KEYS:
        value = _fields(value)
    elif isinstance(value, words.Word):
        value = {"name": gens.word_name(value), "letters": list(value.letters)}
    elif isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        value = {str(k): v for k, v in value.items()}
        items = [(_json_string(k) + ": ", value[k]) for k in sorted(value)]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [("", v) for v in value]
        brackets = "[]"
    else:
        out.append(_json_scalar(value))
        return
    if not items:
        out.append(brackets)
        return
    inner = indent + "  "
    separator = brackets[0] + "\n" + inner
    for prefix, item in items:
        out.append(separator + prefix)
        separator = ",\n" + inner
        leaf = _JSON_LEAVES.get(type(item))
        if leaf is None:
            _emit_json(item, gens, out, inner)
        else:
            out.append(leaf(item))
    out.append("\n" + indent + brackets[1])


def write_summary(out_dir, command, config, results, csv_files, gens=None):
    """Write the JSON summary, then re-read and revalidate it.  The text
    comes from one `_emit_json` walk, which names the words of ``results``
    under ``gens``."""
    report = {
        "command": command,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config,
        "results": results,
        "csv_files": [os.path.basename(p) for p in csv_files],
    }
    out = []
    _emit_json(report, gens, out)
    out.append("\n")
    path = os.path.join(out_dir, f"{command}_summary.json")
    with _output(path) as fh:
        fh.write("".join(out))
    with open(path, "r", encoding="utf-8") as fh:
        reread = json.load(fh)
    problems = validate_report(reread)
    if problems:
        raise RuntimeError(f"emitted report failed validation: {problems}")
    return path


# every top-level key of each command's results
_REQUIRED_RESULT_KEYS = {
    "dominate": _summary_keys(domination.DominationReport),
    "spectrum": (*_summary_keys(spectrum.ConeEstimate), "hull_vertex_count",
                 "containment", "involution"),
    "split": ("window", "k", "lines", "any_degenerate"),
    "affine": ("hks", "eigenvalue_norm_one", "bounded_singular", "overall_pass"),
    "flowmetric": ("window", "count", "pairs"),
}


def validate_report(report) -> list[str]:
    """Schema check for an emitted JSON summary; returns found problems."""
    problems = []
    if not isinstance(report, dict):
        return ["report is not an object"]
    for key in ("command", "version", "timestamp", "config", "results", "csv_files"):
        if key not in report:
            problems.append(f"missing key {key}")
    command = report.get("command")
    required = _REQUIRED_RESULT_KEYS.get(command)
    if required is None:
        problems.append(f"unknown command {command!r}")
        return problems
    results = report.get("results")
    if not isinstance(results, dict):
        problems.append("results is not an object")
        return problems
    for key in required:
        if key not in results:
            problems.append(f"results missing key {key}")
    config = report.get("config")
    if not isinstance(config, dict):
        problems.append("config is not an object")
    elif "seed" not in config:
        problems.append("config missing seed")
    return problems


# ---------------------------------------------------------------------------
# commands


def _policy(args):
    if args.policy == "sampled":
        return words.Sampled(count=args.samples, seed=args.seed)
    return words.Exhaustive()


def _config(args, **extra):
    base = {
        "input": args.input,
        "policy": args.policy,
        "samples": args.samples if args.policy == "sampled" else None,
        "seed": args.seed,
        "threads": args.threads,
    }
    base.update(extra)
    return base


def cmd_dominate(args) -> int:
    gens, _ = load_generator_set(args)
    rep = domination.domination_scan(
        gens, k=args.k, L_max=args.max_length, policy=_policy(args)
    )
    csv_path = os.path.join(args.out_dir, "dominate_spheres.csv")
    write_csv(
        csv_path,
        ["L", "gap_min", "logak_min", "lognk1_max", "gap_mean", "count", "argmin_word"],
        [
            (r.length, r.gap_min, r.logak_min, r.lognk1_max, r.gap_mean, r.count,
             gens.word_name(r.argmin))
            for r in rep.spheres
        ],
    )
    write_summary(
        args.out_dir, "dominate",
        _config(args, k=args.k, max_length=args.max_length),
        rep, [csv_path], gens,
    )
    if rep.verdict in ("dominated", "partially-hyperbolic"):
        return EXIT_OK
    if rep.verdict == "refuted":
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


def _cone_rows(gens, cone):
    """CSV rows of every cone sample, as tuples of formatted strings.

    The rows are the `zip` of one level's columns after another, chained
    so that they are iterated in C, and a level's columns are built only
    when the rows reach it: the n Jordan columns by one `format_floats`
    call, the zero-index column gathered from one name per distinct mask,
    and the word names.  An exhaustive level lists its words in shortlex
    order, so the parent of row i is row ``i // (2 rank - 1)`` of the level
    before, and its name is the parent's plus one letter; a sampled level
    joins each word's letter names.
    """
    letter_names = np.empty(2 * gens.rank + 1, dtype=object)
    spaced = letter_names.copy()
    for l in words.alphabet(gens.rank):
        letter_names[l] = gens.word_name((l,))  # a negative letter indexes from the end
        spaced[l] = " " + letter_names[l]
    fan = 2 * gens.rank - 1

    def levels():
        names = None
        for m, level in sorted(cone.levels.items()):
            # a bool is one byte, so a void view makes each mask row one sortable key
            keys = np.ascontiguousarray(level.zero).view(f"V{cone.n}").ravel()
            _, first, mask_of_row = np.unique(keys, return_index=True, return_inverse=True)
            zero_names = np.array([
                ";".join(str(i + 1) for i in np.flatnonzero(level.zero[r])) for r in first
            ], dtype=object)
            if cone.exhaustive and names is not None:
                names = (names[np.arange(len(level)) // fan]
                         + spaced[level.letters[:, -1]])
            else:
                names = np.array(
                    [" ".join(w) for w in letter_names[level.letters].tolist()], dtype=object)
            columns = format_floats(level.jordan.T.ravel()).reshape(cone.n, -1).tolist()
            zeros = zero_names[mask_of_row.ravel()].tolist()
            yield zip(repeat(str(m), len(level)), *columns, zeros, names.tolist())

    return chain.from_iterable(levels())


def cmd_spectrum(args) -> int:
    gens, _ = load_generator_set(args)
    spectrum.neutral_window(args.k, gens.dim)  # refuse a bad --k before sampling
    cone = spectrum.sample_cone(gens, m_max=args.m_max, policy=_policy(args))
    contain = spectrum.containment_check(cone, k=args.k, tol=args.tol)
    invol = spectrum.involution_symmetry_check(cone)

    n = cone.n
    coord_names = [f"c{i + 1}" for i in range(n)]
    samples_path = os.path.join(args.out_dir, "spectrum_cone_samples.csv")
    write_csv(
        samples_path,
        ["m"] + coord_names + ["zero_indices", "word"],
        _cone_rows(gens, cone),
    )
    hull_path = os.path.join(args.out_dir, "spectrum_hull.csv")
    write_csv(hull_path, coord_names, cone.hull_vertices.tolist())

    results = {
        **_fields(cone),
        "hull_vertex_count": cone.hull_vertices.shape[0],
        "containment": {
            **_fields(contain),
            "violations": [{"m": m, "word": w, "zero_indices": idx}
                           for m, w, idx in contain.violations[:50]],
        },
        "involution": {**_fields(invol), "mismatch_count": len(invol.mismatches)},
    }
    write_summary(
        args.out_dir, "spectrum",
        _config(args, k=args.k, m_max=args.m_max, tol=args.tol),
        results, [samples_path, hull_path], gens,
    )
    return EXIT_OK if (contain.passed and invol.passed) else EXIT_FAIL


_DEGENERATE = (DegenerateGapError, DegenerateInputError)

_SPLIT_CURVES = (
    "backward_expanding",
    "forward_contracting",
    "dominance_neutral_over_expanding",
    "dominance_contracting_over_neutral",
)


def _residual_columns(traj, k):
    """The residual column of each line: at t = 3, 4, ... the largest move
    of a splitting block from t - 1 to t, as an array per line."""
    tt = min(traj.t_forward, traj.t_backward)
    times = np.arange(2, tt + 1)
    frames = flowbundle.splitting_at(traj, k, times, times)
    moves = [
        subspace_distance(f[:, 1:].reshape(-1, *f.shape[2:]),
                          f[:, :-1].reshape(-1, *f.shape[2:]))
        for f in frames
    ]
    return np.max(moves, axis=0).reshape(traj.size, max(tt - 2, 0))


def _replay(caught):
    """Warn again what ``warnings.catch_warnings(record=True)`` caught, under
    the filters in force, as if from where each was first raised."""
    if not caught:
        return
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for w in caught:
        module = modules.get(w.filename)
        if module is None:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        else:
            warnings.warn_explicit(
                w.message, w.category, w.filename, w.lineno, module=module.__name__,
                registry=vars(module).setdefault("__warningregistry__", {}),
            )


def _split_outcomes(traj, k):
    """The outcome of each line of a trajectory: ``(split, rates, residual
    column)``, or the error that makes the line degenerate.

    The lines go through one stacked pass.  If a line of a group of two or
    more degenerates there, the pass is dropped together with the warnings
    it raised, and each half of the group goes through again, down to the
    degenerate lines alone; a line gets the same bits in any group.  Lines
    whose products overflow within two steps in either direction are
    degenerate, with a `NumericOverflowError` that says how far they reach.
    """
    if traj.truncated and min(traj.t_forward, traj.t_backward) < 2:
        error = NumericOverflowError(
            f"the window reaches t = {traj.t_forward} forward and t = -{traj.t_backward}"
            " backward before overflow; need at least two steps in each direction")
        return [error] * traj.size
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            splits = flowbundle.estimate_splitting(traj, k)
            rates = flowbundle.measure_rates(traj, k)
            outcomes = list(zip(splits, rates, _residual_columns(traj, k)))
        except _DEGENERATE as e:
            outcomes = [e]
    if traj.size == 1 or not isinstance(outcomes[0], Exception):
        _replay(caught)
        return outcomes
    half = traj.size // 2
    return [*_split_outcomes(traj.lines_in(slice(None, half)), k),
            *_split_outcomes(traj.lines_in(slice(half, None)), k)]


def cmd_split(args) -> int:
    gens, doc = load_generator_set(args)
    lines = parse_lines(doc, gens, args.window, args.input)
    outcomes = [None] * len(lines)
    for traj in flowbundle.build_trajectory(gens, [line for _, line in lines]):
        for j, outcome in zip(traj.positions, _split_outcomes(traj, args.k)):
            outcomes[j] = traj, outcome
    line_results = []
    csv_files = []
    for j, ((label, _), (traj, outcome)) in enumerate(zip(lines, outcomes)):
        entry = {"label": label, "index": j, "status": "ok", "detail": "",
                 "truncated": traj.truncated}
        line_results.append(entry)
        if isinstance(outcome, Exception):
            entry.update(
                status="degenerate",
                detail=str(outcome),
                time=getattr(outcome, "time", None),
            )
            continue
        split, rates, residual = outcome
        entry.update(
            _fields(split),
            bases={
                "expanding": split.v_plus,
                "neutral": split.v_zero,
                "contracting": split.v_minus,
            },
            rates=rates,
        )

        # the five float columns are formatted in one call; the residual
        # column ends at t = min(t_forward, t_backward), and a column
        # shorter than the table is padded with ""
        floats = [residual, *(rates.curves[c] for c in _SPLIT_CURVES)]
        text = format_floats(np.concatenate(floats)).tolist()
        ends = np.cumsum([len(column) for column in floats]).tolist()
        columns = [text[end - len(column):end] for column, end in zip(floats, ends)]
        tt = min(traj.t_forward, traj.t_backward)
        columns[0] = [""] * (tt + 1 - len(residual)) + columns[0]
        count = max(map(len, columns))
        columns = [column + [""] * (count - len(column)) for column in columns]
        path = os.path.join(args.out_dir, f"split_line{j}.csv")
        write_csv(path, ["t", "residual", *_SPLIT_CURVES],
                  zip(map(str, range(count)), *columns))
        csv_files.append(path)

    any_degenerate = any(e["status"] == "degenerate" for e in line_results)
    results = {
        "window": args.window,
        "k": args.k,
        "any_degenerate": any_degenerate,
        "lines": line_results,
    }
    write_summary(
        args.out_dir, "split",
        _config(args, k=args.k, window=args.window),
        results, csv_files,
    )
    return EXIT_FAIL if any_degenerate else EXIT_OK


def cmd_affine(args) -> int:
    gens, _ = load_affine_set(args)
    hks, eig, bounded = affine.affine_checks(
        gens, L_max=args.max_length, policy=_policy(args), tol=args.tol
    )

    csv_path = os.path.join(args.out_dir, "affine_hks.csv")
    write_csv(
        csv_path,
        ["L", "max_normalized_det", "word"],
        [(r.length, r.value, gens.word_name(r.word)) for r in hks.spheres],
    )
    overall = hks.passed and (eig.passed or bounded.passed)
    results = {"overall_pass": overall, "hks": hks, "eigenvalue_norm_one": eig,
               "bounded_singular": bounded}
    write_summary(
        args.out_dir, "affine",
        _config(args, max_length=args.max_length, tol=args.tol),
        results, [csv_path], gens,
    )
    return EXIT_OK if overall else EXIT_FAIL


def cmd_flowmetric(args) -> int:
    doc = load_json(args.input)
    geos = parse_geodesics(doc, args.input)
    for j, g in enumerate(geos):
        if g.usable_half_width < args.window:
            raise InputFileError(
                f"{args.input}: geodesics[{j}] covers half width {g.usable_half_width},"
                f" below the requested window {args.window}"
            )
    pairs = [
        {"i": i, "j": j, "value": r.value, "tail_bound": r.tail_bound}
        for i, row in enumerate(words.flow_metric(geos, half_width=args.window))
        for j, r in enumerate(row, start=i)
    ]
    csv_path = os.path.join(args.out_dir, "flowmetric_pairs.csv")
    write_csv(
        csv_path,
        ["i", "j", "value", "tail_bound"],
        zip([str(p["i"]) for p in pairs], [str(p["j"]) for p in pairs],
            format_floats([p["value"] for p in pairs]).tolist(),
            format_floats([p["tail_bound"] for p in pairs]).tolist()),
    )
    results = {"window": args.window, "count": len(geos), "pairs": pairs}
    write_summary(
        args.out_dir, "flowmetric", _config(args, window=args.window),
        results, [csv_path],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _int_at_least(low):
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _tolerance(text):
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite nonnegative number, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repdyn",
        description="Numerical domination, spectrum, splitting, and affine"
        " analyses of finitely generated matrix groups.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="input JSON file")
    common.add_argument("--out-dir", default=".", help="directory for reports")
    common.add_argument(
        "--policy", choices=("exhaustive", "sampled"), default="exhaustive",
        help="scan whole word spheres or sample them",
    )
    common.add_argument(
        "--samples", type=_int_at_least(1), default=DEFAULT_SAMPLES,
        help="words per sphere under the sampled policy",
    )
    common.add_argument("--seed", type=_int_at_least(0), default=DEFAULT_SEED,
                        help="seed for sampled scans")
    common.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility; has no effect",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dominate", parents=[common],
                       help="k-domination and partial hyperbolicity scan")
    p.add_argument("--k", type=int, default=1, help="dominated index")
    p.add_argument("--max-length", type=_int_at_least(3), default=8,
                   help="largest word sphere scanned")

    p = sub.add_parser("spectrum", parents=[common],
                       help="joint spectrum cone and zero-index containment")
    p.add_argument("--k", type=int, default=1, help="containment index")
    p.add_argument("--m-max", type=_int_at_least(2), default=6,
                   help="deepest normalized sample level")
    p.add_argument("--tol", type=_tolerance, default=None,
                   help="zero tolerance (default: scale aware per sample)")

    p = sub.add_parser("split", parents=[common],
                       help="cocycle splitting and rates along flow lines")
    p.add_argument("--k", type=int, default=1, help="splitting index")
    p.add_argument("--window", type=_int_at_least(2),
                   default=flowbundle.DEFAULT_WINDOW, help="trajectory half width")

    p = sub.add_parser("affine", parents=[common],
                       help="eigenvalue-1 constraints for affine actions")
    p.add_argument("--max-length", type=_int_at_least(2), default=6,
                   help="largest word sphere scanned")
    p.add_argument("--tol", type=_tolerance, default=affine.DEFAULT_EIGENVALUE_TOL,
                   help="unit-modulus eigenvalue tolerance")

    p = sub.add_parser("flowmetric", parents=[common],
                       help="weighted distances between tree geodesics")
    p.add_argument("--window", type=_int_at_least(1), default=40,
                   help="truncation half width of the distance integral")
    return parser


def _make_out_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:  # a file in the way, or a path under one
        raise InputFileError(
            f"cannot create output directory {path}: {e.strerror or e}") from e


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one `build_parser` parser that every `main` call of a process
    reuses; parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 after printing a usage error and 0 after --help
        return EXIT_USAGE if e.code else EXIT_OK
    try:
        _make_out_dir(args.out_dir)
        # looked up by name on each call, so a handler replaced on the module
        # after the parser was built is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except np.linalg.LinAlgError as e:  # a ValueError subclass, so caught first
        print(f"repdyn: numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InputFileError, WindowBoundsError, DegenerateInputError,
            ValueError) as e:
        print(f"repdyn: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RepdynError as e:
        print(f"repdyn: numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
