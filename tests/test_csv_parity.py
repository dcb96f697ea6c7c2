"""The cone CSV and `write_csv` against their per-column references.

The references below build a cone level's rows with one `format_floats`
call per Jordan column, yield them one at a time from Python, and check a
chunk's separators with ``str.count``.  The library's `_cone_rows` and
`_chunk_text` must give the same bytes, and the same error for a cell
that cannot be encoded.
"""

import csv
import json
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repdyn import cli, spectrum, words
from repdyn.cli import CSV_CHUNK_ROWS, format_floats, write_csv
from repdyn.domination import GeneratorSet

from conftest import partial_hyperbolic_matrices, ping_pong_matrices


def reference_cone_rows(gens, cone):
    """The cone's rows, one level at a time, each Jordan column formatted
    by its own `format_floats` call."""
    letter_names = np.empty(2 * gens.rank + 1, dtype=object)
    spaced = letter_names.copy()
    for l in words.alphabet(gens.rank):
        letter_names[l] = gens.word_name((l,))
        spaced[l] = " " + letter_names[l]
    fan = 2 * gens.rank - 1
    names = None
    for m, level in sorted(cone.levels.items()):
        keys = np.ascontiguousarray(level.zero).view(f"V{cone.n}").ravel()
        _, first, mask_of_row = np.unique(keys, return_index=True, return_inverse=True)
        zero_names = np.array([
            ";".join(str(i + 1) for i in np.flatnonzero(level.zero[r])) for r in first
        ], dtype=object)
        if cone.exhaustive and names is not None:
            names = (names[np.arange(len(level)) // fan]
                     + spaced[level.letters[:, -1]])
        else:
            names = np.array([" ".join(w) for w in letter_names[level.letters].tolist()],
                             dtype=object)
        columns = [format_floats(column).tolist() for column in level.jordan.T]
        zeros = zero_names[mask_of_row.ravel()].tolist()
        yield from zip([str(m)] * len(level), *columns, zeros, names.tolist())


def reference_chunk_text(chunk, width):
    text = "\n".join(map(",".join, chunk)) + "\n"
    plain = ('"' not in text and "\r" not in text
             and text.count(",") == (width - 1) * len(chunk)
             and text.count("\n") == len(chunk)
             and not (width == 1 and any(row[0] == "" for row in chunk)))
    return text if plain else None


def reference_write_csv(path, header, rows):
    """`write_csv` with the ``str.count`` separator check."""
    width = len(header)
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        while chunk := list(islice(rows, CSV_CHUNK_ROWS)):
            if set(map(len, chunk)) != {width}:
                raise ValueError(f"{path}: a row is not {width} cells wide")
            try:
                text = reference_chunk_text(chunk, width)
            except TypeError:
                chunk = [[cli._format_cell(cell) for cell in row] for row in chunk]
                text = reference_chunk_text(chunk, width)
            if text is None:
                writer.writerows(chunk)
            else:
                fh.write(text)


def outcome(write, path, header, rows):
    """The bytes a writer leaves, and the type and text of its error."""
    try:
        write(path, header, rows)
        error = None
    except (ValueError, TypeError) as e:
        error = (type(e), str(e))
    return path.read_bytes(), error


def four_dimensional_gens():
    """Rank 3 in GL(4): a rotation block between an expanding and a
    contracting coordinate, so Jordan coordinates 2 and 3 vanish together,
    and a generic third generator."""
    c, s = np.cos(0.7), np.sin(0.7)
    g = np.diag([2.0, 1.0, 1.0, 0.5])
    g[1:3, 1:3] = [[c, -s], [s, c]]
    h = np.eye(4)
    h[1:3, 1:3] = [[c, s], [-s, c]]
    k = np.eye(4) + np.diag([0.5, -0.25, 0.125], 1) + np.diag([0.3, 0.2, -0.1], -1)
    return GeneratorSet([g, h, k], names=["g", "h", "k"])


def padded_ping_pong():
    return GeneratorSet([np.pad(m, (0, 1)) + np.diag([0.0, 0.0, 1.0])
                         for m in ping_pong_matrices()], names=["a", "b"])


class TestConeCsv:
    @pytest.mark.parametrize("gens, m_max, policy", [
        (padded_ping_pong(), 6, words.Exhaustive()),
        (GeneratorSet(list(partial_hyperbolic_matrices()), names=["p", "q"]), 5,
         words.Exhaustive()),
        (four_dimensional_gens(), 4, words.Sampled(count=60, seed=3)),
    ], ids=["exhaustive-padded", "exhaustive-n3", "sampled-n4"])
    def test_bytes_match_the_per_column_rows(self, gens, m_max, policy, tmp_path):
        cone = spectrum.sample_cone(gens, m_max, policy)
        masks = {";".join(str(i + 1) for i in np.flatnonzero(row))
                 for level in cone.levels.values() for row in level.zero}
        if gens.dim == 4:
            assert not cone.exhaustive and {"2;3", "1;2;3;4"} <= masks
        header = ["m"] + [f"c{i + 1}" for i in range(cone.n)] + ["zero_indices", "word"]
        write_csv(tmp_path / "new.csv", header, cli._cone_rows(gens, cone))
        reference_write_csv(tmp_path / "ref.csv", header, reference_cone_rows(gens, cone))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_rows_are_tuples_of_strings_read_once(self):
        cone = spectrum.sample_cone(padded_ping_pong(), 4)
        rows = cli._cone_rows(padded_ping_pong(), cone)
        got = list(rows)
        assert got == list(reference_cone_rows(padded_ping_pong(), cone))
        assert all(type(row) is tuple and all(type(c) is str for c in row) for row in got)
        assert list(rows) == []


# every character csv quoting reacts to, one outside ASCII and a lone surrogate
CELL = st.text(alphabet=[",", "\n", "\r", '"', "α", "\ud800", "a", " "], max_size=4)


@st.composite
def string_tables(draw):
    width = draw(st.integers(1, 3))
    header = draw(st.lists(st.text(alphabet="hx,", max_size=3),
                           min_size=width, max_size=width))
    rows = draw(st.lists(st.tuples(*[CELL] * width), max_size=10))
    return header, rows


class TestWriteCsvParity:
    @settings(max_examples=300, deadline=None)
    @given(string_tables())
    @example((["h", "x"], [("a,b", "c")]))
    @example((["h", "x"], [("a\nb", "c")]))
    @example((["h", "x"], [("a\rb", "c")]))
    @example((["h", "x"], [('q"', "c")]))
    @example((["h"], [("",)]))
    @example((["h"], [('""',)]))
    @example((["h", "x"], [("α", "β,γ")]))
    @example((["h", "x"], [("α", "\ud800")]))
    @example((["h", "x"], [("a", "\ud800,")]))
    @example((["h"], [("\ud800",), ("",)]))
    # quoting is due for the chunk, and the row that cannot be encoded comes later
    @example((["h", "x"], [("a", "b,"), ("c", "\ud800")]))
    def test_same_bytes_or_same_error(self, tmp_path_factory, case):
        header, rows = case
        directory = tmp_path_factory.mktemp("csv")
        got = outcome(write_csv, directory / "new.csv", header, rows)
        expected = outcome(reference_write_csv, directory / "ref.csv", header, rows)
        assert got == expected

    @pytest.mark.parametrize("cell", [",", "\n", "\r", '"', "α", "\ud800"])
    def test_a_special_cell_after_a_full_chunk(self, cell, tmp_path):
        rows = [("w", str(i)) for i in range(CSV_CHUNK_ROWS)] + [("x", cell), ("y", "z")]
        got = outcome(write_csv, tmp_path / "new.csv", ["h", "x"], rows)
        expected = outcome(reference_write_csv, tmp_path / "ref.csv", ["h", "x"], rows)
        assert got == expected

    def test_a_name_that_cannot_be_encoded_fails_as_the_reference(self, tmp_path, capsys):
        # a JSON "\ud800" name is a lone surrogate, which UTF-8 cannot hold
        mats = [np.diag([2.0, 1.0, 0.5]), np.eye(3) + np.diag([1.0, 0.0], 1)]
        doc = {"n": 3, "generators": [{"name": name, "rows": m.tolist()}
                                      for name, m in zip(["\ud800", "b"], mats)]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc = cli.main(["spectrum", "--input", str(path), "--m-max", "3",
                       "--out-dir", str(tmp_path / "out")])
        gens = GeneratorSet(mats, names=["\ud800", "b"])
        cone = spectrum.sample_cone(gens, 3)
        header = ["m", "c1", "c2", "c3", "zero_indices", "word"]
        _, (kind, message) = outcome(reference_write_csv, tmp_path / "ref.csv", header,
                                     reference_cone_rows(gens, cone))
        assert kind is UnicodeEncodeError
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"repdyn: {message}\n"
