"""The one-pass CSV parser of load_dataset against the per-cell parser.

load_dataset parses a regular file with one np.loadtxt call and hands any
other file to the per-cell parser, which names the file, row and column of
the first fault.  For generated text with quoted fields, blank and
comma-only lines, rows with no response cell, odd cells, CRLF and lone
CR line ends, headers, ragged rows, overlong fields and bytes that are not
UTF-8, load_dataset returns exactly what the per-cell parser alone
returns, or raises its message, and warns of nothing.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from gmanova import ConfigError, io
from gmanova.io import load_dataset

FIELD_LIMIT = csv.field_size_limit()

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
)
ODD_CELLS = st.sampled_from(["nan", "-inf", "inf", "1_000", "#", "# 2", "", "  ",
                             " 2.5 ", "\t-1e-3", "١٢", "1e999", "x", "0x10",
                             "+.5", "1 ", "4.9e-324", "-0"])
LABELS = st.sampled_from(["a", "b", "grp 1", " a ", "", "#c", "é", "b\t", "a\0b"])
BLANKS = st.sampled_from(["", "   ", ",,", " , ,", "\t"])
SHORT_ROWS = st.sampled_from(["a", "a,", "b, ", " a ,\t", "a,,", ",1", "\0,1"])


@st.composite
def csv_files(draw):
    """(bytes of a CSV file, header flag)."""
    p = draw(st.integers(1, 4))
    lines = []
    header = draw(st.booleans())
    if header and draw(st.booleans()):
        lines.append(",".join(["group"] + [f"v{j}" for j in range(p)]))
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(BLANKS))
            continue
        if draw(st.integers(0, 19)) == 0:
            lines.append(draw(SHORT_ROWS))
            continue
        width = p
        if draw(st.integers(0, 9)) == 0:  # a ragged row
            width = draw(st.integers(0, p + 2))
        cells = [draw(LABELS)] + [draw(ODD_CELLS if draw(st.integers(0, 19)) == 0
                                       else NUMBERS) for _ in range(width)]
        if draw(st.integers(0, 9)) == 0:
            j = draw(st.integers(0, len(cells) - 1))
            cells[j] = '"' + cells[j] + '"'
        lines.append(",".join(cells))
    if lines and draw(st.integers(0, 9)) == 0:  # an overlong field
        j = draw(st.integers(0, len(lines) - 1))
        cut = lines[j].rfind(",") + 1
        lines[j] = lines[j][:cut] + "1" * (FIELD_LIMIT + draw(st.integers(-1, 1)))
    ends = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    text = ""
    for line in lines:
        text += line + (ends if ends != "mixed" else draw(st.sampled_from(["\n", "\r\n", "\r"])))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:  # a byte that is not UTF-8
        k = draw(st.integers(0, len(data)))
        data = data[:k] + b"\xff" + data[k:]
    return data, header


def _outcome(path, header):
    try:
        sample = load_dataset(path, header=header)
    except ConfigError as exc:
        return ("raises", str(exc))
    return ("sample", sample.X.dtype, sample.X.shape, sample.X.tobytes(),
            sample.labels, sample.group_sizes, sample.source_rows.tolist())


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(csv_files())
def test_fast_path_returns_what_the_cell_parser_returns(case):
    data, header = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(data)
        fast = io._parse_regular(path, header)
        if fast is not None:
            labels, X = io._parse_by_cells(path, header)
            assert fast[0] == labels
            assert fast[1].shape == X.shape and fast[1].tobytes() == X.tobytes()
        got = _outcome(path, header)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(io, "_parse_regular", lambda path, header: None)
            want = _outcome(path, header)
    event(f"{'one pass' if fast is not None else 'per cell'}, {got[0]}")
    assert got == want


def test_regular_file_takes_the_fast_path(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 5))
    labels = ["b", "a", "c"] * 4
    path = tmp_path / "d.csv"
    path.write_text("id,v1,v2,v3,v4,v5\r\n" + "".join(
        f"{lab}," + ",".join(map(repr, row)) + "\r\n\n"
        for lab, row in zip(labels, X.tolist())), encoding="utf-8")
    parsed = io._parse_regular(path, header=True)
    assert parsed is not None
    assert parsed[0] == labels and parsed[1].tobytes() == X.tobytes()
    sample = load_dataset(path, header=True)
    assert sample.labels == ("b", "a", "c") and sample.group_sizes == (4, 4, 4)
    assert sample.X.tobytes() == X[sample.source_rows].tobytes()


def test_extra_cells_are_not_dropped(tmp_path):
    """np.loadtxt with usecols would read the second row as 2 values."""
    path = tmp_path / "d.csv"
    path.write_text("g,1,2\nh,3,4,5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"row 2: has 4 cells, expected 3$"):
        load_dataset(path)


@pytest.mark.parametrize("text", [
    '"g 1",1,2\n"g 2",3,4\n',  # csv unquotes the label
    "g\rh,1\nk,2\n",  # a lone CR ends a csv record
    "g,1\nh\n",  # a row with no response cell
    "g,1\nh,\n",  # an empty last cell
    "g,1\n,,\nh,2\n",  # a comma-only line, which csv skips
    "g\0h,1\nk,2\n",  # csv rejects NUL before Python 3.11
])
def test_irregular_files_read_as_the_cell_parser_reads(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    got = _outcome(path, False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_parse_regular", lambda path, header: None)
        assert got == _outcome(path, False)
