import numpy as np
import pytest

from lrdetect import (
    TimeSeries,
    read_series_csv,
    write_series_csv,
)
from oracles import csv_reader_series
from lrdetect.series import _CSV_CHUNK, _CSV_SLICE


def test_timeseries_rejects_bad_values():
    with pytest.raises(ValueError):
        TimeSeries([])
    with pytest.raises(ValueError):
        TimeSeries([1.0, float("nan")])
    with pytest.raises(ValueError):
        TimeSeries([1.0, float("inf")])
    with pytest.raises(ValueError):
        TimeSeries([[1.0, 2.0]])


def test_timeseries_is_immutable():
    x = TimeSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        x.values[0] = 9.0


def test_series_csv_round_trip(tmp_path):
    x = TimeSeries([0.5, -1.25, 3.0])
    path = write_series_csv(x, tmp_path / "series.csv")
    assert path.read_bytes() == b"value\r\n0.5\r\n-1.25\r\n3.0\r\n"
    back = read_series_csv(path)
    assert np.array_equal(back.values, x.values)


def test_series_csv_headerless(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("1.0\n2.5\n-3.0\n")
    back = read_series_csv(path)
    assert np.array_equal(back.values, [1.0, 2.5, -3.0])


ENDINGS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}

ACCEPTED = {
    "header": ["value", "1.0", "2.5", "-3.0", ""],
    "header any case, padded": ["  VaLuE \t", "1.0", "2.5", ""],
    "headerless": ["1.0", "2.5", "-3.0", ""],
    "no final line end": ["value", "1.0", "2.5"],
    "blank lines": ["value", "", "1.0", "", "", "2.5", "-3e-7", ""],
    "trailing blank lines": ["value", "1.0", "2.5", "", "", ""],
    "single value": ["4.25", ""],
    "padded values": ["value", " 1.5", "2.5 ", "\t-0.0", ""],
}


@pytest.mark.parametrize("ending", ENDINGS.values(), ids=ENDINGS.keys())
@pytest.mark.parametrize("lines", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_series_csv_reader_matches_csv_reader_oracle(tmp_path, lines, ending):
    path = tmp_path / "series.csv"
    path.write_bytes(ending.join(lines).encode())
    got = read_series_csv(path).values
    assert got.tobytes() == csv_reader_series(path).values.tobytes()


REJECTED = {
    "two columns": (["value", "1.0", "2.0,3.0"], "line 3: expected a single column, got 2"),
    "empty file": ([], "empty file"),
    "header only": (["value"], "no values"),
    "only blank lines": (["", ""], "no values"),
    "bad token": (["value", "1.0", "", "abc"], "line 4: expected a finite float, got 'abc'"),
    "whitespace-only line": (["1.0", "  "], "line 2: expected a finite float, got '  '"),
    "form feed inside a line": (["1.0\x0c2.0"], "line 1: expected a finite float"),
    "nan": (["value", "nan", "1.0"], "line 2: expected a finite float, got 'nan'"),
    "infinite": (["value", "1.0", "1e999"], "line 3: expected a finite float, got '1e999'"),
    "not UTF-8": (["value", "1.0", "2.0\udcff\udcfe", "3.0"], "line 3: not UTF-8 text"),
}


@pytest.mark.parametrize("ending", ENDINGS.values(), ids=ENDINGS.keys())
@pytest.mark.parametrize("lines, message", REJECTED.values(), ids=REJECTED.keys())
def test_series_csv_reader_errors_name_file_and_line(tmp_path, lines, message, ending):
    path = tmp_path / "series.csv"
    path.write_bytes("".join(line + ending for line in lines).encode(errors="surrogateescape"))
    with pytest.raises(ValueError):
        csv_reader_series(path)
    with pytest.raises(ValueError) as excinfo:
        read_series_csv(path)
    assert str(excinfo.value).startswith(f"{path}: ")
    assert message in str(excinfo.value)


def test_series_csv_rejects_quoted_values(tmp_path):
    # csv.reader strips the quotes; the writer never writes them, and the reader takes none
    path = tmp_path / "quoted.csv"
    path.write_text('value\n"2.5"\n')
    assert csv_reader_series(path).values.tolist() == [2.5]
    with pytest.raises(ValueError, match="line 2: expected a finite float, got '\"2.5\"'"):
        read_series_csv(path)


def test_series_csv_round_trips_adversarial_floats(tmp_path):
    info = np.finfo(np.float64)
    values = np.array(
        [
            0.0, -0.0, 5e-324, -5e-324, info.tiny, -info.tiny, info.max, -info.max,
            0.1, 0.1 + 0.2, 1 / 3, 2 / 3, 1e16 + 2, 9007199254740993.0, 1.2345678901234567e-300,
            2.2250738585072009e-308,  # the largest subnormal
        ]
    )
    values = np.concatenate([values, np.random.default_rng(12).standard_normal(64) * 10.0 ** np.arange(-32, 32)])
    path = write_series_csv(TimeSeries(values), tmp_path / "adversarial.csv")
    assert read_series_csv(path).values.tobytes() == values.tobytes()


@pytest.mark.parametrize("n", [_CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1, 2 * _CSV_CHUNK + 3])
def test_series_csv_round_trips_across_chunks(tmp_path, n):
    values = np.random.default_rng(n).standard_normal(n)
    path = write_series_csv(TimeSeries(values), tmp_path / "long.csv")
    assert path.read_bytes() == ("value\r\n" + "\r\n".join(map(repr, values.tolist())) + "\r\n").encode()
    assert read_series_csv(path).values.tobytes() == values.tobytes()


def test_series_csv_reader_slices_match_csv_reader_oracle(tmp_path):
    # short, blank and padded lines over several slices, headerless
    rng = np.random.default_rng(3)
    values = rng.standard_normal(5 * _CSV_CHUNK)
    values[::3] = np.round(values[::3], 2)
    lines = [f" {v!r}" if i % 7 == 0 else repr(v) for i, v in enumerate(values.tolist())]
    for i in range(0, len(lines), 5003):
        lines[i : i + 1] = ["", lines[i], ""]
    path = tmp_path / "sliced.csv"
    path.write_text("\n".join(lines))
    assert len(path.read_text()) > 3 * _CSV_SLICE
    got = read_series_csv(path).values
    assert got.tobytes() == csv_reader_series(path).values.tobytes()


@pytest.mark.parametrize(
    "bad, message",
    [
        ("abc", "expected a finite float, got 'abc'"),
        ("nan", "expected a finite float, got 'nan'"),
        ("1.0,2.0", "expected a single column, got 2"),
    ],
)
def test_series_csv_reader_names_a_line_after_the_first_slice(tmp_path, bad, message):
    lines = ["value", *map(repr, np.random.default_rng(4).standard_normal(3 * _CSV_CHUNK).tolist())]
    blank, wrong = 2 * _CSV_CHUNK, 2 * _CSV_CHUNK + 7  # positions in lines; line numbers count from 1
    lines[blank], lines[wrong] = "", bad
    assert len("\n".join(lines[:blank])) > _CSV_SLICE
    path = tmp_path / "series.csv"
    path.write_text("\r\n".join(lines) + "\r\n", newline="")
    with pytest.raises(ValueError) as excinfo:
        read_series_csv(path)
    assert str(excinfo.value) == f"{path}: line {wrong + 1}: {message}"
