import numpy as np
import pytest

from rarepath import JumpPath
from rarepath.reporting import (CSV_CHUNK_ROWS, format_cell,
                                jump_path_to_csv_rows, kv_lines, write_csv,
                                write_csv_columns)


def test_format_cell_shapes():
    assert format_cell(1.5) == "1.5"
    assert format_cell(np.float64(0.1)) == "0.1"
    assert format_cell(np.int64(3)) == "3"
    assert format_cell(True) == "true"
    assert format_cell("x") == "x"


def test_write_csv_is_byte_stable(tmp_path):
    rows = [[1, 0.1, "a"], [2, 0.30000000000000004, "b"]]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ["i", "x", "s"], rows)
    write_csv(p2, ["i", "x", "s"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"0.30000000000000004" in p1.read_bytes()


@pytest.mark.parametrize("n", [0, 5, 2 * CSV_CHUNK_ROWS + 3])
def test_write_csv_columns_matches_write_csv(tmp_path, n):
    gen = np.random.default_rng(3)
    x = gen.standard_normal(n) * 10.0 ** gen.integers(-300, 300, n)
    x[:5] = [-0.0, np.nan, np.inf, -np.inf, 0.1][:n]
    columns = [np.arange(n), x, -np.arange(n) * 7, gen.random(n) < 0.5,
               np.full(n, 2.0)]
    header = ["replica_id", "x", "negative", "flag", "two"]
    by_rows, by_columns = tmp_path / "rows.csv", tmp_path / "columns.csv"
    write_csv(by_rows, header, zip(*columns))
    write_csv_columns(by_columns, header, columns)
    assert by_columns.read_bytes() == by_rows.read_bytes()


def test_jump_and_sample_rows():
    jp = JumpPath(x0=[0.0], jump_times=[0.5], marks=[[2.0]], horizon=1.0)
    assert list(jump_path_to_csv_rows(jp)) == [[0, 0.5, 2.0]]


def test_kv_lines_format():
    out = kv_lines([("a", 1), ("b", 0.5)])
    assert out == "a=1\nb=0.5\n"

