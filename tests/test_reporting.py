import numpy as np
import pytest

from rarepath import (ContinuousPath, FiniteChain, JumpPath, WeightedSample,
                      simulate_brownian, RngStream)
from rarepath.lattice import ChainPath, stationary_distribution
from rarepath.reporting import (CSV_CHUNK_ROWS, chain_to_csv_rows,
                                finite_chain_from_csv, finite_chain_to_csv,
                                format_cell, jump_path_to_csv_rows, kv_lines,
                                path_to_csv_rows, weighted_samples_to_csv_rows,
                                write_csv, write_csv_columns)


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


def test_path_rows():
    p = ContinuousPath(step=0.5, values=np.array([1.0, 2.0]))
    assert list(path_to_csv_rows(p)) == [[0, 0.0, 1.0], [1, 0.5, 2.0]]
    bm = simulate_brownian(RngStream(1), 2, 0.5, 1.0)
    rows = list(path_to_csv_rows(bm))
    assert len(rows[0]) == 4  # index, time, two coordinates


def test_jump_and_sample_rows():
    jp = JumpPath(x0=[0.0], jump_times=[0.5], marks=[[2.0]], horizon=1.0)
    assert list(jump_path_to_csv_rows(jp)) == [[0, 0.5, 2.0]]
    ws = [WeightedSample(1.5, -0.25, 3)]
    assert list(weighted_samples_to_csv_rows(ws)) == [[3, 1.5, -0.25]]
    cp = ChainPath(np.array([2, 1, 0]))
    assert list(chain_to_csv_rows(cp)) == [[0, 2], [1, 1], [2, 0]]


def test_kv_lines_format():
    out = kv_lines([("a", 1), ("b", 0.5)])
    assert out == "a=1\nb=0.5\n"


def test_finite_chain_round_trip(tmp_path):
    kern = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
    chain = FiniteChain(states=["a", "b", "c"], kernel=kern)
    chain = FiniteChain(states=["a", "b", "c"], kernel=kern,
                        pi=stationary_distribution(chain))
    path = tmp_path / "chain.csv"
    finite_chain_to_csv(chain, str(path))
    back = finite_chain_from_csv(str(path))
    assert back.states == ["a", "b", "c"]
    assert np.max(np.abs(back.kernel - kern)) == 0.0
    assert np.max(np.abs(back.pi - chain.pi)) == 0.0
