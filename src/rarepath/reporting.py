"""Deterministic CSV and key-value report writers.

Floats are rendered with ``repr`` (shortest round-trip form), so a report
written twice from the same numbers is byte-identical.
"""

import csv
import io
import os
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "format_cell",
    "write_csv",
    "write_csv_columns",
    "kv_lines",
    "default_outdir",
    "jump_path_to_csv_rows",
    "profile_to_csv_rows",
]

OUTDIR_ENV = "RAREPATH_OUTDIR"
CSV_CHUNK_ROWS = 8192


def format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, np.integer):
        v = int(v)
    if isinstance(v, np.floating):
        v = float(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_cell(v) for v in row])
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def write_csv_columns(path: str, header: Sequence[str],
                      columns: Sequence[np.ndarray]) -> None:
    """Write equal-length 1-d numeric arrays as the columns of a CSV file.

    The bytes equal :func:`write_csv` on the same rows; cells are
    formatted a chunk of rows at a time and each chunk is written as it
    is formatted, so memory stays bounded for long tables.
    """
    formats = [repr if c.dtype.kind == "f" else str if c.dtype.kind in "iu"
               else format_cell for c in columns]
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for lo in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            cells = [map(f, c[lo:lo + CSV_CHUNK_ROWS].tolist())
                     for f, c in zip(formats, columns)]
            fh.write("\n".join(map(",".join, zip(*cells))))
            fh.write("\n")


def kv_lines(pairs) -> str:
    """Line-delimited ``key=value`` rendering of report fields."""
    return "\n".join(f"{k}={format_cell(v)}" for k, v in pairs) + "\n"


def default_outdir() -> str:
    return os.environ.get(OUTDIR_ENV, ".")


def jump_path_to_csv_rows(jump_path):
    """(jump_index, time, mark components...) rows."""
    for j, (t, mark) in enumerate(zip(jump_path.jump_times, jump_path.marks)):
        yield [j, float(t), *[float(m) for m in mark]]


def profile_to_csv_rows(profile):
    """(n, t, kappa, estimate, stderr) rows, deterministic order."""
    for (n, t, kappa) in sorted(profile.entries):
        est, se = profile.entries[(n, t, kappa)]
        yield [n, t, kappa, est, se]
