"""CSV serialization of result tables."""

import numpy as np
import pytest

from mirrorqed import results
from mirrorqed.results import write_csv


def _write_csv_by_rows(path, columns: dict) -> None:
    """The per-cell writer write_csv replaced: repr(float(x)) for numbers, else str(x)."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*(np.asarray(c).tolist() for c in columns.values())):
            fh.write(
                ",".join(
                    repr(float(x))
                    if isinstance(x, (int, float, np.floating)) and not isinstance(x, bool)
                    else str(x)
                    for x in row
                )
                + "\n"
            )


@pytest.mark.parametrize("chunk", [1024, 4])
def test_write_csv_is_byte_identical_to_the_per_cell_writer(tmp_path, monkeypatch, chunk):
    # rows are formatted a chunk at a time; 4 splits the 9 rows three ways
    monkeypatch.setattr(results, "_CHUNK_ROWS", chunk)
    rng = np.random.default_rng(0)
    n = 9
    floats = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    floats[:6] = [-0.0, np.inf, -np.inf, np.nan, 1e16, 5e-324]
    columns = {
        "t": np.linspace(0.0, 0.4, n),
        "ints": np.arange(n) - 4,
        "big_ints": np.array([2**53 + 1, -(2**62), 0, 7, 1, 2, 3, 4, 10**15]),
        "floats": floats,
        "float32": np.linspace(0.1, 0.9, n, dtype=np.float32),
        "list": [0.1 * k for k in range(n)],
        "label": [f"N_A={k}" for k in range(n)],
        "flags": np.arange(n) % 2 == 0,
        "mixed": [1, 2.5, "x", None, True, -0.0, np.float64(3.25), 8, 9],
    }
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_csv(new, columns)
    _write_csv_by_rows(old, columns)
    assert new.read_bytes() == old.read_bytes()
    lines = new.read_text().splitlines()
    assert [line.split(",")[3] for line in lines[1:7]] == [
        "-0.0", "inf", "-inf", "nan", "1e+16", "5e-324"
    ]


def test_write_csv_of_empty_columns_writes_the_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, {"t": np.array([]), "label": []})
    assert path.read_text() == "t,label\n"
