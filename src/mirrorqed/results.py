"""Time-series results and their CSV serialization."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class EvolutionResult:
    """Time grid plus named observable series (and MCWF standard errors)."""

    t: np.ndarray
    observables: dict = field(default_factory=dict)
    stderr: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    states: list | None = None  # density matrices or kets, when retained


def uniform_step(t_grid: np.ndarray) -> float:
    """Step of a strictly increasing, uniform grid of at least two points."""
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing with >= 2 points")
    step = float(t_grid[1] - t_grid[0])
    if not np.allclose(np.diff(t_grid), step, rtol=1e-9, atol=0):
        raise ValueError("t_grid must be uniform")
    return step


_CHUNK_ROWS = 1024  # rows formatted at a time: bounds the strings held at once


def _cells(a: np.ndarray) -> list:
    """The CSV cells of a non-empty column: numbers as repr(float(x)), anything else as str(x).

    A numeric column is formatted in one call: the repr of a list of floats
    is its elements' reprs joined by ", ", which no float's repr contains.
    """
    if a.dtype.kind in "iuf":
        return repr(np.asarray(a, dtype=float).tolist())[1:-1].split(", ")
    return [
        repr(float(x)) if isinstance(x, (int, float, np.floating)) and not isinstance(x, bool) else str(x)
        for x in a.tolist()
    ]


def write_csv(path, columns: dict) -> None:
    """Plain deterministic CSV of named 1-d columns of one length.

    Numbers are written as floats via repr (shortest round-trip form).
    """
    arrays = [np.asarray(c) for c in columns.values()]
    n = min((len(a) for a in arrays), default=0)
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, n, _CHUNK_ROWS):
            cells = [_cells(a[start : start + _CHUNK_ROWS]) for a in arrays]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))
