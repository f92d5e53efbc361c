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


def write_csv(path, columns: dict) -> None:
    """Plain deterministic CSV of named 1-d columns of one length.

    Numbers are written as floats via repr (shortest round-trip form).
    """
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*(np.asarray(c).tolist() for c in columns.values())):
            fh.write(
                ",".join(repr(float(x)) if isinstance(x, (int, float, np.floating)) and not isinstance(x, bool) else str(x) for x in row)
                + "\n"
            )
