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


def write_csv(path, header: list, rows) -> None:
    """Plain deterministic CSV: floats via repr (shortest round-trip form)."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(repr(float(x)) if isinstance(x, (int, float, np.floating)) and not isinstance(x, bool) else str(x) for x in row)
                + "\n"
            )
