"""Tests of the benchmark itself; run with ``python -m pytest perfbench/tests``.

They live outside ``tests/`` so the package's own test run does not collect
them.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent, HERE.parent.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
