"""Put the checkout's ``src/`` first on ``sys.path`` and insist on it.

The benchmark measures the program in the checkout it sits in.  Run
anywhere else (for instance a directory holding only the benchmark
files), the import fails and the process exits non-zero before printing
any result.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import repro  # noqa: E402

if Path(repro.__file__).resolve().parent.parent != SRC:
    raise SystemExit(f"repro was imported from {repro.__file__}, not from {SRC}")
