"""Locate the program's sources in the checkout the benchmark runs from.

The benchmark runs from the root of a source checkout (``src/repro`` next
to this directory).  Importing this module puts that ``src`` first on
``sys.path`` and refuses to go on when it is missing, so the benchmark can
never time some other installed copy of the program.
"""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    sys.stderr.write(
        f"perfbench: no program sources at {SRC}/repro; "
        "run from the root of a source checkout\n"
    )
    raise SystemExit(2)
if sys.path[:1] != [SRC]:
    sys.path.insert(0, SRC)
