"""Makes `namefix` and the shared generators in `tests/gen.py` importable
when the benchmark's own tests run: `python3 -m pytest benchmarks`."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
