"""Entry point: ``python benchmarks/e2e/run.py [run|compare] ...`` from the repo root.

Puts the repository root and ``src`` on the import path, so no
``PYTHONPATH`` is needed; see :mod:`benchmarks.e2e.cli` for the options.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
# Replace this script's directory (sys.path[0]) so the package's own module
# names (trace, stats, ...) cannot shadow standard-library modules.
sys.path[0:1] = [str(_ROOT / "src"), str(_ROOT)]

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
