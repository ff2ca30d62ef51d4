"""``PYTHONPATH=src python -m benchmarks.e2e run|compare ...`` from the repo root."""

import sys

from benchmarks.e2e.cli import main

sys.exit(main())
