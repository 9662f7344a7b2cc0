"""Make the benchmark (``perfbench``) and the program (``src/``)
importable: ``python -m pytest perfbench/tests`` from the repo root."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
