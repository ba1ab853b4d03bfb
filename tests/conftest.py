"""The console script and the external estimator stub run as child Python
processes; they import neuromap from this checkout's ``src``, as the test
process does through pytest's ``pythonpath`` setting."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
