"""The package under test is the one on PYTHONPATH, else this checkout's.

    PYTHONPATH=<tree>/src python -m pytest    # tests <tree>'s convexmorph
    python -m pytest                          # tests ./src

src is added to sys.path only when no convexmorph is importable, so an
explicit PYTHONPATH chooses the package.
"""

import importlib.util
import sys
from pathlib import Path

if importlib.util.find_spec("convexmorph") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
