import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for p in (ROOT / "src", ROOT / "tests", HERE.parent):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))
