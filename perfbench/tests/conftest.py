"""Make the benchmark's ``ledger`` package and the ``repro`` sources importable."""

import sys
from pathlib import Path

_PERFBENCH = Path(__file__).resolve().parents[1]
for path in (_PERFBENCH, _PERFBENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
