"""Times the first ``import plap.cli`` of a fresh process, numpy and scipy included.

Run from the repository root; prints the time in reference seconds, paced by
the standard-library bytecode probe (see pace.py):

    python3 perfbench/import_sample.py
"""

import sys
import time
from pathlib import Path

import pace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

pacer = pace.Pacer(pace.bytecode_probe, pace.BYTECODE_REF_S, period=0.01)
pacer.arm()
mark = pacer.mark()
start = time.perf_counter()
import plap.cli  # noqa: E402,F401

end = time.perf_counter()
pacer.disarm()
print(pacer.reference_seconds(start, end, mark))
