"""One set-up measurement in a fresh interpreter.

Prints the seconds taken to import the package and build its default
settings (interpreter start-up excluded), and the factor that puts them
on the reference speed scale of speed.py.  run.py runs this several
times with ``PYTHONPATH=src``.
"""

import time

import speed

before = speed.probe()
start = time.perf_counter()
import bodytext  # noqa: E402  (the import is what is being timed)

bodytext.Thresholds()
bodytext.ExtractOptions()
elapsed = time.perf_counter() - start
after = speed.probe()
print(elapsed, speed.REFERENCE_S / ((before + after) / 2))
