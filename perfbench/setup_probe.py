"""Set-up cost of one CLI invocation, measured inside a fresh process.

Usage: python3 perfbench/setup_probe.py SRC_DIR CONFIG_JSON

Prints the wall seconds from interpreter start-up to a loaded and validated
RunConfig: importing the package and its CLI module, then reading the config.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

import stripwave.cli  # noqa: E402,F401
from stripwave.config import RunConfig  # noqa: E402

RunConfig.from_file(sys.argv[2])
print(time.perf_counter() - T0)
