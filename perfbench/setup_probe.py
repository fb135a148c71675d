"""Time one cold set-up in a fresh interpreter and print it in seconds.

Usage: python3 setup_probe.py SRC_DIR [SCENARIO_JSON]

Covers ``import pseudosim`` and, when a scenario is given, ``load_scenario``
plus ``SimulationEngine(...)`` construction: what a user pays before the
first tick runs. Interpreter start-up itself is not included.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pseudosim  # noqa: E402
from pseudosim.engine import SimulationEngine  # noqa: E402

if len(sys.argv) > 2:
    SimulationEngine(pseudosim.load_scenario(sys.argv[2]))
print(repr(time.perf_counter() - t0))
