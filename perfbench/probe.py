"""Set-up probe: a fresh interpreter imports mcfifo and builds one workload's
inputs, then prints `ready`. run.py times it from spawn to that line.

Usage: python3 perfbench/probe.py <workload> <seed> <tiny 0|1>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](ROOT, int(sys.argv[2]), sys.argv[3] == "1")
print("ready", flush=True)
