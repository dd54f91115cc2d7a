"""Print the seconds one fresh interpreter needs before its first trial can start.

    python3 perfbench/setup_probe.py <workload> <seed> <n_trials>

That is the import of phasepos (numpy included) plus the one-off build of
the scenario's assets: pilot grid and the modulated transmit streams.
"""

import sys
import time
from pathlib import Path

from workloads import WORKLOADS, scenario_fields


def main() -> None:
    name, seed, trials = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    from phasepos import harness
    harness._build_assets(harness.ScenarioConfig(**scenario_fields(WORKLOADS[name], seed, trials)))
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
