"""Regenerate reference.json: per-trial outputs of every workload at the default seed.

    python3 perfbench/make_reference.py

Runs each workload's scenario at one worker with the trial count of a
full-length untraced run (BENCHMARK.json run_seconds).  Only regenerate it
when a change is meant to alter the simulated numbers, and say so.
"""

import json
import math
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, n_trials, scenario_fields

HERE = Path(__file__).resolve().parent


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from phasepos import harness

    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    scenarios = {}
    for w in WORKLOADS.values():
        cfg = harness.ScenarioConfig(**scenario_fields(w, DEFAULT_SEED, n_trials(w, seconds)))
        scenarios[w.name] = {"trials": [
            {"errors": {m: None if math.isnan(e) else e for m, e in r.distance_error_m.items()},
             "ia_failure": dict(r.ia_failure)}
            for r in harness.run_scenario(cfg, workers=1)]}
        print(f"{w.name}: {len(scenarios[w.name]['trials'])} trials", file=sys.stderr)
    # One trial per line keeps diffs of this file readable.
    lines = [f'{{"seed": {DEFAULT_SEED}, "scenarios": {{']
    for i, (name, trials) in enumerate(scenarios.items()):
        rows = ",\n".join("  " + json.dumps(t, sort_keys=True) for t in trials["trials"])
        lines.append(f'{json.dumps(name)}: {{"trials": [\n{rows}\n]}}' + ("," if i < len(scenarios) - 1 else ""))
    lines.append("}}")
    (HERE / "reference.json").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
