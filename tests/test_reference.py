"""The benchmark's per-trial reference, checked on the first trials of each workload.

``perfbench/reference.json`` holds the errors and IA flags of every default-
seed trial the benchmark runs, and ``perfbench/run.py`` fails a run whose
trial leaves them by more than its ``TOLERANCE_M``.  The golden store,
``golden_trials.jsonl``, pins FR1 trials with 50 or 200 sweeps only; this runs
the first trials of each workload, the FR2 8192-sweep and the FR1 widelane ones
included, against the benchmark's records.  The workloads come from
``perfbench/workloads.py``, which imports neither numpy nor phasepos; nothing
under ``perfbench/`` is written.
"""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from phasepos.harness import ScenarioConfig, run_trial

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FIRST_TRIALS = 3


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _run_constant(name: str):
    """A literal module constant of ``perfbench/run.py``, read without importing it."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name])


WORKLOADS = _load_workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
TOLERANCE_M = _run_constant("TOLERANCE_M")


def test_reference_is_for_the_default_seed():
    assert REFERENCE["seed"] == WORKLOADS.DEFAULT_SEED
    assert sorted(REFERENCE["scenarios"]) == sorted(WORKLOADS.WORKLOADS)
    assert TOLERANCE_M == 1e-9


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_first_trials_match_benchmark_reference(name):
    workload = WORKLOADS.WORKLOADS[name]
    cfg = ScenarioConfig(**WORKLOADS.scenario_fields(workload, WORKLOADS.DEFAULT_SEED,
                                                     FIRST_TRIALS))
    expected = REFERENCE["scenarios"][name]["trials"][:FIRST_TRIALS]
    assert len(expected) == FIRST_TRIALS
    for trial, ref in enumerate(expected):
        result = run_trial(cfg, trial)
        assert set(result.outcomes) == set(cfg.methods) == set(ref["errors"])
        for method, want in ref["errors"].items():
            got, failed = result.outcomes[method].error_m, result.outcomes[method].failure
            if want is None:
                assert got is None, f"trial {trial} {method}: {got!r} m, reference null"
            else:
                assert abs(got - want) <= TOLERANCE_M, \
                    f"trial {trial} {method}: {got!r} m, reference {want!r} m"
            assert (failed is not None) is ref["ia_failure"][method], \
                f"trial {trial} {method}: IA failure {failed}"
