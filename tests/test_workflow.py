"""CI's verification gate is the tier-1 command: one workflow step runs pytest,
with options only, so it collects what pyproject's testpaths name, the
benchmark's smoke tests included.  The only other check is one run of the
installed console script; a CLI behaviour is pinned by a tier-1 test.
"""

import re
import shlex
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
# Options that change what the suite reports, never which tests it runs.
REPORT_OPTION = re.compile(r"-q|--durations=\d+|--continue-on-collection-errors")


def workflow_steps() -> list[str]:
    """Each step of the workflow's one job, without its comment lines."""
    steps = WORKFLOW.read_text(encoding="utf-8").split("\n    steps:\n", 1)[1]
    return ["\n".join(line for line in step.splitlines() if not line.lstrip().startswith("#"))
            for step in re.split(r"^\s*- ", steps, flags=re.M)[1:]]


def test_one_step_runs_pytest_with_the_tier1_command(request):
    runs = [step for step in workflow_steps() if "pytest" in step]
    assert len(runs) == 1, runs
    command = shlex.split(re.search(r"^\s*run: (.*)$", runs[0], re.M).group(1))
    assert command[:4] == ["PYTHONPATH=src", "python", "-m", "pytest"]
    assert "--continue-on-collection-errors" in command
    assert all(REPORT_OPTION.fullmatch(option) for option in command[4:]), command
    assert request.config.getini("testpaths") == ["tests", "perfbench"]


def test_one_step_runs_the_console_script_once():
    # Whether the installed entry point runs is all pytest cannot see; a second
    # `phasepos` command would re-check what a tier-1 CLI test already pins.
    calls = [len(re.findall(r"\bphasepos\b", step)) for step in workflow_steps()]
    assert sorted(n for n in calls if n) == [1], calls
