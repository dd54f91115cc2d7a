import argparse
import dataclasses
import re
import shlex
from pathlib import Path

from phasepos import ScenarioConfig, cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    # The first python block is the library quick start; it prints ~24.13 m.
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert abs(namespace["d"] - 24.1299) < 0.01


def test_readme_cli_lines_parse():
    # Every command the README's shell blocks give parses; no trial runs.
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("phasepos ")]
    assert lines
    for line in lines:
        args = cli.build_parser().parse_args(shlex.split(line)[1:])
        assert args.command == "run", line


# The CLI's summary line: trials, failures in total and by reason, then the percentiles.
SUMMARY_LINE = re.compile(
    r"(toa|cp|ccp): trials=\d+ failures=\d+( \(\w+ \d+(, \w+ \d+)*\))?( p(50|67|90|95)=\S+m)*")


def test_readme_summary_lines_match_the_cli_grammar():
    # Every summary line README quotes, in a code span or a block, is one the CLI can print.
    quoted = re.findall(r"(?:^|`)((?:toa|cp|ccp): trials=[^`\n]*)",
                        README.read_text(encoding="utf-8"), re.M)
    assert any("(" in line for line in quoted)     # one quotes its failures by reason
    for line in quoted:
        assert SUMMARY_LINE.fullmatch(line), line


def test_readme_names_every_config_key_and_run_option():
    # Each ScenarioConfig field as a `key`, and each option `phasepos run` defines.
    text = README.read_text(encoding="utf-8")
    run = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction)).choices["run"]
    options = [s for action in run._actions for s in action.option_strings
               if s.startswith("--") and s != "--help"]
    names = [f"`{f.name}`" for f in dataclasses.fields(ScenarioConfig)] + [f"`{o}" for o in options]
    assert options and [name for name in names if name not in text] == []


def test_readme_is_at_most_200_lines():
    # README is the user's document; how the code works lives in the docstrings.
    assert len(README.read_text(encoding="utf-8").splitlines()) <= 200
