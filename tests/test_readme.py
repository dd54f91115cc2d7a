import re
import shlex
from pathlib import Path

from phasepos import cli

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
