import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    # The first python block is the library quick start; it prints ~24.13 m.
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert abs(namespace["d"] - 24.1299) < 0.01
