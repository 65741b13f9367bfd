"""The README's library entry points must import from the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_entry_points_import():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library entry points\n", 1)
    assert len(section) == 2, "README has no 'Library entry points' section"
    block = re.search(r"```python\n(.*?)```", section[1], re.S)
    assert block is not None, "no python block under 'Library entry points'"
    exec(compile(block.group(1), f"{README.name}: Library entry points", "exec"), {})
