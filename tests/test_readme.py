"""The README's library entry points must import from the package as it is, and its container
section must name the format `save_state` writes."""

import re
from pathlib import Path

from qlif.qstate import FORMAT

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_entry_points_import():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library entry points\n", 1)
    assert len(section) == 2, "README has no 'Library entry points' section"
    block = re.search(r"```python\n(.*?)```", section[1], re.S)
    assert block is not None, "no python block under 'Library entry points'"
    exec(compile(block.group(1), f"{README.name}: Library entry points", "exec"), {})


def test_readme_container_section_names_the_current_format():
    text = README.read_text(encoding="utf-8")
    section = text.split("### State container format\n", 1)
    assert len(section) == 2, "README has no 'State container format' section"
    assert f'`"format": {FORMAT}`' in section[1].split("\n#", 1)[0]
