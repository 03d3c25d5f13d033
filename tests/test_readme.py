"""README's "Library use" example runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_use_runs():
    text = README.read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README.name}: Library use", "exec"), {})
