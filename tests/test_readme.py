"""The README's library tour runs against the current public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL)
    assert block is not None, "no python block under '## Library tour'"
    exec(compile(block.group(1), "README.md (library tour)", "exec"), {})
