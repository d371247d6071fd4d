"""The README's library tour runs against the current public API, and its CLI examples parse."""

import re
import shlex
from pathlib import Path

import pytest

from ncball.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL)
    assert block is not None, "no python block under '## Library tour'"
    exec(compile(block.group(1), "README.md (library tour)", "exec"), {})


def test_cli_block_lines_parse():
    # every example in the CLI block must use flags the parser still has
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```\n(.*?)```", text[text.index("## CLI") :], re.DOTALL)
    lines = [line for line in block.group(1).splitlines() if line.startswith("ncball ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README CLI line does not parse: {line}")
