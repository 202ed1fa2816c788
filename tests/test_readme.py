"""Every ``$ braidskein ...`` example in README.md prints what it shows."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from braidskein.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[tuple[str, list[str]]]:
    """(command line, shown output lines) for each ``$`` line of a code block."""
    examples = []
    for block in re.findall(r"^```\n(.*?)^```$", README.read_text(), re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.splitlines()
            examples.append((command, [line for line in shown if line.strip()]))
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, shown):
    command, _, pipe = command.partition(" | ")
    program, *argv = shlex.split(command)
    assert program == "braidskein"
    main(argv)
    printed = capsys.readouterr().out.splitlines()
    if pipe:
        printed = printed[:int(re.fullmatch(r"head -(\d+)", pipe).group(1))]
    assert [line for line in printed if line.strip()] == shown
