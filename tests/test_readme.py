"""The command-line examples in README.md print exactly what they show."""

import pathlib
import shlex

import pytest

from gdtau.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    """(argv, expected stdout lines) for every fenced block opening with
    a `$ gdtau ...` line."""
    blocks, current = [], None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            if current is not None:
                blocks.append(current)
            current = None if current is not None else []
        elif current is not None:
            current.append(line)
    return [(shlex.split(b[0])[2:], b[1:])
            for b in blocks if b and b[0].startswith("$ gdtau ")]


EXAMPLES = _examples()


def test_readme_has_four_examples():
    assert len(EXAMPLES) == 4


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example_output(capsys, argv, shown):
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == shown
