"""The README's examples stay true: its Python block runs and every mvequil command line parses."""

import re
import shlex
from pathlib import Path

import pytest

from mvequil.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)


def _command_lines() -> list[str]:
    """Each distinct mvequil command of the code blocks and inline code, comments dropped."""
    lines = [line for _, body in BLOCKS for line in body.splitlines()]
    lines += re.findall(r"`(mvequil [^`]*)`", README)
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("mvequil ")]
    return list(dict.fromkeys(shlex.join(argv) for argv in commands))


def test_python_block_runs():
    blocks = [body for lang, body in BLOCKS if lang == "python"]
    assert blocks
    for body in blocks:
        exec(compile(body, "README.md", "exec"), {})


@pytest.mark.parametrize("line", _command_lines())
def test_command_line_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])
