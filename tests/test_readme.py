"""The README's examples stay true: its Python block runs, every mvequil
command line parses and every attribute it names on a spec or a solution exists."""

import re
import shlex
from pathlib import Path

import pytest

import mvequil as mv
from mvequil.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)
# inline code outside the code blocks; a span may run over a line break
SPANS = re.findall(r"`([^`]+)`", re.sub(r"^```.*?^```", "", README, flags=re.M | re.S))


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


def _attribute_references() -> list[tuple[str, str]]:
    """Each distinct spec.<name>, solution.<name> and MarketSpec.<name> of the inline code."""
    pattern = r"\b(spec|solution|MarketSpec)\.(\w+)"
    return list(dict.fromkeys(ref for span in SPANS for ref in re.findall(pattern, span)))


def test_readme_names_attributes():
    assert _attribute_references()


@pytest.mark.parametrize("owner, name", _attribute_references())
def test_attribute_reference_exists(owner, name):
    # a spec's fields and caches live on the instance, so the class is read through the preset
    spec = mv.get_preset("li-duan-example-2")
    solution = mv.solve_mixed(spec, mv.sample_pure_feedback(1, spec.horizon, spec.num_assets))
    assert hasattr(solution if owner == "solution" else spec, name), f"README names {owner}.{name}"
