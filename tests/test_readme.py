"""The README's library quick start runs and imports every public name,
and its CLI examples parse."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import niwclust
from niwclust.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    text = README.read_text()
    found = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S)
    assert found, "README has no library quick start block"
    return found.group(1)


def test_quick_start_runs_and_covers_the_package_namespace():
    code = quick_start()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "niwclust"
        for alias in node.names
    }
    assert imported == set(niwclust.__all__) - {"__version__"}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert len(out.getvalue().splitlines()) == 3


def test_cli_examples_parse():
    # each example uses only options its command takes
    found = re.search(r"## CLI\n.*?```\n(.*?)```", README.read_text(), re.S)
    assert found, "README has no CLI block"
    examples = [shlex.split(line) for line in found.group(1).splitlines()]
    assert {argv[1] for argv in examples} == {"limits", "projector", "sweep",
                                               "cluster", "replot"}
    for argv in examples:
        assert argv[0] == "niwclust"
        build_parser().parse_args(argv[1:])
