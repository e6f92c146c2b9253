"""The README's library quick start runs, and imports every public name."""

import ast
import contextlib
import io
import re
from pathlib import Path

import niwclust

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
