"""The package's public surface: what ``svilab`` exports and the README uses."""

import ast
import pathlib
import re

import svilab

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    for name in svilab.__all__:
        assert hasattr(svilab, name), name


def test_readme_imports_only_exports():
    # a static check: running the README's examples takes ~10 s
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    imported = {
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "svilab"
        for alias in node.names
    }
    assert imported
    assert imported <= set(svilab.__all__), imported - set(svilab.__all__)
