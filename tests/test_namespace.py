"""The package namespace against README's "Library entry points" block."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import lrtdrom

README = Path(__file__).resolve().parent.parent / "README.md"


def entry_point_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under 'Library entry points'"
    return match.group(1)


def test_readme_entry_points_import():
    block = entry_point_block()
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    imported = [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "lrtdrom"
        for alias in node.names
    ]
    assert imported
    assert sorted(set(imported) - set(lrtdrom.__all__)) == []


def test_all_resolves_without_duplicates():
    assert len(lrtdrom.__all__) == len(set(lrtdrom.__all__))
    assert [name for name in lrtdrom.__all__ if not hasattr(lrtdrom, name)] == []
