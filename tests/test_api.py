"""The package's public surface: what ``specinv`` exports, and what README imports from it."""

import ast
import re
from pathlib import Path

import specinv

README = Path(__file__).resolve().parent.parent / "README.md"


def test_exports_resolve_and_cover_the_readme_example():
    """Every name in ``__all__`` is bound, and README's "Library use" block, parsed and
    not run, imports from ``specinv`` only names in ``__all__``."""
    assert [name for name in specinv.__all__ if not hasattr(specinv, name)] == []
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    imported = {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "specinv"
        for alias in node.names
    }
    assert imported  # the block still shows the library in use
    assert sorted(imported - set(specinv.__all__)) == []
