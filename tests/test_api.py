"""The package's public surface: what ``specinv`` exports, what README imports from it, and
which of its modules may parse CSV or import scipy."""

import ast
import inspect
import re
from pathlib import Path

import specinv

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(specinv.__file__).resolve().parent


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


def test_only_nncore_imports_csv():
    """``nncore.read_csv`` is the one CSV reader: another module that imports ``csv`` is
    growing a second one."""
    importers = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "csv")
    }
    assert sorted(importers) == ["nncore.py"]


def test_no_module_imports_scipy():
    """The runtime needs numpy alone; scipy is the tests' oracle, not a dependency."""
    importers = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "scipy" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy")
    }
    assert sorted(importers) == []


def test_every_public_parameter_is_set_in_src():
    """A defaulted parameter of an exported function that no call in ``src/`` passes, by
    keyword or by position, is exported API that nothing uses."""
    calls = [
        node
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
    ]

    def is_set(fn, index, param):
        return any(
            getattr(call.func, "id", getattr(call.func, "attr", None)) == fn.__name__
            and (any(kw.arg == param.name for kw in call.keywords)
                 or (param.kind is param.POSITIONAL_OR_KEYWORD and len(call.args) > index))
            for call in calls
        )

    unset = [
        f"{name}.{param.name}"
        for name in specinv.__all__
        if inspect.isfunction(fn := getattr(specinv, name))
        for index, param in enumerate(inspect.signature(fn).parameters.values())
        if param.default is not param.empty and not is_set(fn, index, param)
    ]
    assert unset == []
