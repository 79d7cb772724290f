"""tools/peak_rss.py's ``run_once``: the wall time, own peak and faults of one CLI process."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TOOL = ROOT / "tools" / "peak_rss.py"


@pytest.fixture()
def run_once(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave tools/ untouched
    import peak_rss

    return peak_rss.run_once


def test_reports_wall_time_and_peak(run_once, tmp_path):
    data = tmp_path / "data.csv"
    wall_ms, peak_mb, faults = run_once(SRC, ["gen-data", "--samples", "10", "--out", str(data)])
    assert data.exists()
    assert wall_ms > 0.0 and peak_mb > 0.0 and faults > 0


def test_a_failing_command_names_its_src(run_once):
    with pytest.raises(SystemExit, match=f"^error: {re.escape(str(SRC))}: exited 2: "):
        run_once(SRC, ["no-such-command"])


def test_the_tool_imports_no_numpy():
    """A vfork child's ``ru_maxrss`` starts at the tool's own high-water mark, which
    numpy alone would lift toward a small command's peak."""
    imported = set()
    for node in ast.walk(ast.parse(TOOL.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert imported and not imported & {"numpy", "specinv"}
