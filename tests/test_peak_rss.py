"""tools/peak_rss.py's ``run_once``: the wall time and own peak of one CLI process."""

import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@pytest.fixture()
def run_once(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave tools/ untouched
    import peak_rss

    return peak_rss.run_once


def test_reports_wall_time_and_peak(run_once, tmp_path):
    data = tmp_path / "data.csv"
    wall_ms, peak_mb = run_once(SRC, ["gen-data", "--samples", "10", "--out", str(data)],
                                tmp_path / "vmhwm")
    assert data.exists()
    assert wall_ms > 0.0 and peak_mb > 0.0


def test_a_failing_command_names_its_src(run_once, tmp_path):
    with pytest.raises(SystemExit, match=f"^error: {re.escape(str(SRC))}: exited 2: "):
        run_once(SRC, ["no-such-command"], tmp_path / "vmhwm")
