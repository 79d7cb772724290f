"""tools/artifact_digest.py on hand-made directories: its listing, which every
byte-identical claim rests on, and the arguments it refuses.  No specinv command runs."""

import hashlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave tools/ untouched
    import artifact_digest

    return artifact_digest


@pytest.fixture()
def no_commands(tool, monkeypatch):
    """Any attempt to run the commands or start a process fails the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("a command ran")

    monkeypatch.setattr(tool, "run_commands", refuse)
    monkeypatch.setattr(tool.subprocess, "run", refuse)


def test_listing_is_sorted_and_leaves_out_timing(tool, tmp_path):
    files = {
        "b.csv": b"K\r\n1\r\n",
        "a/z.json": b"{}",
        "a/b/c.txt": b"",
        "A.stdout": b"K=1\n",
        "sweep_timing.csv": b"stage\r\n",
        "a/sweep_timing.csv": b"stage\r\n",
        "a/b/sweep_timing.csv": b"stage\r\n",
    }
    for rel, data in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes(data)
    (tmp_path / "empty").mkdir()
    assert tool.digest_listing(tmp_path) == [
        f"{hashlib.sha256(files[rel]).hexdigest()}  {rel}"
        for rel in ["A.stdout", "a/b/c.txt", "a/z.json", "b.csv"]
    ]


def test_main_refuses_an_out_that_is_not_empty(tool, no_commands, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "left.txt").write_text("x")
    with pytest.raises(SystemExit) as exc:
        tool.main(["--src", str(ROOT / "src"), "--out", str(out)])
    assert exc.value.code == 2
    assert f"{out} is not empty" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["left.txt"]


def test_main_refuses_a_src_without_the_package(tool, no_commands, tmp_path, capsys):
    src, out = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    with pytest.raises(SystemExit) as exc:
        tool.main(["--src", str(src), "--out", str(out)])
    assert exc.value.code == 2
    assert f"no specinv package under {src}" in capsys.readouterr().err
    assert not out.exists()
