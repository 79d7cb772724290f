"""Property tests for the file loaders: arbitrary bytes, and valid files with one cell replaced.

A loader either returns or raises its own format error, never anything else.
Through ``cli.main`` a file that does not load makes ``predict``, ``train`` and
``report`` exit 3 with exactly one line on stderr, before any output exists.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from specinv import autoencoder, cli, dataset, mdn, nncore, transfer
from specinv.cli import EXIT_IO, main
from specinv.nncore import CheckpointFormatError, DatasetFormatError

NOT_UTF8 = b"0.5, 0.5\n0.5, \xff\n"
OVERSIZED_FIELD = b"1" * 140_000  # over the csv module's 131,072-character field limit
DEEP_JSON = b"[" * 100_000  # nests deeper than the json parser can recurse

# 101 absorbance values need at least 201 bytes, so no draw is a valid spectrum
ANY_BYTES = st.binary(max_size=200)
REPLACEMENT = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "nan", "-inf", "1e999", '"', "\r", "\x00", "9" * 5000, "1" * 140_000]),
)
# a CSV cell, a spectrum value, or a JSON number, string or key
CELL = re.compile(r"[^,\s\[\]{}:]+")

PROPERTY = settings(max_examples=60, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

LOADERS = {
    "spectrum": (cli.read_spectrum_file, DatasetFormatError),
    "dataset": (dataset.load_dataset, DatasetFormatError),
    "sweep_results": (lambda path: nncore.read_csv(path, transfer.SWEEP_RESULTS_COLUMNS),
                      DatasetFormatError),
    "checkpoint": (mdn.load_mdn, CheckpointFormatError),
    "autoencoder": (autoencoder.load_ae, CheckpointFormatError),
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid file per loader; the checkpoints hold small models that take spectra."""
    root = tmp_path_factory.mktemp("valid")
    ds = dataset.generate_dataset(10, seed=1)
    dataset.save_dataset(root / "dataset", ds)
    (root / "spectrum").write_text(", ".join(format(v, ".17g") for v in ds.spectra[0]))
    nncore.write_csv(root / "sweep_results", transfer.SWEEP_RESULTS_COLUMNS,
                     [[1, "tl1", 3, 0.25, 0.5, 0.75], [2, "tl1", 4, 0.125, 0.375, 0.5]])
    model = mdn.build_mdn(101, 3, np.random.default_rng(0), trunk_widths=[101, 4, 3])
    mdn.save_mdn(root / "checkpoint", model)
    rng = np.random.default_rng(1)
    decoder = nncore.init_mlp([3, 4, 101], rng, activations=["silu", "identity"])
    autoencoder.save_ae(root / "autoencoder",
                        autoencoder.AeModel(nncore.init_mlp([101, 4, 3], rng), decoder))
    return root


def loads_or_raises_its_error(loader, path):
    load, error = LOADERS[loader]
    try:
        load(path)
    except error:
        pass


@pytest.mark.parametrize("loader", sorted(LOADERS))
@PROPERTY
@given(data=ANY_BYTES)
@example(data=NOT_UTF8)
@example(data=OVERSIZED_FIELD)
@example(data=DEEP_JSON)
def test_any_bytes(loader, data, tmp_path):
    path = tmp_path / loader
    path.write_bytes(data)
    loads_or_raises_its_error(loader, path)


@pytest.mark.parametrize("loader", sorted(LOADERS))
@PROPERTY
@given(pick=st.integers(min_value=0, max_value=10**6), replacement=REPLACEMENT)
def test_valid_file_with_one_cell_replaced(loader, pick, replacement, valid, tmp_path):
    text = (valid / loader).read_text(encoding="utf-8")
    cells = list(CELL.finditer(text))
    cell = cells[pick % len(cells)]
    path = tmp_path / loader
    path.write_text(text[: cell.start()] + replacement + text[cell.end() :], encoding="utf-8")
    loads_or_raises_its_error(loader, path)


def test_the_valid_files_load(valid):
    for loader, (load, _) in LOADERS.items():
        load(valid / loader)


@pytest.mark.parametrize("command", ["predict --spectrum-file", "predict --checkpoint",
                                     "train --dataset", "report sweep_results.csv"])
@PROPERTY
@given(data=ANY_BYTES)
@example(data=NOT_UTF8)
@example(data=OVERSIZED_FIELD)
@example(data=DEEP_JSON)
def test_cli_exits_3_with_one_line(command, data, valid, tmp_path, capsys):
    name, role = command.split()
    out = tmp_path / "out"
    if name == "report":
        run_dir = tmp_path / "run"
        run_dir.mkdir(exist_ok=True)
        (run_dir / role).write_bytes(data)
        argv = ["report", "--run-dir", run_dir]
    else:
        flags = {"--spectrum-file": valid / "spectrum", "--checkpoint": valid / "checkpoint",
                 "--top": 1} if name == "predict" else {}
        flags[role] = tmp_path / "bad"
        flags[role].write_bytes(data)
        argv = [name, *[a for flag in flags.items() for a in flag]]
    capsys.readouterr()
    code = main([str(a) for a in argv + ["--out", out]])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()
